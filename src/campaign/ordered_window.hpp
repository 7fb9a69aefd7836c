// In-order production on helper threads, for one consuming thread.
//
// OrderedWindow<T> produces items 0..n-1 on a few helper threads and hands
// them to one consumer strictly in index order. Two users:
//
//   * ThreadPoolRunner: an item is one experiment run; the consumer is the
//     runner's emit loop.
//   * the cache-first hit path (campaign.cpp): an item is one probe (key,
//     existence check, validation) or one entry read and decoded; the
//     consumer is the thread that books cache side effects and feeds the
//     sinks.
//
// The rules both rely on:
//
//   * take(k) is called for k = 0, 1, 2, ... on one thread. It returns
//     item k, or rethrows the exception producing item k threw. Items are
//     claimed in index order, so every item below the first failing one is
//     still produced: a consumer that stops at the first throwing take()
//     sees exactly the serial prefix, and the lowest failing index is the
//     one reported.
//   * At most `window` items past the consumer are claimed. A helper that
//     finds the window full parks. When half the window has drained, one
//     parked helper is woken to refill it, so a helper wakes once per
//     several items, not once per item; another is woken each time the
//     consumer finds its item not ready. So only as many helpers run as
//     keep ahead of the consumer. Helpers block and never spin.
//   * After a failure no further items are claimed.
//   * WindowConsumer::Helps: while item k is not ready, take(k) produces the
//     lowest unclaimed item of the window on the calling thread instead of
//     sleeping. With zero helpers that is every item in turn — the serial
//     loop, through the same code. WindowConsumer::Waits (ThreadPoolRunner,
//     whose calling thread only emits) sleeps instead and needs a helper.
//   * The destructor stops further claims and joins every helper, whatever
//     the exit path (a throwing consumer, a throwing take).
#pragma once

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

/// Helper threads for the coordinator's own parallel work: the CPUs this
/// process may run on (sched_getaffinity) minus one for the calling thread,
/// capped at kMaxCoordinatorHelpers. 0 on a single CPU.
int coordinator_helpers();
/// Where a further helper stops paying on the cache hit path today. Its
/// read-ahead needs one helper to stay ahead of the sinks, which run on the
/// emitting thread; its probe stage is half generator, which is serialized.
/// On 4 CPUs a second helper bought about 1% more experiments per second
/// for about 2% more CPU per experiment (perfbench cache-warm).
inline constexpr int kMaxCoordinatorHelpers = 1;

/// What OrderedWindow::take() does while its item is not ready (see above).
enum class WindowConsumer { Helps, Waits };

template <typename T>
class OrderedWindow {
 public:
  /// Produces item `index`. `producer` in [0, helpers) names the helper
  /// thread and `helpers` the consumer, for per-producer state.
  using Produce = std::function<T(int producer, int index)>;

  /// Starts min(helpers, n) helper threads. `window` >= 1.
  OrderedWindow(int n, int helpers, int window, WindowConsumer consumer,
                Produce produce)
      : n_(n),
        window_(std::max(window, 1)),
        helps_(consumer == WindowConsumer::Helps),
        produce_(std::move(produce)),
        consumer_id_(std::clamp(helpers, 0, std::max(n, 0))),
        slots_(static_cast<std::size_t>(window_)),
        returned_(static_cast<std::size_t>(consumer_id_)),
        running_(consumer_id_) {
    const int spawn = consumer_id_;
    LOKI_REQUIRE(helps_ || spawn > 0 || n <= 0,
                 "OrderedWindow: a waiting consumer needs a helper");
    threads_.reserve(static_cast<std::size_t>(spawn));
    try {
      for (int h = 0; h < spawn; ++h)
        threads_.emplace_back([this, h] { helper_loop(h); });
    } catch (...) {
      stop_and_join();
      throw;
    }
  }

  ~OrderedWindow() { stop_and_join(); }

  OrderedWindow(const OrderedWindow&) = delete;
  OrderedWindow& operator=(const OrderedWindow&) = delete;

  /// Item `index`, which must be the next one in order; returns it once
  /// produced and rethrows what producing it threw.
  T take(int index) LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    LOKI_REQUIRE(index == consumed_ && index < n_,
                 "OrderedWindow: take out of order");
    Slot& slot = slots_[static_cast<std::size_t>(index % window_)];
    while (!slot.done) {
      // The producers are behind: bring in one more.
      wake_one();
      if (helps_ && claimable()) {
        const int claimed = next_++;
        lock.unlock();
        Slot produced = produce_slot(consumer_id_, claimed);
        lock.lock();
        publish(claimed, std::move(produced));
        continue;
      }
      // Unclaimed after a failure: take() past the first throw is a bug.
      LOKI_REQUIRE(!(failed_ && index >= next_),
                   "OrderedWindow: take past a failed item");
      waiting_for_ = index;
      consumer_cv_.wait(mu_);
    }
    waiting_for_ = -1;
    Slot item = std::move(slot);
    slot = Slot{};
    ++consumed_;
    last_producer_ = item.producer;
    // Half the window just drained with every helper parked: one helper
    // refills it. More join only when the consumer finds an item not ready
    // (above).
    if (running_ == 0 && next_ - consumed_ == window_ / 2) wake_one();
    lock.unlock();
    if (item.error) std::rethrow_exception(item.error);
    return std::move(*item.value);
  }

  /// Hand back the item take() returned last, once the consumer is done
  /// with it, for the helper that produced it to destroy. Memory a helper
  /// allocated then goes back to that helper's allocator cache instead of
  /// being freed across threads, which costs a lock on the helper's arena
  /// per block and a second trip for every cache line. Optional: an item
  /// not handed back is destroyed by the consumer.
  void recycle(T&& spent) LOKI_EXCLUDES(mu_) {
    if (last_producer_ == consumer_id_) return;  // made here; dies here
    util::MutexLock lock(mu_);
    returned_[static_cast<std::size_t>(last_producer_)].push_back(
        std::move(spent));
  }

 private:
  struct Slot {
    std::optional<T> value;
    std::exception_ptr error;
    int producer{0};
    bool done{false};
  };

  void wake_one() LOKI_REQUIRES(mu_) {
    if (running_ < consumer_id_) helpers_cv_.notify_one();
  }

  bool claimable() const LOKI_REQUIRES(mu_) {
    return !stop_ && !failed_ && next_ < n_ && next_ - consumed_ < window_;
  }

  Slot produce_slot(int producer, int index) const {
    Slot produced;
    try {
      produced.value.emplace(produce_(producer, index));
    } catch (...) {
      produced.error = std::current_exception();
    }
    produced.producer = producer;
    produced.done = true;
    return produced;
  }

  /// Store item `index`; true when the consumer is waiting for it.
  bool publish(int index, Slot&& produced) LOKI_REQUIRES(mu_) {
    if (produced.error) failed_ = true;
    slots_[static_cast<std::size_t>(index % window_)] = std::move(produced);
    return waiting_for_ == index;
  }

  void helper_loop(int helper) LOKI_EXCLUDES(mu_) {
    std::vector<T> spent;  // items recycled to this helper
    for (;;) {
      int index;
      {
        util::MutexLock lock(mu_);
        while (!stop_ && !failed_ && next_ < n_ &&
               next_ - consumed_ >= window_) {
          --running_;
          helpers_cv_.wait(mu_);
          ++running_;
        }
        spent.swap(returned_[static_cast<std::size_t>(helper)]);
        if (!claimable()) return;
        index = next_++;
      }
      spent.clear();  // freed on this thread, outside the lock
      Slot produced = produce_slot(helper, index);
      bool wake;
      {
        util::MutexLock lock(mu_);
        wake = publish(index, std::move(produced));
      }
      if (wake) consumer_cv_.notify_one();
    }
  }

  void stop_and_join() LOKI_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      stop_ = true;
    }
    helpers_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  const int n_;
  const int window_;
  const bool helps_;
  const Produce produce_;
  const int consumer_id_;  // == the number of helper threads
  int last_producer_{0};   // of the item take() returned last
  /// Written only by the constructor and stop_and_join, on the consumer's
  /// thread while no helper reads it.
  std::vector<std::thread> threads_;

  util::Mutex mu_;
  util::CondVar consumer_cv_;  // an awaited item is done
  util::CondVar helpers_cv_;   // window space, or stop
  std::vector<Slot> slots_ LOKI_GUARDED_BY(mu_);  // item k in slot k % window
  /// Per helper: recycled items it has yet to destroy.
  std::vector<std::vector<T>> returned_ LOKI_GUARDED_BY(mu_);
  int next_ LOKI_GUARDED_BY(mu_){0};       // next index to claim
  int consumed_ LOKI_GUARDED_BY(mu_){0};   // indices already taken
  int running_ LOKI_GUARDED_BY(mu_);  // helpers not parked
  int waiting_for_ LOKI_GUARDED_BY(mu_){-1};  // index the consumer awaits
  bool failed_ LOKI_GUARDED_BY(mu_){false};
  bool stop_ LOKI_GUARDED_BY(mu_){false};
};

}  // namespace loki::campaign
