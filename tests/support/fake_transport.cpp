#include "support/fake_transport.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "campaign/remote_runner.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

namespace detail {

namespace {
std::atomic<std::uint64_t> self_detaches{0};
}  // namespace

std::uint64_t fake_worker_self_detaches() { return self_detaches.load(); }

/// Shared state of one in-process fake worker: two frame queues and the
/// scripted fault plan, guarded by one mutex.
struct FakeWorker {
  util::Mutex mu;
  util::CondVar cv;
  std::deque<std::vector<std::uint8_t>> to_worker LOKI_GUARDED_BY(mu);
  std::deque<std::vector<std::uint8_t>> to_parent LOKI_GUARDED_BY(mu);
  bool parent_closed LOKI_GUARDED_BY(mu){false};  // worker reads return EOF
  bool stream_eof LOKI_GUARDED_BY(mu){false};     // parent recv returns Eof
  bool hanging LOKI_GUARDED_BY(mu){false};  // parent recv delivers nothing
  bool worker_done LOKI_GUARDED_BY(mu){false};  // serve_worker returned
  int results_seen LOKI_GUARDED_BY(mu){0};  // result entries delivered so far
  int result_frames_seen LOKI_GUARDED_BY(mu){0};  // result-bearing frames
  int heartbeats_seen LOKI_GUARDED_BY(mu){0};  // heartbeat frames delivered
  FakeFaults faults;  // written before the thread starts, read-only after
  /// Deliberately NOT guarded_by(mu): the thread handle follows a lifecycle
  /// protocol, not a lock — written once at spawn (before any concurrent
  /// access exists) and joined/detached only via stop_and_join.
  std::thread thread;

  /// Close both directions and wait for the worker thread. Safe from any
  /// thread: the serving thread itself detaches instead of self-joining
  /// (it can end up running this when its captured shared_ptr is the last
  /// reference).
  void stop_and_join() LOKI_EXCLUDES(mu) {
    {
      util::MutexLock lock(mu);
      parent_closed = true;
      stream_eof = true;
    }
    cv.notify_all();
    if (!thread.joinable()) return;
    if (thread.get_id() == std::this_thread::get_id()) {
      // Last-resort escape hatch, never the intended path: counted so the
      // join-discipline regression test can assert it stays unused.
      ++self_detaches;
      thread.detach();
    } else {
      thread.join();
    }
  }

  ~FakeWorker() { stop_and_join(); }
};

/// FakeTransport's first-lease barrier (see fake_transport.hpp). A round is the
/// fleet connect()ed for one study; it opens once every member was sent a
/// lease or is gone, or once every index of the study was leased (a fleet
/// larger than the work can never all lease). Opening wakes every member's
/// parent-side recv. Lock order: a FakeWorker's mu before the barrier's;
/// the barrier never takes a worker's mu while holding its own.
class FirstLeaseBarrier {
 public:
  bool open() const { return open_.load(); }

  /// A worker connected for a study. A join that finds the barrier open
  /// starts the next study's round.
  void join(const std::shared_ptr<FakeWorker>& w, int experiments)
      LOKI_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (open_.load()) {
      pending_.clear();
      members_.clear();
      leased_.assign(static_cast<std::size_t>(std::max(experiments, 0)), false);
      unleased_ = leased_.size();
      open_.store(unleased_ == 0);
    }
    if (open_.load()) return;
    pending_.push_back(w.get());
    members_.push_back(w);
  }

  /// `w` was sent `lease`.
  void leased(const FakeWorker* w, const runtime::LeaseFrame& lease)
      LOKI_EXCLUDES(mu_) {
    std::vector<std::shared_ptr<FakeWorker>> wake;
    {
      util::MutexLock lock(mu_);
      if (open_.load()) return;
      std::erase(pending_, w);
      const std::uint32_t step = std::max<std::uint32_t>(lease.step, 1);
      for (std::uint32_t k = lease.lo; k < lease.hi && k < leased_.size();
           k += step)
        if (!leased_[k]) {
          leased_[k] = true;
          --unleased_;
        }
      wake = open_if_done();
    }
    wake_all(wake);
  }

  /// `w` is gone: its link was killed or destroyed.
  void gone(const FakeWorker* w) LOKI_EXCLUDES(mu_) {
    std::vector<std::shared_ptr<FakeWorker>> wake;
    {
      util::MutexLock lock(mu_);
      if (open_.load()) return;
      std::erase(pending_, w);
      wake = open_if_done();
    }
    wake_all(wake);
  }

 private:
  std::vector<std::shared_ptr<FakeWorker>> open_if_done() LOKI_REQUIRES(mu_) {
    if (!pending_.empty() && unleased_ > 0) return {};
    open_.store(true);
    std::vector<std::shared_ptr<FakeWorker>> wake;
    for (const std::weak_ptr<FakeWorker>& m : members_)
      if (std::shared_ptr<FakeWorker> w = m.lock()) wake.push_back(std::move(w));
    members_.clear();
    return wake;
  }

  /// Taking each worker's mu before notifying closes the window between a
  /// recv's open() check and its wait.
  static void wake_all(const std::vector<std::shared_ptr<FakeWorker>>& workers) {
    for (const std::shared_ptr<FakeWorker>& w : workers) {
      { util::MutexLock lock(w->mu); }
      w->cv.notify_all();
    }
  }

  std::atomic<bool> open_{true};
  util::Mutex mu_;
  std::vector<const FakeWorker*> pending_ LOKI_GUARDED_BY(mu_);
  std::vector<std::weak_ptr<FakeWorker>> members_ LOKI_GUARDED_BY(mu_);
  std::vector<bool> leased_ LOKI_GUARDED_BY(mu_);  // per study index
  std::size_t unleased_ LOKI_GUARDED_BY(mu_){0};
};

}  // namespace detail

namespace {

using detail::FakeWorker;

/// Worker-thread side of a FakeWorker's queues — the threaded counterpart
/// of the single-threaded QueueFrameChannel (campaign/transport.hpp).
class WorkerQueueChannel final : public FrameChannel {
 public:
  explicit WorkerQueueChannel(const std::shared_ptr<FakeWorker>& w) : w_(w) {}

  std::optional<std::vector<std::uint8_t>> read() override {
    util::MutexLock lock(w_->mu);
    while (w_->to_worker.empty() && !w_->parent_closed) w_->cv.wait(w_->mu);
    if (w_->to_worker.empty()) return std::nullopt;
    std::vector<std::uint8_t> frame = std::move(w_->to_worker.front());
    w_->to_worker.pop_front();
    return frame;
  }

  void write(const std::vector<std::uint8_t>& frame) override {
    {
      util::MutexLock lock(w_->mu);
      if (w_->parent_closed)
        throw std::runtime_error("fake transport: parent is gone (EPIPE)");
      w_->to_parent.push_back(frame);
    }
    w_->cv.notify_all();
  }

 private:
  std::shared_ptr<FakeWorker> w_;
};

/// Frames the first-lease barrier holds in transit: the ones that return
/// a worker to idle or deliver work.
bool held_at_barrier(const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) return false;
  const auto type = static_cast<runtime::WorkerFrame>(frame[0]);
  return type == runtime::WorkerFrame::ResultBatch ||
         type == runtime::WorkerFrame::LeaseDone;
}

class FakeLink final : public WorkerLink {
 public:
  FakeLink(std::shared_ptr<FakeWorker> w, int index,
           std::shared_ptr<detail::FirstLeaseBarrier> barrier)
      : w_(std::move(w)), index_(index), barrier_(std::move(barrier)) {}

  ~FakeLink() override {
    // Closing the link closes the worker's stdin: it exits at next read.
    {
      util::MutexLock lock(w_->mu);
      w_->parent_closed = true;
    }
    w_->cv.notify_all();
    barrier_->gone(w_.get());
  }

  void send(const std::vector<std::uint8_t>& frame) override {
    {
      util::MutexLock lock(w_->mu);
      if (w_->stream_eof)
        throw std::runtime_error("fake transport: worker " +
                                 std::to_string(index_) + " is gone (EPIPE)");
      w_->to_worker.push_back(frame);
    }
    w_->cv.notify_all();
    if (!frame.empty() &&
        frame[0] == static_cast<std::uint8_t>(runtime::WorkerFrame::Lease))
      barrier_->leased(w_.get(), runtime::decode_lease_frame(frame));
  }

  RecvOutcome recv(std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    util::MutexLock lock(w_->mu);
    for (;;) {
      if (w_->stream_eof) return {RecvOutcome::Status::Eof, {}};
      const detail::FakeFaults& f = w_->faults;
      // Threshold faults fire between deliveries: after `n` results made it
      // to the parent, the stream dies (kill/eof) or goes silent (hang).
      if (!w_->hanging && f.hang_after >= 0 && w_->results_seen >= f.hang_after)
        w_->hanging = true;
      if ((f.kill_after >= 0 && w_->results_seen >= f.kill_after) ||
          (f.eof_after >= 0 && w_->results_seen >= f.eof_after)) {
        w_->stream_eof = true;
        w_->parent_closed = true;  // a dead worker's stdin is gone too
        w_->cv.notify_all();
        return {RecvOutcome::Status::Eof, {}};
      }
      if (!w_->hanging && !w_->to_parent.empty() &&
          (barrier_->open() || !held_at_barrier(w_->to_parent.front()))) {
        std::vector<std::uint8_t> frame = std::move(w_->to_parent.front());
        w_->to_parent.pop_front();
        // Heartbeat scripting: a worker whose heartbeats vanish (or crawl)
        // in transit looks hung to the parent even though it is computing —
        // exactly the liveness-cadence regression the runner tests script.
        const bool is_heartbeat =
            !frame.empty() &&
            frame[0] ==
                static_cast<std::uint8_t>(runtime::WorkerFrame::Heartbeat);
        if (is_heartbeat) {
          const int seen = ++w_->heartbeats_seen;
          if (f.drop_heartbeats_after >= 0 && seen > f.drop_heartbeats_after)
            continue;  // vanished in transit
          if (f.heartbeat_delay.count() > 0) {
            lock.unlock();
            std::this_thread::sleep_for(f.heartbeat_delay);
            lock.lock();
          }
          return {RecvOutcome::Status::Frame, std::move(frame)};
        }
        const bool is_batch =
            !frame.empty() &&
            frame[0] ==
                static_cast<std::uint8_t>(runtime::WorkerFrame::ResultBatch);
        if (!is_batch) return {RecvOutcome::Status::Frame, std::move(frame)};
        // Count entries on the pristine frame (serve_worker produced it) so
        // the *_after_results thresholds keep experiment granularity even
        // when several results share one batch; the Nth-frame faults count
        // batches.
        const int entries =
            static_cast<int>(runtime::result_batch_entry_count(frame));
        const int nth = ++w_->result_frames_seen;
        w_->results_seen += entries;
        if (nth == f.drop_nth) continue;  // vanished in transit
        // Both corruption flavours must be rejects the decoder *guarantees*:
        // an out-of-range status byte (corrupt) and a tail cut mid-payload
        // (truncate). A flipped payload byte deeper in could decode as
        // different-but-valid data.
        if (nth == f.corrupt_nth && frame.size() > 1) frame[1] = 0xff;
        if (nth == f.truncate_nth && frame.size() > 3)
          frame.resize(frame.size() - 3);
        if (nth == f.delay_nth && f.delay.count() > 0) {
          lock.unlock();
          std::this_thread::sleep_for(f.delay);
          lock.lock();
        }
        return {RecvOutcome::Status::Frame, std::move(frame)};
      }
      if (w_->worker_done && w_->to_parent.empty() && !w_->hanging)
        return {RecvOutcome::Status::Eof, {}};
      if (w_->cv.wait_until(w_->mu, deadline) == std::cv_status::timeout)
        return {RecvOutcome::Status::Timeout, {}};
    }
  }

  void kill() override {
    {
      util::MutexLock lock(w_->mu);
      w_->stream_eof = true;
      w_->parent_closed = true;
    }
    w_->cv.notify_all();
    barrier_->gone(w_.get());
  }

  std::string describe() const override {
    return "fake worker " + std::to_string(index_);
  }

 private:
  std::shared_ptr<FakeWorker> w_;
  int index_;
  std::shared_ptr<detail::FirstLeaseBarrier> barrier_;
};

}  // namespace

FakeTransport::FakeTransport(int workers)
    : workers_(workers),
      barrier_(std::make_shared<detail::FirstLeaseBarrier>()),
      faults_(static_cast<std::size_t>(workers)),
      refuse_(static_cast<std::size_t>(workers), 0),
      live_(static_cast<std::size_t>(workers)) {
  if (workers < 1)
    throw ConfigError("FakeTransport: workers must be >= 1, got " +
                      std::to_string(workers));
}

FakeTransport::~FakeTransport() {
  // Join every worker thread from here (the owning thread) so destruction
  // order can never leave a thread to destroy its own FakeWorker.
  for (auto& worker : live_)
    if (worker) worker->stop_and_join();
}

std::string FakeTransport::name() const {
  return "fake:" + std::to_string(workers_);
}

std::unique_ptr<WorkerLink> FakeTransport::connect(
    int index, const runtime::StudyParams& study) {
  std::shared_ptr<FakeWorker> worker = spawn(index);
  barrier_->join(worker, study.experiments);
  return std::make_unique<FakeLink>(std::move(worker), index, barrier_);
}

std::shared_ptr<FakeWorker> FakeTransport::spawn(int index) {
  if (index < 0 || index >= workers_)
    throw ConfigError("FakeTransport: worker index " + std::to_string(index) +
                      " out of range");
  if (auto& old = live_[static_cast<std::size_t>(index)]; old)
    old->stop_and_join();  // a reconnect replaces the previous worker
  auto worker = std::make_shared<FakeWorker>();
  worker->faults = faults_[static_cast<std::size_t>(index)];
  const ServeOptions serve_options{batch_soft_bytes_};
  worker->thread = std::thread([worker, serve_options] {
    WorkerQueueChannel channel(worker);
    try {
      serve_worker(channel, nullptr, serve_options);
    } catch (...) {
      // Killed mid-write or a protocol violation; the parent sees EOF.
    }
    {
      util::MutexLock lock(worker->mu);
      worker->worker_done = true;
    }
    worker->cv.notify_all();
  });
  live_[static_cast<std::size_t>(index)] = worker;
  return worker;
}

std::unique_ptr<WorkerLink> FakeTransport::reopen(
    int index, const runtime::StudyParams&) {
  fault_slot(index);  // range check with the standard message
  if (int& left = refuse_[static_cast<std::size_t>(index)]; left > 0) {
    --left;
    throw std::runtime_error("FakeTransport: worker " + std::to_string(index) +
                             " refused reconnect (scripted)");
  }
  // The scripted fault belonged to the process that died; its replacement
  // spawns fault-free, so a flap test converges instead of re-tripping.
  faults_[static_cast<std::size_t>(index)] = detail::FakeFaults{};
  return std::make_unique<FakeLink>(spawn(index), index, barrier_);
}

void FakeTransport::refuse_reconnects(int worker, int n) {
  fault_slot(worker);  // range check
  refuse_[static_cast<std::size_t>(worker)] = n;
}

detail::FakeFaults& FakeTransport::fault_slot(int worker) {
  if (worker < 0 || worker >= workers_)
    throw ConfigError("FakeTransport: worker index " + std::to_string(worker) +
                      " out of range");
  return faults_[static_cast<std::size_t>(worker)];
}

void FakeTransport::kill_after_results(int worker, int n) {
  fault_slot(worker).kill_after = n;
}
void FakeTransport::eof_after_results(int worker, int n) {
  fault_slot(worker).eof_after = n;
}
void FakeTransport::hang_after_results(int worker, int n) {
  fault_slot(worker).hang_after = n;
}
void FakeTransport::corrupt_batch(int worker, int nth) {
  fault_slot(worker).corrupt_nth = nth;
}
void FakeTransport::truncate_batch(int worker, int nth) {
  fault_slot(worker).truncate_nth = nth;
}
void FakeTransport::drop_batch(int worker, int nth) {
  fault_slot(worker).drop_nth = nth;
}
void FakeTransport::delay_batch(int worker, int nth,
                                std::chrono::milliseconds by) {
  detail::FakeFaults& f = fault_slot(worker);
  f.delay_nth = nth;
  f.delay = by;
}
void FakeTransport::drop_heartbeats_after(int worker, int n) {
  fault_slot(worker).drop_heartbeats_after = n;
}
void FakeTransport::delay_heartbeats(int worker, std::chrono::milliseconds by) {
  fault_slot(worker).heartbeat_delay = by;
}

}  // namespace loki::campaign
