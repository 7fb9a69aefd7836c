// In-process test double for campaign::Transport, built into the
// loki_test_support library and linked only by the test binaries.
//
// FakeTransport runs each worker as a thread speaking the real worker
// protocol (serve_worker) over in-memory frame queues, with scripted
// faults — kill, hang, EOF, corrupt, truncate, drop, delay, heartbeat loss,
// refused reconnects — so RemoteRunner's crash tolerance is testable
// deterministically without real processes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/transport.hpp"

namespace loki::campaign {

namespace detail {
struct FakeWorker;
class FirstLeaseBarrier;

/// Scripted fault plan for one FakeTransport worker. The *_after thresholds
/// count delivered result *entries* (experiments); the *_nth counters are
/// 1-based over ResultBatch frames as the parent receives them. -1 disables
/// a fault.
struct FakeFaults {
  int kill_after{-1};
  int eof_after{-1};
  int hang_after{-1};
  int corrupt_nth{-1};
  int truncate_nth{-1};
  int drop_nth{-1};
  int delay_nth{-1};
  std::chrono::milliseconds delay{0};
  /// Heartbeat transit faults: after `drop_heartbeats_after` heartbeat
  /// frames were delivered (0 = none ever arrive), later ones vanish;
  /// heartbeat_delay stalls each delivered heartbeat in transit. -1/0
  /// disable. Result batches are unaffected — these script a worker whose
  /// liveness signal (not its work) is lost.
  int drop_heartbeats_after{-1};
  std::chrono::milliseconds heartbeat_delay{0};
};

/// Process-wide count of FakeWorker threads that had to detach because
/// their own teardown ran the join (the thread held the last reference to
/// its own worker). The join discipline — owners join via stop_and_join,
/// a serving thread never destroys its own FakeWorker — keeps this at 0;
/// the regression test in transport_test.cpp pins that down.
std::uint64_t fake_worker_self_detaches();
}  // namespace detail

/// In-process transport for tests: each worker is a thread speaking the
/// worker protocol over in-memory frame queues (including the Hello-framed
/// study, so wire encode/decode is exercised end to end). Faults are
/// scripted per worker before the campaign runs. The *_after_results
/// thresholds count result entries as the parent receives them; the
/// Nth-batch faults count result-bearing frames (1-based). Workers default
/// to one result per batch (batch_soft_bytes = 1), so entry counts and
/// frame counts coincide unless a test raises the batch bound via
/// set_batch_soft_bytes to exercise multi-result batches.
///
/// Deterministic schedule: under dynamic leasing a fast worker could drain
/// a small study before a peer ever handshakes, so "worker w's Nth frame"
/// might never exist. The workers connect()ed for a study therefore pass a
/// first-lease barrier: every worker's ResultBatch and LeaseDone frames
/// wait in transit until each of them has been sent its first lease (or is
/// gone, or every index of the study has been leased). No worker returns
/// to idle before then, so the runner's first round of
/// leases reaches the whole fleet — a scripted victim included — whatever
/// the thread scheduling. Workers respawned by reopen() do not join it.
class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(int workers);
  ~FakeTransport() override;

  std::string name() const override;
  int worker_count() const override { return workers_; }
  std::unique_ptr<WorkerLink> connect(int index,
                                      const runtime::StudyParams& study) override;
  /// Honours the refuse_reconnects script, then respawns the worker with a
  /// CLEAN fault slot: the scripted fault described the process that died,
  /// and its replacement is a fresh one — which is also what keeps flap
  /// tests deterministic (the replacement cannot re-trip the same fault).
  std::unique_ptr<WorkerLink> reopen(int index,
                                     const runtime::StudyParams& study) override;

  /// Worker-side ResultBatch flush bound for subsequently connected
  /// workers. Default 1: every result flushes its own batch.
  void set_batch_soft_bytes(std::size_t bytes) { batch_soft_bytes_ = bytes; }

  /// Script a flapping link: the next `n` reopen() calls for `worker` throw
  /// (connection refused), later ones succeed — "refuse twice, then
  /// accept" exercises the runner's backoff without any real sockets.
  void refuse_reconnects(int worker, int n);

  /// SIGKILL equivalent: after `n` results were delivered, the stream ends
  /// (Eof) and the worker thread is torn down; queued frames are lost.
  void kill_after_results(int worker, int n);
  /// Clean mid-lease close: the stream reports Eof after `n` results while
  /// the worker may still be running.
  void eof_after_results(int worker, int n);
  /// The worker goes silent after `n` results: no frames, no Eof — the
  /// parent must detect it via recv timeouts.
  void hang_after_results(int worker, int n);
  /// The `nth` result-bearing frame (1-based) arrives corrupted: its first
  /// status byte is clobbered to an out-of-range value, which the batch
  /// decoder must reject with a typed error before any entry escapes.
  void corrupt_batch(int worker, int nth);
  /// The `nth` result-bearing frame (1-based) arrives truncated (its tail
  /// cut mid-payload) — a framing-layer short read the decoder must reject.
  void truncate_batch(int worker, int nth);
  /// The `nth` result-bearing frame (1-based) vanishes in transit.
  void drop_batch(int worker, int nth);
  /// The `nth` result-bearing frame (1-based) is delayed by `by`.
  void delay_batch(int worker, int nth, std::chrono::milliseconds by);
  /// Heartbeats past the first `n` vanish in transit (0 = all of them);
  /// result frames still flow. With a large batch bound this makes a busy,
  /// healthy worker look silent — the hung-worker drill.
  void drop_heartbeats_after(int worker, int n);
  /// Every delivered heartbeat is stalled by `by` in transit.
  void delay_heartbeats(int worker, std::chrono::milliseconds by);

 private:
  detail::FakeFaults& fault_slot(int worker);
  std::shared_ptr<detail::FakeWorker> spawn(int index);

  int workers_;
  std::size_t batch_soft_bytes_{1};
  std::shared_ptr<detail::FirstLeaseBarrier> barrier_;
  std::vector<detail::FakeFaults> faults_;
  std::vector<int> refuse_;
  std::vector<std::shared_ptr<detail::FakeWorker>> live_;
};

}  // namespace loki::campaign
