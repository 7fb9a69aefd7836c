// Pluggable byte transports between a campaign parent and its workers.
//
// A Transport spawns (or attaches to) workers and hands back one WorkerLink
// per worker: a full-duplex, frame-oriented channel. Transports move bytes
// only — the worker *protocol* (Hello/Lease/ResultBatch/..., see
// runtime/serialize.hpp and campaign/remote_runner.hpp) is layered on top
// by RemoteRunner on the parent side and serve_worker on the worker side,
// so every backend shares one protocol implementation and one conformance
// test suite.
//
// Backends:
//   SubprocessTransport   fork() (inherits the study closure — no wire
//                         identity needed) or fork()+exec() of a worker
//                         command such as `lokimeasure --worker --serve`,
//                         framed over pipes (util/pipe_io.hpp).
//   SshTransport          exec's `ssh <host> <worker command>` per host —
//                         the same frame protocol over an ssh stdio tunnel.
//
// The test suite adds an in-process backend with scripted faults
// (tests/support/fake_transport.hpp); it is not part of the library.
//
// Threading contract: send() and recv() may be called concurrently from
// different threads (RemoteRunner sends leases from its main thread while a
// reader thread blocks in recv), but each direction has a single caller.
// kill() may be called from any thread and must promptly unblock a pending
// recv() with Eof. Links must not outlive their Transport.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/experiment.hpp"

namespace loki::campaign {

struct RecvOutcome {
  enum class Status {
    Frame,    // one whole frame arrived
    Eof,      // the worker closed its stream (exit, crash, kill)
    Timeout,  // no frame within the deadline — the hung-worker signal
  };
  Status status{Status::Eof};
  std::vector<std::uint8_t> frame;  // Status::Frame only
};

/// One worker's duplex frame channel, parent side.
class WorkerLink {
 public:
  virtual ~WorkerLink();

  /// Ship one frame to the worker. Throws std::runtime_error when the
  /// worker is gone (EPIPE et al.).
  virtual void send(const std::vector<std::uint8_t>& frame) = 0;

  /// Wait up to `timeout` for the next frame. Throws codec::DecodeError
  /// when the stream is corrupt (bad length prefix, mid-frame EOF).
  virtual RecvOutcome recv(std::chrono::milliseconds timeout) = 0;

  /// Idempotent hard-stop (SIGKILL or equivalent). A blocked recv() returns
  /// Eof promptly afterwards; buffered-but-undelivered frames may be lost.
  virtual void kill() = 0;

  /// Human-readable identity for error messages ("pid 4242", "host db3").
  virtual std::string describe() const = 0;

  /// True when the worker needs the study inside the Hello frame (exec'd
  /// and remote workers). fork()-based workers inherit it in memory, which
  /// keeps arbitrary closures working without a wire identity.
  virtual bool needs_study_bytes() const { return true; }
};

class Transport {
 public:
  virtual ~Transport();

  virtual std::string name() const = 0;
  virtual int worker_count() const = 0;

  /// Spawn/attach worker `index` (0-based, < worker_count()) for `study`.
  /// fork()-based transports capture the study in the child; the caller
  /// still performs the Hello handshake over the returned link. Throws on
  /// spawn failure (the caller decides whether losing one worker is fatal).
  virtual std::unique_ptr<WorkerLink> connect(
      int index, const runtime::StudyParams& study) = 0;

  /// Re-establish worker `index`'s link after a loss: a fresh spawn of the
  /// same worker slot (new process, new handshake). The default simply
  /// connect()s again — right for subprocess and ssh backends, where the
  /// old process is gone and a respawn IS the reconnect. Throws on failure;
  /// the caller (RemoteRunner's reconnect policy) retries with backoff.
  virtual std::unique_ptr<WorkerLink> reopen(
      int index, const runtime::StudyParams& study) {
    return connect(index, study);
  }
};

/// Worker-side view of the same duplex channel — what serve_worker speaks,
/// so the protocol loop runs identically in an exec'd process (fds), a
/// forked child (fds), and an in-process test worker thread (queues).
class FrameChannel {
 public:
  virtual ~FrameChannel();
  /// Next frame from the parent; std::nullopt once the parent is gone.
  virtual std::optional<std::vector<std::uint8_t>> read() = 0;
  virtual void write(const std::vector<std::uint8_t>& frame) = 0;
};

/// FrameChannel over a pair of file descriptors (not owned).
class FdFrameChannel final : public FrameChannel {
 public:
  FdFrameChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}
  std::optional<std::vector<std::uint8_t>> read() override;
  void write(const std::vector<std::uint8_t>& frame) override;

 private:
  int in_fd_;
  int out_fd_;
};

/// Single-threaded FrameChannel over in-memory queues: preload the
/// parent->worker frames with push(), drive serve_worker inline on the
/// calling thread, then inspect written(). No locking — this is the
/// benchmark/unit-test harness for the worker protocol loop (BM_WorkerLoop
/// measures serve_worker's steady-state floor through it); the test
/// suite's fault-injecting transport has its own threaded channel.
class QueueFrameChannel final : public FrameChannel {
 public:
  /// Enqueue one parent->worker frame; read() consumes them in order and
  /// reports end-of-stream once the queue is drained.
  void push(std::vector<std::uint8_t> frame) {
    inbox_.push_back(std::move(frame));
  }

  std::optional<std::vector<std::uint8_t>> read() override {
    if (inbox_.empty()) return std::nullopt;
    std::vector<std::uint8_t> frame = std::move(inbox_.front());
    inbox_.pop_front();
    return frame;
  }

  void write(const std::vector<std::uint8_t>& frame) override {
    written_.push_back(frame);
  }

  /// Every worker->parent frame, in write order.
  const std::vector<std::vector<std::uint8_t>>& written() const {
    return written_;
  }
  /// Drop both queues (benchmark iterations reuse one channel).
  void reset() {
    inbox_.clear();
    written_.clear();
  }

 private:
  std::deque<std::vector<std::uint8_t>> inbox_;
  std::vector<std::vector<std::uint8_t>> written_;
};

namespace detail {
struct FdRegistry;  // open parent-side fds, closed inside fork()ed children
}  // namespace detail

class SubprocessTransport final : public Transport {
 public:
  /// fork() mode: each worker is a forked child running serve_worker on the
  /// inherited study — arbitrary make_params closures work unchanged.
  explicit SubprocessTransport(int workers);

  /// fork()+exec() mode: each worker runs `argv` (e.g. {"lokimeasure",
  /// "--worker", "--serve"}) with the frame stream on stdin/stdout. The
  /// study crosses inside the Hello frame, so it needs a wire identity.
  SubprocessTransport(int workers, std::vector<std::string> argv);

  std::string name() const override;
  int worker_count() const override { return workers_; }
  std::unique_ptr<WorkerLink> connect(int index,
                                      const runtime::StudyParams& study) override;

 private:
  int workers_;
  std::vector<std::string> argv_;  // empty => fork() mode
  std::shared_ptr<detail::FdRegistry> registry_;
};

/// Parse a hostfile: one host per line, '#' comments and blanks ignored.
/// Throws ConfigError when empty or when a host contains whitespace.
std::vector<std::string> parse_hostfile(const std::string& text,
                                        const std::string& origin);

class SshTransport final : public Transport {
 public:
  /// One worker per hostfile line (list a host twice for two workers).
  /// `ssh_binary` is overridable so tests can substitute a local shim.
  explicit SshTransport(
      std::vector<std::string> hosts,
      std::vector<std::string> remote_command = {"lokimeasure", "--worker",
                                                 "--serve"},
      std::string ssh_binary = "ssh");

  std::string name() const override;
  int worker_count() const override { return static_cast<int>(hosts_.size()); }
  std::unique_ptr<WorkerLink> connect(int index,
                                      const runtime::StudyParams& study) override;

  /// The exec argv for worker `index` — exposed for tests.
  std::vector<std::string> worker_argv(int index) const;

 private:
  std::vector<std::string> hosts_;
  std::vector<std::string> remote_command_;
  std::string ssh_binary_;
  std::shared_ptr<detail::FdRegistry> registry_;
};

}  // namespace loki::campaign
