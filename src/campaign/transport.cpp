#include "campaign/transport.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/remote_runner.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/pipe_io.hpp"
#include "util/text_file.hpp"
#include "util/thread_annotations.hpp"

namespace loki::campaign {

WorkerLink::~WorkerLink() = default;
Transport::~Transport() = default;
FrameChannel::~FrameChannel() = default;

std::optional<std::vector<std::uint8_t>> FdFrameChannel::read() {
  return util::read_frame(in_fd_);
}

void FdFrameChannel::write(const std::vector<std::uint8_t>& frame) {
  util::write_frame(out_fd_, frame);
}

namespace detail {

/// Every parent-side pipe fd currently open for a transport. A fork()ed
/// child closes all of them (minus its own pair, which is not registered
/// yet at fork time) so a SIGKILLed sibling's EOF is never masked by a
/// write end surviving in another child.
struct FdRegistry {
  util::Mutex mu;
  std::vector<int> fds LOKI_GUARDED_BY(mu);

  void add(int a, int b) LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    fds.push_back(a);
    fds.push_back(b);
  }
  void remove(int a, int b) LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    std::erase(fds, a);
    std::erase(fds, b);
  }
  std::vector<int> snapshot() LOKI_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    return fds;
  }
};

}  // namespace detail

namespace {

/// Writing to a worker that just died must surface as EPIPE (an exception),
/// not a process-killing SIGPIPE. Installed once, by the first pipe-backed
/// transport; a process that runs campaigns over subprocesses cannot
/// usefully keep SIGPIPE's default-terminate behaviour anyway.
void ignore_sigpipe_once() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

[[noreturn]] void throw_errno(const std::string& op) {
  throw std::runtime_error("transport: " + op + ": " + std::strerror(errno));
}

/// Parent side of one spawned worker process.
class PipeLink final : public WorkerLink {
 public:
  PipeLink(pid_t pid, int send_fd, int recv_fd, std::string describe,
           bool needs_study, std::shared_ptr<detail::FdRegistry> registry)
      : pid_(pid),
        send_fd_(send_fd),
        recv_fd_(recv_fd),
        describe_(std::move(describe)),
        needs_study_(needs_study),
        registry_(std::move(registry)) {
    registry_->add(send_fd_, recv_fd_);
  }

  ~PipeLink() override {
    kill();
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
    registry_->remove(send_fd_, recv_fd_);
    ::close(send_fd_);
    ::close(recv_fd_);
  }

  void send(const std::vector<std::uint8_t>& frame) override {
    util::write_frame(send_fd_, frame);
  }

  RecvOutcome recv(std::chrono::milliseconds timeout) override {
    if (!util::wait_readable(recv_fd_, timeout))
      return {RecvOutcome::Status::Timeout, {}};
    // Deadline inside the frame too: a worker frozen mid-write (partial
    // header/payload) must become a DecodeError — which the runner treats
    // as a lost worker — not an unbounded blocking read.
    std::optional<std::vector<std::uint8_t>> frame =
        util::read_frame_deadline(recv_fd_, timeout);
    if (!frame.has_value()) return {RecvOutcome::Status::Eof, {}};
    return {RecvOutcome::Status::Frame, std::move(*frame)};
  }

  /// SIGKILL only — the fds stay open so a reader blocked in recv() is
  /// woken by the resulting EOF rather than racing a close() from another
  /// thread. The destructor reaps and closes.
  void kill() override { ::kill(pid_, SIGKILL); }

  std::string describe() const override { return describe_; }
  bool needs_study_bytes() const override { return needs_study_; }

 private:
  pid_t pid_;
  int send_fd_;
  int recv_fd_;
  std::string describe_;
  bool needs_study_;
  std::shared_ptr<detail::FdRegistry> registry_;
};

struct Pipes {
  int parent_send{-1}, child_recv{-1};  // parent -> child
  int child_send{-1}, parent_recv{-1};  // child -> parent
};

Pipes make_pipes() {
  int down[2], up[2];
  if (::pipe(down) != 0) throw_errno("pipe");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw_errno("pipe");
  }
  return {down[1], down[0], up[1], up[0]};
}

void close_parent_side_in_child(const Pipes& p,
                                const std::vector<int>& sibling_fds) {
  ::close(p.parent_send);
  ::close(p.parent_recv);
  for (const int fd : sibling_fds) ::close(fd);
}

/// fork()+exec() a worker command with the frame stream on stdin/stdout.
std::unique_ptr<WorkerLink> spawn_exec(
    const std::vector<std::string>& argv, const std::string& describe,
    const std::shared_ptr<detail::FdRegistry>& registry) {
  if (argv.empty()) throw ConfigError("transport: empty worker argv");
  ignore_sigpipe_once();
  const Pipes p = make_pipes();
  const std::vector<int> siblings = registry->snapshot();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(p.parent_send);
    ::close(p.parent_recv);
    ::close(p.child_send);
    ::close(p.child_recv);
    errno = err;
    throw_errno("fork");
  }
  if (pid == 0) {
    close_parent_side_in_child(p, siblings);
    if (::dup2(p.child_recv, STDIN_FILENO) < 0 ||
        ::dup2(p.child_send, STDOUT_FILENO) < 0)
      ::_exit(127);
    ::close(p.child_recv);
    ::close(p.child_send);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; the parent sees EOF at handshake time
  }
  ::close(p.child_recv);
  ::close(p.child_send);
  return std::make_unique<PipeLink>(pid, p.parent_send, p.parent_recv,
                                    describe + " pid " + std::to_string(pid),
                                    /*needs_study=*/true, registry);
}

/// fork() a worker that serves the inherited study in-process — no exec,
/// no wire identity requirement.
std::unique_ptr<WorkerLink> spawn_fork(
    const runtime::StudyParams& study, const std::string& describe,
    const std::shared_ptr<detail::FdRegistry>& registry) {
  ignore_sigpipe_once();
  const Pipes p = make_pipes();
  const std::vector<int> siblings = registry->snapshot();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(p.parent_send);
    ::close(p.parent_recv);
    ::close(p.child_send);
    ::close(p.child_recv);
    errno = err;
    throw_errno("fork");
  }
  if (pid == 0) {
    close_parent_side_in_child(p, siblings);
    int exit_code = 0;
    try {
      FdFrameChannel channel(p.child_recv, p.child_send);
      serve_worker(channel, &study);
    } catch (...) {
      exit_code = 1;  // protocol violation or dead parent pipe
    }
    ::close(p.child_recv);
    ::close(p.child_send);
    // _exit, not exit: the child shares the parent's stdio buffers and must
    // not flush them a second time (nor run atexit handlers).
    ::_exit(exit_code);
  }
  ::close(p.child_recv);
  ::close(p.child_send);
  return std::make_unique<PipeLink>(pid, p.parent_send, p.parent_recv,
                                    describe + " pid " + std::to_string(pid),
                                    /*needs_study=*/false, registry);
}

}  // namespace

// --- SubprocessTransport -----------------------------------------------------

SubprocessTransport::SubprocessTransport(int workers)
    : workers_(workers), registry_(std::make_shared<detail::FdRegistry>()) {
  if (workers < 1)
    throw ConfigError("SubprocessTransport: workers must be >= 1, got " +
                      std::to_string(workers));
}

SubprocessTransport::SubprocessTransport(int workers,
                                         std::vector<std::string> argv)
    : SubprocessTransport(workers) {
  if (argv.empty())
    throw ConfigError("SubprocessTransport: exec mode needs a non-empty argv");
  argv_ = std::move(argv);
}

std::string SubprocessTransport::name() const {
  return (argv_.empty() ? "subprocess:" : "subprocess-exec:") +
         std::to_string(workers_);
}

std::unique_ptr<WorkerLink> SubprocessTransport::connect(
    int index, const runtime::StudyParams& study) {
  const std::string describe = "subprocess worker " + std::to_string(index);
  if (argv_.empty()) return spawn_fork(study, describe, registry_);
  return spawn_exec(argv_, describe, registry_);
}

// --- SshTransport ------------------------------------------------------------

std::vector<std::string> parse_hostfile(const std::string& text,
                                        const std::string& origin) {
  std::vector<std::string> hosts;
  for (const TextLine& line : logical_lines(text)) {
    const std::string& host = line.text;
    if (host.find_first_of(" \t") != std::string::npos)
      throw ConfigError(origin + ":" + std::to_string(line.number) +
                        ": a hostfile line holds exactly one host, got '" +
                        host + "'");
    hosts.push_back(host);
  }
  if (hosts.empty())
    throw ConfigError(origin + ": hostfile lists no hosts");
  return hosts;
}

SshTransport::SshTransport(std::vector<std::string> hosts,
                           std::vector<std::string> remote_command,
                           std::string ssh_binary)
    : hosts_(std::move(hosts)),
      remote_command_(std::move(remote_command)),
      ssh_binary_(std::move(ssh_binary)),
      registry_(std::make_shared<detail::FdRegistry>()) {
  if (hosts_.empty()) throw ConfigError("SshTransport: no hosts");
  if (remote_command_.empty())
    throw ConfigError("SshTransport: empty remote command");
}

std::string SshTransport::name() const {
  return "ssh:" + std::to_string(hosts_.size());
}

std::vector<std::string> SshTransport::worker_argv(int index) const {
  std::vector<std::string> argv;
  argv.reserve(remote_command_.size() + 2);
  argv.push_back(ssh_binary_);
  argv.push_back(hosts_.at(static_cast<std::size_t>(index)));
  for (const std::string& word : remote_command_) argv.push_back(word);
  return argv;
}

std::unique_ptr<WorkerLink> SshTransport::connect(
    int index, const runtime::StudyParams&) {
  return spawn_exec(worker_argv(index),
                    "ssh worker " + hosts_.at(static_cast<std::size_t>(index)),
                    registry_);
}

}  // namespace loki::campaign
