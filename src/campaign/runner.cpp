#include "campaign/runner.hpp"

#include <deque>
#include <string_view>

#include "campaign/ordered_window.hpp"
#include "campaign/remote_runner.hpp"
#include "campaign/transport.hpp"
#include "campaign/validate.hpp"
#include "runtime/experiment_context.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/text_file.hpp"

namespace loki::campaign {

namespace {

runtime::ExperimentParams checked_params(const runtime::StudyParams& study,
                                         int index) {
  runtime::ExperimentParams params = study.make_params(index);
  validate_experiment_params(params, experiment_context(study, index));
  return params;
}

/// Compile the study-invariant machinery from experiment 0, for runners
/// that share one CompiledStudy across worker contexts. Generators are
/// deterministic per index (the standard campaign contract; build() probes
/// index 0 the same way), so the extra make_params(0) call is safe. A
/// failure here is exactly the failure experiment 0 would have produced —
/// same exception, same empty emitted prefix.
std::shared_ptr<const runtime::CompiledStudy> compile_study_front(
    const runtime::StudyParams& study) {
  return runtime::CompiledStudy::compile(checked_params(study, 0));
}

}  // namespace

Runner::~Runner() = default;

void SerialRunner::run_study(const runtime::StudyParams& study,
                             const EmitFn& emit) {
  // One context for the whole study: experiment 0 compiles the study, every
  // later index reuses the compiled tables and the world's slabs.
  runtime::ExperimentContext context;
  for (int k = 0; k < study.experiments; ++k)
    emit(k, context.run(checked_params(study, k)));
}

ThreadPoolRunner::ThreadPoolRunner(int workers) : workers_(workers) {
  if (workers < 1)
    throw ConfigError("ThreadPoolRunner: workers must be >= 1, got " +
                      std::to_string(workers));
}

std::string ThreadPoolRunner::name() const {
  return "thread-pool(" + std::to_string(workers_) + ")";
}

void ThreadPoolRunner::run_study(const runtime::StudyParams& study,
                                 const EmitFn& emit) {
  const int n = study.experiments;
  if (n <= 0) return;

  // Compile once on the calling thread; every worker context borrows the
  // same immutable CompiledStudy (its tables are shared read-only).
  const std::shared_ptr<const runtime::CompiledStudy> compiled =
      compile_study_front(study);

  // One resettable context per worker thread, alive for the whole study.
  const int spawn = workers_ < n ? workers_ : n;
  std::deque<runtime::ExperimentContext> contexts;
  for (int i = 0; i < spawn; ++i) contexts.emplace_back(compiled);

  // Generators may capture shared state by reference; they are only
  // required to be deterministic per index, so calls are serialized.
  util::Mutex gen_mu;
  // Backpressure: at most `window` experiments past the emit cursor are
  // claimed, so the reorder buffer stays O(workers) even when one early
  // experiment is slow — the streaming-sink memory guarantee survives
  // skewed runtimes. The window also gives the failure semantics: emit
  // stops at the first failing index, after the serial prefix.
  OrderedWindow<runtime::ExperimentResult> window(
      n, spawn, 2 * workers_, WindowConsumer::Waits, [&](int worker, int k) {
        runtime::ExperimentParams params;
        {
          util::MutexLock lock(gen_mu);
          params = study.make_params(k);
        }
        validate_experiment_params(params, experiment_context(study, k));
        return contexts[static_cast<std::size_t>(worker)].run(params);
      });
  for (int k = 0; k < n; ++k) emit(k, window.take(k));
}

std::shared_ptr<Runner> make_runner(int parallelism) {
  if (parallelism <= 1) return std::make_shared<SerialRunner>();
  return std::make_shared<ThreadPoolRunner>(parallelism);
}

std::shared_ptr<Runner> parse_runner_spec(const std::string& spec) {
  const auto bad = [&spec]() -> ConfigError {
    return ConfigError(
        "bad runner spec '" + spec +
        "' (expected serial | threads:N | procs:N | remote:HOSTFILE)");
  };
  const auto workers_of = [&](std::string_view text) {
    int workers = 0;
    for (const char c : text) {
      if (c < '0' || c > '9' || workers > 10'000'000) throw bad();
      workers = workers * 10 + (c - '0');
    }
    if (text.empty() || workers < 1) throw bad();
    return workers;
  };

  if (spec == "serial") return std::make_shared<SerialRunner>();
  const std::string_view view(spec);
  if (view.starts_with("threads:"))
    return std::make_shared<ThreadPoolRunner>(workers_of(view.substr(8)));
  if (view.starts_with("procs:"))
    // Dynamic work-queue sharding over local worker processes; crash-
    // tolerant, byte-identical to serial (campaign/remote_runner.hpp).
    return std::make_shared<RemoteRunner>(
        std::make_shared<SubprocessTransport>(workers_of(view.substr(6))));
  if (view.starts_with("remote:")) {
    const std::string path(view.substr(7));
    if (path.empty()) throw bad();
    return std::make_shared<RemoteRunner>(std::make_shared<SshTransport>(
        parse_hostfile(read_file(path), path)));
  }
  // Bare integer: the historical `[workers]` CLI argument.
  return make_runner(workers_of(view));
}

}  // namespace loki::campaign
