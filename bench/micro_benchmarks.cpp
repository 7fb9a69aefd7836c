// Micro-benchmarks of the hot runtime and analysis paths (google-benchmark):
// fault-expression evaluation, the fault parser sweep per view change
// (§3.5.5 — the thesis flags it as a future optimization target), recorder
// appends, convex-hull bound computation, predicate evaluation, global
// timeline construction, the per-result clock bounds and cache key, one
// full experiment as a macro-benchmark, and a warm-cache study end to end.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "clocksync/convex_hull.hpp"
#include "clocksync/projection.hpp"
#include "measure/observation.hpp"
#include "measure/worked_example.hpp"
#include "runtime/compiled_fault.hpp"
#include "runtime/dictionary.hpp"
#include "runtime/experiment_context.hpp"
#include "runtime/fault_parser.hpp"
#include "runtime/recorder.hpp"
#include "runtime/experiment.hpp"
#include "runtime/serialize.hpp"

using namespace loki;

namespace {

/// A study dictionary over machines m0..m7 with the election-style states,
/// for the expression/parser micro-benchmarks.
struct SweepStudy {
  std::vector<spec::StateMachineSpec> specs;
  spec::FaultSpec faults;
  runtime::StudyDictionary dict;

  explicit SweepStudy(const std::string& fault_text)
      : specs(make_specs()), faults(spec::parse_fault_spec(fault_text, "bm")),
        dict(build_dict()) {}

  static std::vector<spec::StateMachineSpec> make_specs() {
    std::vector<spec::StateMachineSpec> out;
    const std::vector<std::string> states = {"BEGIN", "LEAD",  "FOLLOW",
                                             "ELECT", "CRASH", "EXIT"};
    for (int i = 0; i < 8; ++i) {
      out.emplace_back("m" + std::to_string(i), states,
                       std::vector<std::string>{"go"}, std::vector<spec::StateDef>{});
    }
    return out;
  }
  runtime::StudyDictionary build_dict() const {
    std::vector<const spec::StateMachineSpec*> sp;
    std::vector<const spec::FaultSpec*> fp;
    static const spec::FaultSpec kNone;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sp.push_back(&specs[i]);
      fp.push_back(i == 0 ? &faults : &kNone);
    }
    return runtime::StudyDictionary::build(sp, fp);
  }
};

void BM_FaultExprEval(benchmark::State& state) {
  // The spec-layer tree walk (shared_ptr tree + string compares per term) —
  // kept as the baseline the compiled program is measured against.
  const auto expr = spec::parse_fault_expr(
      "((m0:CRASH) & ((m1:FOLLOW) | (m1:ELECT))) | ~(m2:LEAD)", "bm", 1);
  std::map<std::string, std::string> view{
      {"m0", "CRASH"}, {"m1", "ELECT"}, {"m2", "FOLLOW"}};
  const spec::StateView sv = [&](const std::string& m) -> const std::string* {
    const auto it = view.find(m);
    return it == view.end() ? nullptr : &it->second;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->eval(sv));
  }
}
BENCHMARK(BM_FaultExprEval);

void BM_CompiledFaultEval(benchmark::State& state) {
  // The same expression as BM_FaultExprEval, compiled to the flat postfix
  // program evaluated on every state notification in the live runtime.
  SweepStudy study(
      "f ((m0:CRASH) & ((m1:FOLLOW) | (m1:ELECT))) | ~(m2:LEAD) once\n");
  const auto prog = runtime::CompiledFaultProgram::compile(
      *study.faults.entries[0].expr, study.dict);
  std::vector<runtime::StateId> view(study.dict.machine_count(),
                                     runtime::kNoState);
  view[study.dict.machine_index("m0")] = study.dict.state_index("CRASH");
  view[study.dict.machine_index("m1")] = study.dict.state_index("ELECT");
  view[study.dict.machine_index("m2")] = study.dict.state_index("FOLLOW");
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.eval(view));
  }
}
BENCHMARK(BM_CompiledFaultEval);

void BM_FaultParserSweep(benchmark::State& state) {
  // N expressions re-evaluated on every view change.
  const int n = static_cast<int>(state.range(0));
  std::string spec_text;
  for (int i = 0; i < n; ++i) {
    spec_text += "f" + std::to_string(i) + " ((m" + std::to_string(i % 8) +
                 ":LEAD) & (m" + std::to_string((i + 1) % 8) + ":FOLLOW)) always\n";
  }
  SweepStudy study(spec_text);
  runtime::FaultParser parser(study.faults.entries, study.dict);
  std::vector<runtime::StateId> view(study.dict.machine_count(),
                                     runtime::kNoState);
  const runtime::StateId lead = study.dict.state_index("LEAD");
  const runtime::StateId follow = study.dict.state_index("FOLLOW");
  for (int i = 0; i < 8; ++i)
    view[study.dict.machine_index("m" + std::to_string(i))] = follow;
  const runtime::MachineId m0 = study.dict.machine_index("m0");
  int flip = 0;
  for (auto _ : state) {
    view[m0] = (++flip % 2) ? lead : follow;
    benchmark::DoNotOptimize(parser.on_view_change(view));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FaultParserSweep)->Arg(4)->Arg(16)->Arg(64);

void BM_RecorderAppend(benchmark::State& state) {
  const auto sm = apps::election_spec("black", {"green", "yellow"});
  const spec::FaultSpec faults =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "bm");
  const auto dict = runtime::StudyDictionary::build({&sm}, {&faults});
  runtime::Recorder rec("black", "hostA", dict);
  const std::uint32_t ev = dict.event_index("black", "LEADER");
  const std::uint32_t st = dict.state_index("LEAD");
  std::int64_t t = 0;
  for (auto _ : state) {
    rec.record_state_change(ev, st, LocalTime{t += 1000});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderAppend);

void BM_ConvexHullBounds(benchmark::State& state) {
  constexpr std::uint32_t kRef = 0, kTgt = 1;  // host-table ids
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  clocksync::SyncData samples;
  double t = 1e9;
  for (int i = 0; i < n; ++i) {
    const double d1 = 20e3 + rng.exponential(100e3);
    samples.push_back({kRef, kTgt, LocalTime{(std::int64_t)t},
                       LocalTime{(std::int64_t)(1e9 + 1.00004 * (t + d1))}});
    t += 2e6;
    const double d2 = 20e3 + rng.exponential(100e3);
    samples.push_back({kTgt, kRef,
                       LocalTime{(std::int64_t)(1e9 + 1.00004 * t)},
                       LocalTime{(std::int64_t)(t + d2)}});
    t += 2e6;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocksync::estimate_bounds(samples, kRef, kTgt));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ConvexHullBounds)->Arg(20)->Arg(100)->Arg(400);

void BM_PredicateEvaluate(benchmark::State& state) {
  const auto timeline = measure::fig42_timeline();
  const auto ctx = measure::fig42_context(timeline);
  const auto pred = measure::fig42_predicate(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->evaluate(ctx));
  }
}
BENCHMARK(BM_PredicateEvaluate);

void BM_ObservationFunctions(benchmark::State& state) {
  const auto timeline = measure::fig42_timeline();
  const auto ctx = measure::fig42_context(timeline);
  const auto pt = measure::fig42_predicate(2)->evaluate(ctx);
  const auto count = measure::obs_count(measure::Edge::Up, measure::Kind::Both,
                                        measure::TimeArg::literal(10),
                                        measure::TimeArg::literal(35));
  for (auto _ : state) {
    benchmark::DoNotOptimize(count(pt, ctx));
  }
}
BENCHMARK(BM_ObservationFunctions);

void BM_FullElectionExperiment(benchmark::State& state) {
  apps::ElectionParams app;
  app.run_for = milliseconds(400);
  std::uint64_t seed = 1;
  std::uint64_t experiments = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto params = apps::election_experiment(
        seed++, {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    params.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "bm");
    const auto result = runtime::run_experiment(params);
    benchmark::DoNotOptimize(&result);
    ++experiments;
    events += result.sim_events;
  }
  state.counters["experiments/sec"] = benchmark::Counter(
      static_cast<double>(experiments), benchmark::Counter::kIsRate);
  state.counters["events/sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullElectionExperiment)->Unit(benchmark::kMillisecond);

void BM_ContextElectionExperiment(benchmark::State& state) {
  // BM_FullElectionExperiment through a reused ExperimentContext: identical
  // per-iteration work (params regenerated, fault spec reparsed, seed
  // varies) except the study compiles once and the world resets in place —
  // the steady-state cost of the compile-once campaign loop.
  apps::ElectionParams app;
  app.run_for = milliseconds(400);
  runtime::ExperimentContext context;
  std::uint64_t seed = 1;
  std::uint64_t experiments = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto params = apps::election_experiment(
        seed++, {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    params.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "bm");
    const auto result = context.run(params);
    benchmark::DoNotOptimize(&result);
    ++experiments;
    events += result.sim_events;
  }
  state.counters["experiments/sec"] = benchmark::Counter(
      static_cast<double>(experiments), benchmark::Counter::kIsRate);
  state.counters["events/sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ContextElectionExperiment)->Unit(benchmark::kMillisecond);

/// The params of one Ch. 5 election experiment on three hosts — what the
/// analysis and cache-key benchmarks below feed on.
runtime::ExperimentParams election_bench_params() {
  apps::ElectionParams app;
  app.run_for = milliseconds(400);
  auto params = apps::election_experiment(
      5, {"hostA", "hostB", "hostC"},
      {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "bm");
  return params;
}

void BM_AnalyzeExperiment(benchmark::State& state) {
  const auto result = runtime::run_experiment(election_bench_params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_experiment(result));
  }
  state.SetLabel("timeline events: " +
                 std::to_string(result.timeline_of("black").records.size()));
}
BENCHMARK(BM_AnalyzeExperiment)->Unit(benchmark::kMicrosecond);

// The clock-bound step of the coordinator's per-result analysis: every
// host's convex-hull bounds against the reference, from one real result's
// sync samples.
void BM_ComputeAlphabeta(benchmark::State& state) {
  const auto result = runtime::run_experiment(election_bench_params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocksync::compute_alphabeta(
        result.sync_samples, result.hosts, result.hosts.front()));
  }
  state.SetLabel(std::to_string(result.sync_samples.size()) + " samples");
}
BENCHMARK(BM_ComputeAlphabeta)->Unit(benchmark::kMicrosecond);

// The content key every cached experiment is looked up by: encode the
// params, SHA-256 the bytes.
void BM_CacheKey(benchmark::State& state) {
  const runtime::ExperimentParams params = election_bench_params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::experiment_cache_key(params));
  }
  state.SetLabel(std::to_string(runtime::encode_experiment_params(params).size()) +
                 " B params");
}
BENCHMARK(BM_CacheKey)->Unit(benchmark::kMicrosecond);

// Campaign orchestration end to end: the same small election study through
// the facade with 1, 2, and 4 workers (byte-identical results; wall clock
// is what varies with the worker count).
void BM_CampaignElection(benchmark::State& state) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  runtime::StudyParams study;
  study.name = "bm";
  study.experiments = 4;
  study.make_params = [app](int k) {
    return apps::election_experiment(
        9000 + static_cast<std::uint64_t>(k), {"hostA", "hostB", "hostC"},
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
  };
  // The shared runner grammar, one backend per benchmark arg.
  static const char* kRunnerSpecs[] = {"serial", "threads:2", "threads:4",
                                       "procs:2", "procs:4"};
  const char* spec = kRunnerSpecs[state.range(0)];
  std::uint64_t experiments = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto counter_sink = std::make_shared<campaign::CallbackSink>();
    counter_sink->experiment([&](const campaign::StudyInfo&, int,
                                 const runtime::ExperimentResult& r) {
      ++experiments;
      events += r.sim_events;  // 0 for process-pool shards (not serialized)
    });
    Campaign campaign = CampaignBuilder()
                            .add(study)
                            .runner(campaign::parse_runner_spec(spec))
                            .sink(counter_sink)
                            .build();
    benchmark::DoNotOptimize(campaign.run().experiments);
  }
  state.SetLabel(spec);
  state.counters["experiments/sec"] = benchmark::Counter(
      static_cast<double>(experiments), benchmark::Counter::kIsRate);
  state.counters["events/sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignElection)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// A warm cache hit path end to end: a 200-experiment election study, every
// index already cached, replayed through the Campaign facade into a
// MeasureSink — probe, read-ahead, decode, analyse, measure.
void BM_CacheWarmStudy(benchmark::State& state) {
  constexpr int kExperiments = 200;
  runtime::StudyParams study;
  study.name = "warm";
  study.experiments = kExperiments;
  study.make_params = [](int k) {
    auto p = election_bench_params();
    p.seed = 9100 + static_cast<std::uint64_t>(k);
    return p;
  };
  measure::StudyMeasure coverage;
  coverage.add(measure::subset_default(),
               measure::parse_predicate("(black, CRASH)"),
               measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                           measure::TimeArg::end_exp()));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("loki-bm-cache-warm-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto cache = std::make_shared<campaign::ResultCache>(dir);
    CampaignBuilder()
        .add(study)
        .runner(campaign::parse_runner_spec("threads:4"))
        .cache(cache)
        .build()
        .run();
  }
  std::uint64_t experiments = 0;
  for (auto _ : state) {
    auto sink = std::make_shared<campaign::MeasureSink>();
    sink->measure("warm", coverage);
    Campaign campaign = CampaignBuilder()
                            .add(study)
                            .cache(std::make_shared<campaign::ResultCache>(dir))
                            .sink(sink)
                            .build();
    const Campaign::Summary summary = campaign.run();
    if (summary.cache_hits != kExperiments)
      state.SkipWithError("cache-warm study was not all hits");
    experiments += static_cast<std::uint64_t>(summary.experiments);
  }
  std::filesystem::remove_all(dir);
  state.counters["experiments/sec"] = benchmark::Counter(
      static_cast<double>(experiments), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheWarmStudy)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
