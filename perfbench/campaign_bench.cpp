// campaign_bench — one coordinator process of the campaign benchmark.
//
//   campaign_bench --workload W --seed S --seconds T --workdir DIR
//                  [--procs N] [--experiments E] [--trace FILE]
//                  [--populate FILE | --expect FILE] [--corrupt-index K]
//
// The process generates the workload's studies from the seed, then runs
// the whole campaign through the public CampaignBuilder API on `procs:N`,
// again and again until T seconds of campaign wall time have passed. Each
// campaign is timed from its first campaign-layer call (ResultCache open or
// CampaignBuilder::build) to the return of Campaign::run. Work between
// campaigns — deleting and syncing an old cache directory — is untimed.
//
// Before every campaign and once after the last, untimed, the process
// also times a fixed reference pipeline that uses nothing from src/;
// run.py restates the campaign times at the reference's nominal speed.
//
// After the timed window the correctness gate runs, also untimed: a seeded
// sample of indices is recomputed on SerialRunner and every analysis and
// measure value must match the streamed one bit for bit. Every campaign's
// per-index fingerprints must equal the first campaign's, and with
// --expect they must equal those a --populate run wrote. With --trace the
// process also records spans (campaign phases through a wrapping sink,
// plus the layer calls of the sampled indices made in-process) and writes
// them to FILE as JSON lines when it ends.
//
// The last stdout line is one JSON object; run.py pools several of them.
// Exit status: 0 clean, 1 when any index was undelivered or mismatched,
// 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/global_timeline.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/verification.hpp"
#include "apps/election.hpp"
#include "apps/kvstore.hpp"
#include "apps/registry.hpp"
#include "apps/token_ring.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/validate.hpp"
#include "clocksync/projection.hpp"
#include "measure/observation.hpp"
#include "measure/predicate.hpp"
#include "measure/study_measure.hpp"
#include "runtime/serialize.hpp"
#include "spec/fault_spec.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace loki;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + sys CPU seconds of `who` (RUSAGE_SELF or RUSAGE_CHILDREN).
double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// CPU of this process plus the workers it has reaped.
double cpu_seconds() { return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN); }

// --- host speed reference ----------------------------------------------------
//
// The shared host this benchmark was built on changes speed by up to 2x
// within a minute (README.md, "Host noise"). So before every timed
// campaign, and once after the last, the coordinator times a fixed
// reference pipeline shaped like a campaign: `producers` threads make
// items and this thread consumes them, serially. Its work uses nothing from
// src/, so no change to the program changes it. run.py scales each
// campaign's times by the reference times around it (benchlib.py).

/// A fixed amount of work of the kind a campaign does: a fresh table and
/// buffers, heap pushes and pops, scattered table updates, small copies.
/// Returns a value that depends on every step, so none is optimised away.
std::uint64_t reference_work(std::uint64_t x, int steps) {
  constexpr std::size_t kMask = (1U << 15) - 1;  // a 256 KiB table
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::vector<std::uint64_t> table(kMask + 1, 0);
  std::vector<unsigned char> a(4096, 1), b(4096, 0);
  std::uint64_t acc = 0;
  for (int i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x);
    if (heap.size() > 512) {
      acc += heap.top();
      heap.pop();
    }
    table[x & kMask] += acc;
    acc ^= table[(x >> 20) & kMask];
    if ((i & 63) == 0) {
      std::memcpy(b.data(), a.data(), a.size());
      a[x & 4095] ^= b[acc & 4095];
    }
  }
  return acc;
}

struct ReferenceTime {
  double wall_s{0.0};
  double cpu_s{0.0};  // all threads of this process
};

/// Time the reference pipeline once. The producers share 600 items of 2000
/// steps; the consumer wakes for whatever is ready and spends 300 steps on
/// each item, so, like a campaign's coordinator, it is idle part of the time.
ReferenceTime reference_pipeline(int producers) {
  constexpr int kItems = 600;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::uint64_t> ready;
  int next = 0;
  std::uint64_t acc = 0;
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (int k = 0; k < producers; ++k)
    pool.emplace_back([&] {
      for (;;) {
        int item = 0;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (next == kItems) return;
          item = next++;
        }
        const std::uint64_t v = reference_work(static_cast<std::uint64_t>(item) + 1, 2000);
        {
          const std::lock_guard<std::mutex> lock(mu);
          ready.push_back(v);
        }
        cv.notify_one();
      }
    });
  for (int done = 0; done < kItems;) {
    std::vector<std::uint64_t> got;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !ready.empty(); });
      got.swap(ready);
    }
    for (const std::uint64_t v : got) acc += reference_work(v, 300);
    done += static_cast<int>(got.size());
  }
  for (auto& t : pool) t.join();
  ReferenceTime out;
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  if (acc == 0) std::fprintf(stderr, "campaign_bench: reference pipeline summed to 0\n");
  return out;
}

// --- spans -------------------------------------------------------------------

/// In-memory span log: name, start, end, parent span, and the experiment
/// the span belongs to (-1 for campaign-level spans). Written out once, at
/// the end of the process.
class Tracer {
 public:
  struct Span {
    std::uint32_t id{0};
    std::uint32_t parent{0};  // 0 = root
    std::int64_t exp{-1};
    const char* name{""};
    std::int64_t start{0};
    std::int64_t end{0};
  };

  std::uint32_t begin(const char* name, std::int64_t exp) {
    const std::uint32_t id = add(name, exp, now_ns(), 0);
    stack_.push_back(id);
    return id;
  }

  void end(std::uint32_t id) {
    spans_[id - 1].end = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// A span under the innermost open one. One opened without an experiment
  /// id inherits its parent's.
  std::uint32_t add(const char* name, std::int64_t exp, std::int64_t start,
                    std::int64_t end) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.exp = exp < 0 && s.parent != 0 ? spans_[s.parent - 1].exp : exp;
    s.name = name;
    s.start = start;
    s.end = end;
    spans_.push_back(s);
    return s.id;
  }

  void write(const fs::path& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"exp\":%lld,\"name\":\"%s\","
                   "\"start\":%lld,\"end\":%lld}\n",
                   s.id, s.parent, static_cast<long long>(s.exp), s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

Tracer* g_tracer = nullptr;  // set only in a traced process

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(const char* name, std::int64_t exp = -1) {
    if (g_tracer != nullptr) id_ = g_tracer->begin(name, exp);
  }
  ~Scope() {
    if (g_tracer != nullptr && id_ != 0) g_tracer->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t id_{0};
};

// --- workloads ---------------------------------------------------------------

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};

struct Workload {
  std::vector<runtime::StudyParams> studies;
  std::map<std::string, measure::StudyMeasure> measures;
  bool cache{false};
  bool journal{false};
};

/// Fault specs are parsed inside the generator, once per experiment, the
/// way the lokimeasure demo study does it; the span separates spec parsing
/// from the rest of apps.make_params.
spec::FaultSpec parse_spec(const std::string& text) {
  Scope span("spec.parse");
  return spec::parse_fault_spec(text, "bench");
}

void set_fault(runtime::ExperimentParams& p, const std::string& nickname,
               const std::string& text) {
  for (runtime::NodeConfig& node : p.nodes)
    if (node.nickname == nickname) {
      node.fault_spec = parse_spec(text);
      return;
    }
  throw std::logic_error("no node " + nickname);
}

/// The Chapter 5 election with `machine`'s leader fault (bfault1 for
/// black) and up to two restarts.
runtime::StudyParams election_study(const std::string& name,
                                    std::uint64_t base, int experiments,
                                    const std::string& machine,
                                    int restart_delay_ms) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  const std::string fault =
      machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n";
  study.make_params = [=](int k) {
    apps::ElectionParams app;
    app.run_for = milliseconds(700);
    app.fault_activation_prob = 0.85;
    auto p = apps::election_experiment(
        base + static_cast<std::uint64_t>(k), kHosts,
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    set_fault(p, machine, fault);
    for (runtime::NodeConfig& node : p.nodes) {
      if (node.nickname != machine) continue;
      node.restart.enabled = true;
      node.restart.delay = milliseconds(restart_delay_ms);
      node.restart.max_restarts = 2;
    }
    return p;
  };
  return study;
}

/// §5.8 coverage: 1 when the machine crashed and was restarted, 0 when it
/// crashed and stayed down; filtered out when it never crashed.
measure::StudyMeasure coverage_measure(const std::string& machine) {
  measure::StudyMeasure m;
  m.add(measure::subset_default(),
        measure::parse_predicate("(" + machine + ", CRASH)"),
        measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                    measure::TimeArg::end_exp()));
  m.add(measure::subset_greater(0.0),
        measure::parse_predicate("(" + machine + ", RESTART_SM)"),
        measure::obs_greater(
            measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                        measure::TimeArg::end_exp()),
            0.0));
  return m;
}

measure::StudyMeasure duration_measure(const std::string& predicate) {
  measure::StudyMeasure m;
  m.add(measure::subset_default(), measure::parse_predicate(predicate),
        measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                    measure::TimeArg::end_exp()));
  return m;
}

runtime::StudyParams kvstore_study(const std::string& name, std::uint64_t base,
                                   int experiments, int variant) {
  // (target node, fault spec): a backup hit while the primary replicates,
  // or the primary itself mid-write.
  static const std::pair<const char*, const char*> kFaults[] = {
      {"kv2", "f ((kv1:REPLICATING) & (kv2:BACKUP)) once\n"},
      {"kv3", "f ((kv1:REPLICATING) & (kv3:BACKUP)) once\n"},
      {"kv1", "f (kv1:REPLICATING) once\n"},
  };
  const auto& [target, fault] = kFaults[variant % 3];
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [=](int k) {
    apps::KvStoreParams app;
    app.initial_primary = "kv1";
    app.run_for = milliseconds(500);
    auto p = apps::kvstore_experiment(
        base + static_cast<std::uint64_t>(k), kHosts,
        {{"kv1", "hostA"}, {"kv2", "hostB"}, {"kv3", "hostC"}}, app);
    set_fault(p, target, fault);
    return p;
  };
  return study;
}

runtime::StudyParams token_ring_study(const std::string& name,
                                      std::uint64_t base, int experiments,
                                      int variant) {
  static const std::pair<const char*, const char*> kFaults[] = {
      {"n3", "duplicate_token (n1:CRITICAL) once\n"},
      {"n1", "duplicate_token (n2:CRITICAL) once\n"},
      {"n2", "duplicate_token (n3:CRITICAL) once\n"},
  };
  const auto& [target, fault] = kFaults[variant % 3];
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [=](int k) {
    apps::TokenRingParams app;
    app.run_for = milliseconds(400);
    auto p = apps::token_ring_experiment(
        base + static_cast<std::uint64_t>(k), kHosts,
        {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}}, app);
    set_fault(p, target, fault);
    return p;
  };
  return study;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int experiments) {
  Workload w;
  Rng rng(seed);
  const std::uint64_t base =
      1 + static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
  if (name == "bulk-procs" || name == "cache-cold" || name == "cache-warm") {
    w.studies.push_back(
        election_study("ch5-bfault1", base, experiments, "black", 60));
    w.measures["ch5-bfault1"] = coverage_measure("black");
    w.cache = name != "bulk-procs";
    w.journal = name == "cache-cold";
    return w;
  }
  if (name == "many-studies-procs") {
    // Every seed gets the same mix of apps and fault variants (variants
    // cycle from a seeded offset), so seeds differ in experiment seeds and
    // study order, not in how much work the campaign holds.
    static const char* kMachines[] = {"black", "yellow", "green"};
    const int offset = static_cast<int>(rng.uniform_int(0, 2));
    for (int s = 0; s < 100; ++s) {
      Rng srng = rng.split(static_cast<std::uint64_t>(s));
      const int variant = (s / 3 + offset) % 3;
      const std::uint64_t sbase =
          base + 100'000 * static_cast<std::uint64_t>(s + 1);
      const std::string sname = "s" + std::to_string(s);
      switch (s % 3) {
        case 0: {
          const std::string machine = kMachines[variant];
          w.studies.push_back(election_study(
              sname + "-election-" + machine, sbase, experiments, machine,
              static_cast<int>(srng.uniform_int(40, 80))));
          w.measures[w.studies.back().name] = coverage_measure(machine);
          break;
        }
        case 1:
          w.studies.push_back(kvstore_study(sname + "-kvstore-v" +
                                                std::to_string(variant),
                                            sbase, experiments, variant));
          w.measures[w.studies.back().name] =
              duration_measure("(kv1, CRASH) | (kv2, CRASH) | (kv3, CRASH)");
          break;
        default:
          w.studies.push_back(token_ring_study(
              sname + "-token-ring-v" + std::to_string(variant), sbase,
              experiments, variant));
          w.measures[w.studies.back().name] = duration_measure(
              "((n1, CRITICAL) & (n2, CRITICAL)) | "
              "((n2, CRITICAL) & (n3, CRITICAL)) | "
              "((n1, CRITICAL) & (n3, CRITICAL))");
          break;
      }
    }
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- fingerprints ------------------------------------------------------------

/// FNV-1a over the bit patterns of an experiment's analysis and measure
/// values: equal fingerprints mean the values matched exactly.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

std::uint64_t fingerprint(const analysis::ExperimentAnalysis& a,
                          std::optional<double> value) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(a.accepted));
  f.add(a.start_ref);
  f.add(a.end_ref);
  for (const auto& [host, b] : a.alphabeta.bounds) {
    f.add(host);
    f.add(b.alpha_lo);
    f.add(b.alpha_hi);
    f.add(b.beta_lo);
    f.add(b.beta_hi);
    f.add(static_cast<std::uint64_t>(b.valid));
  }
  f.add(static_cast<std::uint64_t>(a.timeline.events.size()));
  for (const analysis::GlobalEvent& e : a.timeline.events) {
    f.add(static_cast<std::uint64_t>(e.kind));
    f.add(static_cast<std::uint64_t>(e.local.ns));
    f.add(e.when.lo);
    f.add(e.when.hi);
  }
  for (const analysis::InjectionVerdict& v : a.verification.verdicts) {
    f.add(static_cast<std::uint64_t>(v.injection_index));
    f.add(static_cast<std::uint64_t>(v.correct));
  }
  f.add(static_cast<std::uint64_t>(a.verification.missed.size()));
  f.add(static_cast<std::uint64_t>(value.has_value()));
  if (value.has_value()) f.add(*value);
  return f.value();
}

// --- the wrapping sink -------------------------------------------------------

/// What the campaigns of one process add up to: counts over every
/// delivered experiment, fleet telemetry gathered at every study end (the
/// runner resets its per-worker slots at each study start), and latencies.
struct Totals {
  std::uint64_t experiments{0};
  std::uint64_t accepted{0};
  std::uint64_t injections{0};
  std::uint64_t missed{0};
  std::uint64_t sync_samples{0};
  std::uint64_t dropped_notifications{0};
  std::uint64_t control_messages{0};
  std::uint64_t app_messages{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t batches{0};
  int final_lease_size{0};
  runtime::LatencyHistogram worker_latency;
  std::vector<double> study_ms;
  std::vector<double> study_first_ms;
};

/// Wraps the MeasureSink the lokimeasure pipeline uses. It times each
/// delivery (busy in the sinks) and the gaps between deliveries (waiting
/// for the runner), fingerprints every analysis, and records study spans.
class BenchSink final : public campaign::ResultSink {
 public:
  BenchSink(const Workload& w, Totals& totals, int corrupt_index)
      : inner_(std::make_shared<campaign::MeasureSink>()),
        totals_(totals),
        corrupt_index_(corrupt_index) {
    for (const auto& [study, m] : w.measures) inner_->measure(study, m);
    inner_->on_analysis([this](const campaign::StudyInfo& study, int,
                               const analysis::ExperimentAnalysis& a) {
      // MeasureSink's own callback ran first: a grown value list means
      // this experiment produced a measure value.
      const std::vector<double>* values = inner_->values(study.name);
      const std::size_t n = values == nullptr ? 0 : values->size();
      std::optional<double> value;
      if (n > values_seen_) value = values->back();
      values_seen_ = n;
      last_fp_ = fingerprint(a, value);
      totals_.accepted += a.accepted ? 1 : 0;
      totals_.injections += a.verification.verdicts.size();
      totals_.missed += a.verification.missed.size();
    });
  }

  void set_runner(std::shared_ptr<campaign::Runner> runner) {
    runner_ = std::move(runner);
  }

  void on_campaign_begin(int studies) override {
    fps_.assign(static_cast<std::size_t>(studies), {});
    inner_->on_campaign_begin(studies);
  }

  void on_study_begin(const campaign::StudyInfo& study) override {
    study_start_ = now_ns();
    last_delivery_end_ = study_start_;
    first_in_study_ = true;
    values_seen_ = 0;
    fps_[static_cast<std::size_t>(study.index)].assign(
        static_cast<std::size_t>(study.experiments), 0);
    delivered_[study.index] = 0;
    inner_->on_study_begin(study);
  }

  void on_experiment(const campaign::StudyInfo& study, int index,
                     const runtime::ExperimentResult& result) override {
    const std::int64_t start = now_ns();
    if (first_delivery_ns_ == 0) first_delivery_ns_ = start;
    if (first_in_study_) {
      totals_.study_first_ms.push_back(
          static_cast<double>(start - study_start_) / 1e6);
      first_in_study_ = false;
    }
    if (g_tracer != nullptr)
      g_tracer->add("campaign.emit_wait", -1, last_delivery_end_, start);
    totals_.experiments += 1;
    totals_.sync_samples += result.sync_samples.size();
    totals_.dropped_notifications += result.dropped_notifications;
    totals_.control_messages += result.control_messages;
    totals_.app_messages += result.app_messages;
    if (study.index == 0 && index == corrupt_index_) {
      // The deliberately corrupted stream the gate must catch: one
      // timeline record moves by a nanosecond.
      runtime::ExperimentResult bad = result;
      for (runtime::LocalTimeline& tl : bad.timelines)
        if (!tl.records.empty()) {
          tl.records.back().time.ns += 1;
          break;
        }
      inner_->on_experiment(study, index, bad);
    } else {
      inner_->on_experiment(study, index, result);
    }
    fps_[static_cast<std::size_t>(study.index)]
        [static_cast<std::size_t>(index)] = last_fp_;
    ++delivered_[study.index];
    const std::int64_t end = now_ns();
    if (g_tracer != nullptr) g_tracer->add("campaign.sink", -1, start, end);
    last_delivery_end_ = end;
  }

  void on_study_done(const campaign::StudyInfo& study) override {
    inner_->on_study_done(study);
    const std::int64_t end = now_ns();
    totals_.study_ms.push_back(static_cast<double>(end - study_start_) / 1e6);
    if (g_tracer != nullptr) g_tracer->add("campaign.study", -1, study_start_, end);
    if (runner_) {
      const campaign::RunnerTelemetry t = runner_->telemetry();
      const runtime::WorkerStatsSnapshot s = t.fleet_snapshot();
      totals_.wire_bytes += s.bytes_encoded;
      totals_.batches += s.batches_flushed;
      totals_.worker_latency.merge(s.histogram);
      totals_.final_lease_size = t.final_lease_size;
    }
  }

  void on_campaign_done() override { inner_->on_campaign_done(); }

  /// Per study, per index: the delivered fingerprint (0 = undelivered).
  const std::vector<std::vector<std::uint64_t>>& fingerprints() const {
    return fps_;
  }
  int delivered(int study) const {
    const auto it = delivered_.find(study);
    return it == delivered_.end() ? 0 : it->second;
  }
  std::int64_t first_delivery_ns() const { return first_delivery_ns_; }

 private:
  std::shared_ptr<campaign::MeasureSink> inner_;
  Totals& totals_;
  std::shared_ptr<campaign::Runner> runner_;
  int corrupt_index_;
  std::size_t values_seen_{0};
  std::uint64_t last_fp_{0};
  std::vector<std::vector<std::uint64_t>> fps_;
  std::map<int, int> delivered_;
  std::int64_t study_start_{0};
  std::int64_t last_delivery_end_{0};
  std::int64_t first_delivery_ns_{0};
  bool first_in_study_{false};
};

// --- one campaign ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{2.0};
  int procs{3};
  int experiments{-1};
  fs::path workdir;
  fs::path trace_out;
  fs::path populate_out;
  fs::path expect_in;
  int corrupt_index{-1};
};

struct CampaignRecord {
  double wall_s{0.0};
  double setup_s{0.0};
  double cpu_s{0.0};
  double build_ms{0.0};
  int planned{0};
  int delivered{0};
  campaign::Campaign::Summary summary;
  campaign::ResultCache::Stats cache;
};

/// Remove a directory tree and sync, so its deletion (and the discards an
/// ext4 `discard` mount issues for it) lands before the next timed window.
void remove_synced(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ::sync();
}

struct RunState {
  std::vector<CampaignRecord> records;
  Totals totals;
  std::vector<std::vector<std::uint64_t>> first_fps;
  std::int64_t mismatched{0};
  std::vector<ReferenceTime> reference;  // one per campaign, plus one after
};

/// One timed campaign. `cache_dir` empty => no cache.
void run_campaign(const Workload& w, const Options& opt,
                  const fs::path& cache_dir, const fs::path& journal_path,
                  RunState& state) {
  auto sink = std::make_shared<BenchSink>(w, state.totals, opt.corrupt_index);
  auto runner = campaign::parse_runner_spec("procs:" + std::to_string(opt.procs));
  sink->set_runner(runner);

  CampaignRecord rec;
  for (const auto& s : w.studies) rec.planned += s.experiments;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  Scope run_span("campaign.run");
  std::shared_ptr<campaign::ResultCache> cache;
  if (!cache_dir.empty()) {
    Scope open_span("campaign.cache.open");
    cache = std::make_shared<campaign::ResultCache>(cache_dir);
  }
  CampaignBuilder builder;
  for (const auto& s : w.studies) builder.add(s);
  builder.runner(runner).sink(sink);
  if (cache) builder.cache(cache);
  if (!journal_path.empty()) builder.journal(journal_path.string(), opt.seed);
  const std::int64_t b0 = now_ns();
  std::optional<Campaign> campaign;
  {
    Scope build_span("campaign.build");
    campaign.emplace(builder.build());
  }
  rec.build_ms = static_cast<double>(now_ns() - b0) / 1e6;
  try {
    rec.summary = campaign->run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: campaign failed: %s\n", e.what());
  }
  const std::int64_t t1 = now_ns();
  rec.cpu_s = cpu_seconds() - cpu0;
  rec.wall_s = static_cast<double>(t1 - t0) / 1e9;
  rec.setup_s = sink->first_delivery_ns() == 0
                    ? rec.wall_s
                    : static_cast<double>(sink->first_delivery_ns() - t0) / 1e9;
  if (cache) rec.cache = cache->stats();
  for (std::size_t s = 0; s < w.studies.size(); ++s)
    rec.delivered += sink->delivered(static_cast<int>(s));

  // Every campaign of the process runs the same studies, so every
  // campaign's stream must equal the first one's, index for index.
  if (state.first_fps.empty()) {
    state.first_fps = sink->fingerprints();
  } else {
    const auto& fps = sink->fingerprints();
    for (std::size_t s = 0; s < fps.size() && s < state.first_fps.size(); ++s)
      for (std::size_t k = 0; k < fps[s].size() && k < state.first_fps[s].size();
           ++k)
        if (fps[s][k] != 0 && fps[s][k] != state.first_fps[s][k])
          ++state.mismatched;
  }
  state.records.push_back(rec);
}

// --- correctness gate --------------------------------------------------------

struct SampleIndex {
  int study{0};
  int index{0};
};

/// A seeded sample of about 24 indices over up to 6 studies (plus the
/// corrupted index, so the gate's own test can rely on it being checked).
std::vector<SampleIndex> pick_sample(const Workload& w, std::uint64_t seed,
                                     int corrupt_index) {
  Rng rng = Rng(seed).split("gate");
  std::set<std::pair<int, int>> picked;
  const int nstudies = static_cast<int>(w.studies.size());
  const int studies = std::min(nstudies, 6);
  for (int i = 0; i < studies; ++i) {
    const int s = nstudies <= 6
                      ? i
                      : static_cast<int>(rng.uniform_int(0, nstudies - 1));
    const int n = w.studies[static_cast<std::size_t>(s)].experiments;
    for (int j = 0; j < 24 / studies; ++j)
      picked.insert({s, static_cast<int>(rng.uniform_int(0, n - 1))});
  }
  if (corrupt_index >= 0 && corrupt_index < w.studies.front().experiments)
    picked.insert({0, corrupt_index});
  std::vector<SampleIndex> out;
  for (const auto& [s, k] : picked) out.push_back({s, k});
  return out;
}

/// Recompute the sampled indices on SerialRunner through the same sink and
/// count the ones whose fingerprint differs from the streamed one.
std::int64_t serial_recheck(const Workload& w,
                            const std::vector<SampleIndex>& sample,
                            const std::vector<std::vector<std::uint64_t>>& fps) {
  std::map<int, std::vector<int>> by_study;
  for (const SampleIndex& s : sample) by_study[s.study].push_back(s.index);
  // The recheck's own deliveries are not campaign phases: no spans.
  Tracer* const tracer = std::exchange(g_tracer, nullptr);
  std::int64_t bad = 0;
  for (const auto& [s, indices] : by_study) {
    const runtime::StudyParams& study = w.studies[static_cast<std::size_t>(s)];
    runtime::StudyParams sub;
    sub.name = study.name;
    sub.experiments = static_cast<int>(indices.size());
    sub.make_params = [&study, idx = indices](int j) {
      return study.make_params(idx[static_cast<std::size_t>(j)]);
    };
    Totals unused;
    auto sink = std::make_shared<BenchSink>(w, unused, -1);
    CampaignBuilder()
        .add(sub)
        .runner(std::make_shared<campaign::SerialRunner>())
        .sink(sink)
        .build()
        .run();
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const std::uint64_t streamed =
          fps.size() > static_cast<std::size_t>(s)
              ? fps[static_cast<std::size_t>(s)]
                   [static_cast<std::size_t>(indices[j])]
              : 0;
      if (sink->fingerprints()[0][j] != streamed) {
        std::fprintf(stderr,
                     "campaign_bench: study %s index %d: streamed fingerprint "
                     "%016llx, serial recompute %016llx\n",
                     study.name.c_str(), indices[j],
                     static_cast<unsigned long long>(streamed),
                     static_cast<unsigned long long>(sink->fingerprints()[0][j]));
        ++bad;
      }
    }
  }
  g_tracer = tracer;
  return bad;
}

void write_fingerprints(const fs::path& path,
                        const std::vector<std::vector<std::uint64_t>>& fps) {
  std::ofstream out(path);
  for (std::size_t s = 0; s < fps.size(); ++s)
    for (std::size_t k = 0; k < fps[s].size(); ++k)
      out << s << ' ' << k << ' ' << fps[s][k] << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Indices whose fingerprint differs from (or is missing in) `path`.
std::int64_t compare_fingerprints(
    const fs::path& path, const std::vector<std::vector<std::uint64_t>>& fps) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::int64_t bad = 0;
  std::int64_t seen = 0;
  std::size_t s = 0;
  std::size_t k = 0;
  std::uint64_t fp = 0;
  while (in >> s >> k >> fp) {
    ++seen;
    if (s >= fps.size() || k >= fps[s].size() || fps[s][k] != fp) ++bad;
  }
  std::int64_t total = 0;
  for (const auto& v : fps) total += static_cast<std::int64_t>(v.size());
  return bad + std::max<std::int64_t>(0, total - seen);
}

// --- traced layer calls ------------------------------------------------------

struct LayerCounts {
  std::uint64_t experiments{0};
  std::uint64_t result_bytes{0};
  std::uint64_t sync_bytes{0};
  std::uint64_t timeline_bytes{0};
  std::uint64_t sim_events{0};
  std::uint64_t sync_samples{0};
  std::uint64_t entry_bytes{0};
  std::uint64_t journal_bytes{0};
  std::int64_t mismatched{0};
};

/// The pipeline one experiment takes, called layer by layer in-process so
/// each public entry point gets its own span. The analysis rebuilt from the
/// parts must match the streamed fingerprint too.
LayerCounts traced_layer_calls(const Workload& w,
                               const std::vector<SampleIndex>& sample,
                               const std::vector<std::vector<std::uint64_t>>& fps,
                               const fs::path& scratch) {
  LayerCounts out;
  remove_synced(scratch);
  fs::create_directories(scratch);
  campaign::ResultCache cache(scratch / "cache");
  campaign::CampaignJournal journal =
      campaign::CampaignJournal::create(scratch / "journal.bin");
  journal.campaign_begin("serial", 0, 1);
  journal.study_begin(0, "trace", "trace", static_cast<std::uint32_t>(sample.size()));
  std::uint32_t ordinal = 0;
  for (const SampleIndex& si : sample) {
    const runtime::StudyParams& study = w.studies[static_cast<std::size_t>(si.study)];
    const std::int64_t exp =
        static_cast<std::int64_t>(si.study) * 1'000'000 + si.index;
    Scope root("experiment", exp);
    runtime::ExperimentParams params;
    {
      Scope span("apps.make_params", exp);
      params = study.make_params(si.index);
    }
    {
      Scope span("campaign.validate", exp);
      campaign::validate_experiment_params(params, "trace");
    }
    std::string key;
    {
      Scope span("runtime.cache_key", exp);
      key = runtime::experiment_cache_key(params);
    }
    {
      Scope span("campaign.cache.contains", exp);
      cache.contains(key);
    }
    runtime::ExperimentResult result;
    {
      Scope span("runtime.run_experiment", exp);
      result = runtime::run_experiment(params);
    }
    std::vector<std::uint8_t> bytes;
    {
      Scope span("runtime.encode", exp);
      bytes = runtime::encode_experiment_result(result);
    }
    runtime::ExperimentResult decoded;
    {
      Scope span("runtime.decode", exp);
      decoded = runtime::decode_experiment_result(bytes);
    }
    analysis::ExperimentAnalysis a;
    const std::string& reference = decoded.hosts.front();
    {
      Scope span("clocksync.alphabeta", exp);
      a.alphabeta = clocksync::compute_alphabeta(decoded.sync_samples,
                                                 decoded.hosts, reference);
    }
    std::vector<const runtime::LocalTimeline*> timelines;
    for (const runtime::LocalTimeline& tl : decoded.timelines)
      timelines.push_back(&tl);
    {
      Scope span("analysis.global_timeline", exp);
      a.timeline = analysis::build_global_timeline(timelines, a.alphabeta);
    }
    {
      Scope span("analysis.verify", exp);
      a.verification = analysis::verify_experiment(timelines, a.alphabeta);
    }
    a.start_ref = static_cast<double>(decoded.start_local_of(reference).ns);
    a.end_ref = static_cast<double>(decoded.end_local_of(reference).ns);
    a.accepted = a.verification.accepted && decoded.completed;
    std::optional<double> value;
    if (a.accepted) {
      Scope span("measure.apply", exp);
      value = w.measures.at(study.name).apply(a);
    }
    if (fingerprint(a, value) !=
        fps[static_cast<std::size_t>(si.study)][static_cast<std::size_t>(si.index)])
      ++out.mismatched;
    {
      Scope span("campaign.cache.store", exp);
      cache.store(key, decoded);
    }
    {
      Scope span("campaign.cache.lookup", exp);
      if (!cache.lookup(key).has_value()) ++out.mismatched;
    }
    {
      Scope span("campaign.journal.index_done", exp);
      journal.index_done(0, ordinal++, key);
    }
    {
      Scope span("campaign.journal.flush", exp);
      journal.flush();
    }

    // Bytes per field group: re-encode copies with one group cleared.
    runtime::ExperimentResult no_sync = decoded;
    no_sync.sync_samples.clear();
    runtime::ExperimentResult no_timelines = decoded;
    no_timelines.timelines.clear();
    no_timelines.user_messages.clear();
    out.experiments += 1;
    out.result_bytes += bytes.size();
    out.sync_bytes += bytes.size() - runtime::encode_experiment_result(no_sync).size();
    out.timeline_bytes +=
        bytes.size() - runtime::encode_experiment_result(no_timelines).size();
    out.sim_events += result.sim_events;
    out.sync_samples += result.sync_samples.size();
    std::error_code ec;
    out.entry_bytes += fs::file_size(scratch / "cache" / (key + ".result"), ec);
  }
  {
    // Re-open the populated scratch cache: the index-load cost of open.
    Scope span("campaign.cache.open");
    campaign::ResultCache reopened(scratch / "cache");
  }
  std::error_code ec;
  out.journal_bytes = fs::file_size(journal.path(), ec);
  return out;
}

// --- main --------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench --workload W --seed S --seconds T "
               "--workdir DIR [--procs N] [--experiments E]\n"
               "                      [--trace FILE] [--populate FILE | "
               "--expect FILE] [--corrupt-index K]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--procs") o.procs = std::stoi(v);
      else if (a == "--experiments") o.experiments = std::stoi(v);
      else if (a == "--workdir") o.workdir = v;
      else if (a == "--trace") o.trace_out = v;
      else if (a == "--populate") o.populate_out = v;
      else if (a == "--expect") o.expect_in = v;
      else if (a == "--corrupt-index") o.corrupt_index = std::stoi(v);
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty() || o.workdir.empty()) usage("--workload and --workdir are required");
  if (o.procs < 1) usage("--procs must be >= 1");
  return o;
}

/// The result line: one flat-ish JSON object on stdout.
class JsonLine {
 public:
  JsonLine() { std::printf("{"); }
  JsonLine& num(const char* key, double v) {
    key_(key);
    std::printf("%.17g", v);
    return *this;
  }
  JsonLine& str(const char* key, const std::string& v) {
    key_(key);
    std::printf("\"%s\"", v.c_str());
    return *this;
  }
  JsonLine& list(const char* key, const std::vector<double>& v) {
    key_(key);
    std::printf("[");
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("%s%.17g", i == 0 ? "" : ",", v[i]);
    std::printf("]");
    return *this;
  }
  JsonLine& open(const char* key) {
    key_(key);
    std::printf("{");
    first_ = true;
    return *this;
  }
  JsonLine& close() {
    std::printf("}");
    return *this;
  }
  void end() { std::printf("}\n"); }

 private:
  void key_(const char* key) {
    std::printf("%s\"%s\":", first_ ? "" : ",", key);
    first_ = false;
  }
  bool first_{true};
};

/// Fault-recovery and cache counters summed over the timed campaigns.
struct RecoveryCounts {
  double requeue_events{0};
  double requeued_indices{0};
  double workers_lost{0};
  double reconnects{0};
  campaign::ResultCache::Stats cache;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  apps::register_builtin_apps();
  const bool many = opt.workload == "many-studies-procs";
  const int experiments =
      opt.experiments > 0
          ? opt.experiments
          : (many ? 12 : (opt.workload == "bulk-procs" ? 2000 : 1000));
  Workload w;
  try {
    w = make_workload(opt.workload, opt.seed, experiments);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  fs::create_directories(opt.workdir);
  Tracer tracer;
  if (!opt.trace_out.empty()) g_tracer = &tracer;

  const fs::path cache_dir = opt.workdir / "cache";
  const fs::path journal_path = w.journal ? opt.workdir / "journal.bin" : fs::path();
  RunState state;
  const bool populate = !opt.populate_out.empty();
  if (populate || !opt.expect_in.empty()) {
    if (!w.cache) usage("--populate/--expect need a cache workload");
  }

  if (populate) {
    // One untimed cold campaign fills the cache that cache-warm replays.
    remove_synced(cache_dir);
    run_campaign(w, opt, cache_dir, journal_path, state);
    write_fingerprints(opt.populate_out, state.first_fps);
  } else {
    double timed = 0.0;
    while (state.records.empty() || timed < opt.seconds) {
      // cache-cold starts every campaign from a fresh directory; the
      // deletion is synced before the clock starts.
      if (w.cache && opt.workload == "cache-cold") remove_synced(cache_dir);
      state.reference.push_back(reference_pipeline(opt.procs));
      run_campaign(w, opt, w.cache ? cache_dir : fs::path(), journal_path, state);
      timed += state.records.back().wall_s;
    }
    state.reference.push_back(reference_pipeline(opt.procs));
  }

  // --- correctness gate (untimed) ---
  std::int64_t planned = 0;
  std::int64_t delivered = 0;
  for (const CampaignRecord& r : state.records) {
    planned += r.planned;
    delivered += r.delivered;
  }
  const std::vector<SampleIndex> sample = pick_sample(w, opt.seed, opt.corrupt_index);
  std::int64_t mismatched = state.mismatched;
  mismatched += serial_recheck(w, sample, state.first_fps);
  if (!opt.expect_in.empty()) mismatched += compare_fingerprints(opt.expect_in, state.first_fps);
  LayerCounts layers;
  if (g_tracer != nullptr) {
    layers = traced_layer_calls(w, sample, state.first_fps, opt.workdir / "trace-scratch");
    mismatched += layers.mismatched;
    tracer.write(opt.trace_out);
  }
  const std::int64_t failed = (planned - delivered) + mismatched;

  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  std::vector<double> wall, setup, cpu, build, ref_wall, ref_cpu;
  for (const ReferenceTime& r : state.reference) {
    ref_wall.push_back(r.wall_s);
    ref_cpu.push_back(r.cpu_s);
  }
  RecoveryCounts sum;
  for (const CampaignRecord& r : state.records) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    cpu.push_back(r.cpu_s);
    build.push_back(r.build_ms);
    sum.requeue_events += r.summary.requeue_events;
    sum.requeued_indices += r.summary.requeued_indices;
    sum.workers_lost += r.summary.workers_lost;
    sum.reconnects += r.summary.reconnects;
    sum.cache.corrupt += r.cache.corrupt;
    sum.cache.evictions += r.cache.evictions;
    sum.cache.hits += r.cache.hits;
    sum.cache.misses += r.cache.misses;
  }
  const Totals& t = state.totals;
  JsonLine out;
  out.str("workload", opt.workload)
      .num("planned", planned)
      .num("delivered", delivered)
      .num("mismatched", mismatched)
      .num("failed", failed)
      .num("maxrss_kb", self.ru_maxrss)
      .list("wall_s", wall)
      .list("setup_s", setup)
      .list("cpu_s", cpu)
      .list("build_ms", build)
      .list("ref_wall_s", ref_wall)
      .list("ref_cpu_s", ref_cpu)
      .list("study_ms", t.study_ms)
      .list("study_first_ms", t.study_first_ms)
      .open("counts")
      .num("experiments", t.experiments)
      .num("accepted", t.accepted)
      .num("injections", t.injections)
      .num("missed", t.missed)
      .num("sync_samples", t.sync_samples)
      .num("dropped_notifications", t.dropped_notifications)
      .num("control_messages", t.control_messages)
      .num("app_messages", t.app_messages)
      .num("wire_bytes", t.wire_bytes)
      .num("batches", t.batches)
      .num("final_lease_size", t.final_lease_size)
      .num("worker_exp_us_p50", t.worker_latency.quantile_us(0.5))
      .num("worker_exp_us_p99", t.worker_latency.quantile_us(0.99))
      .num("requeue_events", sum.requeue_events)
      .num("requeued_indices", sum.requeued_indices)
      .num("workers_lost", sum.workers_lost)
      .num("reconnects", sum.reconnects)
      .num("cache_corrupt", sum.cache.corrupt)
      .num("cache_evictions", sum.cache.evictions)
      .num("cache_hits", sum.cache.hits)
      .num("cache_lookups", sum.cache.hits + sum.cache.misses)
      .close()
      .open("layers")
      .num("experiments", layers.experiments)
      .num("result_bytes", layers.result_bytes)
      .num("sync_bytes", layers.sync_bytes)
      .num("timeline_bytes", layers.timeline_bytes)
      .num("sim_events", layers.sim_events)
      .num("sync_samples", layers.sync_samples)
      .num("entry_bytes", layers.entry_bytes)
      .num("journal_bytes", layers.journal_bytes)
      .close()
      .end();
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
