// The result cache and the runner grammar: a warm ResultCache serves a
// repeated study with zero run_experiment calls — through a parallel,
// in-order hit path that must be indistinguishable from a serial loop —
// caches filled by procs:N and by serial serve each other, and
// parse_runner_spec accepts exactly the documented backends. Process-runner
// identity, failure prefixes and the worker frame stream are covered by
// remote_runner_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki {
namespace {

using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

ExperimentParams election_params(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  return apps::election_experiment(seed, kHosts, kPlacement, app);
}

runtime::StudyParams fault_study(const std::string& name, int experiments,
                                 std::uint64_t base_seed = 3000) {
  runtime::StudyParams study;
  study.name = name;
  study.experiments = experiments;
  study.make_params = [base_seed](int k) {
    auto p = election_params(base_seed + static_cast<std::uint64_t>(k));
    p.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
    p.nodes[0].restart.enabled = true;
    p.nodes[0].restart.delay = milliseconds(60);
    return p;
  };
  return study;
}

/// One observed sink event, rendered comparable.
struct Event {
  std::string kind;
  std::string study;
  int index{-1};
  std::vector<std::uint8_t> result_bytes;

  bool operator==(const Event&) const = default;
};

/// A sink that appends every event it sees to `events`, results as
/// encoded bytes.
std::shared_ptr<campaign::CallbackSink> recording_sink(
    std::vector<Event>& events) {
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([&](int n) {
    events.push_back({"campaign_begin", std::to_string(n), -1, {}});
  });
  sink->study_begin([&](const campaign::StudyInfo& info) {
    events.push_back({"study_begin", info.name, -1, {}});
  });
  sink->experiment([&](const campaign::StudyInfo& info, int index,
                       const ExperimentResult& result) {
    events.push_back({"experiment", info.name, index,
                      runtime::encode_experiment_result(result)});
  });
  sink->study_done([&](const campaign::StudyInfo& info) {
    events.push_back({"study_done", info.name, -1, {}});
  });
  sink->campaign_done(
      [&] { events.push_back({"campaign_done", "", -1, {}}); });
  return sink;
}

/// Run `study` through `runner` via the full Campaign, recording the exact
/// sink event sequence.
std::vector<Event> record_events(std::shared_ptr<campaign::Runner> runner,
                                 const runtime::StudyParams& study,
                                 std::shared_ptr<campaign::ResultCache> cache =
                                     nullptr) {
  std::vector<Event> events;
  CampaignBuilder builder;
  builder.add(study).runner(std::move(runner)).sink(recording_sink(events));
  if (cache) builder.cache(std::move(cache));
  builder.build().run();
  return events;
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "loki-" + tag + "-" +
                          std::to_string(::getpid());
  // A previous ctest invocation may have left a warm cache here; these
  // tests assert cold-start stats, so start clean.
  std::filesystem::remove_all(dir);
  return dir;
}

/// A runner that must never be asked to run anything — proof that a warm
/// cache performs zero run_experiment calls.
class ForbiddenRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "forbidden"; }
  int parallelism() const override { return 1; }
  void run_study(const runtime::StudyParams& study,
                 const campaign::EmitFn&) override {
    throw LogicError("ForbiddenRunner invoked for study '" + study.name + "'");
  }
};

// --- the result cache --------------------------------------------------------

TEST(ResultCacheTest, WarmRerunPerformsZeroRuns) {
  const auto study = fault_study("cached", 5, 6000);
  const std::string dir = temp_dir("cache-warm");

  auto cache = std::make_shared<campaign::ResultCache>(dir);
  const auto cold = record_events(std::make_shared<campaign::SerialRunner>(),
                                  study, cache);
  EXPECT_EQ(cache->stats().stores, 5u);
  EXPECT_EQ(cache->stats().hits, 0u);

  // Second, identical study: the runner must never be invoked, and the
  // sink event sequence must be byte-identical to the cold run.
  auto cache2 = std::make_shared<campaign::ResultCache>(dir);
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study, cache2);
  EXPECT_EQ(cache2->stats().hits, 5u);
  EXPECT_EQ(cache2->stats().misses, 0u);
  EXPECT_EQ(cold, warm);
}

TEST(ResultCacheTest, PartialWarmRunsOnlyMissesAndInterleavesInOrder) {
  const std::string dir = temp_dir("cache-partial");

  // Warm indices 0..2 (a prefix study with the same seeds).
  auto cache = std::make_shared<campaign::ResultCache>(dir);
  record_events(std::make_shared<campaign::SerialRunner>(),
                fault_study("grow", 3, 7000), cache);

  // Extend to 7 experiments: 3 hits + 4 fresh, emitted 0..6 in order and
  // byte-identical to an uncached serial run.
  const auto study = fault_study("grow", 7, 7000);
  auto cache2 = std::make_shared<campaign::ResultCache>(dir);
  const auto mixed = record_events(std::make_shared<campaign::SerialRunner>(),
                                   study, cache2);
  EXPECT_EQ(cache2->stats().hits, 3u);
  EXPECT_EQ(cache2->stats().stores, 4u);

  const auto uncached =
      record_events(std::make_shared<campaign::SerialRunner>(), study);
  EXPECT_EQ(mixed, uncached);

  // And a third run is now fully warm.
  auto cache3 = std::make_shared<campaign::ResultCache>(dir);
  const auto warm = record_events(std::make_shared<ForbiddenRunner>(), study,
                                  cache3);
  EXPECT_EQ(cache3->stats().hits, 7u);
  EXPECT_EQ(warm, uncached);
}

TEST(ResultCacheTest, ProcessRunnerMissesFillTheCacheIdentically) {
  const std::string dir_proc = temp_dir("cache-proc");
  const std::string dir_serial = temp_dir("cache-serial");
  const auto study = fault_study("xrunner", 4, 8000);

  auto cache_proc = std::make_shared<campaign::ResultCache>(dir_proc);
  const auto via_procs = record_events(campaign::parse_runner_spec("procs:2"),
                                       study, cache_proc);
  auto cache_serial = std::make_shared<campaign::ResultCache>(dir_serial);
  const auto via_serial = record_events(
      std::make_shared<campaign::SerialRunner>(), study, cache_serial);
  EXPECT_EQ(via_procs, via_serial);

  // Caches warmed by different runners serve each other's studies.
  auto reuse = std::make_shared<campaign::ResultCache>(dir_proc);
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study, reuse);
  EXPECT_EQ(warm, via_serial);
}

TEST(ResultCacheTest, SinkFailureDuringCachedEmitDoesNotDoubleEmit) {
  const std::string dir = temp_dir("cache-sink-throw");

  // Warm indices 0..2, then run 5 experiments with a sink that explodes on
  // cached index 1 (delivered while interleaving ahead of fresh index 3).
  auto warmup = std::make_shared<campaign::ResultCache>(dir);
  record_events(std::make_shared<campaign::SerialRunner>(),
                fault_study("boom", 3, 11'000), warmup);

  const auto study = fault_study("boom", 5, 11'000);
  std::vector<int> emitted;
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&](const campaign::StudyInfo&, int index,
                       const ExperimentResult&) {
    emitted.push_back(index);
    if (index == 1) throw std::runtime_error("sink exploded");
  });
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::make_shared<campaign::SerialRunner>())
      .cache(std::make_shared<campaign::ResultCache>(dir))
      .sink(sink);
  Campaign campaign = builder.build();
  EXPECT_THROW(campaign.run(), std::runtime_error);
  // Exactly-once even on failure: index 1 was attempted once and is never
  // re-delivered (with a moved-from result) by the failure-prefix flush.
  EXPECT_EQ(emitted, (std::vector<int>{0, 1}));
}

TEST(ResultCacheTest, CorruptEntryIsAMissNotAnError) {
  const std::string dir = temp_dir("cache-corrupt");
  campaign::ResultCache cache(dir);
  const auto params = fault_study("c", 1, 9000).make_params(0);
  const std::string key = runtime::experiment_cache_key(params);

  cache.store(key, ExperimentResult{});
  ASSERT_TRUE(cache.lookup(key).has_value());

  // Truncate the stored file; the next lookup must degrade to a miss.
  {
    std::FILE* f = std::fopen((dir + "/" + key + ".result").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("LOKI", f);  // valid magic, nothing else
    std::fclose(f);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_THROW(cache.lookup("not-a-key"), ConfigError);
}

TEST(CacheSinkTest, WarmsACacheFromAPlainCampaign) {
  const std::string dir = temp_dir("cache-sink");
  const auto study = fault_study("sinky", 3, 10'000);

  auto cache = std::make_shared<campaign::ResultCache>(dir);
  auto sink = std::make_shared<campaign::CacheSink>(cache);
  sink->study(study);
  CampaignBuilder builder;
  builder.add(study).sink(sink);
  builder.build().run();
  EXPECT_EQ(cache->stats().stores, 3u);

  // The warmed cache then serves the same study without any runs.
  auto reuse = std::make_shared<campaign::ResultCache>(dir);
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study, reuse);
  EXPECT_EQ(reuse->stats().hits, 3u);
  const auto uncached =
      record_events(std::make_shared<campaign::SerialRunner>(), study);
  EXPECT_EQ(warm, uncached);
}

// --- the parallel hit path ---------------------------------------------------
//
// A warm study is probed and read ahead on helper threads and emitted in
// index order (campaign.cpp, run_study_cache_first). These tests hold it to
// the serial loop's observable behaviour on a study far larger than any
// window: the sink stream, the error points, the cache statistics, the
// generation order and the journal replay.

constexpr int kPipeExperiments = 300;

/// Index order 0..n-1.
std::vector<int> iota_to(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) v[static_cast<std::size_t>(k)] = k;
  return v;
}

/// Threads of this process, from /proc/self/task.
int threads_in_process() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Threads of this process once every thread that has been joined is also
/// gone from /proc: a joined thread's task entry can outlive the join by a
/// moment, so wait (up to 10 s) for the count to fall to `want`.
int threads_settled_to(int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int n = threads_in_process();
  while (n > want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = threads_in_process();
  }
  return n;
}

/// A sink that records each experiment index it is handed and throws at
/// `throw_at` (never, when negative).
std::shared_ptr<campaign::CallbackSink> index_sink(std::vector<int>& emitted,
                                                   int throw_at = -1) {
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->experiment([&emitted, throw_at](const campaign::StudyInfo&, int index,
                                        const ExperimentResult&) {
    emitted.push_back(index);
    if (index == throw_at) throw std::runtime_error("sink exploded");
  });
  return sink;
}

/// One cold serial campaign fills a cache for the whole suite; each test
/// works on its own copy of that directory.
class CachePipeline : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = fault_study("pipe", kPipeExperiments, 20'000);
    warm_dir_ = temp_dir("pipe-warm");
    auto cache = std::make_shared<campaign::ResultCache>(warm_dir_);
    cold_ = record_events(std::make_shared<campaign::SerialRunner>(), study_,
                          cache);
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(warm_dir_); }

  static std::string copy_of_warm(const std::string& tag) {
    const std::string dir = temp_dir(tag);
    std::filesystem::copy(warm_dir_, dir,
                          std::filesystem::copy_options::recursive);
    return dir;
  }

  static std::string key_of(int k) {
    return runtime::experiment_cache_key(study_.make_params(k));
  }

  static inline runtime::StudyParams study_;
  static inline std::string warm_dir_;
  static inline std::vector<Event> cold_;
};

TEST_F(CachePipeline, WarmStudyLargerThanTheWindowMatchesColdSerial) {
  auto cache =
      std::make_shared<campaign::ResultCache>(copy_of_warm("pipe-identity"));
  const auto warm =
      record_events(std::make_shared<ForbiddenRunner>(), study_, cache);
  EXPECT_EQ(warm, cold_);
  const campaign::ResultCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kPipeExperiments));
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST_F(CachePipeline, ConfigErrorOnCachedIndicesNamesTheLowestAndEmitsNothing) {
  const std::string dir = copy_of_warm("pipe-config");
  const std::vector<int> bad = {250, 137, 140};
  runtime::StudyParams broken = study_;
  broken.make_params = [base = study_.make_params, bad](int k) {
    ExperimentParams p = base(k);
    if (std::find(bad.begin(), bad.end(), k) != bad.end())
      p.nodes[0].initial_host = "hostZ";
    return p;
  };
  // Cache the broken indices too: every index is a hit, so the error can
  // only come from validating hits before anything is emitted.
  {
    campaign::ResultCache cache(dir);
    for (const int k : bad)
      cache.store(runtime::experiment_cache_key(broken.make_params(k)),
                  ExperimentResult{});
  }
  std::vector<int> emitted;
  CampaignBuilder builder;
  builder.add(broken)
      .runner(std::make_shared<ForbiddenRunner>())
      .cache(std::make_shared<campaign::ResultCache>(dir))
      .sink(index_sink(emitted));
  Campaign campaign = builder.build();
  try {
    campaign.run();
    FAIL() << "expected a ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("study 'pipe' experiment 137:"), std::string::npos)
        << what;
    EXPECT_NE(what.find("hostZ"), std::string::npos) << what;
  }
  EXPECT_TRUE(emitted.empty());
}

TEST_F(CachePipeline, CorruptEntryInTheWindowStopsThereAndIsQuarantinedOnce) {
  constexpr int kBad = 5;
  const std::string dir = copy_of_warm("pipe-corrupt");
  const std::string key = key_of(kBad);
  const std::filesystem::path entry =
      std::filesystem::path(dir) / (key + ".result");
  {
    std::FILE* f = std::fopen(entry.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("rot", f);
    std::fclose(f);
  }
  auto cache = std::make_shared<campaign::ResultCache>(dir);
  std::vector<int> emitted;
  CampaignBuilder builder;
  builder.add(study_)
      .runner(std::make_shared<ForbiddenRunner>())
      .cache(cache)
      .sink(index_sink(emitted));
  Campaign campaign = builder.build();
  try {
    campaign.run();
    FAIL() << "expected the corrupt entry to fail the study";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("experiment 5 disappeared"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(emitted, iota_to(kBad));
  // What the serial loop books: five hits, then one quarantine (a miss).
  const campaign::ResultCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_FALSE(std::filesystem::exists(entry));
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir) / (key + ".corrupt")));
}

TEST_F(CachePipeline, ThrowingSinkGetsEachIndexOnceAndHelpersAreJoined) {
  constexpr int kThrowAt = 150;
  auto cache =
      std::make_shared<campaign::ResultCache>(copy_of_warm("pipe-sink"));
  const int threads_before = threads_in_process();
  std::vector<int> emitted;
  CampaignBuilder builder;
  builder.add(study_)
      .runner(std::make_shared<ForbiddenRunner>())
      .cache(cache)
      .sink(index_sink(emitted, kThrowAt));
  Campaign campaign = builder.build();
  EXPECT_THROW(campaign.run(), std::runtime_error);
  EXPECT_EQ(emitted, iota_to(kThrowAt + 1));
  EXPECT_EQ(cache->stats().hits, static_cast<std::uint64_t>(kThrowAt + 1));
  EXPECT_EQ(threads_settled_to(threads_before), threads_before);
}

TEST_F(CachePipeline, WarmRunTouchesGenerationsInIndexOrder) {
  const std::string dir = copy_of_warm("pipe-generations");
  // Re-store the entries in reverse first, so that only a warm run that
  // touches them in index order can leave index 0 the oldest.
  {
    campaign::ResultCache cache(dir);
    for (int k = kPipeExperiments - 1; k >= 0; --k) {
      const std::optional<ExperimentResult> result = cache.lookup(key_of(k));
      ASSERT_TRUE(result.has_value());
      cache.store(key_of(k), *result);
    }
  }
  campaign::CacheOptions options;
  options.max_entries = kPipeExperiments;
  auto cache = std::make_shared<campaign::ResultCache>(dir, options);
  record_events(std::make_shared<ForbiddenRunner>(), study_, cache);
  // At the budget, each new entry evicts the least recently served one.
  for (int i = 0; i < 3; ++i) {
    cache->store(std::string(64, "abc"[i]), ExperimentResult{});
    EXPECT_EQ(cache->stats().evictions, static_cast<std::uint64_t>(i + 1));
    EXPECT_FALSE(cache->present(key_of(i))) << "index " << i;
    EXPECT_TRUE(cache->present(key_of(i + 1))) << "index " << i + 1;
  }
}

TEST(CachePipelineGc, EvictionMidStudyFailsWhereTheSerialLoopDoes) {
  // Indices 5..14 cached under a budget of exactly those ten entries, so
  // each fresh store of 0..4 evicts the oldest of them: 5, 6, 7, 8, 9. The
  // read-ahead may hold 5's bytes from before its eviction; the serial
  // loop would find 5 gone at its turn, and so must this one.
  const auto study = fault_study("evict", 15, 21'000);
  const std::string dir = temp_dir("pipe-evict");
  {
    runtime::StudyParams tail = study;
    tail.experiments = 10;
    tail.make_params = [base = study.make_params](int j) {
      return base(5 + j);
    };
    record_events(std::make_shared<campaign::SerialRunner>(), tail,
                  std::make_shared<campaign::ResultCache>(dir));
  }
  campaign::CacheOptions options;
  options.max_entries = 10;
  auto cache = std::make_shared<campaign::ResultCache>(dir, options);
  std::vector<int> emitted;
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::make_shared<campaign::SerialRunner>())
      .cache(cache)
      .sink(index_sink(emitted));
  Campaign campaign = builder.build();
  try {
    campaign.run();
    FAIL() << "expected the evicted entry to fail the study";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("experiment 5 disappeared"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(emitted, iota_to(5));
  const campaign::ResultCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 6u);  // five probes, then 5 at its turn
  EXPECT_EQ(stats.stores, 5u);
  EXPECT_EQ(stats.evictions, 5u);
}

TEST_F(CachePipeline, ResumeReplayThroughTheWindowIsByteIdentical) {
  constexpr int kCrashAt = 200;
  auto cache =
      std::make_shared<campaign::ResultCache>(copy_of_warm("pipe-resume"));
  const std::string journal = temp_dir("pipe-resume-journal");
  {
    std::vector<int> emitted;
    CampaignBuilder builder;
    builder.add(study_)
        .runner(std::make_shared<ForbiddenRunner>())
        .cache(cache)
        .journal(journal)
        .sink(index_sink(emitted, kCrashAt));
    Campaign campaign = builder.build();
    EXPECT_THROW(campaign.run(), std::runtime_error);
  }
  // IndexDone is written ahead of the emit, so 0..kCrashAt are journaled.
  std::vector<Event> events;
  CampaignBuilder builder;
  builder.add(study_)
      .runner(std::make_shared<ForbiddenRunner>())
      .cache(cache)
      .resume(journal)
      .sink(recording_sink(events));
  const Campaign::Summary summary = builder.build().run();
  EXPECT_EQ(summary.replayed, kCrashAt + 1);
  EXPECT_EQ(summary.cache_hits, kPipeExperiments - kCrashAt - 1);
  EXPECT_EQ(events, cold_);
}

// --- runner spec grammar -----------------------------------------------------

TEST(RunnerSpec, ParsesEveryBackend) {
  EXPECT_EQ(campaign::parse_runner_spec("serial")->name(), "serial");
  EXPECT_EQ(campaign::parse_runner_spec("threads:3")->name(), "thread-pool(3)");
  // procs:N, the crash-tolerant dynamic work queue over local worker
  // processes, is the one local process runner.
  EXPECT_EQ(campaign::parse_runner_spec("procs:5")->name(),
            "remote(subprocess:5)");
  EXPECT_EQ(campaign::parse_runner_spec("procs:5")->parallelism(), 5);
  // Legacy bare integers keep working.
  EXPECT_EQ(campaign::parse_runner_spec("1")->name(), "serial");
  EXPECT_EQ(campaign::parse_runner_spec("4")->name(), "thread-pool(4)");
}

TEST(RunnerSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "serial:2", "threads:", "threads:0", "procs:-1", "procs:x",
        "procs:0", "static-procs:5", "remote:", "fibers:2", "2.5"})
    EXPECT_THROW(campaign::parse_runner_spec(bad), ConfigError) << bad;
  // remote: with a missing hostfile fails with the path in the message.
  EXPECT_THROW(campaign::parse_runner_spec("remote:/no/such/hostfile"),
               ConfigError);
}

}  // namespace
}  // namespace loki
