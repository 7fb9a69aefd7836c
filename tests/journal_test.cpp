// Durable campaigns: a crashed journaled campaign resumes with a sink
// sequence byte-identical to an uninterrupted run and zero re-execution of
// journaled indices; the hardened ResultCache quarantines corrupt entries,
// GCs by generation under a byte/entry budget, and throws typed CacheError
// on store failure. The CLI suite SIGKILLs `lokimeasure --campaign` at
// several journal offsets and `cmp`s the resumed stdout against a clean run.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/election.hpp"
#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "runtime/serialize.hpp"
#include "util/error.hpp"

namespace loki {
namespace {

namespace fs = std::filesystem;

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

std::string temp_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "loki-" + tag + "-" +
                           std::to_string(::getpid());
  // A previous ctest invocation may have left state here; these tests
  // assert cold-start stats and fresh journals, so start clean.
  fs::remove_all(path);
  return path;
}

/// A runner that must never be asked to run anything — proof that a resume
/// of a completed journal performs zero run_experiment calls.
class ForbiddenRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "forbidden"; }
  int parallelism() const override { return 1; }
  void run_study(const runtime::StudyParams& study,
                 const campaign::EmitFn&) override {
    throw LogicError("ForbiddenRunner invoked for study '" + study.name + "'");
  }
};

/// SerialRunner that counts every experiment it actually executes — the
/// zero-re-execution proof is `executed()` summing to exactly one run per
/// index across a crashed attempt and its resume.
class CountingRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "counting-serial"; }
  int parallelism() const override { return 1; }
  void run_study(const runtime::StudyParams& study,
                 const campaign::EmitFn& emit) override {
    campaign::SerialRunner serial;
    serial.run_study(study, [&](int k, ExperimentResult&& result) {
      ++executed_;
      emit(k, std::move(result));
    });
  }
  int executed() const { return executed_; }

 private:
  int executed_{0};
};

struct Recorded {
  std::vector<Event> events;
  Campaign::Summary summary;
};

std::shared_ptr<campaign::CallbackSink> recording_sink(
    std::vector<Event>& events) {
  auto sink = std::make_shared<campaign::CallbackSink>();
  sink->campaign_begin([&events](int n) {
    events.push_back({"campaign_begin", std::to_string(n), -1, {}});
  });
  sink->study_begin([&events](const campaign::StudyInfo& info) {
    events.push_back({"study_begin", info.name, -1, {}});
  });
  sink->experiment([&events](const campaign::StudyInfo& info, int index,
                             const ExperimentResult& result) {
    events.push_back({"experiment", info.name, index,
                      runtime::encode_experiment_result(result)});
  });
  sink->study_done([&events](const campaign::StudyInfo& info) {
    events.push_back({"study_done", info.name, -1, {}});
  });
  sink->campaign_done(
      [&events] { events.push_back({"campaign_done", "", -1, {}}); });
  return sink;
}

/// Run `study` journaled (fresh or resumed), recording the sink sequence.
Recorded run_journaled(std::shared_ptr<campaign::Runner> runner,
                       const runtime::StudyParams& study,
                       std::shared_ptr<campaign::ResultCache> cache,
                       const std::string& journal, bool resume,
                       int group = 1) {
  Recorded r;
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::move(runner))
      .sink(recording_sink(r.events))
      .cache(std::move(cache))
      .journal_group(group);
  if (resume)
    builder.resume(journal);
  else
    builder.journal(journal);
  r.summary = builder.build().run();
  return r;
}

/// Run `study` journaled with a sink that throws when it observes
/// `crash_index` — the in-process stand-in for a coordinator crash (the
/// CLI suite below does it with a real SIGKILL). Returns the events
/// observed before the crash.
std::vector<Event> run_until_crash(std::shared_ptr<campaign::Runner> runner,
                                   const runtime::StudyParams& study,
                                   std::shared_ptr<campaign::ResultCache> cache,
                                   const std::string& journal, int crash_index,
                                   int group = 1) {
  std::vector<Event> events;
  auto recorder = recording_sink(events);
  auto crasher = std::make_shared<campaign::CallbackSink>();
  crasher->experiment([crash_index](const campaign::StudyInfo&, int index,
                                    const ExperimentResult&) {
    if (index == crash_index)
      throw std::runtime_error("injected coordinator crash");
  });
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::move(runner))
      .sink(recorder)
      .sink(crasher)
      .cache(std::move(cache))
      .journal(journal)
      .journal_group(group);
  EXPECT_THROW(builder.build().run(), std::runtime_error);
  return events;
}

void expect_identical(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "event " << i;
}

std::vector<Event> reference_events(const runtime::StudyParams& study) {
  Recorded r;
  CampaignBuilder builder;
  builder.add(study)
      .runner(std::make_shared<campaign::SerialRunner>())
      .sink(recording_sink(r.events));
  r.summary = builder.build().run();
  return r.events;
}

// --- crash-resume identity ---------------------------------------------------

TEST(JournalResume, CrashMidStudyResumesByteIdenticallyWithZeroReRuns) {
  const auto study = fault_study("durable", 8);
  const auto reference = reference_events(study);

  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-crash-cache"));
  const std::string journal = temp_path("jr-crash-journal");

  // Crash while emitting index 4. With group-commit 1 every IndexDone is
  // durable before its emit, so the journaled prefix is exactly 0..4.
  auto first = std::make_shared<CountingRunner>();
  run_until_crash(first, study, cache, journal, /*crash_index=*/4);
  EXPECT_EQ(first->executed(), 5);

  const auto state = campaign::CampaignJournal::load(journal);
  ASSERT_TRUE(state.campaign_begun);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys.size(), 5u);
  EXPECT_FALSE(state.progress[0].ended);
  EXPECT_FALSE(state.campaign_done);

  auto second = std::make_shared<CountingRunner>();
  const Recorded resumed =
      run_journaled(second, study, cache, journal, /*resume=*/true);
  expect_identical(resumed.events, reference);
  EXPECT_EQ(resumed.summary.replayed, 5);
  EXPECT_EQ(second->executed(), 3);  // only the tail ran
  // Zero re-execution: every index ran exactly once across both attempts.
  EXPECT_EQ(first->executed() + second->executed(), study.experiments);

  const auto final_state = campaign::CampaignJournal::load(journal);
  EXPECT_TRUE(final_state.campaign_done);
  ASSERT_EQ(final_state.progress.size(), 1u);
  EXPECT_TRUE(final_state.progress[0].ended);
  EXPECT_EQ(final_state.progress[0].done_keys.size(),
            static_cast<std::size_t>(study.experiments));
}

TEST(JournalResume, GroupCommitBufferIsFlushedOnAbort) {
  const auto study = fault_study("grouped", 6);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-group-cache"));
  const std::string journal = temp_path("jr-group-journal");

  // Group of 8 > 6 experiments: no group boundary is ever reached, so the
  // journaled prefix exists only because the abort path flushes it.
  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/3, /*group=*/8);
  const auto state = campaign::CampaignJournal::load(journal);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys.size(), 4u);

  const Recorded resumed = run_journaled(std::make_shared<CountingRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, reference_events(study));
  EXPECT_EQ(resumed.summary.replayed, 4);
}

TEST(JournalResume, CompletedJournalReplaysEverything) {
  const auto study = fault_study("complete", 5);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-done-cache"));
  const std::string journal = temp_path("jr-done-journal");

  const Recorded full = run_journaled(std::make_shared<campaign::SerialRunner>(),
                                      study, cache, journal, false);
  EXPECT_EQ(full.summary.replayed, 0);

  // Resuming a finished campaign replays the whole sink sequence from the
  // journal+cache; the runner must never be consulted.
  const Recorded resumed = run_journaled(std::make_shared<ForbiddenRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, full.events);
  EXPECT_EQ(resumed.summary.replayed, study.experiments);
  EXPECT_EQ(resumed.summary.cache_hits, 0);
}

TEST(JournalResume, TruncatedTailIsTreatedAsUnwritten) {
  const auto study = fault_study("torn", 8);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-torn-cache"));
  const std::string journal = temp_path("jr-torn-journal");

  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/4);

  // Tear the last IndexDone record — the on-disk shape of a SIGKILL landing
  // mid-append.
  fs::resize_file(journal, fs::file_size(journal) - 3);
  const auto state = campaign::CampaignJournal::load(journal);
  EXPECT_TRUE(state.truncated_tail);
  ASSERT_EQ(state.progress.size(), 1u);
  EXPECT_EQ(state.progress[0].done_keys.size(), 4u);

  // Index 4 fell out of the journal but its cache store was durable first
  // (the ordering contract), so the resume serves it as a plain hit.
  auto counting = std::make_shared<CountingRunner>();
  const Recorded resumed = run_journaled(counting, study, cache, journal, true);
  expect_identical(resumed.events, reference_events(study));
  EXPECT_EQ(resumed.summary.replayed, 4);
  EXPECT_EQ(resumed.summary.cache_hits, 1);
  EXPECT_EQ(counting->executed(), 3);
}

TEST(JournalResume, JournalKilledAtBirthIsAFreshStart) {
  const auto study = fault_study("newborn", 4);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-birth-cache"));
  const std::string journal = temp_path("jr-birth-journal");
  { std::ofstream out(journal, std::ios::binary); }  // empty file

  const Recorded resumed = run_journaled(std::make_shared<CountingRunner>(),
                                         study, cache, journal, true);
  expect_identical(resumed.events, reference_events(study));
  EXPECT_EQ(resumed.summary.replayed, 0);
  EXPECT_TRUE(campaign::CampaignJournal::load(journal).campaign_done);
}

TEST(JournalResume, ForeignJournalIsRejected) {
  const auto study = fault_study("mine", 6);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-foreign-cache"));
  const std::string journal = temp_path("jr-foreign-journal");
  run_until_crash(std::make_shared<campaign::SerialRunner>(), study, cache,
                  journal, /*crash_index=*/2);

  const auto resume_with = [&](const runtime::StudyParams& other) {
    return run_journaled(std::make_shared<campaign::SerialRunner>(), other,
                         cache, journal, true);
  };
  // Same name and count, different seeds: only the digest can tell.
  EXPECT_THROW(resume_with(fault_study("mine", 6, 4000)), ConfigError);
  EXPECT_THROW(resume_with(fault_study("mine", 9)), ConfigError);
  EXPECT_THROW(resume_with(fault_study("theirs", 6)), ConfigError);
  // The matching campaign still resumes after all those rejections.
  expect_identical(resume_with(study).events, reference_events(study));
}

TEST(JournalResume, GarbledJournalIsRejected) {
  const std::string journal = temp_path("jr-garbled-journal");
  { std::ofstream out(journal, std::ios::binary); out << std::string(64, 'x'); }
  EXPECT_THROW(campaign::CampaignJournal::load(journal), ConfigError);

  const auto study = fault_study("garbled", 3);
  auto cache =
      std::make_shared<campaign::ResultCache>(temp_path("jr-garbled-cache"));
  EXPECT_THROW(run_journaled(std::make_shared<campaign::SerialRunner>(), study,
                             cache, journal, true),
               ConfigError);
}

TEST(JournalResume, BuilderRejectsJournalMisconfiguration) {
  const auto study = fault_study("builder", 2);
  {
    // A journal without a cache has nothing to replay from.
    CampaignBuilder builder;
    builder.add(study)
        .runner(std::make_shared<campaign::SerialRunner>())
        .journal(temp_path("jr-nocache-journal"));
    EXPECT_THROW(builder.build(), ConfigError);
  }
  {
    CampaignBuilder builder;
    EXPECT_THROW(builder.journal(""), ConfigError);
    EXPECT_THROW(builder.journal_group(0), ConfigError);
  }
}

// --- hardened cache ----------------------------------------------------------

TEST(HardenedCache, CorruptEntryIsQuarantinedAndRefilled) {
  const std::string dir = temp_path("cache-quarantine");
  campaign::ResultCache cache(dir);
  const std::string key(64, 'a');
  cache.store(key, ExperimentResult{});
  ASSERT_TRUE(cache.lookup(key).has_value());

  const fs::path entry = fs::path(dir) / (key + ".result");
  { std::ofstream out(entry, std::ios::binary | std::ios::trunc); out << "rot"; }

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_TRUE(fs::exists(fs::path(dir) / (key + ".corrupt")));

  // The quarantine freed the key: a fresh store repairs the entry.
  cache.store(key, ExperimentResult{});
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(HardenedCache, EntryBudgetEvictsOldestGenerationFirst) {
  const std::string k1(64, '1'), k2(64, '2'), k3(64, '3');
  campaign::CacheOptions options;
  options.max_entries = 2;
  campaign::ResultCache cache(temp_path("cache-entries"), options);
  cache.store(k1, ExperimentResult{});
  cache.store(k2, ExperimentResult{});
  cache.store(k3, ExperimentResult{});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.contains(k1));
  EXPECT_TRUE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
}

TEST(HardenedCache, ByteBudgetNeverEvictsTheEntryJustStored) {
  const std::string k1(64, '4'), k2(64, '5');
  campaign::CacheOptions options;
  options.max_bytes = 1;  // nothing fits, but the newest entry must survive
  campaign::ResultCache cache(temp_path("cache-bytes"), options);
  cache.store(k1, ExperimentResult{});
  cache.store(k2, ExperimentResult{});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.contains(k1));
  EXPECT_TRUE(cache.contains(k2));
}

TEST(HardenedCache, GenerationOrderSurvivesReopen) {
  const std::string dir = temp_path("cache-reopen");
  const std::string k1(64, '6'), k2(64, '7'), k3(64, '8');
  {
    campaign::ResultCache cache(dir);
    cache.store(k1, ExperimentResult{});
    cache.store(k2, ExperimentResult{});
  }  // destructor persists the generation index
  campaign::CacheOptions options;
  options.max_entries = 2;
  campaign::ResultCache cache(dir, options);
  cache.store(k3, ExperimentResult{});
  EXPECT_FALSE(cache.contains(k1));  // oldest persisted generation lost
  EXPECT_TRUE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
}

TEST(HardenedCache, MissingIndexIsRebuiltFromDisk) {
  const std::string dir = temp_path("cache-rebuild");
  const std::string key(64, '9');
  {
    campaign::ResultCache cache(dir);
    cache.store(key, ExperimentResult{});
    cache.flush_index();
  }
  fs::remove(fs::path(dir) / "cache.index");
  campaign::ResultCache cache(dir);
  EXPECT_TRUE(cache.contains(key));
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(HardenedCache, EntryDeletedBehindTheIndexIsDroppedAtReopen) {
  const std::string dir = temp_path("cache-pruned");
  const std::string k1(64, 'c'), k2(64, 'd'), k3(64, 'e'), k4(64, 'f');
  {
    campaign::ResultCache cache(dir);
    cache.store(k1, ExperimentResult{});
    cache.store(k2, ExperimentResult{});
    cache.store(k3, ExperimentResult{});
  }  // destructor persists the index with all three
  const std::uintmax_t entry_bytes =
      fs::file_size(fs::path(dir) / (k1 + ".result"));
  fs::remove(fs::path(dir) / (k2 + ".result"));

  // A budget of exactly three entries' bytes: k4 fits only if the deleted
  // k2's bytes left the accounting at reopen.
  campaign::CacheOptions options;
  options.max_bytes = 3 * entry_bytes;
  campaign::ResultCache cache(dir, options);
  EXPECT_FALSE(cache.contains(k2));
  cache.store(k4, ExperimentResult{});
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_TRUE(cache.contains(k3));
  EXPECT_TRUE(cache.contains(k4));
}

TEST(HardenedCache, StoreFailureThrowsCacheError) {
  const std::string dir = temp_path("cache-dead");
  campaign::ResultCache cache(dir);
  fs::remove_all(dir);  // the disk "dies" under the open cache
  EXPECT_THROW(cache.store(std::string(64, 'b'), ExperimentResult{}),
               campaign::CacheError);
}

// --- CLI crash-resume (real SIGKILL) -----------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

pid_t spawn_cli(const std::string& bin, const std::vector<std::string>& args,
                const std::string& out_path, const std::string& err_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int out = ::open(out_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  const int err = ::open(err_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (out < 0 || err < 0) ::_exit(126);
  ::dup2(out, STDOUT_FILENO);
  ::dup2(err, STDERR_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  ::_exit(127);
}

int wait_cli(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Journaled-experiment count readable right now, torn tail and all;
/// 0 while the header is still forming.
std::size_t journaled_count(const std::string& journal) {
  try {
    const auto state = campaign::CampaignJournal::load(journal);
    return state.progress.empty() ? 0 : state.progress[0].done_keys.size();
  } catch (const std::exception&) {
    return 0;
  }
}

TEST(JournalCli, SigkilledCampaignResumesByteIdentically) {
  const char* bin = std::getenv("LOKIMEASURE_BIN");
  if (bin == nullptr)
    GTEST_SKIP() << "LOKIMEASURE_BIN not set (tools not built)";

  const std::string root = temp_path("cli-journal");
  fs::create_directories(root);
  const auto campaign_args = [](const std::string& cache,
                                const std::string& journal, bool resume) {
    // 600 experiments with per-record fsync: slow enough (~0.5 s) that the
    // kill below lands genuinely mid-run.
    std::vector<std::string> args = {
        "--campaign", "--experiments", "600",  "--seed",          "9000",
        "--cache",    cache,           "--journal-group", "1",
        resume ? "--resume" : "--journal", journal};
    return args;
  };

  // The uninterrupted reference run.
  const std::string base = root + "/base";
  ASSERT_EQ(wait_cli(spawn_cli(bin,
                               campaign_args(base + ".cache", base + ".journal",
                                             false),
                               base + ".out", base + ".err")),
            0);
  const std::string expected = read_file(base + ".out");
  ASSERT_FALSE(expected.empty());

  // SIGKILL at several journal offsets: just after the first IndexDone,
  // mid-stream, and deep into the run.
  for (const std::size_t target : {1u, 120u, 400u}) {
    SCOPED_TRACE("kill after " + std::to_string(target) + " journaled");
    const std::string tag = root + "/kill" + std::to_string(target);
    const std::string cache = tag + ".cache";
    const std::string journal = tag + ".journal";

    const pid_t pid = spawn_cli(bin, campaign_args(cache, journal, false),
                                tag + ".out", tag + ".err");
    bool exited = false;
    int status = 0;
    while (true) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        exited = true;  // finished before we could kill: resume still valid
        break;
      }
      if (journaled_count(journal) >= target) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited) {
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      status = wait_cli(pid);
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    }

    ASSERT_EQ(wait_cli(spawn_cli(bin, campaign_args(cache, journal, true),
                                 tag + ".resume.out", tag + ".resume.err")),
              0);
    // The whole point: the resumed stdout is byte-identical to a run that
    // was never killed.
    EXPECT_EQ(read_file(tag + ".resume.out"), expected);
    // And the journaled prefix really was replayed, not re-run.
    if (!exited) {
      EXPECT_NE(read_file(tag + ".resume.err").find("resume: replayed="),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace loki
