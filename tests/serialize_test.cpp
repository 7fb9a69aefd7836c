// The versioned wire format (runtime/serialize.*): round-trip fidelity for
// ExperimentParams / ExperimentResult / StudyParams — including NaN/inf
// statistics, empty timelines and long strings — plus envelope hygiene:
// version-mismatch rejection, bad magic, truncated frames, trailing bytes.
// Also the worker frame protocol codecs (Hello/Lease/Result/...) and
// util/pipe_io framing under corruption: truncated, bit-flipped, and
// oversized length prefixes must surface as typed DecodeErrors, never a
// hang, a crash, or a giant allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "apps/election.hpp"
#include "apps/registry.hpp"
#include "campaign/campaign.hpp"
#include "runtime/serialize.hpp"
#include "runtime/worker_stats.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/pipe_io.hpp"

namespace loki {
namespace {

using codec::DecodeError;
using runtime::ExperimentParams;
using runtime::ExperimentResult;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kPlacement = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

struct RegisterApps {
  RegisterApps() { apps::register_builtin_apps(); }
};
const RegisterApps kRegistered;

ExperimentParams sample_params(std::uint64_t seed = 7) {
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  app.fault_activation_prob = 0.85;
  auto p = apps::election_experiment(seed, kHosts, kPlacement, app);
  p.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "t");
  p.nodes[0].restart.enabled = true;
  p.nodes[0].restart.placement = runtime::RestartPolicy::Placement::Fixed;
  p.nodes[0].restart.fixed_host = "hostB";
  p.nodes[1].enter_at = milliseconds(40);
  p.nodes[1].enter_host = "hostB";
  p.nodes[1].initial_host.reset();
  p.hosts[0].clock = sim::ClockParams{microseconds(250), 1.00004, 500};
  p.hosts[1].load_duty = 0.35;
  p.host_crashes.push_back({"hostC", milliseconds(120), milliseconds(90)});
  p.design = runtime::TransportDesign::Centralized;
  p.sync.messages_per_pair = 7;
  p.max_drift_ppm = 55.5;
  return p;
}

// --- ExperimentParams --------------------------------------------------------

TEST(WireParams, EncodeDecodeEncodeIsIdentity) {
  const ExperimentParams p = sample_params();
  const auto bytes = runtime::encode_experiment_params(p);
  const ExperimentParams decoded = runtime::decode_experiment_params(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_params(decoded));
}

TEST(WireParams, DecodedParamsRebuildAWorkingAppFactory) {
  const auto bytes = runtime::encode_experiment_params(sample_params());
  const ExperimentParams decoded = runtime::decode_experiment_params(bytes);
  ASSERT_EQ(decoded.nodes.size(), 3u);
  EXPECT_EQ(decoded.nodes[0].app_name, "election");
  ASSERT_TRUE(static_cast<bool>(decoded.nodes[0].app_factory));
  EXPECT_NE(decoded.nodes[0].app_factory(), nullptr);
  EXPECT_EQ(decoded.nodes[1].enter_at, milliseconds(40));
  EXPECT_EQ(decoded.hosts[0].clock->granularity_ns, 500);
  EXPECT_EQ(decoded.design, runtime::TransportDesign::Centralized);
}

TEST(WireParams, MissingAppNameIsRejectedAtEncode) {
  ExperimentParams p = sample_params();
  p.nodes[2].app_name.clear();
  EXPECT_THROW(runtime::encode_experiment_params(p), ConfigError);
}

TEST(WireParams, UnregisteredAppNameIsRejectedAtDecode) {
  ExperimentParams p = sample_params();
  p.nodes[0].app_name = "no-such-app";
  const auto bytes = runtime::encode_experiment_params(p);
  EXPECT_THROW(runtime::decode_experiment_params(bytes), ConfigError);
}

TEST(WireParams, CacheKeyIsStableAndSeedSensitive) {
  const std::string a1 = runtime::experiment_cache_key(sample_params(7));
  const std::string a2 = runtime::experiment_cache_key(sample_params(7));
  const std::string b = runtime::experiment_cache_key(sample_params(8));
  EXPECT_EQ(a1.size(), 64u);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(WireParams, MemoizedSpecTextKeysLikeAFreshlyParsedSpec) {
  // The key encodes each node's state-machine spec as text, memoized in the
  // spec's shared block. For every bundled app it must equal the key of the
  // same params with every spec re-parsed into an unshared block.
  apps::KvStoreParams kv;
  kv.initial_primary = "kv1";
  const std::vector<ExperimentParams> bundled = {
      sample_params(7),
      apps::kvstore_experiment(
          51, kHosts, {{"kv1", "hostA"}, {"kv2", "hostB"}, {"kv3", "hostC"}},
          kv),
      apps::token_ring_experiment(
          61, kHosts, {{"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}},
          apps::TokenRingParams{}),
  };
  for (const ExperimentParams& p : bundled) {
    const std::string key = runtime::experiment_cache_key(p);
    EXPECT_EQ(runtime::experiment_cache_key(p), key);  // now from the memo
    ExperimentParams fresh = p;
    for (runtime::NodeConfig& node : fresh.nodes) {
      spec::StateMachineSpec parsed = spec::parse_state_machine_spec(
          spec::serialize_state_machine_spec(node.sm_spec), "fresh");
      parsed.set_name(node.sm_spec.name());
      ASSERT_NE(parsed.identity(), node.sm_spec.identity());
      node.sm_spec = std::move(parsed);
    }
    EXPECT_EQ(runtime::experiment_cache_key(fresh), key)
        << p.nodes[0].app_name;
  }

  // set_name detaches the block, memo included; the text does not carry
  // the name, so both blocks serialize alike.
  spec::StateMachineSpec renamed = bundled[0].nodes[0].sm_spec;
  renamed.set_name("renamed");
  EXPECT_NE(renamed.identity(), bundled[0].nodes[0].sm_spec.identity());
  EXPECT_EQ(renamed.text(), bundled[0].nodes[0].sm_spec.text());
  EXPECT_EQ(renamed.text(), spec::serialize_state_machine_spec(renamed));
}

// --- ExperimentResult --------------------------------------------------------

ExperimentResult synthetic_result() {
  ExperimentResult r;
  runtime::LocalTimeline empty_tl;  // a node that recorded nothing
  empty_tl.nickname = "mute";
  empty_tl.initial_host = "hostA";
  r.timelines.push_back(empty_tl);
  r.user_messages.emplace_back();  // "mute" printed nothing

  runtime::LocalTimeline tl;
  tl.nickname = "black";
  tl.initial_host = "hostA";
  tl.machines = {"black", "green"};
  tl.states = {"BEGIN", "LEAD"};
  tl.events = {"START"};
  tl.faults.push_back({"bfault1", "(black:LEAD)", spec::Trigger::Always});
  tl.records.push_back({runtime::RecordType::StateChange, 0, 1, 0, "",
                        LocalTime{123456789}});
  tl.records.push_back({runtime::RecordType::Restart, 0, 0, 0, "hostB",
                        LocalTime{-42}});  // negative local clock reading
  r.timelines.push_back(tl);
  r.user_messages.push_back({"injected bfault1", std::string(100'000, 'x')});

  const std::size_t a = r.add_host("hostA");
  const std::size_t b = r.add_host("hostB");
  const std::size_t c = r.add_host("hostC");
  r.sync_samples.push_back({static_cast<std::uint32_t>(a),
                            static_cast<std::uint32_t>(b), LocalTime{1},
                            LocalTime{2}});
  r.start_local[a] = LocalTime{10};
  r.end_local[a] = LocalTime{20};
  r.truth.state_seq_of("black") = {{SimTime{0}, "BEGIN"}, {SimTime{5}, "LEAD"}};
  r.truth.injections.push_back({"black", "bfault1", SimTime{77}});
  r.truth.crashes_of("black") = {SimTime{99}};
  // NaN/inf statistics must survive bit-exactly.
  r.true_clocks[a] =
      sim::ClockParams{Duration{0}, std::numeric_limits<double>::quiet_NaN(), 1};
  r.true_clocks[b] =
      sim::ClockParams{Duration{0}, std::numeric_limits<double>::infinity(), 1};
  r.true_clocks[c] =
      sim::ClockParams{Duration{0}, -std::numeric_limits<double>::infinity(), 1};
  r.start_phys = SimTime{1000};
  r.end_phys = SimTime{2000};
  r.completed = true;
  r.dropped_notifications = 3;
  r.control_messages = 17;
  r.app_messages = 23;
  return r;
}

TEST(WireResult, SyntheticRoundTripIsByteIdentical) {
  const ExperimentResult r = synthetic_result();
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  // NaN payloads round-trip bit-exactly even though NaN != NaN.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.true_clock_of("hostA").beta),
            std::bit_cast<std::uint64_t>(r.true_clock_of("hostA").beta));
  EXPECT_EQ(decoded.true_clock_of("hostB").beta,
            std::numeric_limits<double>::infinity());
  ASSERT_NE(decoded.find_user_messages("black"), nullptr);
  EXPECT_EQ(decoded.find_user_messages("black")->at(1).size(), 100'000u);
  EXPECT_TRUE(decoded.timeline_of("mute").records.empty());
  EXPECT_EQ(decoded.find_user_messages("mute"), nullptr) << "empty slot";
  EXPECT_EQ(decoded.hosts, r.hosts) << "host table order is preserved";
}

TEST(WireResult, EmptyResultRoundTrips) {
  const ExperimentResult r{};
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  EXPECT_FALSE(decoded.completed);
}

TEST(WireResult, RealExperimentRoundTrips) {
  const ExperimentResult r = campaign::run_single(sample_params(11));
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(bytes, runtime::encode_experiment_result(decoded));
  EXPECT_EQ(decoded.timelines.size(), r.timelines.size());
  EXPECT_EQ(decoded.sync_samples.size(), r.sync_samples.size());
}

// Sync samples hold host-table ids in memory and names on the wire; the
// samples precede the host table, so the decoder resolves names late.

TEST(WireResult, SyncSamplesInAnOrderUnlikeTheHostTableRoundTrip) {
  ExperimentResult r;
  for (const char* host : {"hostA", "hostB", "hostC"}) r.add_host(host);
  // First appearance order C, A, B — not the table's A, B, C.
  r.sync_samples = {{2, 0, LocalTime{5}, LocalTime{6}},
                    {1, 2, LocalTime{7}, LocalTime{8}},
                    {0, 1, LocalTime{9}, LocalTime{10}},
                    {2, 2, LocalTime{11}, LocalTime{12}}};
  const auto bytes = runtime::encode_experiment_result(r);
  const ExperimentResult decoded = runtime::decode_experiment_result(bytes);
  EXPECT_EQ(decoded.sync_samples, r.sync_samples);
  EXPECT_EQ(runtime::encode_experiment_result(decoded), bytes);
}

TEST(WireResult, SyncSampleNamingAHostMissingFromTheTableIsRejected) {
  ExperimentResult r;
  r.add_host("hostA");
  r.add_host("hostB");
  r.sync_samples = {{0, 1, LocalTime{1}, LocalTime{2}}};
  auto bytes = runtime::encode_experiment_result(r);
  // Rename the host table's "hostB" (its last occurrence; the sample's
  // comes first) to "hostX": the sample now names a host the table lacks.
  const std::string name = "hostB";
  const auto at = std::find_end(bytes.begin(), bytes.end(), name.begin(),
                                name.end());
  ASSERT_NE(at, bytes.end());
  ASSERT_NE(std::search(bytes.begin(), bytes.end(), name.begin(), name.end()),
            at)
      << "the sample's name must precede the table's";
  at[4] = 'X';
  try {
    runtime::decode_experiment_result(bytes);
    FAIL() << "a sample naming an unknown host decoded";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("hostB"), std::string::npos) << e.what();
  }
  // The encoder refuses the in-memory form of the same mistake.
  r.sync_samples = {{0, 2, LocalTime{1}, LocalTime{2}}};
  EXPECT_THROW(runtime::encode_experiment_result(r), LogicError);
}

// --- golden wire fixtures ----------------------------------------------------
// Checked-in v2 byte streams (tests/data/). Any encoder change that alters
// the bytes fails here; the fix is to bump kWireVersion AND regenerate with
//   LOKI_REGEN_WIRE_FIXTURES=1 ./serialize_test
// (never to silently accept drifted bytes under the same version).

std::string fixture_path(const std::string& name) {
  return std::string(LOKI_TEST_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  std::FILE* f = std::fopen(fixture_path(name).c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  return bytes;
}

void write_fixture(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(fixture_path(name).c_str(), "wb");
  ASSERT_NE(f, nullptr) << fixture_path(name);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Compare current bytes against the checked-in fixture, or rewrite the
/// fixture when LOKI_REGEN_WIRE_FIXTURES is set.
void check_golden(const std::string& name, const std::vector<std::uint8_t>& bytes) {
  if (std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr) {
    write_fixture(name, bytes);
    return;
  }
  const std::vector<std::uint8_t> golden = read_fixture(name);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << fixture_path(name)
      << "; regenerate with LOKI_REGEN_WIRE_FIXTURES=1";
  ASSERT_EQ(bytes.size(), golden.size())
      << name << ": encoded size drifted without a kWireVersion bump";
  EXPECT_EQ(bytes, golden)
      << name << ": wire bytes drifted without a kWireVersion bump";
}

TEST(WireGolden, ResultEnvelopeMatchesCheckedInBytes) {
  const auto bytes = runtime::encode_experiment_result(synthetic_result());
  check_golden("result_v2.bin", bytes);
  // The fixture must also still decode and re-encode identically.
  const auto golden = std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr
                          ? bytes
                          : read_fixture("result_v2.bin");
  const ExperimentResult decoded = runtime::decode_experiment_result(golden);
  EXPECT_EQ(runtime::encode_experiment_result(decoded), golden);
}

TEST(WireGolden, ResultBatchFrameMatchesCheckedInBytes) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 4, synthetic_result());
  runtime::append_result_ok_entry(batch, 6, ExperimentResult{});
  runtime::append_result_error_entry(batch, 8, runtime::WireErrorCategory::Config,
                                     "bad host 'zeppelin'");
  check_golden("result_batch_v2.bin", batch);
  const auto golden = std::getenv("LOKI_REGEN_WIRE_FIXTURES") != nullptr
                          ? batch
                          : read_fixture("result_batch_v2.bin");
  const auto entries = runtime::decode_result_batch_frame(golden);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_EQ(entries[0].index, 4u);
  EXPECT_FALSE(entries[2].ok);
  EXPECT_EQ(entries[2].message, "bad host 'zeppelin'");
}

TEST(WireGolden, ParamsEnvelopeMatchesCheckedInBytes) {
  check_golden("params_v2.bin",
               runtime::encode_experiment_params(sample_params()));
}

// --- StudyParams -------------------------------------------------------------

TEST(WireStudy, MaterializedRoundTripReplaysEveryIndex) {
  runtime::StudyParams study;
  study.name = "wire-study";
  study.experiments = 3;
  study.make_params = [](int k) {
    return sample_params(100 + static_cast<std::uint64_t>(k));
  };

  const auto bytes = runtime::encode_study_params(study);
  const runtime::StudyParams decoded = runtime::decode_study_params(bytes);
  EXPECT_EQ(decoded.name, "wire-study");
  EXPECT_EQ(decoded.experiments, 3);
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(runtime::encode_experiment_params(decoded.make_params(k)),
              runtime::encode_experiment_params(study.make_params(k)));
  EXPECT_THROW(decoded.make_params(3), ConfigError);
  EXPECT_THROW(decoded.make_params(-1), ConfigError);
}

// --- envelope hygiene --------------------------------------------------------

TEST(WireEnvelope, VersionMismatchIsRejected) {
  auto bytes = runtime::encode_experiment_result(synthetic_result());
  bytes[4] ^= 0xff;  // u16 version lives right after the 4-byte magic
  try {
    runtime::decode_experiment_result(bytes);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(WireEnvelope, BadMagicIsRejected) {
  auto bytes = runtime::encode_experiment_result(synthetic_result());
  bytes[0] = 'X';
  EXPECT_THROW(runtime::decode_experiment_result(bytes), DecodeError);
}

TEST(WireEnvelope, WrongKindIsRejected) {
  const auto bytes = runtime::encode_experiment_result(synthetic_result());
  EXPECT_THROW(runtime::decode_experiment_params(bytes), DecodeError);
}

TEST(WireEnvelope, EveryTruncationIsRejectedNotMisread) {
  const auto full = runtime::encode_experiment_result(synthetic_result());
  // Chop at a spread of prefix lengths (every length would be O(n^2) over
  // a ~100KB message); each must throw DecodeError, never crash or return.
  for (std::size_t len = 0; len < full.size();
       len += 1 + full.size() / 257) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(runtime::decode_experiment_result(cut), DecodeError)
        << "prefix length " << len;
  }
}

TEST(WireEnvelope, TrailingGarbageIsRejected) {
  auto bytes = runtime::encode_experiment_result(ExperimentResult{});
  bytes.push_back(0);
  EXPECT_THROW(runtime::decode_experiment_result(bytes), DecodeError);
}

// --- app args + digest -------------------------------------------------------

TEST(AppArgs, ElectionRoundTrips) {
  apps::ElectionParams p;
  p.election_window = milliseconds(12);
  p.fault_activation_prob = 0.3125;
  p.crash_mode = runtime::CrashMode::Silent;
  const apps::ElectionParams q =
      apps::parse_election_args(apps::encode_election_args(p));
  EXPECT_EQ(q.election_window, p.election_window);
  EXPECT_EQ(q.fault_activation_prob, p.fault_activation_prob);
  EXPECT_EQ(q.crash_mode, p.crash_mode);
  EXPECT_EQ(apps::encode_election_args(q), apps::encode_election_args(p));
}

TEST(AppArgs, UnknownAndMissingKeysAreRejected) {
  apps::ElectionParams p;
  EXPECT_THROW(
      apps::parse_election_args(apps::encode_election_args(p) + " bogus=1"),
      ConfigError);
  EXPECT_THROW(apps::parse_election_args("window=1"), ConfigError);
}

// --- worker frame protocol ---------------------------------------------------

TEST(WorkerFrames, HelloCarriesOrOmitsTheStudy) {
  runtime::StudyParams study;
  study.name = "framed";
  study.experiments = 2;
  study.make_params = [](int k) {
    return sample_params(300 + static_cast<std::uint64_t>(k));
  };

  const auto with = runtime::encode_hello_frame(&study);
  EXPECT_EQ(runtime::worker_frame_type(with), runtime::WorkerFrame::Hello);
  const runtime::HelloFrame hello = runtime::decode_hello_frame(with);
  EXPECT_EQ(hello.protocol_version, runtime::kWorkerProtocolVersion);
  EXPECT_EQ(hello.heartbeat_interval_ms, 0u);  // 0 = worker-side default
  ASSERT_TRUE(hello.study.has_value());
  EXPECT_EQ(hello.study->name, "framed");
  EXPECT_EQ(hello.study->experiments, 2);
  for (int k = 0; k < 2; ++k)
    EXPECT_EQ(runtime::encode_experiment_params(hello.study->make_params(k)),
              runtime::encode_experiment_params(study.make_params(k)));

  const auto without = runtime::encode_hello_frame(nullptr);
  EXPECT_FALSE(runtime::decode_hello_frame(without).study.has_value());

  // The coordinator's heartbeat cadence rides inside the Hello.
  const auto paced = runtime::encode_hello_frame(nullptr, 1250);
  EXPECT_EQ(runtime::decode_hello_frame(paced).heartbeat_interval_ms, 1250u);
}

TEST(WorkerFrames, HeartbeatCarriesWorkerStats) {
  runtime::WorkerStatsSnapshot stats;
  stats.record_experiment_us(180.0);
  stats.record_experiment_us(2'500.0);
  stats.record_experiment_us(900'000.0);
  stats.bytes_encoded = 123'456;
  stats.batches_flushed = 7;

  const auto frame = runtime::encode_heartbeat_frame(42, stats);
  EXPECT_EQ(runtime::worker_frame_type(frame), runtime::WorkerFrame::Heartbeat);
  const runtime::HeartbeatFrame back = runtime::decode_heartbeat_frame(frame);
  EXPECT_EQ(back.lease_id, 42u);
  EXPECT_EQ(back.stats, stats);
  EXPECT_EQ(back.stats.experiments_completed, 3u);
  EXPECT_EQ(back.stats.histogram.total_count(), 3u);
}

TEST(WorkerFrames, ScalarFramesRoundTrip) {
  const auto ack = runtime::encode_hello_ack_frame(4242);
  const runtime::HelloAckFrame decoded = runtime::decode_hello_ack_frame(ack);
  EXPECT_EQ(decoded.protocol_version, runtime::kWorkerProtocolVersion);
  EXPECT_EQ(decoded.worker_pid, 4242u);

  const runtime::LeaseFrame lease{7, 10, 20, 3};
  const runtime::LeaseFrame back =
      runtime::decode_lease_frame(runtime::encode_lease_frame(lease));
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.lo, 10u);
  EXPECT_EQ(back.hi, 20u);
  EXPECT_EQ(back.step, 3u);

  const runtime::HeartbeatFrame bare =
      runtime::decode_heartbeat_frame(runtime::encode_heartbeat_frame(9));
  EXPECT_EQ(bare.lease_id, 9u);
  EXPECT_EQ(bare.stats, runtime::WorkerStatsSnapshot{});
  EXPECT_EQ(
      runtime::decode_lease_done_frame(runtime::encode_lease_done_frame(11)),
      11u);
  EXPECT_EQ(runtime::worker_frame_type(runtime::encode_shutdown_frame()),
            runtime::WorkerFrame::Shutdown);

  const std::vector<std::uint8_t> payload = {1, 2, 3, 250};
  EXPECT_EQ(runtime::decode_ping_frame(runtime::encode_ping_frame(payload)),
            payload);
  EXPECT_EQ(runtime::decode_pong_frame(runtime::encode_pong_frame(payload)),
            payload);
}

TEST(WorkerFrames, ResultFramesRoundTripBothArms) {
  const auto ok =
      runtime::encode_result_ok_frame(5, campaign::run_single(sample_params(13)));
  const runtime::ResultFrame decoded_ok = runtime::decode_result_frame(ok);
  EXPECT_TRUE(decoded_ok.ok);
  EXPECT_EQ(decoded_ok.index, 5u);
  EXPECT_EQ(runtime::encode_result_ok_frame(5, decoded_ok.result), ok);

  const auto err = runtime::encode_result_error_frame(
      8, runtime::WireErrorCategory::Config, "bad host 'zeppelin'");
  const runtime::ResultFrame decoded_err = runtime::decode_result_frame(err);
  EXPECT_FALSE(decoded_err.ok);
  EXPECT_EQ(decoded_err.index, 8u);
  EXPECT_EQ(decoded_err.category, runtime::WireErrorCategory::Config);
  EXPECT_EQ(decoded_err.message, "bad host 'zeppelin'");
}

TEST(WorkerFrames, ZeroCopyResultFrameMatchesAllocatingFlavour) {
  const ExperimentResult r = synthetic_result();
  const auto fresh = runtime::encode_result_ok_frame(5, r);
  std::vector<std::uint8_t> reused = {0xde, 0xad};  // stale bytes get cleared
  runtime::encode_result_ok_frame(5, r, reused);
  EXPECT_EQ(reused, fresh);
  // Re-encoding into the same buffer reuses its capacity: no reallocation
  // once the buffer has seen its largest frame.
  const std::size_t cap = reused.capacity();
  runtime::encode_result_ok_frame(5, r, reused);
  EXPECT_EQ(reused, fresh);
  EXPECT_EQ(reused.capacity(), cap);
}

TEST(WorkerFrames, ResultBatchRoundTripsMixedEntries) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  EXPECT_TRUE(runtime::result_batch_empty(batch));
  EXPECT_EQ(runtime::worker_frame_type(batch), runtime::WorkerFrame::ResultBatch);
  EXPECT_EQ(runtime::result_batch_entry_count(batch), 0u);

  const ExperimentResult r = synthetic_result();
  runtime::append_result_ok_entry(batch, 3, r);
  runtime::append_result_ok_entry(batch, 4, ExperimentResult{});
  runtime::append_result_error_entry(batch, 5, runtime::WireErrorCategory::Logic,
                                     "boom");
  EXPECT_FALSE(runtime::result_batch_empty(batch));
  EXPECT_EQ(runtime::result_batch_entry_count(batch), 3u);

  const std::vector<runtime::ResultFrame> entries =
      runtime::decode_result_batch_frame(batch);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_EQ(entries[0].index, 3u);
  EXPECT_EQ(runtime::encode_experiment_result(entries[0].result),
            runtime::encode_experiment_result(r));
  EXPECT_TRUE(entries[1].ok);
  EXPECT_EQ(entries[1].index, 4u);
  EXPECT_FALSE(entries[1].result.completed);
  EXPECT_FALSE(entries[2].ok);
  EXPECT_EQ(entries[2].index, 5u);
  EXPECT_EQ(entries[2].category, runtime::WireErrorCategory::Logic);
  EXPECT_EQ(entries[2].message, "boom");
}

TEST(WorkerFrames, InternedBatchDecodeMatchesPlainDecode) {
  // Results from one study share their timeline headers, so the interner
  // must hit on every timeline after the first result — and interning must
  // be invisible in the decoded bytes.
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  std::vector<ExperimentResult> sources;
  for (std::uint32_t k = 0; k < 4; ++k) {
    sources.push_back(campaign::run_single(sample_params(13 + k)));
    runtime::append_result_ok_entry(batch, k, sources.back());
  }

  runtime::ResultInterner interner;
  const std::vector<runtime::ResultFrame> interned =
      runtime::decode_result_batch_frame(batch, &interner);
  const std::vector<runtime::ResultFrame> plain =
      runtime::decode_result_batch_frame(batch);
  ASSERT_EQ(interned.size(), plain.size());
  for (std::size_t k = 0; k < interned.size(); ++k)
    EXPECT_EQ(runtime::encode_experiment_result(interned[k].result),
              runtime::encode_experiment_result(plain[k].result))
        << "entry " << k;

  const std::size_t timelines = sources.front().timelines.size();
  ASSERT_GT(timelines, 0u);
  EXPECT_EQ(interner.header_misses(), timelines);
  EXPECT_EQ(interner.header_hits(), (sources.size() - 1) * timelines);

  // nullptr interner must behave exactly like the plain overload.
  const std::vector<runtime::ResultFrame> null_interned =
      runtime::decode_result_batch_frame(batch, nullptr);
  ASSERT_EQ(null_interned.size(), plain.size());
  for (std::size_t k = 0; k < plain.size(); ++k)
    EXPECT_EQ(runtime::encode_experiment_result(null_interned[k].result),
              runtime::encode_experiment_result(plain[k].result));
}

TEST(WorkerFrames, BeginResultBatchReusesTheBuffer) {
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 0, synthetic_result());
  const std::size_t cap = batch.capacity();
  runtime::begin_result_batch(batch);
  EXPECT_TRUE(runtime::result_batch_empty(batch));
  EXPECT_EQ(batch.capacity(), cap) << "reset must keep the allocation";
}

TEST(WorkerFrames, MalformedBatchYieldsNoPartialResults) {
  // All-or-nothing decoding is what makes whole-batch requeue safe: a batch
  // whose SECOND entry is damaged must not leak its intact first entry.
  std::vector<std::uint8_t> batch;
  runtime::begin_result_batch(batch);
  runtime::append_result_ok_entry(batch, 0, ExperimentResult{});
  const std::size_t first_end = batch.size();
  runtime::append_result_ok_entry(batch, 1, ExperimentResult{});

  auto corrupt = batch;
  corrupt[first_end] = 0xff;  // second entry's status byte
  EXPECT_THROW(runtime::decode_result_batch_frame(corrupt), DecodeError);
  EXPECT_THROW(runtime::result_batch_entry_count(corrupt), DecodeError);

  auto truncated = batch;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(runtime::decode_result_batch_frame(truncated), DecodeError);
  EXPECT_THROW(runtime::result_batch_entry_count(truncated), DecodeError);

  // A Result frame is not a ResultBatch frame.
  const auto single = runtime::encode_result_ok_frame(0, ExperimentResult{});
  EXPECT_THROW(runtime::decode_result_batch_frame(single), DecodeError);
}

TEST(WorkerFrames, ErrorClassificationSurvivesTheWire) {
  EXPECT_EQ(runtime::classify_error(ConfigError("x")),
            runtime::WireErrorCategory::Config);
  EXPECT_EQ(runtime::classify_error(LogicError("x")),
            runtime::WireErrorCategory::Logic);
  EXPECT_EQ(runtime::classify_error(std::runtime_error("x")),
            runtime::WireErrorCategory::Runtime);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Config, "m"),
      ConfigError);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Logic, "m"),
      LogicError);
  EXPECT_THROW(
      runtime::rethrow_wire_error(runtime::WireErrorCategory::Runtime, "m"),
      std::runtime_error);
}

TEST(WorkerFrames, MalformedFramesAreRejected) {
  EXPECT_THROW(runtime::worker_frame_type({}), DecodeError);
  EXPECT_THROW(runtime::worker_frame_type({0}), DecodeError);
  EXPECT_THROW(runtime::worker_frame_type({0x7f}), DecodeError);
  // A frame of the wrong type for the decoder at hand.
  EXPECT_THROW(runtime::decode_lease_frame(runtime::encode_heartbeat_frame(1)),
               DecodeError);
  // Truncations of structured frames.
  auto lease = runtime::encode_lease_frame({1, 0, 4, 1});
  lease.resize(lease.size() - 3);
  EXPECT_THROW(runtime::decode_lease_frame(lease), DecodeError);
  auto ok = runtime::encode_result_ok_frame(0, ExperimentResult{});
  ok.resize(ok.size() - 1);
  EXPECT_THROW(runtime::decode_result_frame(ok), DecodeError);
  // Trailing garbage.
  auto heartbeat = runtime::encode_heartbeat_frame(2);
  heartbeat.push_back(0);
  EXPECT_THROW(runtime::decode_heartbeat_frame(heartbeat), DecodeError);
  // A zero lease stride can never round (every index would repeat forever).
  runtime::LeaseFrame zero_step{1, 0, 4, 0};
  EXPECT_THROW(runtime::decode_lease_frame(
                   runtime::encode_lease_frame(zero_step)),
               DecodeError);
}

// --- util/pipe_io framing under corruption -----------------------------------

/// Write raw bytes to a temp file and return a read fd positioned at 0.
/// File-backed (not a pipe) so a decoding bug can only fail, never block.
class RawStream {
 public:
  explicit RawStream(const std::vector<std::uint8_t>& bytes) {
    path_ = testing::TempDir() + "loki-pipeio-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter_++);
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("RawStream: fopen");
    if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    fd_ = ::open(path_.c_str(), O_RDONLY);
  }
  ~RawStream() {
    if (fd_ >= 0) ::close(fd_);
    std::remove(path_.c_str());
  }
  int fd() const { return fd_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
  int fd_{-1};
};

std::vector<std::uint8_t> frame_bytes(const std::vector<std::uint8_t>& payload) {
  // Reuse write_frame itself to produce a well-formed frame on disk.
  const std::string path = testing::TempDir() + "loki-pipeio-mk-" +
                           std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  EXPECT_GE(fd, 0);
  util::write_frame(fd, payload);
  ::close(fd);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<std::uint8_t> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) bytes.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  std::remove(path.c_str());
  return bytes;
}

TEST(PipeIoCorruption, WellFormedFrameRoundTrips) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5};
  RawStream stream(frame_bytes(payload));
  EXPECT_EQ(util::read_frame(stream.fd()), payload);
  EXPECT_FALSE(util::read_frame(stream.fd()).has_value()) << "clean EOF";
}

TEST(PipeIoCorruption, EmptyPayloadFrameIsValid) {
  RawStream stream(frame_bytes({}));
  const auto frame = util::read_frame(stream.fd());
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(PipeIoCorruption, TruncatedHeaderIsRejected) {
  for (std::size_t keep : {1u, 2u, 3u}) {
    auto bytes = frame_bytes({1, 2, 3});
    bytes.resize(keep);
    RawStream stream(bytes);
    EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError)
        << "header bytes kept: " << keep;
  }
}

TEST(PipeIoCorruption, TruncatedPayloadIsRejected) {
  auto bytes = frame_bytes(std::vector<std::uint8_t>(100, 0xab));
  bytes.resize(bytes.size() - 40);
  RawStream stream(bytes);
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

TEST(PipeIoCorruption, BitFlippedLengthIsRejectedNotMisread) {
  // Flipping a high bit of the length prefix turns a 4-byte payload into a
  // claimed ~64MB one; the stream ends long before that, so the reader must
  // reject it instead of blocking or fabricating data.
  auto bytes = frame_bytes({1, 2, 3, 4});
  bytes[3] ^= 0x04;  // length prefix is little-endian bytes [0,4)
  RawStream stream(bytes);
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

TEST(PipeIoCorruption, OversizedLengthIsRejectedBeforeAllocating) {
  // Length prefix far beyond kMaxFrameBytes: must throw immediately (no
  // 3GB reserve attempt).
  std::vector<std::uint8_t> bytes = {0xff, 0xff, 0xff, 0xff, 0x00};
  RawStream stream(bytes);
  try {
    util::read_frame(stream.fd());
    FAIL() << "expected DecodeError";
  } catch (const codec::DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos)
        << e.what();
  }
}

TEST(PipeIoCorruption, MidFrameStallIsDetectedNotBlocked) {
  // A peer that freezes after a partial frame (here: header promises 10
  // bytes, only 2 arrive, no EOF) must surface as a typed error within the
  // stall timeout — this is what hung-worker detection rides on.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint8_t partial[] = {10, 0, 0, 0, 0xaa, 0xbb};
  ASSERT_EQ(::write(fds[1], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  const auto before = std::chrono::steady_clock::now();
  try {
    util::read_frame_deadline(fds[0], std::chrono::milliseconds(150));
    FAIL() << "expected DecodeError";
  } catch (const codec::DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("stalled"), std::string::npos)
        << e.what();
  }
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(140));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(PipeIoCorruption, SlowButSteadyFrameIsNotAStall) {
  // The stall deadline slides on progress: a frame trickling in slower
  // than the timeout in total — but never silent that long at once — must
  // still be read whole.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6};
  const std::vector<std::uint8_t> bytes = frame_bytes(payload);
  std::thread dribbler([&] {
    for (const std::uint8_t b : bytes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_EQ(::write(fds[1], &b, 1), 1);
    }
    ::close(fds[1]);
  });
  const auto frame = util::read_frame_deadline(fds[0],
                                               std::chrono::milliseconds(120));
  dribbler.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  ::close(fds[0]);
}

TEST(PipeIoCorruption, GarbageBetweenFramesIsRejected) {
  auto good = frame_bytes({5, 5, 5});
  std::vector<std::uint8_t> bytes = good;
  bytes.push_back(0x4c);  // one stray byte, then EOF
  RawStream stream(bytes);
  EXPECT_EQ(util::read_frame(stream.fd()), (std::vector<std::uint8_t>{5, 5, 5}));
  EXPECT_THROW(util::read_frame(stream.fd()), codec::DecodeError);
}

// --- campaign journal records -------------------------------------------------

/// A representative journal: header + one of every record type.
std::vector<std::uint8_t> sample_journal() {
  std::vector<std::uint8_t> bytes = runtime::encode_journal_header();
  runtime::JournalEntry begin;
  begin.type = runtime::JournalRecord::CampaignBegin;
  begin.runner_spec = "remote(fake:2)";
  begin.seed = 9000;
  begin.studies = 1;
  runtime::encode_journal_record(begin, bytes);
  runtime::JournalEntry study;
  study.type = runtime::JournalRecord::StudyBegin;
  study.study = 0;
  study.study_name = "demo-coverage";
  study.study_digest = std::string(64, 'a');
  study.experiments = 2;
  runtime::encode_journal_record(study, bytes);
  runtime::JournalEntry done;
  done.type = runtime::JournalRecord::IndexDone;
  done.study = 0;
  done.index = 0;
  done.result_key = std::string(64, 'b');
  runtime::encode_journal_record(done, bytes);
  runtime::JournalEntry end;
  end.type = runtime::JournalRecord::StudyEnd;
  end.study = 0;
  runtime::encode_journal_record(end, bytes);
  runtime::JournalEntry fin;
  fin.type = runtime::JournalRecord::CampaignEnd;
  runtime::encode_journal_record(fin, bytes);
  return bytes;
}

TEST(JournalRecords, RoundTripsEveryRecordType) {
  const std::vector<std::uint8_t> bytes = sample_journal();
  std::size_t offset = runtime::decode_journal_header(bytes.data(), bytes.size());
  std::vector<runtime::JournalEntry> entries;
  while (offset < bytes.size()) {
    std::size_t consumed = 0;
    entries.push_back(runtime::decode_journal_record(
        bytes.data() + offset, bytes.size() - offset, consumed));
    offset += consumed;
  }
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].type, runtime::JournalRecord::CampaignBegin);
  EXPECT_EQ(entries[0].runner_spec, "remote(fake:2)");
  EXPECT_EQ(entries[0].seed, 9000u);
  EXPECT_EQ(entries[0].studies, 1u);
  EXPECT_EQ(entries[1].type, runtime::JournalRecord::StudyBegin);
  EXPECT_EQ(entries[1].study_name, "demo-coverage");
  EXPECT_EQ(entries[1].study_digest, std::string(64, 'a'));
  EXPECT_EQ(entries[1].experiments, 2u);
  EXPECT_EQ(entries[2].type, runtime::JournalRecord::IndexDone);
  EXPECT_EQ(entries[2].index, 0u);
  EXPECT_EQ(entries[2].result_key, std::string(64, 'b'));
  EXPECT_EQ(entries[3].type, runtime::JournalRecord::StudyEnd);
  EXPECT_EQ(entries[4].type, runtime::JournalRecord::CampaignEnd);
}

TEST(JournalRecords, BadHeaderIsRejected) {
  std::vector<std::uint8_t> bytes = runtime::encode_journal_header();
  bytes[0] ^= 0xff;  // magic
  EXPECT_THROW(runtime::decode_journal_header(bytes.data(), bytes.size()),
               codec::DecodeError);
  std::vector<std::uint8_t> versioned = runtime::encode_journal_header();
  versioned[4] ^= 0xff;  // version word
  EXPECT_THROW(
      runtime::decode_journal_header(versioned.data(), versioned.size()),
      codec::DecodeError);
  EXPECT_THROW(runtime::decode_journal_header(bytes.data(), 3),
               codec::DecodeError);
}

// A SIGKILL mid-append leaves a torn tail: every truncation point of the
// final record must decode as "no record here" (DecodeError), never as a
// different record or a crash.
TEST(JournalRecords, EveryTruncationOfTheTailIsRejected) {
  const std::vector<std::uint8_t> bytes = sample_journal();
  const std::size_t header = runtime::decode_journal_header(bytes.data(),
                                                            bytes.size());
  // Find the last record's start by walking the full journal.
  std::size_t offset = header;
  std::size_t last_start = header;
  while (offset < bytes.size()) {
    std::size_t consumed = 0;
    last_start = offset;
    runtime::decode_journal_record(bytes.data() + offset,
                                   bytes.size() - offset, consumed);
    offset += consumed;
  }
  for (std::size_t cut = last_start + 1; cut < bytes.size(); ++cut) {
    std::size_t consumed = 0;
    EXPECT_THROW(runtime::decode_journal_record(bytes.data() + last_start,
                                                cut - last_start, consumed),
                 codec::DecodeError)
        << "cut at " << cut;
  }
}

// Any single bit flip inside a record must fail its checksum (or its
// structural decode) — bit rot cannot silently alter the replay.
TEST(JournalRecords, BitFlipsAreDetected) {
  runtime::JournalEntry done;
  done.type = runtime::JournalRecord::IndexDone;
  done.study = 3;
  done.index = 17;
  done.result_key = std::string(64, 'c');
  std::vector<std::uint8_t> record;
  runtime::encode_journal_record(done, record);
  for (std::size_t byte = 0; byte < record.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = record;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      std::size_t consumed = 0;
      bool rejected = false;
      try {
        const runtime::JournalEntry decoded = runtime::decode_journal_record(
            flipped.data(), flipped.size(), consumed);
        // A flip in the length field can make the record claim more bytes
        // than exist (DecodeError above) — it can never round-trip to a
        // *different* accepted record.
        EXPECT_EQ(decoded.study, done.study);
        EXPECT_EQ(decoded.index, done.index);
        EXPECT_EQ(decoded.result_key, done.result_key);
        ADD_FAILURE() << "flip byte " << byte << " bit " << bit
                      << " silently accepted";
      } catch (const codec::DecodeError&) {
        rejected = true;
      }
      EXPECT_TRUE(rejected) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Digest, Sha256KnownVectors) {
  EXPECT_EQ(util::sha256_hex(nullptr, 0),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string abc = "abc";
  EXPECT_EQ(util::sha256_hex(abc.data(), abc.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Multi-block (> 64 bytes) input.
  const std::string long_input(1000, 'a');
  EXPECT_EQ(util::sha256_hex(long_input.data(), long_input.size()),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

}  // namespace
}  // namespace loki
