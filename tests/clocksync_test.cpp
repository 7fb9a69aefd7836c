#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "clocksync/convex_hull.hpp"
#include "clocksync/projection.hpp"
#include "clocksync/sync_data.hpp"
#include "clocksync/sync_phase.hpp"
#include "sim/world.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/text_file.hpp"

namespace loki::clocksync {
namespace {

/// Host-table ids of the synthetic pair.
constexpr std::uint32_t kRef = 0;
constexpr std::uint32_t kTgt = 1;

/// Generate synthetic sync samples between a reference clock (identity) and
/// a target clock C_i(t) = alpha + beta * t, with strictly positive random
/// delays. Ground truth known => the certain-bounds property is testable.
SyncData synthetic_samples(double alpha_ns, double beta, int n, Rng& rng,
                           double min_delay_ns = 20'000,
                           double jitter_ns = 120'000) {
  SyncData out;
  double t = 1e9;  // physical ns
  for (int i = 0; i < n; ++i) {
    // ref -> target
    const double d1 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({kRef, kTgt, LocalTime{static_cast<std::int64_t>(t)},
                   LocalTime{static_cast<std::int64_t>(
                       alpha_ns + beta * (t + d1))}});
    t += 2e6;
    // target -> ref
    const double d2 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({kTgt, kRef,
                   LocalTime{static_cast<std::int64_t>(alpha_ns + beta * t)},
                   LocalTime{static_cast<std::int64_t>(t + d2)}});
    t += 2e6;
  }
  // A second "phase" much later tightens the drift bounds, as in Loki.
  t += 3e9;
  for (int i = 0; i < n; ++i) {
    const double d1 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({kRef, kTgt, LocalTime{static_cast<std::int64_t>(t)},
                   LocalTime{static_cast<std::int64_t>(
                       alpha_ns + beta * (t + d1))}});
    t += 2e6;
    const double d2 = min_delay_ns + rng.exponential(jitter_ns);
    out.push_back({kTgt, kRef,
                   LocalTime{static_cast<std::int64_t>(alpha_ns + beta * t)},
                   LocalTime{static_cast<std::int64_t>(t + d2)}});
    t += 2e6;
  }
  return out;
}

TEST(ConvexHull, IdentityForReference) {
  const ClockBounds b = identity_bounds();
  EXPECT_TRUE(b.valid);
  EXPECT_DOUBLE_EQ(b.alpha_lo, 0.0);
  EXPECT_DOUBLE_EQ(b.beta_hi, 1.0);
}

TEST(ConvexHull, NoSamplesInvalid) {
  EXPECT_FALSE(estimate_bounds({}, kRef, kTgt).valid);
}

// Property: the true (alpha, beta) ALWAYS lies within the computed bounds —
// the guarantee that distinguishes these bounds from confidence intervals
// (§2.5). Parameterized over seeds and clock parameters.
class ConvexHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvexHullProperty, TrueParametersAlwaysInsideBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  const double alpha = rng.uniform_real(-5e9, 5e9);
  const double beta = 1.0 + rng.uniform_real(-100e-6, 100e-6);
  const SyncData samples = synthetic_samples(alpha, beta, 25, rng);

  const ClockBounds b = estimate_bounds(samples, kRef, kTgt);
  ASSERT_TRUE(b.valid);
  EXPECT_LE(b.alpha_lo, alpha);
  EXPECT_GE(b.alpha_hi, alpha);
  EXPECT_LE(b.beta_lo, beta);
  EXPECT_GE(b.beta_hi, beta);
  EXPECT_FALSE(b.pinned_beta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvexHullProperty, ::testing::Range(0, 25));

TEST(ConvexHull, BoundsTightenWithMoreSamples) {
  Rng rng(42);
  const double alpha = 2.5e9, beta = 1.00004;
  Rng r1 = rng.split(1), r2 = rng.split(1);
  const ClockBounds few =
      estimate_bounds(synthetic_samples(alpha, beta, 5, r1), kRef, kTgt);
  const ClockBounds many =
      estimate_bounds(synthetic_samples(alpha, beta, 60, r2), kRef, kTgt);
  ASSERT_TRUE(few.valid && many.valid);
  EXPECT_LE(many.alpha_hi - many.alpha_lo, few.alpha_hi - few.alpha_lo);
  EXPECT_LE(many.beta_hi - many.beta_lo, few.beta_hi - few.beta_lo);
}

TEST(ConvexHull, BoundsWidenWithLargerDelays) {
  Rng r1(7), r2(7);
  const double alpha = 1e9, beta = 0.99996;
  const ClockBounds fast = estimate_bounds(
      synthetic_samples(alpha, beta, 30, r1, 20e3, 50e3), kRef, kTgt);
  const ClockBounds slow = estimate_bounds(
      synthetic_samples(alpha, beta, 30, r2, 20e3, 2000e3), kRef, kTgt);
  ASSERT_TRUE(fast.valid && slow.valid);
  EXPECT_LT(fast.alpha_hi - fast.alpha_lo, slow.alpha_hi - slow.alpha_lo);
}

TEST(ConvexHull, OneSidedSamplesArePinned) {
  // Only ref->tgt messages: beta/alpha cannot be bounded from below/above on
  // both sides; the sanity box takes over and the result says so.
  Rng rng(9);
  SyncData samples = synthetic_samples(0.0, 1.0, 20, rng);
  std::erase_if(samples, [](const SyncSample& s) { return s.from == kTgt; });
  const ClockBounds b = estimate_bounds(samples, kRef, kTgt);
  ASSERT_TRUE(b.valid);
  EXPECT_TRUE(b.pinned_alpha || b.pinned_beta);
}

TEST(Projection, TrueTimeInsideProjectedBounds) {
  Rng rng(11);
  const double alpha = -3e9, beta = 1.00007;
  const SyncData samples = synthetic_samples(alpha, beta, 30, rng);
  const ClockBounds b = estimate_bounds(samples, kRef, kTgt);
  ASSERT_TRUE(b.valid);

  // An event at physical/reference time T reads alpha + beta*T locally.
  for (const double t_ref : {1.2e9, 3.7e9, 8.9e9}) {
    const LocalTime local{static_cast<std::int64_t>(alpha + beta * t_ref)};
    const TimeBounds tb = project_to_reference(local, b);
    EXPECT_LE(tb.lo, t_ref);
    EXPECT_GE(tb.hi, t_ref);
    EXPECT_LT(tb.width(), 1e9);  // and they are useful, not vacuous
  }
}

TEST(Projection, OrderingHelpers) {
  const TimeBounds a{10, 20};
  const TimeBounds b{30, 40};
  EXPECT_TRUE(a.strictly_before(b));
  EXPECT_FALSE(b.strictly_before(a));
  EXPECT_TRUE(a.contains(15));
  EXPECT_DOUBLE_EQ(a.mid(), 15.0);
  EXPECT_DOUBLE_EQ(a.width(), 10.0);
}

TEST(SyncData, TimestampsFileRoundTrip) {
  const std::vector<std::string> hosts = {"a", "b"};
  const SyncData samples = {{0, 1, LocalTime{123}, LocalTime{456}},
                            {1, 0, LocalTime{789}, LocalTime{1011}}};
  const std::string text = serialize_timestamps(samples, hosts);
  EXPECT_EQ(text, "a b 123 456\nb a 789 1011\n");
  const SyncData rt = parse_timestamps(text, "rt", hosts);
  EXPECT_EQ(rt, samples);
  EXPECT_THROW(parse_timestamps("a b c\n", "short", hosts), loki::ParseError);
  // Ids index the table the caller passes, whatever its order.
  const SyncData swapped = parse_timestamps(text, "rt", {"b", "a"});
  EXPECT_EQ(swapped[0].from, 1u);
  EXPECT_EQ(swapped[0].to, 0u);
}

TEST(SyncData, UnknownHostIsAParseErrorWithItsLine) {
  const std::vector<std::string> hosts = {"a", "b"};
  try {
    parse_timestamps("a b 1 2\n# comment\nb ghost 3 4\n", "ts", hosts);
    FAIL() << "a host outside the table must not be skipped";
  } catch (const loki::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos) << e.what();
  }
  EXPECT_THROW(serialize_timestamps({{0, 2, LocalTime{1}, LocalTime{2}}}, hosts),
               loki::LogicError);
}

TEST(AlphaBetaCli, TimestampNamingAnUnlistedHostFailsWithItsLine) {
  const char* bin = std::getenv("ALPHABETA_BIN");
  if (bin == nullptr) GTEST_SKIP() << "ALPHABETA_BIN not set (tools not built)";
  const std::string dir = testing::TempDir() + "loki-alphabeta-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Rng rng(3);
  const std::vector<std::string> hosts = {"ref", "tgt"};
  const std::string good =
      serialize_timestamps(synthetic_samples(2e8, 1.00001, 10, rng), hosts);
  loki::write_file(dir + "/machines.txt", "ref\ntgt\n");
  loki::write_file(dir + "/good.timestamps", good);
  // Line 3 names a host machines.txt does not list.
  loki::write_file(dir + "/bad.timestamps",
                   "ref tgt 1 2\ntgt ref 3 4\nref ghost 5 6\n" + good);
  const auto run = [&](const std::string& timestamps) {
    const std::string cmd = std::string(bin) + " " + dir + "/" + timestamps +
                            " " + dir + "/machines.txt " + dir +
                            "/out.alphabeta 2> " + dir + "/stderr.txt";
    return std::system(cmd.c_str());
  };
  EXPECT_EQ(run("good.timestamps"), 0);
  EXPECT_NE(run("bad.timestamps"), 0);
  const std::string err = loki::read_file(dir + "/stderr.txt");
  EXPECT_NE(err.find("bad.timestamps:3:"), std::string::npos) << err;
  EXPECT_NE(err.find("ghost"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST(AlphaBeta, ComputeMatchesPerTargetEstimates) {
  // compute_alphabeta's one-pass bucketing against the per-pair estimator,
  // with the reference in the middle of the table and a host without data.
  Rng rng(13);
  const SyncData pair = synthetic_samples(4e8, 1.00002, 12, rng);
  SyncData samples;
  for (SyncSample s : pair) {  // ref is id 1, tgt is id 0, id 2 has no data
    s.from = s.from == kRef ? 1 : 0;
    s.to = s.to == kRef ? 1 : 0;
    samples.push_back(s);
  }
  const AlphaBetaFile file = compute_alphabeta(samples, {"t", "r", "idle"}, "r");
  EXPECT_EQ(file.reference, "r");
  const ClockBounds direct = estimate_bounds(pair, kRef, kTgt);
  ASSERT_TRUE(direct.valid);
  EXPECT_EQ(file.for_host("t").alpha_lo, direct.alpha_lo);
  EXPECT_EQ(file.for_host("t").beta_hi, direct.beta_hi);
  EXPECT_TRUE(file.for_host("r").valid);
  EXPECT_EQ(file.for_host("r").beta_lo, 1.0);
  EXPECT_FALSE(file.for_host("idle").valid);
  // A reference outside the table bounds nothing.
  const AlphaBetaFile orphan = compute_alphabeta(samples, {"t", "r"}, "x");
  EXPECT_FALSE(orphan.for_host("t").valid);
  EXPECT_FALSE(orphan.for_host("r").valid);
}

TEST(AlphaBeta, FileRoundTrip) {
  AlphaBetaFile file;
  file.reference = "ref";
  ClockBounds b;
  b.alpha_lo = -1234.5;
  b.alpha_hi = 987.25;
  b.beta_lo = 0.999999;
  b.beta_hi = 1.000001;
  b.valid = true;
  file.bounds.emplace("tgt", b);
  file.bounds.emplace("ref", identity_bounds());

  const AlphaBetaFile rt = parse_alphabeta(serialize_alphabeta(file), "rt");
  EXPECT_EQ(rt.reference, "ref");
  EXPECT_NEAR(rt.for_host("tgt").alpha_lo, -1234.5, 0.01);
  EXPECT_NEAR(rt.for_host("tgt").beta_hi, 1.000001, 1e-9);
  EXPECT_THROW(rt.for_host("nope"), loki::ConfigError);
}

TEST(SyncPhase, ProducesValidBoundsInsideSimulation) {
  // End to end inside the simulator: drifting clocks, scheduling noise, and
  // the bounds still certainly contain the truth.
  sim::WorldParams wp;
  wp.seed = 77;
  sim::World world(wp);
  Rng clock_rng(5);
  std::vector<sim::HostId> hosts;
  std::vector<sim::ClockParams> truth;
  for (const char* name : {"h0", "h1", "h2"}) {
    sim::HostParams hp;
    hp.name = name;
    hp.clock = sim::HostClock::random_params(clock_rng, milliseconds(4), 80.0, 1000);
    truth.push_back(hp.clock);
    hosts.push_back(world.add_host(hp));
  }

  SyncData samples;
  SyncPhaseParams sp;
  sp.messages_per_pair = 15;
  run_sync_phase(world, hosts, sp, samples);
  // Let drift accumulate between the phases, as between experiment start/end.
  world.run_until(world.now() + seconds(5));
  run_sync_phase(world, hosts, sp, samples);
  EXPECT_EQ(samples.size(), 2u * 15u * 6u);

  // h0 is the reference (identity). Check h1 and h2 bounds contain the true
  // relative parameters: C_i = a_i + b_i*t, C_0 = a_0 + b_0*t =>
  // C_i = (a_i - a_0*b_i/b_0) + (b_i/b_0) * C_0.
  for (int i : {1, 2}) {
    const ClockBounds b = estimate_bounds(samples, 0, static_cast<std::uint32_t>(i));
    ASSERT_TRUE(b.valid);
    const double beta_true = truth[i].beta / truth[0].beta;
    const double alpha_true = static_cast<double>(truth[i].alpha.ns) -
                              static_cast<double>(truth[0].alpha.ns) * beta_true;
    EXPECT_LE(b.alpha_lo, alpha_true + truth[i].granularity_ns);
    EXPECT_GE(b.alpha_hi, alpha_true - truth[i].granularity_ns);
    EXPECT_LE(b.beta_lo, beta_true + 1e-6);
    EXPECT_GE(b.beta_hi, beta_true - 1e-6);
  }
}

}  // namespace
}  // namespace loki::clocksync
