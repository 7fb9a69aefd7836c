// The coordinator's hot kernels against references:
//  - SHA-256 (util/digest.*): the NIST vectors, and the SHA-NI kernel equal
//    to the portable one for every length up to 4096 bytes.
//  - Convex-hull clock bounds (clocksync/convex_hull.*): the one-pass,
//    sort-skipping estimator bit for bit against the original per-pair
//    estimator, kept below as the reference, over real election results
//    and over adversarial sample sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "apps/election.hpp"
#include "clocksync/convex_hull.hpp"
#include "clocksync/projection.hpp"
#include "runtime/experiment_context.hpp"
#include "spec/fault_spec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace loki {
namespace {

// --- SHA-256 -----------------------------------------------------------------

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : digest) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

std::string digest_with(util::Sha256Kernel kernel, const std::string& message) {
  util::Sha256 h(kernel);
  h.update(message.data(), message.size());
  return hex(h.finish());
}

std::vector<util::Sha256Kernel> available_kernels() {
  std::vector<util::Sha256Kernel> out{util::Sha256Kernel::Portable};
  if (util::sha256_kernel_available(util::Sha256Kernel::ShaNi))
    out.push_back(util::Sha256Kernel::ShaNi);
  return out;
}

TEST(Sha256, NistVectors) {
  struct Vector {
    std::string message;
    const char* digest;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const util::Sha256Kernel kernel : available_kernels())
    for (const Vector& v : vectors)
      EXPECT_EQ(digest_with(kernel, v.message), v.digest)
          << "kernel " << static_cast<int>(kernel) << ", "
          << v.message.size() << "-byte message";
  // The default kernel (whatever this CPU picks) and the hex helper agree.
  EXPECT_EQ(util::sha256_hex("abc", 3), vectors[1].digest);
}

TEST(Sha256, ShaNiMatchesPortableForEveryLengthTo4096) {
  if (!util::sha256_kernel_available(util::Sha256Kernel::ShaNi))
    GTEST_SKIP() << "this CPU has no SHA extensions";
  std::string buffer(4096, '\0');
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<char>((i * 2654435761u) >> 13);
  for (std::size_t len = 0; len <= buffer.size(); ++len) {
    const std::string message = buffer.substr(0, len);
    ASSERT_EQ(digest_with(util::Sha256Kernel::ShaNi, message),
              digest_with(util::Sha256Kernel::Portable, message))
        << len << " bytes";
  }
  // Split updates exercise the partial-block buffering on both kernels.
  for (const std::size_t split : {1u, 63u, 64u, 65u, 1000u}) {
    std::array<std::string, 2> got;
    for (int k = 0; k < 2; ++k) {
      util::Sha256 h(k == 0 ? util::Sha256Kernel::Portable
                            : util::Sha256Kernel::ShaNi);
      for (std::size_t at = 0; at < buffer.size(); at += split)
        h.update(buffer.data() + at, std::min(split, buffer.size() - at));
      got[static_cast<std::size_t>(k)] = hex(h.finish());
    }
    EXPECT_EQ(got[0], got[1]) << "split " << split;
    EXPECT_EQ(got[0], digest_with(util::Sha256Kernel::Portable, buffer));
  }
}

// --- convex-hull bounds: the reference -----------------------------------------

// The per-pair estimator as it was before the one-pass rewrite, verbatim
// except that the pair is named by host-table ids instead of host names.
namespace reference {

constexpr double kAlphaBox = 100e9;  // |alpha| <= 100 s
constexpr double kBetaMin = 0.5;
constexpr double kBetaMax = 2.0;

struct Pt {
  long double x;
  long double y;
};

long double cross(const Pt& o, const Pt& a, const Pt& b) {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

std::vector<Pt> lower_hull(std::vector<Pt> pts) {
  std::sort(pts.begin(), pts.end(),
            [](const Pt& a, const Pt& b) { return a.x < b.x || (a.x == b.x && a.y < b.y); });
  std::vector<Pt> uniq;
  for (const Pt& p : pts) {
    if (!uniq.empty() && uniq.back().x == p.x) continue;
    uniq.push_back(p);
  }
  std::vector<Pt> hull;
  for (const Pt& p : uniq) {
    while (hull.size() >= 2 && cross(hull[hull.size() - 2], hull.back(), p) <= 0)
      hull.pop_back();
    hull.push_back(p);
  }
  return hull;
}

std::vector<Pt> upper_hull(std::vector<Pt> pts) {
  std::sort(pts.begin(), pts.end(),
            [](const Pt& a, const Pt& b) { return a.x < b.x || (a.x == b.x && a.y > b.y); });
  std::vector<Pt> uniq;
  for (const Pt& p : pts) {
    if (!uniq.empty() && uniq.back().x == p.x) continue;
    uniq.push_back(p);
  }
  std::vector<Pt> hull;
  for (const Pt& p : uniq) {
    while (hull.size() >= 2 && cross(hull[hull.size() - 2], hull.back(), p) >= 0)
      hull.pop_back();
    hull.push_back(p);
  }
  return hull;
}

struct Constraint {
  long double a, b, c;
  bool from_box;
};

clocksync::ClockBounds estimate_bounds(const clocksync::SyncData& samples,
                                       std::uint32_t reference,
                                       std::uint32_t target) {
  clocksync::ClockBounds out;
  if (target == reference) return clocksync::identity_bounds();

  std::vector<Pt> above;
  std::vector<Pt> below;
  for (const clocksync::SyncSample& s : samples) {
    if (s.from == reference && s.to == target) {
      above.push_back({static_cast<long double>(s.send.ns),
                       static_cast<long double>(s.recv.ns)});
    } else if (s.from == target && s.to == reference) {
      below.push_back({static_cast<long double>(s.recv.ns),
                       static_cast<long double>(s.send.ns)});
    }
  }
  if (above.empty() && below.empty()) return out;

  long double x0 = 0, y0 = 0;
  std::size_t n = 0;
  for (const Pt& p : above) { x0 += p.x; y0 += p.y; ++n; }
  for (const Pt& p : below) { x0 += p.x; y0 += p.y; ++n; }
  x0 /= static_cast<long double>(n);
  y0 /= static_cast<long double>(n);

  std::vector<Constraint> cons;
  for (const Pt& p : lower_hull(above))
    cons.push_back({1.0L, p.x - x0, p.y - y0, false});
  for (const Pt& p : upper_hull(below))
    cons.push_back({-1.0L, -(p.x - x0), -(p.y - y0), false});

  cons.push_back({1.0L, -x0, kAlphaBox - y0, true});
  cons.push_back({-1.0L, x0, kAlphaBox + y0, true});
  cons.push_back({0.0L, 1.0L, kBetaMax, true});
  cons.push_back({0.0L, -1.0L, -kBetaMin, true});

  const long double tol = 1e-3;
  bool any = false;
  long double amin = std::numeric_limits<long double>::max();
  long double amax = -amin;
  long double bmin = amin, bmax = -amin;

  for (std::size_t i = 0; i < cons.size(); ++i) {
    for (std::size_t j = i + 1; j < cons.size(); ++j) {
      const Constraint& p = cons[i];
      const Constraint& q = cons[j];
      const long double det = p.a * q.b - q.a * p.b;
      if (std::fabs(static_cast<double>(det)) < 1e-18) continue;
      const long double u = (p.c * q.b - q.c * p.b) / det;
      const long double v = (p.a * q.c - q.a * p.c) / det;
      bool feasible = true;
      for (const Constraint& k : cons) {
        if (k.a * u + k.b * v > k.c + tol) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      any = true;
      const long double beta = v;
      const long double alpha = u + y0 - v * x0;
      amin = std::min(amin, alpha);
      amax = std::max(amax, alpha);
      bmin = std::min(bmin, beta);
      bmax = std::max(bmax, beta);
    }
  }

  if (!any) return out;

  out.alpha_lo = static_cast<double>(amin);
  out.alpha_hi = static_cast<double>(amax);
  out.beta_lo = static_cast<double>(bmin);
  out.beta_hi = static_cast<double>(bmax);
  out.valid = true;
  out.pinned_alpha =
      out.alpha_hi >= kAlphaBox * 0.99 || out.alpha_lo <= -kAlphaBox * 0.99;
  out.pinned_beta =
      out.beta_hi >= kBetaMax * 0.999 || out.beta_lo <= kBetaMin * 1.001;
  return out;
}

}  // namespace reference

// --- convex-hull bounds: the oracle ------------------------------------------

/// Bit-for-bit equality, flags included (NaN-safe, -0 != +0).
::testing::AssertionResult identical(const clocksync::ClockBounds& got,
                                     const clocksync::ClockBounds& want) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (bits(got.alpha_lo) == bits(want.alpha_lo) &&
      bits(got.alpha_hi) == bits(want.alpha_hi) &&
      bits(got.beta_lo) == bits(want.beta_lo) &&
      bits(got.beta_hi) == bits(want.beta_hi) && got.valid == want.valid &&
      got.pinned_alpha == want.pinned_alpha &&
      got.pinned_beta == want.pinned_beta)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got [" << got.alpha_lo << ", " << got.alpha_hi << "] x ["
         << got.beta_lo << ", " << got.beta_hi << "] valid=" << got.valid
         << ", want [" << want.alpha_lo << ", " << want.alpha_hi << "] x ["
         << want.beta_lo << ", " << want.beta_hi << "] valid=" << want.valid;
}

/// Every way the library computes a pair's bounds against the reference.
void expect_matches_reference(const clocksync::SyncData& samples,
                              const std::vector<std::string>& hosts,
                              const std::string& context) {
  for (std::uint32_t r = 0; r < hosts.size(); ++r) {
    const clocksync::AlphaBetaFile file =
        clocksync::compute_alphabeta(samples, hosts, hosts[r]);
    const std::vector<clocksync::ClockBounds> all =
        clocksync::estimate_all_bounds(samples, r, hosts.size());
    for (std::uint32_t t = 0; t < hosts.size(); ++t) {
      const clocksync::ClockBounds want =
          reference::estimate_bounds(samples, r, t);
      EXPECT_TRUE(identical(file.for_host(hosts[t]), want))
          << context << " reference " << r << " target " << t;
      EXPECT_TRUE(identical(all[t], want)) << context;
      EXPECT_TRUE(identical(clocksync::estimate_bounds(samples, r, t), want))
          << context;
    }
  }
}

TEST(ClockBoundsOracle, RealElectionResultsMatchBitForBit) {
  const std::vector<std::string> hosts = {"hostA", "hostB", "hostC"};
  apps::ElectionParams app;
  app.run_for = milliseconds(300);
  runtime::ExperimentContext context;
  int valid = 0;
  for (int k = 0; k < 200; ++k) {
    runtime::ExperimentParams params = apps::election_experiment(
        7000 + static_cast<std::uint64_t>(k), hosts,
        {{"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}}, app);
    params.nodes[0].fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "oracle");
    const runtime::ExperimentResult result = context.run(params);
    ASSERT_EQ(result.hosts, hosts);
    expect_matches_reference(result.sync_samples, result.hosts,
                             "experiment " + std::to_string(k));
    valid += clocksync::estimate_bounds(result.sync_samples, 0, 1).valid ? 1 : 0;
  }
  EXPECT_EQ(valid, 200) << "real results must exercise the feasible path";
}

/// Two-host synthetic samples around C_1 = alpha + beta * C_0.
clocksync::SyncData two_host_samples(Rng& rng, int n, double alpha,
                                     double beta) {
  clocksync::SyncData out;
  double t = 1e9;
  for (int i = 0; i < n; ++i) {
    const double d1 = 20e3 + rng.exponential(100e3);
    out.push_back({0, 1, LocalTime{static_cast<std::int64_t>(t)},
                   LocalTime{static_cast<std::int64_t>(alpha + beta * (t + d1))}});
    t += 2e6;
    const double d2 = 20e3 + rng.exponential(100e3);
    out.push_back({1, 0, LocalTime{static_cast<std::int64_t>(alpha + beta * t)},
                   LocalTime{static_cast<std::int64_t>(t + d2)}});
    t += 2e6;
  }
  return out;
}

TEST(ClockBoundsOracle, AdversarialSetsMatchBitForBit) {
  const std::vector<std::string> two = {"r", "t"};
  const std::vector<std::string> three = {"r", "t", "u"};
  Rng rng(2024);

  expect_matches_reference({}, two, "empty");

  for (int trial = 0; trial < 40; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    const double alpha = rng.uniform_real(-5e9, 5e9);
    const double beta = 1.0 + rng.uniform_real(-200e-6, 200e-6);
    const clocksync::SyncData sorted = two_host_samples(rng, 3 + trial, alpha, beta);
    expect_matches_reference(sorted, two, tag + " sorted");

    clocksync::SyncData unsorted = sorted;
    for (std::size_t i = unsorted.size(); i > 1; --i)
      std::swap(unsorted[i - 1],
                unsorted[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    expect_matches_reference(unsorted, two, tag + " unsorted");

    // Duplicate x: repeated send stamps with different receive stamps, and
    // exact duplicate samples.
    clocksync::SyncData dup = sorted;
    for (std::size_t i = 0; i + 2 < sorted.size(); i += 3) {
      clocksync::SyncSample twin = sorted[i];
      twin.recv.ns += rng.uniform_int(-50'000, 50'000);
      dup.push_back(twin);
      dup.push_back(sorted[i + 1]);
    }
    expect_matches_reference(dup, two, tag + " duplicate x");

    clocksync::SyncData one_sided;
    for (const clocksync::SyncSample& s : unsorted)
      if (s.from == 0) one_sided.push_back(s);
    const clocksync::ClockBounds pinned =
        reference::estimate_bounds(one_sided, 0, 1);
    ASSERT_TRUE(pinned.pinned_alpha || pinned.pinned_beta) << tag;
    expect_matches_reference(one_sided, two, tag + " one-sided");

    // Infeasible: a "receive" long before its send in both directions.
    clocksync::SyncData infeasible = sorted;
    infeasible.push_back({0, 1, LocalTime{2'000'000'000},
                          LocalTime{static_cast<std::int64_t>(alpha) - 4'000'000'000}});
    infeasible.push_back({1, 0, LocalTime{static_cast<std::int64_t>(alpha) + 9'000'000'000},
                          LocalTime{1'000'000'000}});
    ASSERT_FALSE(reference::estimate_bounds(infeasible, 0, 1).valid) << tag;
    expect_matches_reference(infeasible, two, tag + " infeasible");

    // Three hosts, random ids and raw stamps: every pair, any reference,
    // self-samples included.
    clocksync::SyncData noise;
    for (int i = 0; i < 30; ++i)
      noise.push_back({static_cast<std::uint32_t>(rng.uniform_int(0, 2)),
                       static_cast<std::uint32_t>(rng.uniform_int(0, 2)),
                       LocalTime{rng.uniform_int(0, 1'000'000)},
                       LocalTime{rng.uniform_int(0, 1'000'000)}});
    expect_matches_reference(noise, three, tag + " noise");
  }
}

}  // namespace
}  // namespace loki
