// Offline convex-hull clock calibration (§2.5, after Henke [9]).
//
// Model: C_i(t) = alpha_ri + beta_ri * C_r(t) for machine i against the
// reference machine r. Every sync message has strictly positive transit
// time, so each sample constrains the line:
//
//   message r -> i, stamped (S = C_r(send), R = C_i(recv)):
//       the receive happened after the send, so R > alpha + beta * S
//       — the point (S, R) lies ABOVE the line;
//   message i -> r, stamped (S' = C_i(send), R' = C_r(recv)):
//       S' < alpha + beta * R'
//       — the point (R', S') lies BELOW the line.
//
// The feasible (alpha, beta) set is the intersection of these half-planes:
// a convex polygon that ALWAYS contains the true (alpha, beta) — unlike a
// confidence interval, the bounds are certain (§2.5). We compute
// [alpha-, alpha+] x [beta-, beta+] as the polygon's bounding box by
// enumerating candidate vertices (pairs of active constraints plus the
// sanity box) and maximizing/minimizing each coordinate. Only the convex
// hull points bind, so the enumeration runs over a handful of constraints
// even for hundreds of samples.
//
// A sanity box |alpha| <= 100s, beta in [0.5, 2] keeps the polygon bounded
// when samples are one-sided or degenerate; `pinned_*` flags report when a
// bound came from the box rather than the data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clocksync/sync_data.hpp"

namespace loki::clocksync {

struct ClockBounds {
  // C_i = alpha + beta * C_r, alpha in nanoseconds.
  double alpha_lo{0.0};
  double alpha_hi{0.0};
  double beta_lo{1.0};
  double beta_hi{1.0};
  /// False when no feasible region exists (inconsistent samples).
  bool valid{false};
  /// True when a bound is the sanity box, i.e. the data did not constrain it.
  bool pinned_alpha{false};
  bool pinned_beta{false};

  double alpha_mid() const { return (alpha_lo + alpha_hi) / 2.0; }
  double beta_mid() const { return (beta_lo + beta_hi) / 2.0; }
};

/// Identity bounds for the reference machine itself.
ClockBounds identity_bounds();

/// Estimate bounds for `target` against `reference` (host-table ids, see
/// sync_data.hpp) from the samples that involve exactly this pair (both
/// directions). Returns valid=false when there are no such samples or they
/// are inconsistent.
ClockBounds estimate_bounds(const SyncData& samples, std::uint32_t reference,
                            std::uint32_t target);

/// estimate_bounds for every host id below `hosts` in one pass over the
/// samples: element t equals estimate_bounds(samples, reference, t), bit
/// for bit. Samples naming ids at or past `hosts` are ignored.
std::vector<ClockBounds> estimate_all_bounds(const SyncData& samples,
                                             std::uint32_t reference,
                                             std::size_t hosts);

}  // namespace loki::clocksync
