// Projecting local timestamps onto the reference (global) timeline (§2.5).
//
// With C_i = alpha + beta * C_r and only bounds on (alpha, beta) known, a
// local reading v maps to the certain interval
//   [ min over corners (v - alpha)/beta , max over corners (v - alpha)/beta ]
// evaluated at the four (alpha±, beta±) corners — (v - alpha)/beta is
// monotone in each parameter separately, so the extremes lie at corners.
// This generalizes the thesis formulas (which assume v - alpha > 0) to any
// sign. The true reference time always lies inside the interval.
#pragma once

#include <map>
#include <string>

#include "clocksync/convex_hull.hpp"
#include "util/time.hpp"

namespace loki::clocksync {

/// An interval on the reference clock, in nanoseconds.
struct TimeBounds {
  double lo{0.0};
  double hi{0.0};

  double mid() const { return (lo + hi) / 2.0; }
  double width() const { return hi - lo; }
  bool contains(double t) const { return lo <= t && t <= hi; }
  /// Certain ordering: this interval ends before `other` begins.
  bool strictly_before(const TimeBounds& other) const { return hi < other.lo; }
};

TimeBounds project_to_reference(LocalTime local, const ClockBounds& bounds);

/// The alphabeta file (§5.7): the computed bounds per machine plus the
/// reference machine's name. Format:
///   reference <host>
///   <host> <alpha_lo> <alpha_hi> <beta_lo> <beta_hi>
struct AlphaBetaFile {
  std::string reference;
  std::map<std::string, ClockBounds> bounds;

  const ClockBounds& for_host(const std::string& host) const;
};

std::string serialize_alphabeta(const AlphaBetaFile& file);
AlphaBetaFile parse_alphabeta(const std::string& content, const std::string& source);

/// Compute the alphabeta file from timestamps for the given machines, the
/// host table the samples' ids index. Machines without valid bounds are
/// recorded with valid=false.
AlphaBetaFile compute_alphabeta(const SyncData& samples,
                                const std::vector<std::string>& machines,
                                const std::string& reference);

}  // namespace loki::clocksync
