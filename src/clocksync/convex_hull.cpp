#include "clocksync/convex_hull.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace loki::clocksync {
namespace {

// Sanity box keeping the feasible polygon bounded even with one-sided data.
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

/// Half-plane a*u + b*v <= c in transformed coordinates (u = alpha', v = beta).
struct Constraint {
  long double a, b, c;
  bool from_box;
};

/// One pair's samples in the (x = C_r, y = C_i) plane, in sample order.
struct PairPoints {
  std::vector<Pt> above;  // r -> i messages: point above the line
  std::vector<Pt> below;  // i -> r messages: point below the line
};

/// Scratch buffers reused across the targets of one pass.
struct Workspace {
  std::vector<Pt> hull;
  std::vector<Constraint> cons;
};

/// Convex hull chain of `pts` in place: sorted by x (ties by y ascending
/// for the lower hull, descending for the upper), the first point of each
/// x kept — the most binding one — then Andrew's monotone chain. Points
/// usually arrive sorted already (a pair's messages are received in send
/// order), so the sort runs only when they do not. Sorting equal keys
/// cannot reorder distinct points, so skipping it changes nothing.
template <bool kLower>
void hull_chain(std::vector<Pt>& pts, std::vector<Pt>& hull) {
  const auto before = [](const Pt& a, const Pt& b) {
    return a.x < b.x || (a.x == b.x && (kLower ? a.y < b.y : a.y > b.y));
  };
  if (!std::is_sorted(pts.begin(), pts.end(), before))
    std::sort(pts.begin(), pts.end(), before);
  hull.clear();
  const Pt* last_kept = nullptr;
  for (const Pt& p : pts) {
    if (last_kept != nullptr && last_kept->x == p.x) continue;
    last_kept = &p;
    while (hull.size() >= 2 &&
           (kLower ? cross(hull[hull.size() - 2], hull.back(), p) <= 0
                   : cross(hull[hull.size() - 2], hull.back(), p) >= 0))
      hull.pop_back();
    hull.push_back(p);
  }
}

ClockBounds bounds_from_points(PairPoints& pair, Workspace& ws) {
  ClockBounds out;
  if (pair.above.empty() && pair.below.empty()) return out;  // no data: invalid

  // Rebase both axes for conditioning: y' = v * x' + u with
  //   u = alpha + beta*x0 - y0  and  v = beta.
  long double x0 = 0, y0 = 0;
  std::size_t n = 0;
  for (const Pt& p : pair.above) { x0 += p.x; y0 += p.y; ++n; }
  for (const Pt& p : pair.below) { x0 += p.x; y0 += p.y; ++n; }
  x0 /= static_cast<long double>(n);
  y0 /= static_cast<long double>(n);

  std::vector<Constraint>& cons = ws.cons;
  cons.clear();
  hull_chain<true>(pair.above, ws.hull);
  for (const Pt& p : ws.hull)
    cons.push_back({1.0L, p.x - x0, p.y - y0, false});  // u + v*x' <= y'
  hull_chain<false>(pair.below, ws.hull);
  for (const Pt& p : ws.hull)
    cons.push_back({-1.0L, -(p.x - x0), -(p.y - y0), false});  // u + v*x' >= y'

  // Box constraints. alpha = u + y0 - v*x0, so:
  //   alpha <= A  =>  u - v*x0 <= A - y0, etc.
  cons.push_back({1.0L, -x0, kAlphaBox - y0, true});
  cons.push_back({-1.0L, x0, kAlphaBox + y0, true});
  cons.push_back({0.0L, 1.0L, kBetaMax, true});
  cons.push_back({0.0L, -1.0L, -kBetaMin, true});

  // Enumerate polygon vertices: intersections of constraint pairs that
  // satisfy all other constraints. Most candidates are infeasible, and the
  // constraint that cut the previous candidate usually cuts the next one
  // too, so it is tested first; feasibility is a conjunction, so the order
  // of the tests cannot change which vertices count.
  const long double tol = 1e-3;  // nanosecond-scale slack
  const auto violates = [tol](const Constraint& k, long double u, long double v) {
    return k.a * u + k.b * v > k.c + tol;
  };
  bool any = false;
  long double amin = std::numeric_limits<long double>::max();
  long double amax = -amin;
  long double bmin = amin, bmax = -amin;
  std::size_t last_cut = 0;

  for (std::size_t i = 0; i < cons.size(); ++i) {
    for (std::size_t j = i + 1; j < cons.size(); ++j) {
      const Constraint& p = cons[i];
      const Constraint& q = cons[j];
      const long double det = p.a * q.b - q.a * p.b;
      if (std::fabs(static_cast<double>(det)) < 1e-18) continue;
      const long double u = (p.c * q.b - q.c * p.b) / det;
      const long double v = (p.a * q.c - q.a * p.c) / det;
      if (violates(cons[last_cut], u, v)) continue;
      bool feasible = true;
      for (std::size_t k = 0; k < cons.size(); ++k) {
        if (k != last_cut && violates(cons[k], u, v)) {
          last_cut = k;
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

  if (!any) return out;  // infeasible (inconsistent samples)

  out.alpha_lo = static_cast<double>(amin);
  out.alpha_hi = static_cast<double>(amax);
  out.beta_lo = static_cast<double>(bmin);
  out.beta_hi = static_cast<double>(bmax);
  out.valid = true;
  // A bound resting on the sanity box means the data did not constrain it.
  out.pinned_alpha =
      out.alpha_hi >= kAlphaBox * 0.99 || out.alpha_lo <= -kAlphaBox * 0.99;
  out.pinned_beta =
      out.beta_hi >= kBetaMax * 0.999 || out.beta_lo <= kBetaMin * 1.001;
  return out;
}

}  // namespace

ClockBounds identity_bounds() {
  ClockBounds b;
  b.alpha_lo = b.alpha_hi = 0.0;
  b.beta_lo = b.beta_hi = 1.0;
  b.valid = true;
  return b;
}

ClockBounds estimate_bounds(const SyncData& samples, std::uint32_t reference,
                            std::uint32_t target) {
  return estimate_all_bounds(samples, reference,
                             std::size_t{std::max(reference, target)} + 1)[target];
}

std::vector<ClockBounds> estimate_all_bounds(const SyncData& samples,
                                             std::uint32_t reference,
                                             std::size_t hosts) {
  // One pass buckets every sample touching the reference by its other end,
  // in the (x = C_r, y = C_i) plane.
  std::vector<PairPoints> pairs(hosts);
  for (const SyncSample& s : samples) {
    if (s.from == reference && s.to < hosts)
      pairs[s.to].above.push_back({static_cast<long double>(s.send.ns),
                                   static_cast<long double>(s.recv.ns)});
    else if (s.to == reference && s.from < hosts)
      pairs[s.from].below.push_back({static_cast<long double>(s.recv.ns),
                                     static_cast<long double>(s.send.ns)});
  }
  std::vector<ClockBounds> out(hosts);
  Workspace ws;
  for (std::size_t t = 0; t < hosts; ++t)
    out[t] = t == reference ? identity_bounds() : bounds_from_points(pairs[t], ws);
  return out;
}

}  // namespace loki::clocksync
