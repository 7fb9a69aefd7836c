// Regenerates the §2.5 claim: the projected-time interval width
// C_r(T)+ - C_r(T)- "has been found to be quite small if all the machines
// are on a LAN", and it is a *certain* interval (the true time is always
// inside). Sweeps mean message delay and sync-message count.
#include <cstdio>

#include "clocksync/convex_hull.hpp"
#include "clocksync/projection.hpp"
#include "clocksync/sync_phase.hpp"
#include "sim/world.hpp"

using namespace loki;

namespace {

struct Row {
  double base_us;
  int messages;
  double mean_width_us;
  double beta_width_ppm;
  bool truth_inside;
};

Row run_config(double base_us, int messages, std::uint64_t seed) {
  sim::WorldParams wp;
  wp.seed = seed;
  wp.control_lan.tcp.base = micros_f(base_us);
  wp.control_lan.tcp.jitter_mean = micros_f(base_us / 5.0);
  sim::World world(wp);
  Rng clock_rng(seed * 31 + 7);
  std::vector<sim::HostId> hosts;
  std::vector<sim::ClockParams> truth;
  for (const char* name : {"ref", "tgt"}) {
    sim::HostParams hp;
    hp.name = name;
    hp.clock =
        sim::HostClock::random_params(clock_rng, milliseconds(5), 100.0, 1000);
    truth.push_back(hp.clock);
    hosts.push_back(world.add_host(hp));
  }

  clocksync::SyncData samples;
  clocksync::SyncPhaseParams sp;
  sp.messages_per_pair = messages;
  clocksync::run_sync_phase(world, hosts, sp, samples);
  world.run_until(world.now() + seconds(10));  // experiment gap
  clocksync::run_sync_phase(world, hosts, sp, samples);

  // Sample ids are positions in `hosts`: 0 = ref, 1 = tgt.
  const auto bounds = clocksync::estimate_bounds(samples, 0, 1);

  Row row{base_us, messages, 0.0, 0.0, false};
  if (!bounds.valid) return row;

  // True relative parameters of tgt vs ref.
  const double beta_true = truth[1].beta / truth[0].beta;
  const double alpha_true = static_cast<double>(truth[1].alpha.ns) -
                            static_cast<double>(truth[0].alpha.ns) * beta_true;
  row.truth_inside = bounds.alpha_lo <= alpha_true + 1000 &&
                     bounds.alpha_hi >= alpha_true - 1000 &&
                     bounds.beta_lo <= beta_true + 1e-6 &&
                     bounds.beta_hi >= beta_true - 1e-6;
  row.beta_width_ppm = (bounds.beta_hi - bounds.beta_lo) * 1e6;

  // Mean projected interval width over event times spanning the experiment.
  double total = 0;
  int n = 0;
  for (double t = 1e9; t < 11e9; t += 1e9) {
    const LocalTime local{static_cast<std::int64_t>(alpha_true + beta_true * t)};
    total += clocksync::project_to_reference(local, bounds).width();
    ++n;
  }
  row.mean_width_us = total / n / 1e3;
  return row;
}

}  // namespace

int main() {
  std::printf(
      "Clock synchronization accuracy (offline convex hull, two hosts)\n");
  std::printf("%-18s %-14s %-20s %-18s %s\n", "mean delay (us)", "msgs/pair",
              "mean bound width(us)", "beta width (ppm)", "truth inside");
  bool all_inside = true;
  for (const double base_us : {50.0, 150.0, 500.0, 2000.0}) {
    for (const int messages : {5, 20, 80}) {
      double width = 0, beta = 0;
      bool inside = true;
      const int reps = 5;
      for (int r = 0; r < reps; ++r) {
        const Row row =
            run_config(base_us, messages, 1000 + static_cast<std::uint64_t>(r));
        width += row.mean_width_us;
        beta += row.beta_width_ppm;
        inside = inside && row.truth_inside;
      }
      all_inside = all_inside && inside;
      std::printf("%-18.0f %-14d %-20.1f %-18.3f %s\n", base_us, messages,
                  width / reps, beta / reps, inside ? "yes" : "NO");
    }
  }
  std::printf("\nexpected shape: width grows with message delay, shrinks with "
              "more messages;\n'truth inside' must hold everywhere "
              "(certain bounds, not confidence intervals): %s\n",
              all_inside ? "PASS" : "FAIL");
  return all_inside ? 0 : 1;
}
