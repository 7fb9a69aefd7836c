// The synchronization-message mini-phases (§2.3, §2.5).
//
// Before and after each experiment, every ordered pair of machines
// exchanges `messages_per_pair` timestamped messages over the control LAN
// (the `getstamps` step of §5.6). Each message produces one SyncSample.
// Running the phase inside the experiment's World means the samples carry
// the same clock offsets/drifts and scheduling noise the experiment saw.
#pragma once

#include <functional>
#include <vector>

#include "clocksync/sync_data.hpp"
#include "sim/world.hpp"

namespace loki::clocksync {

struct SyncPhaseParams {
  int messages_per_pair{20};
  Duration spacing{milliseconds(2)};
  /// Handler cost of stamping (read clock + record).
  Duration stamp_cost{microseconds(8)};
};

/// Run one mini-phase over all ordered pairs of `hosts`, appending samples
/// to `out`. Sample ids are positions in `hosts`, so an experiment passing
/// its hosts in host-table order gets table indices. Runs the world until
/// the phase completes; returns the physical time at completion.
SimTime run_sync_phase(sim::World& world, const std::vector<sim::HostId>& hosts,
                       const SyncPhaseParams& params, SyncData& out);

}  // namespace loki::clocksync
