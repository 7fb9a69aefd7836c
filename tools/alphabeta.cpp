// alphabeta — compute convex-hull clock bounds from a timestamps file (§5.7):
//
//   alphabeta <TimestampsFile> <MachinesFile> <AlphabetaFile> [<MHzFile>]
//
// The reference machine is the first entry of the machines file; every
// host a timestamps line names must be listed there. The
// optional MHz file records the reference clock rate (fixed 1000 here: the
// simulated clocks are nanosecond-based).
#include <cstdio>

#include "clocksync/projection.hpp"
#include "spec/campaign_files.hpp"
#include "util/text_file.hpp"

int main(int argc, char** argv) {
  using namespace loki;
  if (argc < 4 || argc > 5) {
    std::fprintf(stderr,
                 "usage: alphabeta <TimestampsFile> <MachinesFile> "
                 "<AlphabetaFile> [<MHzFile>]\n");
    return 2;
  }
  try {
    const auto machines = spec::parse_machines_file(read_file(argv[2]), argv[2]);
    if (machines.empty()) {
      std::fprintf(stderr, "alphabeta: machines file is empty\n");
      return 1;
    }
    const auto samples =
        clocksync::parse_timestamps(read_file(argv[1]), argv[1], machines);
    const auto ab =
        clocksync::compute_alphabeta(samples, machines, machines.front());
    for (const auto& [host, bounds] : ab.bounds) {
      if (!bounds.valid) {
        std::fprintf(stderr,
                     "alphabeta: no valid bounds for host %s (missing or "
                     "inconsistent samples)\n",
                     host.c_str());
        return 1;
      }
    }
    write_file(argv[3], clocksync::serialize_alphabeta(ab));
    if (argc == 5) write_file(argv[4], "1000\n");
    std::printf("alphabeta: %zu machines, reference %s -> %s\n",
                ab.bounds.size(), ab.reference.c_str(), argv[3]);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alphabeta: %s\n", e.what());
    return 1;
  }
}
