// Synchronization-message samples and their file format (§2.5, §5.6).
//
// `getstamps` exchanges timestamped messages between machines before and
// after each experiment; each message yields one sample:
//   (from, to, send time on from's clock, receive time on to's clock).
// In memory the two hosts are dense ids: indices into the host table the
// samples were recorded against (ExperimentResult::hosts, the `machines` of
// compute_alphabeta). Names appear only at the boundaries — the wire format
// and the timestamps file, which holds one sample per line:
//   <fromHost> <toHost> <send_ns> <recv_ns>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace loki::clocksync {

struct SyncSample {
  std::uint32_t from{0};  // host-table index of the sender
  std::uint32_t to{0};    // host-table index of the receiver
  LocalTime send{};  // on `from`'s clock
  LocalTime recv{};  // on `to`'s clock

  friend bool operator==(const SyncSample&, const SyncSample&) = default;
};

using SyncData = std::vector<SyncSample>;

/// The timestamps file, host ids rendered as names from `hosts`. Throws
/// LogicError when a sample's id is outside the table.
std::string serialize_timestamps(const SyncData& samples,
                                 const std::vector<std::string>& hosts);
/// Parse a timestamps file against the host table `hosts` (for the CLI, the
/// machines file). A line naming a host absent from the table is a
/// ParseError carrying its line number.
SyncData parse_timestamps(const std::string& content, const std::string& source,
                          const std::vector<std::string>& hosts);

}  // namespace loki::clocksync
