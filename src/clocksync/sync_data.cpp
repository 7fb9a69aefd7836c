#include "clocksync/sync_data.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"

namespace loki::clocksync {

std::string serialize_timestamps(const SyncData& samples,
                                 const std::vector<std::string>& hosts) {
  const auto name = [&hosts](std::uint32_t id) -> const std::string& {
    LOKI_REQUIRE(id < hosts.size(), "sync sample host id outside the host table");
    return hosts[id];
  };
  std::string out;
  for (const SyncSample& s : samples) {
    out += name(s.from) + " " + name(s.to) + " " + std::to_string(s.send.ns) +
           " " + std::to_string(s.recv.ns) + "\n";
  }
  return out;
}

SyncData parse_timestamps(const std::string& content, const std::string& source,
                          const std::vector<std::string>& hosts) {
  SyncData out;
  for (const TextLine& line : logical_lines(content)) {
    const auto tokens = split_ws(line.text);
    if (tokens.size() != 4)
      throw ParseError(source, line.number,
                       "expected '<from> <to> <send_ns> <recv_ns>'");
    const auto id_of = [&](const std::string& host) {
      const auto it = std::find(hosts.begin(), hosts.end(), host);
      if (it == hosts.end())
        throw ParseError(source, line.number,
                         "host '" + host + "' is not in the machines list");
      return static_cast<std::uint32_t>(it - hosts.begin());
    };
    const std::uint32_t from = id_of(tokens[0]);
    const std::uint32_t to = id_of(tokens[1]);
    const auto send = parse_i64(tokens[2]);
    const auto recv = parse_i64(tokens[3]);
    if (!send.has_value() || !recv.has_value())
      throw ParseError(source, line.number, "bad timestamp on line: " + line.text);
    out.push_back({from, to, LocalTime{*send}, LocalTime{*recv}});
  }
  return out;
}

}  // namespace loki::clocksync
