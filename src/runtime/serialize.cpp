#include "runtime/serialize.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "runtime/app_registry.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace loki::runtime {

namespace {

using codec::DecodeError;
using codec::Reader;
using codec::Writer;

constexpr std::uint8_t kKindParams = 1;
constexpr std::uint8_t kKindResult = 2;
constexpr std::uint8_t kKindStudy = 3;

const char kMagic[4] = {'L', 'O', 'K', 'I'};

void put_header(Writer& w, std::uint8_t kind) {
  w.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), 4);
  w.u16(kWireVersion);
  w.u8(kind);
}

void check_header(Reader& r, std::uint8_t kind) {
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (magic[0] != 'L' || magic[1] != 'O' || magic[2] != 'K' || magic[3] != 'I')
    throw DecodeError("wire: bad magic (not a Loki wire message)");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion)
    throw DecodeError("wire: version mismatch: message has v" +
                      std::to_string(version) + ", this build speaks v" +
                      std::to_string(kWireVersion));
  const std::uint8_t got = r.u8();
  if (got != kind)
    throw DecodeError("wire: expected message kind " + std::to_string(kind) +
                      ", got " + std::to_string(got));
}

// --- shared small structs ----------------------------------------------------

void put_duration(Writer& w, Duration d) { w.i64(d.ns); }
Duration get_duration(Reader& r) { return Duration{r.i64()}; }

void put_clock(Writer& w, const sim::ClockParams& c) {
  put_duration(w, c.alpha);
  w.f64(c.beta);
  w.i64(c.granularity_ns);
}
sim::ClockParams get_clock(Reader& r) {
  sim::ClockParams c;
  c.alpha = get_duration(r);
  c.beta = r.f64();
  c.granularity_ns = r.i64();
  return c;
}

void put_network(Writer& w, const sim::NetworkParams& n) {
  put_duration(w, n.ipc.base);
  put_duration(w, n.ipc.jitter_mean);
  put_duration(w, n.tcp.base);
  put_duration(w, n.tcp.jitter_mean);
}
sim::NetworkParams get_network(Reader& r) {
  sim::NetworkParams n;
  n.ipc.base = get_duration(r);
  n.ipc.jitter_mean = get_duration(r);
  n.tcp.base = get_duration(r);
  n.tcp.jitter_mean = get_duration(r);
  return n;
}

template <typename T, typename Fn>
void put_vec(Writer& w, const std::vector<T>& v, Fn put_one) {
  w.u64(v.size());
  for (const T& x : v) put_one(x);
}

std::uint64_t get_count(Reader& r) {
  const std::uint64_t n = r.u64();
  // A count can never exceed the bytes remaining (every element takes at
  // least one byte); reject early instead of attempting a huge reserve.
  if (n > r.remaining())
    throw DecodeError("wire: element count " + std::to_string(n) +
                      " exceeds remaining bytes");
  return n;
}

// --- ExperimentParams body ---------------------------------------------------

void put_params_body(Writer& w, const ExperimentParams& p) {
  w.u64(p.seed);

  put_vec(w, p.hosts, [&](const HostConfig& h) {
    w.str(h.name);
    put_duration(w, h.sched.quantum);
    put_duration(w, h.sched.ctx_switch);
    w.f64(h.sched.wake_preempt_prob);
    w.boolean(h.clock.has_value());
    if (h.clock) put_clock(w, *h.clock);
    w.f64(h.load_duty);
    put_duration(w, h.load_chunk);
  });

  put_vec(w, p.nodes, [&](const NodeConfig& n) {
    if (n.app_name.empty())
      throw ConfigError("wire: node '" + n.nickname +
                        "': app_name is empty — only nodes with a registered "
                        "application identity can be serialized");
    w.str(n.nickname);
    w.str(n.sm_spec.name());
    w.str(n.sm_spec.text());
    w.str(spec::serialize_fault_spec(n.fault_spec));
    w.str(n.app_name);
    w.str(n.app_args);
    w.boolean(n.initial_host.has_value());
    if (n.initial_host) w.str(*n.initial_host);
    w.boolean(n.enter_at.has_value());
    if (n.enter_at) put_duration(w, *n.enter_at);
    w.str(n.enter_host);
    w.boolean(n.restart.enabled);
    put_duration(w, n.restart.delay);
    w.u8(static_cast<std::uint8_t>(n.restart.placement));
    w.str(n.restart.fixed_host);
    w.i64(n.restart.max_restarts);
  });

  put_vec(w, p.host_crashes, [&](const HostCrashPlan& c) {
    w.str(c.host);
    put_duration(w, c.at);
    put_duration(w, c.reboot_after);
  });

  w.u8(static_cast<std::uint8_t>(p.design));

  put_duration(w, p.costs.node_notification_handler);
  put_duration(w, p.costs.daemon_route);
  put_duration(w, p.costs.register_handshake);
  put_duration(w, p.costs.watchdog_handler);
  put_duration(w, p.costs.probe_injection);
  put_duration(w, p.costs.app_default_handler);
  put_duration(w, p.costs.sync_stamp_handler);

  put_duration(w, p.fabric.watchdog_interval);
  put_duration(w, p.fabric.watchdog_timeout);

  put_duration(w, p.central.experiment_timeout);
  put_duration(w, p.central.end_confirm_grace);

  w.i64(p.sync.messages_per_pair);
  put_duration(w, p.sync.spacing);
  put_duration(w, p.sync.stamp_cost);

  put_network(w, p.app_lan);
  put_network(w, p.control_lan);

  put_duration(w, p.max_clock_offset);
  w.f64(p.max_drift_ppm);
  w.i64(p.clock_granularity_ns);
  put_duration(w, p.hard_limit);
}

ExperimentParams get_params_body(Reader& r) {
  ExperimentParams p;
  p.seed = r.u64();

  const std::uint64_t n_hosts = get_count(r);
  p.hosts.reserve(n_hosts);
  for (std::uint64_t i = 0; i < n_hosts; ++i) {
    HostConfig h;
    h.name = r.str();
    h.sched.quantum = get_duration(r);
    h.sched.ctx_switch = get_duration(r);
    h.sched.wake_preempt_prob = r.f64();
    if (r.boolean()) h.clock = get_clock(r);
    h.load_duty = r.f64();
    h.load_chunk = get_duration(r);
    p.hosts.push_back(std::move(h));
  }

  const std::uint64_t n_nodes = get_count(r);
  p.nodes.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    NodeConfig n;
    n.nickname = r.str();
    const std::string sm_name = r.str();
    n.sm_spec = spec::parse_state_machine_spec(r.str(), "wire:" + n.nickname);
    n.sm_spec.set_name(sm_name);
    n.fault_spec = spec::parse_fault_spec(r.str(), "wire:" + n.nickname);
    n.app_name = r.str();
    n.app_args = r.str();
    n.app_factory = make_application_factory(n.app_name, n.app_args);
    if (r.boolean()) n.initial_host = r.str();
    if (r.boolean()) n.enter_at = get_duration(r);
    n.enter_host = r.str();
    n.restart.enabled = r.boolean();
    n.restart.delay = get_duration(r);
    const std::uint8_t placement = r.u8();
    if (placement > static_cast<std::uint8_t>(RestartPolicy::Placement::Fixed))
      throw DecodeError("wire: restart placement out of range");
    n.restart.placement = static_cast<RestartPolicy::Placement>(placement);
    n.restart.fixed_host = r.str();
    n.restart.max_restarts = static_cast<int>(r.i64());
    p.nodes.push_back(std::move(n));
  }

  const std::uint64_t n_crashes = get_count(r);
  p.host_crashes.reserve(n_crashes);
  for (std::uint64_t i = 0; i < n_crashes; ++i) {
    HostCrashPlan c;
    c.host = r.str();
    c.at = get_duration(r);
    c.reboot_after = get_duration(r);
    p.host_crashes.push_back(std::move(c));
  }

  const std::uint8_t design = r.u8();
  if (design > static_cast<std::uint8_t>(TransportDesign::Direct))
    throw DecodeError("wire: transport design out of range");
  p.design = static_cast<TransportDesign>(design);

  p.costs.node_notification_handler = get_duration(r);
  p.costs.daemon_route = get_duration(r);
  p.costs.register_handshake = get_duration(r);
  p.costs.watchdog_handler = get_duration(r);
  p.costs.probe_injection = get_duration(r);
  p.costs.app_default_handler = get_duration(r);
  p.costs.sync_stamp_handler = get_duration(r);

  p.fabric.watchdog_interval = get_duration(r);
  p.fabric.watchdog_timeout = get_duration(r);

  p.central.experiment_timeout = get_duration(r);
  p.central.end_confirm_grace = get_duration(r);

  p.sync.messages_per_pair = static_cast<int>(r.i64());
  p.sync.spacing = get_duration(r);
  p.sync.stamp_cost = get_duration(r);

  p.app_lan = get_network(r);
  p.control_lan = get_network(r);

  p.max_clock_offset = get_duration(r);
  p.max_drift_ppm = r.f64();
  p.clock_granularity_ns = r.i64();
  p.hard_limit = get_duration(r);
  return p;
}

// --- ExperimentResult body ---------------------------------------------------

void put_timeline(Writer& w, const LocalTimeline& t) {
  w.str(t.nickname);
  w.str(t.initial_host);
  put_vec(w, t.machines, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.states, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.events, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.faults, [&](const TimelineFaultEntry& f) {
    w.str(f.name);
    w.str(f.expr_text);
    w.u8(static_cast<std::uint8_t>(f.trigger));
  });
  put_vec(w, t.records, [&](const TimelineRecord& rec) {
    w.u8(static_cast<std::uint8_t>(rec.type));
    w.u32(rec.event_index);
    w.u32(rec.state_index);
    w.u32(rec.fault_index);
    w.str(rec.host);
    w.i64(rec.time.ns);
  });
}

std::vector<std::string> get_string_vec(Reader& r) {
  const std::uint64_t n = get_count(r);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.str());
  return v;
}

/// The study-invariant prefix of a timeline: everything before the records.
/// This is the unit the ResultInterner memoizes — within a study it is
/// byte-identical across every result from the same node.
void get_timeline_header(Reader& r, LocalTimeline& t) {
  t.nickname = r.str();
  t.initial_host = r.str();
  t.machines = get_string_vec(r);
  t.states = get_string_vec(r);
  t.events = get_string_vec(r);
  const std::uint64_t n_faults = get_count(r);
  t.faults.reserve(n_faults);
  for (std::uint64_t i = 0; i < n_faults; ++i) {
    TimelineFaultEntry f;
    f.name = r.str();
    f.expr_text = r.str();
    const std::uint8_t trig = r.u8();
    if (trig > static_cast<std::uint8_t>(spec::Trigger::Always))
      throw DecodeError("wire: fault trigger out of range");
    f.trigger = static_cast<spec::Trigger>(trig);
    t.faults.push_back(std::move(f));
  }
}

/// Advance past a timeline header without materializing any strings —
/// the interner's cheap scan to delimit the memo key span.
void skip_timeline_header(Reader& r) {
  const auto skip_str = [&r] { r.skip(r.u64()); };
  skip_str();  // nickname
  skip_str();  // initial_host
  for (int vec = 0; vec < 3; ++vec) {  // machines, states, events
    const std::uint64_t n = get_count(r);
    for (std::uint64_t i = 0; i < n; ++i) skip_str();
  }
  const std::uint64_t n_faults = get_count(r);
  for (std::uint64_t i = 0; i < n_faults; ++i) {
    skip_str();  // name
    skip_str();  // expr_text
    r.u8();      // trigger (validated on the decode pass)
  }
}

void get_timeline_records(Reader& r, LocalTimeline& t) {
  const std::uint64_t n_records = get_count(r);
  t.records.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    TimelineRecord rec;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(RecordType::Restart))
      throw DecodeError("wire: timeline record type out of range");
    rec.type = static_cast<RecordType>(type);
    rec.event_index = r.u32();
    rec.state_index = r.u32();
    rec.fault_index = r.u32();
    rec.host = r.str();
    rec.time = LocalTime{r.i64()};
    t.records.push_back(std::move(rec));
  }
}

LocalTimeline get_timeline(Reader& r) {
  LocalTimeline t;
  get_timeline_header(r, t);
  get_timeline_records(r, t);
  return t;
}

}  // namespace

/// The interner hot path (friend of ResultInterner): delimit the header
/// span with a string-free skip scan, probe the memo with a string_view
/// over the frame bytes, and only parse (and cache) on the first miss.
/// Cached entries hold empty record vectors — records always decode live.
LocalTimeline interned_timeline(Reader& r, ResultInterner& interner) {
  const std::size_t start = r.position();
  skip_timeline_header(r);
  const std::size_t end = r.position();
  const std::string_view key(reinterpret_cast<const char*>(r.data() + start),
                             end - start);
  LocalTimeline t;
  const auto it = interner.headers_.find(key);
  if (it != interner.headers_.end()) {
    ++interner.hits_;
    t = it->second;
  } else {
    ++interner.misses_;
    Reader header(r.data() + start, end - start);
    get_timeline_header(header, t);
    header.expect_done();
    interner.headers_.emplace(std::string(key), t);
  }
  get_timeline_records(r, t);
  return t;
}

namespace {

// v2 layout: dense tables, no string-keyed maps. Nodes travel interleaved
// (timeline + its user messages), hosts as one table with parallel columns
// (name, start, end, true clock), ground-truth machines likewise (name,
// state sequence, crash times). Parallel invariants hold by construction on
// decode — there is no per-column count to mismatch.
void put_result_body(Writer& w, const ExperimentResult& res) {
  static const std::vector<std::string> kNoMessages;
  w.u64(res.timelines.size());
  for (std::size_t i = 0; i < res.timelines.size(); ++i) {
    put_timeline(w, res.timelines[i]);
    const std::vector<std::string>& messages =
        i < res.user_messages.size() ? res.user_messages[i] : kNoMessages;
    put_vec(w, messages, [&](const std::string& m) { w.str(m); });
  }

  // Samples carry host-table ids in memory but names on the wire.
  const auto host_name = [&res](std::uint32_t id) -> const std::string& {
    if (id >= res.hosts.size())
      throw LogicError("wire: sync sample host id " + std::to_string(id) +
                       " outside the " + std::to_string(res.hosts.size()) +
                       "-host table");
    return res.hosts[id];
  };
  put_vec(w, res.sync_samples, [&](const clocksync::SyncSample& s) {
    w.str(host_name(s.from));
    w.str(host_name(s.to));
    w.i64(s.send.ns);
    w.i64(s.recv.ns);
  });

  w.u64(res.hosts.size());
  for (std::size_t i = 0; i < res.hosts.size(); ++i) {
    w.str(res.hosts[i]);
    w.i64(res.start_local[i].ns);
    w.i64(res.end_local[i].ns);
    put_clock(w, res.true_clocks[i]);
  }

  w.u64(res.truth.machines.size());
  for (std::size_t i = 0; i < res.truth.machines.size(); ++i) {
    w.str(res.truth.machines[i]);
    put_vec(w, res.truth.state_seq[i],
            [&](const std::pair<SimTime, std::string>& e) {
              w.i64(e.first.ns);
              w.str(e.second);
            });
    put_vec(w, res.truth.crashes[i], [&](SimTime t) { w.i64(t.ns); });
  }
  put_vec(w, res.truth.injections, [&](const TrueInjection& inj) {
    w.str(inj.machine);
    w.str(inj.fault);
    w.i64(inj.at.ns);
  });

  w.i64(res.start_phys.ns);
  w.i64(res.end_phys.ns);
  w.boolean(res.completed);
  w.boolean(res.timed_out);
  w.u64(res.dropped_notifications);
  w.u64(res.control_messages);
  w.u64(res.app_messages);
}

ExperimentResult get_result_body(Reader& r, ResultInterner* interner) {
  ExperimentResult res;

  const std::uint64_t n_nodes = get_count(r);
  res.timelines.reserve(n_nodes);
  res.user_messages.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    res.timelines.push_back(interner != nullptr ? interned_timeline(r, *interner)
                                                : get_timeline(r));
    res.user_messages.push_back(get_string_vec(r));
  }

  // The samples precede the host table on the wire, so their names get
  // provisional ids in order of first appearance (views into the frame, a
  // few distinct names per result), remapped to table indices below.
  std::vector<std::string_view> sample_names;
  const auto provisional_id = [&](std::string_view name) {
    for (std::size_t k = 0; k < sample_names.size(); ++k)
      if (sample_names[k] == name) return static_cast<std::uint32_t>(k);
    sample_names.push_back(name);
    return static_cast<std::uint32_t>(sample_names.size() - 1);
  };
  const std::uint64_t n_samples = get_count(r);
  res.sync_samples.resize(n_samples);
  for (clocksync::SyncSample& s : res.sync_samples) {
    s.from = provisional_id(r.str_view());
    s.to = provisional_id(r.str_view());
    s.send = LocalTime{r.i64()};
    s.recv = LocalTime{r.i64()};
  }

  const std::uint64_t n_hosts = get_count(r);
  res.hosts.reserve(n_hosts);
  res.start_local.reserve(n_hosts);
  res.end_local.reserve(n_hosts);
  res.true_clocks.reserve(n_hosts);
  for (std::uint64_t i = 0; i < n_hosts; ++i) {
    res.hosts.push_back(r.str());
    res.start_local.push_back(LocalTime{r.i64()});
    res.end_local.push_back(LocalTime{r.i64()});
    res.true_clocks.push_back(get_clock(r));
  }

  std::vector<std::uint32_t> table_id(sample_names.size());
  for (std::size_t k = 0; k < sample_names.size(); ++k) {
    const auto it =
        std::find(res.hosts.begin(), res.hosts.end(), sample_names[k]);
    if (it == res.hosts.end())
      throw DecodeError("wire: sync sample names host '" +
                        std::string(sample_names[k]) +
                        "', which is missing from the host table");
    table_id[k] = static_cast<std::uint32_t>(it - res.hosts.begin());
  }
  for (clocksync::SyncSample& s : res.sync_samples) {
    s.from = table_id[s.from];
    s.to = table_id[s.to];
  }

  const std::uint64_t n_machines = get_count(r);
  res.truth.machines.reserve(n_machines);
  res.truth.state_seq.reserve(n_machines);
  res.truth.crashes.reserve(n_machines);
  for (std::uint64_t i = 0; i < n_machines; ++i) {
    res.truth.machines.push_back(r.str());
    const std::uint64_t n_entries = get_count(r);
    std::vector<std::pair<SimTime, std::string>> seq;
    seq.reserve(n_entries);
    for (std::uint64_t j = 0; j < n_entries; ++j) {
      const SimTime t{r.i64()};
      seq.emplace_back(t, r.str());
    }
    res.truth.state_seq.push_back(std::move(seq));
    const std::uint64_t n_times = get_count(r);
    std::vector<SimTime> times;
    times.reserve(n_times);
    for (std::uint64_t j = 0; j < n_times; ++j)
      times.push_back(SimTime{r.i64()});
    res.truth.crashes.push_back(std::move(times));
  }
  const std::uint64_t n_inj = get_count(r);
  res.truth.injections.reserve(n_inj);
  for (std::uint64_t i = 0; i < n_inj; ++i) {
    TrueInjection inj;
    inj.machine = r.str();
    inj.fault = r.str();
    inj.at = SimTime{r.i64()};
    res.truth.injections.push_back(std::move(inj));
  }

  res.start_phys = SimTime{r.i64()};
  res.end_phys = SimTime{r.i64()};
  res.completed = r.boolean();
  res.timed_out = r.boolean();
  res.dropped_notifications = r.u64();
  res.control_messages = r.u64();
  res.app_messages = r.u64();
  return res;
}

}  // namespace

// --- public API --------------------------------------------------------------

std::vector<std::uint8_t> encode_experiment_params(const ExperimentParams& p) {
  Writer w;
  put_header(w, kKindParams);
  put_params_body(w, p);
  return w.take();
}

ExperimentParams decode_experiment_params(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  check_header(r, kKindParams);
  ExperimentParams p = get_params_body(r);
  r.expect_done();
  return p;
}

std::vector<std::uint8_t> encode_experiment_result(const ExperimentResult& res) {
  Writer w;
  put_header(w, kKindResult);
  put_result_body(w, res);
  return w.take();
}

void encode_experiment_result(const ExperimentResult& res,
                              std::vector<std::uint8_t>& out) {
  Writer w(out);
  put_header(w, kKindResult);
  put_result_body(w, res);
}

ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size,
                                          ResultInterner* interner) {
  Reader r(data, size);
  check_header(r, kKindResult);
  ExperimentResult res = get_result_body(r, interner);
  r.expect_done();
  return res;
}

ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size) {
  return decode_experiment_result(data, size, nullptr);
}

ExperimentResult decode_experiment_result(const std::vector<std::uint8_t>& bytes) {
  return decode_experiment_result(bytes.data(), bytes.size(), nullptr);
}

std::vector<std::uint8_t> encode_study_params(const StudyParams& study) {
  if (!study.make_params)
    throw ConfigError("wire: study '" + study.name + "' has no make_params");
  Writer w;
  put_header(w, kKindStudy);
  w.str(study.name);
  const int n = study.experiments;
  w.u32(n < 0 ? 0u : static_cast<std::uint32_t>(n));
  for (int k = 0; k < n; ++k) put_params_body(w, study.make_params(k));
  return w.take();
}

StudyParams decode_study_params(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  check_header(r, kKindStudy);
  StudyParams study;
  study.name = r.str();
  const std::uint32_t n = r.u32();
  // Same sanity bound as get_count(): every params body takes at least one
  // byte, so a corrupt count must not become a giant reserve().
  if (n > r.remaining())
    throw DecodeError("wire: study experiment count " + std::to_string(n) +
                      " exceeds remaining bytes");
  auto materialized = std::make_shared<std::vector<ExperimentParams>>();
  materialized->reserve(n);
  for (std::uint32_t k = 0; k < n; ++k)
    materialized->push_back(get_params_body(r));
  r.expect_done();
  study.experiments = static_cast<int>(n);
  study.make_params = [materialized](int k) {
    if (k < 0 || static_cast<std::size_t>(k) >= materialized->size())
      throw ConfigError("wire: replayed study index " + std::to_string(k) +
                        " out of range");
    return (*materialized)[static_cast<std::size_t>(k)];
  };
  return study;
}

std::string experiment_cache_key(const ExperimentParams& p) {
  return util::sha256_hex(encode_experiment_params(p));
}

// --- worker frame protocol ---------------------------------------------------

namespace {

Writer frame_writer(WorkerFrame type) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Reader positioned after the type byte, which must match `expected`.
Reader frame_reader(const std::vector<std::uint8_t>& frame, WorkerFrame expected) {
  if (worker_frame_type(frame) != expected)
    throw DecodeError("worker frame: expected frame type " +
                      std::to_string(static_cast<int>(expected)) + ", got " +
                      std::to_string(static_cast<int>(frame[0])));
  Reader r(frame);
  r.u8();  // consume the type byte
  return r;
}

/// Rest-of-frame raw bytes (Ping/Pong payloads, the embedded study).
std::vector<std::uint8_t> remaining_bytes(Reader& r,
                                          const std::vector<std::uint8_t>& frame) {
  const std::size_t start = frame.size() - r.remaining();
  return std::vector<std::uint8_t>(frame.begin() + static_cast<std::ptrdiff_t>(start),
                                   frame.end());
}

}  // namespace

WireErrorCategory classify_error(const std::exception& e) {
  if (dynamic_cast<const ConfigError*>(&e) != nullptr)
    return WireErrorCategory::Config;
  if (dynamic_cast<const LogicError*>(&e) != nullptr)
    return WireErrorCategory::Logic;
  return WireErrorCategory::Runtime;
}

void rethrow_wire_error(WireErrorCategory category, const std::string& message) {
  switch (category) {
    case WireErrorCategory::Config:
      throw ConfigError(message);
    case WireErrorCategory::Logic:
      throw LogicError(message);
    case WireErrorCategory::Runtime:
      break;
  }
  throw std::runtime_error(message);
}

WorkerFrame worker_frame_type(const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) throw DecodeError("worker frame: empty frame");
  const std::uint8_t type = frame[0];
  if (type < static_cast<std::uint8_t>(WorkerFrame::Hello) ||
      type > static_cast<std::uint8_t>(WorkerFrame::ResultBatch))
    throw DecodeError("worker frame: unknown frame type " + std::to_string(type));
  return static_cast<WorkerFrame>(type);
}

std::vector<std::uint8_t> encode_hello_frame(const StudyParams* study,
                                             std::uint32_t heartbeat_interval_ms) {
  Writer w = frame_writer(WorkerFrame::Hello);
  w.u16(kWorkerProtocolVersion);
  w.u32(heartbeat_interval_ms);
  w.boolean(study != nullptr);
  if (study != nullptr) {
    const std::vector<std::uint8_t> encoded = encode_study_params(*study);
    w.bytes(encoded.data(), encoded.size());
  }
  return w.take();
}

HelloFrame decode_hello_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Hello);
  HelloFrame hello;
  hello.protocol_version = r.u16();
  hello.heartbeat_interval_ms = r.u32();
  if (r.boolean()) hello.study = decode_study_params(remaining_bytes(r, frame));
  else r.expect_done();
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack_frame(std::uint64_t worker_pid) {
  Writer w = frame_writer(WorkerFrame::HelloAck);
  w.u16(kWorkerProtocolVersion);
  w.u64(worker_pid);
  return w.take();
}

HelloAckFrame decode_hello_ack_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::HelloAck);
  HelloAckFrame ack;
  ack.protocol_version = r.u16();
  ack.worker_pid = r.u64();
  r.expect_done();
  return ack;
}

std::vector<std::uint8_t> encode_lease_frame(const LeaseFrame& lease) {
  Writer w = frame_writer(WorkerFrame::Lease);
  w.u32(lease.id);
  w.u32(lease.lo);
  w.u32(lease.hi);
  w.u32(lease.step);
  return w.take();
}

LeaseFrame decode_lease_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Lease);
  LeaseFrame lease;
  lease.id = r.u32();
  lease.lo = r.u32();
  lease.hi = r.u32();
  lease.step = r.u32();
  r.expect_done();
  if (lease.step < 1)
    throw DecodeError("worker frame: lease stride must be >= 1");
  return lease;
}

namespace {

std::vector<std::uint8_t> encode_lease_id_frame(WorkerFrame type,
                                                std::uint32_t lease_id) {
  Writer w = frame_writer(type);
  w.u32(lease_id);
  return w.take();
}

std::uint32_t decode_lease_id_frame(const std::vector<std::uint8_t>& frame,
                                    WorkerFrame type) {
  Reader r = frame_reader(frame, type);
  const std::uint32_t id = r.u32();
  r.expect_done();
  return id;
}

}  // namespace

std::vector<std::uint8_t> encode_heartbeat_frame(std::uint32_t lease_id,
                                                 const WorkerStatsSnapshot& stats) {
  Writer w = frame_writer(WorkerFrame::Heartbeat);
  w.u32(lease_id);
  w.u64(stats.experiments_completed);
  w.f64(stats.ewma_latency_us);
  for (const std::uint32_t bucket : stats.histogram.buckets) w.u32(bucket);
  w.u64(stats.bytes_encoded);
  w.u64(stats.batches_flushed);
  return w.take();
}

HeartbeatFrame decode_heartbeat_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Heartbeat);
  HeartbeatFrame hb;
  hb.lease_id = r.u32();
  hb.stats.experiments_completed = r.u64();
  hb.stats.ewma_latency_us = r.f64();
  for (std::uint32_t& bucket : hb.stats.histogram.buckets) bucket = r.u32();
  hb.stats.bytes_encoded = r.u64();
  hb.stats.batches_flushed = r.u64();
  r.expect_done();
  return hb;
}

std::vector<std::uint8_t> encode_lease_done_frame(std::uint32_t lease_id) {
  return encode_lease_id_frame(WorkerFrame::LeaseDone, lease_id);
}

std::uint32_t decode_lease_done_frame(const std::vector<std::uint8_t>& frame) {
  return decode_lease_id_frame(frame, WorkerFrame::LeaseDone);
}

std::vector<std::uint8_t> encode_result_ok_frame(std::uint32_t index,
                                                 const ExperimentResult& result) {
  std::vector<std::uint8_t> out;
  encode_result_ok_frame(index, result, out);
  return out;
}

void encode_result_ok_frame(std::uint32_t index, const ExperimentResult& result,
                            std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(WorkerFrame::Result));
  w.u8(0);  // ok
  w.u32(index);
  // The embedded envelope is encoded in place — no per-result temporary.
  put_header(w, kKindResult);
  put_result_body(w, result);
}

std::vector<std::uint8_t> encode_result_error_frame(std::uint32_t index,
                                                    WireErrorCategory category,
                                                    const std::string& message) {
  Writer w = frame_writer(WorkerFrame::Result);
  w.u8(1);  // error
  w.u32(index);
  w.u8(static_cast<std::uint8_t>(category));
  w.str(message);
  return w.take();
}

ResultFrame decode_result_frame(const std::vector<std::uint8_t>& frame,
                                ResultInterner* interner) {
  Reader r = frame_reader(frame, WorkerFrame::Result);
  ResultFrame result;
  const std::uint8_t status = r.u8();
  if (status > 1)
    throw DecodeError("worker frame: result status byte out of range");
  result.ok = status == 0;
  result.index = r.u32();
  if (result.ok) {
    // Decode the embedded envelope in place — no slicing copy.
    result.result = decode_experiment_result(frame.data() + r.position(),
                                             r.remaining(), interner);
  } else {
    const std::uint8_t category = r.u8();
    if (category > static_cast<std::uint8_t>(WireErrorCategory::Logic))
      throw DecodeError("worker frame: error category byte out of range");
    result.category = static_cast<WireErrorCategory>(category);
    result.message = r.str();
    r.expect_done();
  }
  return result;
}

ResultFrame decode_result_frame(const std::vector<std::uint8_t>& frame) {
  return decode_result_frame(frame, nullptr);
}

// --- batched results ---------------------------------------------------------

void begin_result_batch(std::vector<std::uint8_t>& batch) {
  batch.clear();
  batch.push_back(static_cast<std::uint8_t>(WorkerFrame::ResultBatch));
}

bool result_batch_empty(const std::vector<std::uint8_t>& batch) {
  return batch.size() <= 1;
}

void append_result_ok_entry(std::vector<std::uint8_t>& batch,
                            std::uint32_t index,
                            const ExperimentResult& result) {
  Writer w(batch);
  w.u8(0);  // ok
  w.u32(index);
  // Length prefix is only known after the envelope is written: reserve the
  // slot, encode in place, patch.
  const std::size_t len_pos = w.size();
  w.u64(0);
  put_header(w, kKindResult);
  put_result_body(w, result);
  w.patch_u64(len_pos, w.size() - len_pos - 8);
}

void append_result_error_entry(std::vector<std::uint8_t>& batch,
                               std::uint32_t index, WireErrorCategory category,
                               const std::string& message) {
  Writer w(batch);
  w.u8(1);  // error
  w.u32(index);
  w.u8(static_cast<std::uint8_t>(category));
  w.str(message);
}

namespace {

/// Shared walk over a batch's entries. decode=false is count-only mode:
/// envelope bytes are skipped, not decoded.
std::vector<ResultFrame> walk_result_batch(
    const std::vector<std::uint8_t>& frame, bool decode,
    ResultInterner* interner = nullptr) {
  Reader r = frame_reader(frame, WorkerFrame::ResultBatch);
  std::vector<ResultFrame> entries;
  while (!r.done()) {
    ResultFrame entry;
    const std::uint8_t status = r.u8();
    if (status > 1)
      throw DecodeError("worker frame: batch entry status byte out of range");
    entry.ok = status == 0;
    entry.index = r.u32();
    if (entry.ok) {
      const std::uint64_t len = r.u64();
      if (len > r.remaining())
        throw DecodeError("worker frame: batch entry length " +
                          std::to_string(len) + " exceeds remaining bytes");
      if (decode)
        entry.result = decode_experiment_result(frame.data() + r.position(),
                                                static_cast<std::size_t>(len),
                                                interner);
      r.skip(len);
    } else {
      const std::uint8_t category = r.u8();
      if (category > static_cast<std::uint8_t>(WireErrorCategory::Logic))
        throw DecodeError("worker frame: error category byte out of range");
      entry.category = static_cast<WireErrorCategory>(category);
      entry.message = r.str();
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame) {
  return walk_result_batch(frame, /*decode=*/true);
}

std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame, ResultInterner* interner) {
  return walk_result_batch(frame, /*decode=*/true, interner);
}

std::size_t result_batch_entry_count(const std::vector<std::uint8_t>& frame) {
  return walk_result_batch(frame, /*decode=*/false).size();
}

std::vector<std::uint8_t> encode_shutdown_frame() {
  return frame_writer(WorkerFrame::Shutdown).take();
}

namespace {

std::vector<std::uint8_t> encode_payload_frame(
    WorkerFrame type, const std::vector<std::uint8_t>& payload) {
  Writer w = frame_writer(type);
  if (!payload.empty()) w.bytes(payload.data(), payload.size());
  return w.take();
}

std::vector<std::uint8_t> decode_payload_frame(
    const std::vector<std::uint8_t>& frame, WorkerFrame type) {
  Reader r = frame_reader(frame, type);
  return remaining_bytes(r, frame);
}

}  // namespace

std::vector<std::uint8_t> encode_ping_frame(const std::vector<std::uint8_t>& payload) {
  return encode_payload_frame(WorkerFrame::Ping, payload);
}

std::vector<std::uint8_t> encode_pong_frame(const std::vector<std::uint8_t>& payload) {
  return encode_payload_frame(WorkerFrame::Pong, payload);
}

std::vector<std::uint8_t> decode_ping_frame(const std::vector<std::uint8_t>& frame) {
  return decode_payload_frame(frame, WorkerFrame::Ping);
}

std::vector<std::uint8_t> decode_pong_frame(const std::vector<std::uint8_t>& frame) {
  return decode_payload_frame(frame, WorkerFrame::Pong);
}

// --- campaign journal records ------------------------------------------------

namespace {

constexpr char kJournalMagic[4] = {'L', 'O', 'K', 'J'};

/// FNV-1a over `size` bytes — 8 self-contained bytes per record is enough
/// to catch the torn tails and bit flips the journal must survive; the
/// cache keys inside the records carry the heavyweight (sha256) identity.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> encode_journal_header() {
  Writer w;
  for (const char c : kJournalMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(kJournalVersion);
  return w.take();
}

std::size_t decode_journal_header(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  for (const char c : kJournalMagic)
    if (r.u8() != static_cast<std::uint8_t>(c))
      throw DecodeError("journal: bad magic (not a campaign journal)");
  const std::uint16_t version = r.u16();
  if (version != kJournalVersion)
    throw DecodeError("journal: version " + std::to_string(version) +
                      ", this build speaks only v" +
                      std::to_string(kJournalVersion));
  return r.position();
}

void encode_journal_record(const JournalEntry& entry,
                           std::vector<std::uint8_t>& out) {
  Writer payload;
  switch (entry.type) {
    case JournalRecord::CampaignBegin:
      payload.str(entry.runner_spec);
      payload.u64(entry.seed);
      payload.u32(entry.studies);
      break;
    case JournalRecord::StudyBegin:
      payload.u32(entry.study);
      payload.str(entry.study_name);
      payload.str(entry.study_digest);
      payload.u32(entry.experiments);
      break;
    case JournalRecord::IndexDone:
      payload.u32(entry.study);
      payload.u32(entry.index);
      payload.str(entry.result_key);
      break;
    case JournalRecord::StudyEnd:
      payload.u32(entry.study);
      break;
    case JournalRecord::CampaignEnd:
      break;
  }
  const std::vector<std::uint8_t> body = payload.take();

  Writer w(out);
  const std::size_t start = out.size();
  w.u8(static_cast<std::uint8_t>(entry.type));
  w.u32(static_cast<std::uint32_t>(body.size()));
  if (!body.empty()) w.bytes(body.data(), body.size());
  w.u64(fnv1a(out.data() + start, out.size() - start));
}

JournalEntry decode_journal_record(const std::uint8_t* data, std::size_t size,
                                   std::size_t& consumed) {
  Reader r(data, size);
  const std::uint8_t raw_type = r.u8();
  const std::uint32_t length = r.u32();
  // Bound the length before trusting it: a corrupt prefix must not read
  // (or allocate) past the buffer.
  if (r.remaining() < static_cast<std::size_t>(length) + 8)
    throw DecodeError("journal record: truncated (payload of " +
                      std::to_string(length) + " bytes past end of journal)");
  const std::size_t payload_start = r.position();
  r.skip(length);
  const std::uint64_t stored = r.u64();
  if (stored != fnv1a(data, payload_start + length))
    throw DecodeError("journal record: checksum mismatch (torn or corrupt)");
  if (raw_type < static_cast<std::uint8_t>(JournalRecord::CampaignBegin) ||
      raw_type > static_cast<std::uint8_t>(JournalRecord::CampaignEnd))
    throw DecodeError("journal record: unknown type " +
                      std::to_string(raw_type));

  JournalEntry entry;
  entry.type = static_cast<JournalRecord>(raw_type);
  Reader p(data + payload_start, length);
  switch (entry.type) {
    case JournalRecord::CampaignBegin:
      entry.runner_spec = p.str();
      entry.seed = p.u64();
      entry.studies = p.u32();
      break;
    case JournalRecord::StudyBegin:
      entry.study = p.u32();
      entry.study_name = p.str();
      entry.study_digest = p.str();
      entry.experiments = p.u32();
      break;
    case JournalRecord::IndexDone:
      entry.study = p.u32();
      entry.index = p.u32();
      entry.result_key = p.str();
      break;
    case JournalRecord::StudyEnd:
      entry.study = p.u32();
      break;
    case JournalRecord::CampaignEnd:
      break;
  }
  p.expect_done();
  consumed = r.position();
  return entry;
}

}  // namespace loki::runtime
