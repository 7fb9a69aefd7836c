// State machine specification (§3.5.3).
//
// Textual format (one file per state machine):
//
//   global_state_list
//     <list of state names, one per line>
//   end_global_state_list
//   event_list
//     <list of local event names, one per line>
//   end_event_list
//   state <name> [notify <nick_1> ... <nick_k>]
//     <event> <next_state>
//     ...
//
// The global_state_list covers the states of *all* machines in the system
// (they share one name space so local timelines can index any state); the
// event_list holds only this machine's local events. The reserved event
// `default` acts as a wildcard transition for events without an explicit
// arc, matching the thesis' reserved-event list.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace loki::spec {

struct StateDef {
  std::string name;
  /// State machines to notify when this machine *enters* this state.
  std::vector<std::string> notify;
  /// event -> next state.
  std::map<std::string, std::string> transitions;
  /// Wildcard transition (`default <next>`), if any.
  std::optional<std::string> default_next;
};

/// Immutable-by-sharing: the parsed tables live behind one shared block, so
/// copying a spec — which generators, campaign base-params, NodeConfig and
/// CompiledStudy all do per experiment — is a reference-count bump instead
/// of re-allocating every string, map node and def. The only mutator,
/// set_name(), detaches (copy-on-write). Two copies of one spec also
/// compare equal by pointer (identity()), which is the per-experiment
/// compatibility fast path of compile-once campaigns.
class StateMachineSpec {
 public:
  StateMachineSpec();
  StateMachineSpec(std::string name, std::vector<std::string> states,
                   std::vector<std::string> events,
                   std::vector<StateDef> defs);

  const std::string& name() const { return data_->name; }
  void set_name(std::string n);

  const std::vector<std::string>& states() const { return data_->states; }
  const std::vector<std::string>& events() const { return data_->events; }

  bool has_state(const std::string& s) const;
  bool has_event(const std::string& e) const;

  /// The defined states (a subset of states(): only those with a `state`
  /// block belong to this machine).
  const std::vector<StateDef>& state_defs() const { return data_->defs; }
  const StateDef* find_state(const std::string& s) const;

  /// Next state for (state, event), honouring the `default` wildcard.
  /// nullopt when the event does not cause a transition in this state.
  std::optional<std::string> transition(const std::string& state,
                                        const std::string& event) const;

  /// Notify list on entering `state` (empty if state undefined).
  const std::vector<std::string>& notify_list(const std::string& state) const;

  /// Shared-storage token: equal tokens imply deeply equal specs (copies
  /// share one block until set_name detaches). Used as the equality fast
  /// path; unequal tokens say nothing.
  const void* identity() const { return data_.get(); }

  /// serialize_state_machine_spec(*this), computed on first use and kept
  /// in the shared block, so every copy of one parsed spec serializes once
  /// (the cache key encodes each node's spec per experiment). Thread-safe.
  const std::string& text() const;

 private:
  /// Lazily filled serialized text. Copying yields an empty memo, so a
  /// block detached by set_name() computes its own.
  struct TextMemo {
    TextMemo() = default;
    TextMemo(const TextMemo&) {}
    TextMemo& operator=(const TextMemo&) = delete;
    std::once_flag once;
    std::string text;
  };

  struct Data {
    std::string name;
    std::vector<std::string> states;
    std::vector<std::string> events;
    std::vector<StateDef> defs;
    std::map<std::string, std::size_t> def_index;
    mutable TextMemo memo;
  };

  std::shared_ptr<const Data> data_;
};

/// Parse the textual format. `source_name` is used in error messages.
/// The machine's nickname is not part of the file (§3.5.3); callers assign
/// it via set_name().
StateMachineSpec parse_state_machine_spec(const std::string& content,
                                          const std::string& source_name);

/// Serialize back to the textual format (round-trip tested).
std::string serialize_state_machine_spec(const StateMachineSpec& spec);

}  // namespace loki::spec
