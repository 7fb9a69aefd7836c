#include "spec/state_machine_spec.hpp"

#include <algorithm>

#include "spec/reserved.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"

namespace loki::spec {

StateMachineSpec::StateMachineSpec() {
  // The default-constructed spec's storage, shared by every empty instance
  // (NodeConfig value-initializes one per node per generated experiment).
  static const std::shared_ptr<const Data> kEmpty =
      std::make_shared<const Data>();
  data_ = kEmpty;
}

StateMachineSpec::StateMachineSpec(std::string name,
                                   std::vector<std::string> states,
                                   std::vector<std::string> events,
                                   std::vector<StateDef> defs) {
  auto data = std::make_shared<Data>();
  data->name = std::move(name);
  data->states = std::move(states);
  data->events = std::move(events);
  data->defs = std::move(defs);
  for (std::size_t i = 0; i < data->defs.size(); ++i) {
    LOKI_REQUIRE(!data->def_index.contains(data->defs[i].name),
                 "duplicate state def");
    data->def_index.emplace(data->defs[i].name, i);
  }
  data_ = std::move(data);
}

void StateMachineSpec::set_name(std::string n) {
  auto data = std::make_shared<Data>(*data_);  // detach: copy-on-write
  data->name = std::move(n);
  data_ = std::move(data);
}

const std::string& StateMachineSpec::text() const {
  TextMemo& memo = data_->memo;
  std::call_once(memo.once,
                 [&] { memo.text = serialize_state_machine_spec(*this); });
  return memo.text;
}

bool StateMachineSpec::has_state(const std::string& s) const {
  const auto& states = data_->states;
  return std::find(states.begin(), states.end(), s) != states.end();
}

bool StateMachineSpec::has_event(const std::string& e) const {
  const auto& events = data_->events;
  return std::find(events.begin(), events.end(), e) != events.end();
}

const StateDef* StateMachineSpec::find_state(const std::string& s) const {
  const auto it = data_->def_index.find(s);
  return it == data_->def_index.end() ? nullptr : &data_->defs[it->second];
}

std::optional<std::string> StateMachineSpec::transition(
    const std::string& state, const std::string& event) const {
  const StateDef* def = find_state(state);
  if (def == nullptr) return std::nullopt;
  const auto it = def->transitions.find(event);
  if (it != def->transitions.end()) return it->second;
  return def->default_next;
}

const std::vector<std::string>& StateMachineSpec::notify_list(
    const std::string& state) const {
  static const std::vector<std::string> kEmpty;
  const StateDef* def = find_state(state);
  return def == nullptr ? kEmpty : def->notify;
}

namespace {

enum class Section { Preamble, States, Events, Defs };

}  // namespace

StateMachineSpec parse_state_machine_spec(const std::string& content,
                                          const std::string& source_name) {
  std::vector<std::string> states;
  std::vector<std::string> events;
  std::vector<StateDef> defs;
  StateDef* current = nullptr;

  Section section = Section::Preamble;
  bool saw_states = false;
  bool saw_events = false;

  for (const TextLine& line : logical_lines(content)) {
    const std::vector<std::string> tokens = split_ws(line.text);
    const std::string& head = tokens.front();

    if (head == "global_state_list") {
      if (section != Section::Preamble || saw_states)
        throw ParseError(source_name, line.number, "unexpected global_state_list");
      section = Section::States;
      saw_states = true;
      continue;
    }
    if (head == "end_global_state_list") {
      if (section != Section::States)
        throw ParseError(source_name, line.number, "unmatched end_global_state_list");
      section = Section::Preamble;
      continue;
    }
    if (head == "event_list") {
      if (section != Section::Preamble || !saw_states || saw_events)
        throw ParseError(source_name, line.number,
                         "event_list must follow global_state_list");
      section = Section::Events;
      saw_events = true;
      continue;
    }
    if (head == "end_event_list") {
      if (section != Section::Events)
        throw ParseError(source_name, line.number, "unmatched end_event_list");
      section = Section::Defs;
      continue;
    }

    switch (section) {
      case Section::States: {
        if (tokens.size() != 1 || !is_identifier(head))
          throw ParseError(source_name, line.number, "bad state name: " + line.text);
        if (std::find(states.begin(), states.end(), head) != states.end())
          throw ParseError(source_name, line.number, "duplicate state: " + head);
        states.push_back(head);
        break;
      }
      case Section::Events: {
        if (tokens.size() != 1 ||
            !(is_identifier(head) || head == kEventDefault))
          throw ParseError(source_name, line.number, "bad event name: " + line.text);
        if (std::find(events.begin(), events.end(), head) != events.end())
          throw ParseError(source_name, line.number, "duplicate event: " + head);
        events.push_back(head);
        break;
      }
      case Section::Defs: {
        if (head == "state") {
          if (tokens.size() < 2)
            throw ParseError(source_name, line.number, "state needs a name");
          const std::string& state_name = tokens[1];
          if (std::find(states.begin(), states.end(), state_name) == states.end())
            throw ParseError(source_name, line.number,
                             "state not in global_state_list: " + state_name);
          for (const StateDef& d : defs)
            if (d.name == state_name)
              throw ParseError(source_name, line.number,
                               "duplicate state definition: " + state_name);
          StateDef def;
          def.name = state_name;
          if (tokens.size() > 2) {
            if (tokens[2] != "notify")
              throw ParseError(source_name, line.number,
                               "expected 'notify', got: " + tokens[2]);
            for (std::size_t i = 3; i < tokens.size(); ++i) {
              // Tolerate comma-separated notify lists as in the thesis text
              // ("notify <nickname_1>, ... <nickname_j>").
              for (const std::string& part : split_char(tokens[i], ',')) {
                const auto nick = std::string(trim(part));
                if (nick.empty()) continue;
                if (!is_identifier(nick))
                  throw ParseError(source_name, line.number, "bad nickname: " + nick);
                def.notify.push_back(nick);
              }
            }
          }
          defs.push_back(std::move(def));
          current = &defs.back();
          break;
        }
        // Otherwise a transition line: <event> <next_state>.
        if (current == nullptr)
          throw ParseError(source_name, line.number,
                           "transition before any state definition");
        if (tokens.size() != 2)
          throw ParseError(source_name, line.number,
                           "expected '<event> <next_state>': " + line.text);
        const std::string& event = tokens[0];
        const std::string& next = tokens[1];
        if (event != kEventDefault &&
            std::find(events.begin(), events.end(), event) == events.end())
          throw ParseError(source_name, line.number, "event not in event_list: " + event);
        if (std::find(states.begin(), states.end(), next) == states.end())
          throw ParseError(source_name, line.number,
                           "next state not in global_state_list: " + next);
        if (event == kEventDefault) {
          if (current->default_next.has_value())
            throw ParseError(source_name, line.number, "duplicate default transition");
          current->default_next = next;
        } else {
          if (!current->transitions.emplace(event, next).second)
            throw ParseError(source_name, line.number,
                             "duplicate transition for event: " + event);
        }
        break;
      }
      case Section::Preamble:
        throw ParseError(source_name, line.number,
                         "content before global_state_list: " + line.text);
    }
  }

  if (!saw_states || !saw_events)
    throw ParseError(source_name, 1, "missing global_state_list or event_list");

  return StateMachineSpec("", std::move(states), std::move(events), std::move(defs));
}

std::string serialize_state_machine_spec(const StateMachineSpec& spec) {
  std::string out;
  out += "global_state_list\n";
  for (const auto& s : spec.states()) out += "  " + s + "\n";
  out += "end_global_state_list\n";
  out += "event_list\n";
  for (const auto& e : spec.events()) out += "  " + e + "\n";
  out += "end_event_list\n";
  for (const StateDef& def : spec.state_defs()) {
    out += "state " + def.name;
    if (!def.notify.empty()) out += " notify " + join(def.notify, " ");
    out += "\n";
    for (const auto& [event, next] : def.transitions)
      out += "  " + event + " " + next + "\n";
    if (def.default_next.has_value())
      out += "  default " + *def.default_next + "\n";
  }
  return out;
}

}  // namespace loki::spec
