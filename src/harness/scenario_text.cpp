#include "harness/scenario_text.hpp"

#include <sstream>

#include "common/text_input.hpp"

namespace esm::harness {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::ScenarioScript;
using fault::SelectorKind;

/// `<value_key>=X [<duration_key>=DUR]`, plus `[link=A-B]` when
/// `scoped`: the arguments of every burst command.
void parse_burst(const text::Line& line, const char* value_key,
                 const char* duration_key, bool scoped, FaultEvent& event) {
  const char* command = line.tokens[1].c_str();
  const text::KvArgs args =
      scoped ? line.kv(2, command, {value_key}, {duration_key, "link"})
             : line.kv(2, command, {value_key}, {duration_key});
  event.value = line.real(*args.find(value_key));
  if (const std::string* d = args.find(duration_key)) {
    event.duration = line.time(*d);
  }
  const std::string* link = args.find("link");
  if (link == nullptr) return;
  const std::size_t dash = link->find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= link->size()) {
    line.fail("link scope must be link=A-B, got '" + *link + "'");
  }
  event.link_a = line.node_id(link->substr(0, dash));
  event.link_b = line.node_id(link->substr(dash + 1));
}

void parse_selector(const text::Line& line, bool is_recover,
                    FaultEvent& event) {
  const auto& tokens = line.tokens;
  const std::string what = is_recover ? "recover" : "crash";
  if (tokens.size() < 3) line.fail(what + " needs a selector");
  const std::string& sel = tokens[2];
  if (sel == "nodes") {
    if (tokens.size() != 4) line.fail(what + " nodes needs one node list");
    event.selector = SelectorKind::ids;
    event.ids = line.node_list(tokens[3]);
    return;
  }
  if (is_recover && sel == "all") {
    if (tokens.size() != 3) line.fail("recover all takes no arguments");
    event.selector = SelectorKind::all_crashed;
    return;
  }
  if (sel == "best") {
    event.selector = SelectorKind::best;
  } else if (sel == "worst") {
    event.selector = SelectorKind::worst;
  } else if (sel == "random") {
    event.selector = SelectorKind::random;
  } else {
    line.fail(what + ": unknown selector '" + sel + "'");
  }
  if (tokens.size() != 4) line.fail(what + " " + sel + " needs a count");
  event.count = line.uint<std::uint32_t>(tokens[3], "count");
  if (event.count == 0) line.fail("count must be > 0");
}

void parse_event(const text::Line& line, ScenarioScript& script) {
  const auto& tokens = line.tokens;
  if (tokens.size() < 2) line.fail("expected '<time> <command> ...'");
  FaultEvent event;
  event.at = line.time(tokens[0]);
  const std::string& command = tokens[1];

  if (command == "phase") {
    event.kind = FaultKind::phase;
    event.label = line.join(2);
    if (event.label.empty()) line.fail("phase needs a label");
    if (event.label.find(',') != std::string::npos) {
      // Caught here so the diagnostic names the scenario line instead of
      // a "bad field count" error deep in a later trace-CSV parse.
      line.fail("phase label must not contain commas (it becomes a "
                "trace CSV field): '" + event.label + "'");
    }
  } else if (command == "crash" || command == "recover") {
    event.kind = command == "crash" ? FaultKind::crash : FaultKind::recover;
    parse_selector(line, command == "recover", event);
  } else if (command == "partition") {
    event.kind = FaultKind::partition;
    // Rejoin the rest of the line and split it on '|', so each group is
    // one comma-separated list; groups may contain spaces around '|'.
    const std::string rest = line.join(2, "");
    if (rest.empty()) line.fail("partition needs at least one group");
    for (const std::string_view group : text::split(rest, '|')) {
      if (group.empty()) line.fail("empty partition group");
      event.groups.push_back(line.node_list(group));
    }
  } else if (command == "heal") {
    if (tokens.size() != 2) line.fail("heal takes no arguments");
    event.kind = FaultKind::heal;
  } else if (command == "loss") {
    event.kind = FaultKind::loss_burst;
    parse_burst(line, "rate", "for", true, event);
  } else if (command == "latency") {
    event.kind = FaultKind::latency_spike;
    parse_burst(line, "factor", "for", true, event);
  } else if (command == "churn") {
    event.kind = FaultKind::churn;
    parse_burst(line, "rate", "for", false, event);
  } else if (command == "noise") {
    event.kind = FaultKind::noise_ramp;
    parse_burst(line, "to", "over", false, event);
  } else {
    line.fail("unknown command '" + command + "'");
  }
  script.events.push_back(std::move(event));
}

}  // namespace

fault::ScenarioScript parse_scenario(std::istream& is, NodeId num_nodes) {
  ScenarioScript script;
  text::for_each_line(
      is, "scenario",
      [&](const text::Line& line) { parse_event(line, script); }, num_nodes);
  script.sort();
  return script;
}

fault::ScenarioScript parse_scenario(const std::string& text) {
  std::istringstream stream(text);
  return parse_scenario(stream);
}

fault::ScenarioScript load_scenario_file(const std::string& path,
                                         NodeId num_nodes) {
  return text::load_file(path, "scenario", [num_nodes](std::istream& is) {
    return parse_scenario(is, num_nodes);
  });
}

}  // namespace esm::harness
