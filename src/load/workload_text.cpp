#include "load/workload_text.hpp"

#include <sstream>
#include <stdexcept>

#include "common/text_input.hpp"

namespace esm::load {
namespace {

std::uint32_t topic_index(const WorkloadSpec& spec, const text::Line& line,
                          const std::string& name) {
  for (std::size_t i = 0; i < spec.topics.size(); ++i) {
    if (spec.topics[i].name == name) return static_cast<std::uint32_t>(i);
  }
  line.fail("unknown topic '" + name + "' (declare it before use)");
}

void parse_topic(const text::Line& line, WorkloadSpec& spec) {
  if (line.tokens.size() < 3) {
    line.fail("topic needs a name and nodes=/fraction=");
  }
  TopicSpec topic;
  topic.name = line.tokens[1];
  if (topic.name.find('=') != std::string::npos) {
    line.fail("topic needs a name before its arguments");
  }
  for (const TopicSpec& t : spec.topics) {
    if (t.name == topic.name) line.fail("duplicate topic '" + t.name + "'");
  }
  const text::KvArgs args = line.kv(2, "topic", {}, {"nodes", "fraction"});
  const std::string* nodes = args.find("nodes");
  const std::string* fraction = args.find("fraction");
  if ((nodes != nullptr) == (fraction != nullptr)) {
    line.fail("topic needs exactly one of nodes=... or fraction=...");
  }
  if (nodes != nullptr) {
    topic.members = line.node_list(*nodes);
  } else {
    topic.fraction = line.real(*fraction);
    if (!(topic.fraction > 0.0 && topic.fraction <= 1.0)) {
      line.fail("fraction must be in (0, 1]");
    }
  }
  spec.topics.push_back(std::move(topic));
}

void parse_publisher(const text::Line& line, WorkloadSpec& spec) {
  if (line.tokens.size() < 2) {
    line.fail("publisher needs an arrival kind (poisson/fixed/burst)");
  }
  PublisherSpec pub;
  const std::string& kind = line.tokens[1];
  if (kind == "poisson") {
    pub.arrival = ArrivalKind::poisson;
  } else if (kind == "fixed") {
    pub.arrival = ArrivalKind::fixed_rate;
  } else if (kind == "burst") {
    pub.arrival = ArrivalKind::burst;
  } else {
    line.fail("unknown arrival kind '" + kind + "' (poisson, fixed or burst)");
  }
  const text::KvArgs args =
      line.kv(2, "publisher", {"rate"},
              {"topic", "node", "payload", "start", "stop", "on", "off"});
  pub.rate = line.real(*args.find("rate"));
  if (!(pub.rate > 0.0)) line.fail("rate must be > 0");
  if (const std::string* v = args.find("topic")) {
    pub.topic = topic_index(spec, line, *v);
  }
  if (const std::string* v = args.find("node")) {
    pub.node = line.node_id(*v);
  }
  if (const std::string* v = args.find("payload")) {
    pub.payload_bytes = line.uint<std::uint32_t>(*v, "payload");
  }
  if (const std::string* v = args.find("start")) pub.start = line.time(*v);
  if (const std::string* v = args.find("stop")) pub.stop = line.time(*v);
  const auto burst_time = [&](const char* key, SimTime& out) {
    const std::string* v = args.find(key);
    if (v == nullptr) return;
    if (pub.arrival != ArrivalKind::burst) {
      line.fail(std::string(key) + "= only applies to burst publishers");
    }
    out = line.time(*v);
  };
  burst_time("on", pub.burst_on);
  burst_time("off", pub.burst_off);
  spec.publishers.push_back(pub);
}

}  // namespace

WorkloadSpec parse_workload(std::istream& is, NodeId num_nodes) {
  WorkloadSpec spec;
  text::for_each_line(is, "workload", [&](const text::Line& line) {
    const std::string& command = line.tokens[0];
    if (command == "duration") {
      if (line.tokens.size() != 2) line.fail("duration takes one time");
      spec.duration = line.time(line.tokens[1]);
      if (spec.duration <= 0) line.fail("duration must be > 0");
    } else if (command == "limit") {
      if (line.tokens.size() != 2) line.fail("limit takes one count");
      spec.max_messages = line.uint<std::uint32_t>(line.tokens[1], "limit");
      if (spec.max_messages == 0) line.fail("limit must be > 0");
    } else if (command == "topic") {
      parse_topic(line, spec);
    } else if (command == "publisher") {
      parse_publisher(line, spec);
    } else {
      line.fail("unknown directive '" + command + "'");
    }
  }, num_nodes);
  if (spec.publishers.empty()) {
    throw std::runtime_error("workload: no publishers declared");
  }
  return spec;
}

WorkloadSpec parse_workload(const std::string& text) {
  std::istringstream stream(text);
  return parse_workload(stream);
}

WorkloadSpec load_workload_file(const std::string& path, NodeId num_nodes) {
  return text::load_file(path, "workload", [num_nodes](std::istream& is) {
    return parse_workload(is, num_nodes);
  });
}

}  // namespace esm::load
