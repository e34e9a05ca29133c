#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace esm::obs {

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string json_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void MetricsRegistry::gauge_max(const std::string& name, double value) {
  const auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const stats::LogHistogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauge_max(name, value);
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void MetricsRegistry::append_json(std::string& out) const {
  const auto block = [&out](const char* head, const auto& map, auto render) {
    out += head;
    for (auto it = map.begin(); it != map.end(); ++it) {
      if (it != map.begin()) out += ',';
      append_json_string(out, it->first);
      out += ':';
      out += render(it->second);
    }
  };
  block("{\"counters\":{", counters_,
        [](std::uint64_t v) { return std::to_string(v); });
  block("},\"gauges\":{", gauges_, json_double);
  block("},\"histograms\":{", histograms_,
        [](const stats::LogHistogram& h) { return h.to_json(); });
  out += "}}";
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

void RunMetrics::merge(const RunMetrics& other) {
  aggregate.merge(other.aggregate);
  if (other.per_node.size() > per_node.size()) {
    per_node.resize(other.per_node.size());
  }
  for (std::size_t i = 0; i < other.per_node.size(); ++i) {
    per_node[i].merge(other.per_node[i]);
  }
  runs += other.runs;
}

}  // namespace esm::obs
