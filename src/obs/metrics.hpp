// Metrics registry — the storage layer of the observability subsystem.
//
// A MetricsRegistry is a bag of named metrics of three kinds:
//
//   * counters    — uint64, merge by summing;
//   * gauges      — double, merge by taking the maximum (used for
//                   peaks/watermarks, the only gauge semantics that merge
//                   deterministically without an ordering);
//   * histograms  — stats::LogHistogram, merge by exact bucket-wise add.
//
// Every merge operation is associative and commutative, and names are kept
// in sorted order (std::map), so aggregating per-node registries into a
// run-level one, run registries across --reps replicas, and rendering to
// JSON are all deterministic: the same inputs produce byte-identical
// output at any --jobs value and any merge order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace esm::obs {

/// Appends `text` as a JSON string, escaping quotes and backslashes.
void append_json_string(std::string& out, const std::string& text);

/// %.17g: round-trips doubles exactly and is locale-independent for the
/// values we emit, so JSON is byte-stable across runs and platforms.
std::string json_double(double value);

class MetricsRegistry {
 public:
  /// Adds `delta` to the named counter (created at 0 on first use).
  void add_counter(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }

  /// Raises the named gauge to `value` if higher (max-merge semantics;
  /// first write always sticks).
  void gauge_max(const std::string& name, double value);

  /// Named histogram, created empty on first use.
  stats::LogHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const stats::LogHistogram* find_histogram(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Merges another registry in: counters sum, gauges max, histograms
  /// bucket-add. Associative and commutative.
  void merge(const MetricsRegistry& other);

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, stats::LogHistogram>& histograms() const {
    return histograms_;
  }

  /// Deterministic single-line JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with keys in
  /// sorted order. Gauges are rendered with %.17g (round-trip exact).
  std::string to_json() const;
  void append_json(std::string& out) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, stats::LogHistogram> histograms_;
};

/// All metrics of one experiment run: the run-wide aggregate plus one
/// registry per node (indexed by NodeId). Merging two RunMetrics (e.g.
/// across --reps replicas) merges aggregate with aggregate and node i
/// with node i.
struct RunMetrics {
  MetricsRegistry aggregate;
  std::vector<MetricsRegistry> per_node;
  /// Number of experiment runs merged into this object.
  std::uint64_t runs = 1;

  void merge(const RunMetrics& other);
};

}  // namespace esm::obs
