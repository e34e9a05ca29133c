// What a run exports. One ordered list names every scalar a run leaves
// by: its --kv line, its key in the metrics document's aggregate, or
// both. format_result_kv prints the list's kv rows in order and
// Assembly::finalize writes its keyed rows into the metrics document, so
// a number added here appears in both. The renderers of the kv text and
// the metrics JSON live here too.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "harness/experiment.hpp"

namespace esm::harness {

/// One exported run scalar.
struct RunScalar {
  /// How the metrics key merges across shards and --reps.
  enum class Merge : std::uint8_t { counter, gauge };
  /// When the row is exported: always; only at shards_used >= 2; or
  /// always as a kv line but as a metrics key only with --backpressure on.
  enum class When : std::uint8_t { always, sharded, backpressure };

  /// --kv name; nullptr for a number only the metrics document carries.
  const char* kv;
  /// Aggregate metrics key; nullptr for a kv-only number.
  const char* json;
  Merge merge;
  When when;
  /// Integers print as integers in kv; a counter key must hold one.
  std::variant<std::uint64_t, double> value;

  /// False for a sharded row of a single-engine run.
  bool exported(const ExperimentResult& result) const {
    return when != When::sharded || result.shards_used >= 2;
  }
};

/// 50 kv names and 32 metrics keys; 25 numbers carry both.
inline constexpr std::size_t kRunScalars = 57;

/// Every exported scalar of `result`, in kv order.
std::array<RunScalar, kRunScalars> run_scalars(const ExperimentResult& result);

/// Renders an ExperimentResult as `key=value` lines (stable interface for
/// scripts; one metric per line): the run_scalars kv rows, then the tree
/// block when the result carries tree stats, then the phase block when a
/// scenario ran.
std::string format_result_kv(const ExperimentResult& result);

/// Renders emergent-structure tree metrics as `tree_*=value` lines.
/// Appended to format_result_kv output automatically when the result
/// carries tree stats; exposed so tools can print stats merged across
/// --reps the same way.
std::string format_tree_kv(const obs::TreeStats& stats);

/// Renders merged run metrics as one deterministic JSON document (schema
/// "esm-metrics-v1"): schema tag, replication count, aggregate registry,
/// per-node registries, and (when scenarios ran) per-phase windows merged
/// by index using only the merge-exact fields (start from the first run,
/// end = max, message/delivery/payload counts summed). Every map is
/// emitted in sorted key order and doubles are printed with %.17g, so the
/// output is byte-identical however the runs were scheduled.
/// `phase_runs` holds one phase-report vector per replication (empty
/// vectors allowed; the "phases" key is omitted when none has phases).
std::string format_metrics_json(
    const obs::RunMetrics& metrics,
    const std::vector<std::vector<stats::PhaseReport>>& phase_runs);

}  // namespace esm::harness
