// Command-line front end for the experiment harness.
//
// Parsing is a pure function from argv to ExperimentConfig so it can be
// unit-tested; the `esm_run` tool is a thin wrapper that parses, runs and
// prints. Flags mirror the paper's knobs one-to-one.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"

namespace esm::harness {

struct CliOptions {
  ExperimentConfig config;
  /// Print machine-readable key=value lines instead of the table.
  bool json = false;
  /// --help was requested; `help_text` should be printed.
  bool help = false;
  /// --scenario FILE: fault-scenario script to load into config.scenario.
  /// The parser stays pure (no file IO); tools load the file themselves
  /// via load_scenario_file().
  std::string scenario_path;
  /// --workload FILE: heavy-traffic workload spec (src/load) to load into
  /// config.workload via load_workload_file(). Mutually exclusive with the
  /// inline --senders/--rate/... flags, which build config.workload
  /// directly in the parser.
  std::string workload_path;
};

/// Usage text for `esm_run --help`.
std::string cli_help_text();

/// Parses CLI arguments (excluding argv[0]). On error returns nullopt and
/// sets `error` to a one-line diagnostic naming the offending flag.
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error);

/// Renders an ExperimentResult as `key=value` lines (stable interface for
/// scripts; one metric per line).
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

/// Every parameter name apply_sweep_param accepts, in usage order.
inline constexpr std::array<const char*, 24> kSweepParams = {
    "pi", "u", "rho", "best", "noise", "t0-ms", "loss", "kill", "churn",
    "batch-ms", "interval-ms", "period-ms", "retry-rounds", "fanout",
    "nodes", "messages", "seed", "shards", "backpressure", "senders", "rate",
    "duration-ms", "burst-on-ms", "burst-off-ms"};

/// Applies one named sweep parameter (one of kSweepParams) to a config
/// (used by `esm_sweep`). Integer parameters take only whole values in
/// their type's range. Returns false and sets `error` for unknown names,
/// invalid values, and points that fail shard_gate_error().
bool apply_sweep_param(ExperimentConfig& config, const std::string& name,
                       double value, std::string& error);

/// Parses a comma-separated list of numbers ("0,0.5,1"). Returns nullopt
/// and sets `error` on malformed input.
std::optional<std::vector<double>> parse_value_list(const std::string& text,
                                                    std::string& error);

}  // namespace esm::harness
