// Command-line front end for the experiment harness.
//
// One table declares every flag: its name, metavar, help text, section and
// a typed binding into CliOptions. Parsing, --help and esm_sweep's points
// all come from it. Parsing is a pure function from argv to CliOptions so
// it can be unit-tested; the `esm_run` tool is a thin wrapper that
// parses, loads input files, runs and prints. Flags mirror the paper's
// knobs one-to-one.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"  // the renderers, for callers of this header

namespace esm::harness {

struct CliOptions {
  ExperimentConfig config;
  /// Print machine-readable key=value lines instead of the table.
  bool json = false;
  /// --help was requested; `help_text` should be printed.
  bool help = false;
  /// --scenario FILE: fault-scenario script to load into config.scenario.
  /// The parser stays pure (no file IO); load_input_files() reads it.
  std::string scenario_path;
  /// --workload FILE: heavy-traffic workload spec (src/load) to load into
  /// config.workload via load_input_files(). Mutually exclusive with the
  /// inline --senders/--rate/... flags, which build config.workload
  /// directly in the parser.
  std::string workload_path;
  /// --reps N: replications with seeds seed..seed+N-1.
  std::uint64_t reps = 1;
  /// --jobs N: worker threads for --reps and sweeps; 0 = hardware
  /// concurrency.
  unsigned jobs = 0;
  /// Files esm_run writes or reads itself: --trace (buffered CSV),
  /// --trace-stream (rows while the run executes), --metrics-out and the
  /// repeatable --expect. `-` means stdout for the two streams.
  std::string trace_path;
  std::string trace_stream_path;
  std::string metrics_path;
  std::vector<std::string> expect_paths;
};

/// Usage text for `esm_run --help`, generated from the flag table.
std::string cli_help_text();

/// Parses CLI arguments (excluding argv[0]). On error returns nullopt and
/// sets `error` to a one-line diagnostic naming the offending flag.
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error);

/// Loads the --scenario and --workload files named in `options` into its
/// config, then checks the final config (config_error). Returns false
/// and sets `error` to one line when a file or the config is rejected.
bool load_input_files(CliOptions& options, std::string& error);

/// An esm_sweep invocation. Point i is exactly the config esm_run builds
/// from the base flags followed by `--PARAM values[i]`.
struct Sweep {
  CliOptions base;
  /// The --values tokens, as given; they label the points.
  std::vector<std::string> values;
  std::vector<ExperimentConfig> points;
};

/// Parses the base flags and every point of a sweep over the flag named
/// `param` (without its dashes), loading input files per point, so every
/// point is checked before any runs. The flags esm_run handles as a
/// single run with output files are rejected.
std::optional<Sweep> parse_sweep(const std::vector<std::string>& base,
                                 const std::string& param,
                                 std::string_view values, std::string& error);

}  // namespace esm::harness
