// esm_trees: offline emergent-structure analysis of a trace CSV.
//
//   esm_run --nodes 200 --strategy ranked --trace run.csv
//   esm_trees run.csv
//   esm_trees --kv run.csv            # key=value lines for scripts
//   esm_trees --window-start 30 --window-end 60 run.csv
//   esm_run ... --trace-stream - | esm_trees -
//
// Reconstructs the per-message first-delivery spanning trees from the
// trace (schema v1 or v2; v1 rows lack sender attribution, so edges are
// only available from v2 traces) and prints their structure metrics:
// eager-hop share, tree-edge latency vs. all payload links, depth, edge
// stability (consecutive-tree Jaccard overlap) and eager-fanout
// concentration. No topology is available offline, so the all-pairs
// overlay baseline and capacity-rank columns are left out — use
// `esm_run --tree-stats` for those.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/text_input.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "obs/tree_stats.hpp"
#include "trace/trace_log.hpp"

namespace {

constexpr const char* kUsage = R"(usage: esm_trees [options] <trace.csv | ->

Reconstructs per-message first-delivery dissemination trees from a trace
CSV written by `esm_run --trace` / `--trace-stream` and reports their
structure metrics. Reads stdin when the file is `-`.

Options:
  --kv                print key=value lines instead of tables
  --window-start S    only analyze messages multicast at or after S seconds
  --window-end S      ...and before S seconds
  --top F             fraction used for the eager-fanout concentration
                      metric (default 0.05)
  --no-phases         skip the per-phase breakdown table
  --help              this text
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace esm;

  std::string path;
  bool kv = false;
  bool with_phases = true;
  double window_start_s = 0.0;
  double window_end_s = 0.0;
  double top = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](double& out) {
      const auto parsed =
          i + 1 < argc ? text::parse_double(argv[i + 1]) : std::nullopt;
      if (!parsed || *parsed < 0.0) {
        std::fprintf(stderr, "esm_trees: %s needs a non-negative number\n",
                     arg.c_str());
        return false;
      }
      out = *parsed;
      ++i;
      return true;
    };
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--kv") {
      kv = true;
    } else if (arg == "--no-phases") {
      with_phases = false;
    } else if (arg == "--window-start") {
      if (!value(window_start_s)) return 2;
    } else if (arg == "--window-end") {
      if (!value(window_end_s)) return 2;
    } else if (arg == "--top") {
      if (!value(top)) return 2;
      if (top <= 0.0 || top > 1.0) {
        std::fprintf(stderr, "esm_trees: --top must be in (0, 1]\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "esm_trees: unknown flag '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "esm_trees: more than one input file\n%s", kUsage);
      return 2;
    }
  }
  if (path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  trace::TraceLog trace;
  try {
    if (path == "-") {
      trace = trace::TraceLog::read_csv(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "esm_trees: cannot open %s\n", path.c_str());
        return 1;
      }
      trace = trace::TraceLog::read_csv(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_trees: %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  obs::TreeStatsOptions options;
  options.window_start =
      static_cast<SimTime>(window_start_s * static_cast<double>(kSecond));
  options.window_end =
      static_cast<SimTime>(window_end_s * static_cast<double>(kSecond));
  const obs::TreeStats stats = obs::analyze_trees(trace, options);

  if (stats.messages == 0) {
    std::fprintf(stderr,
                 "esm_trees: no deliveries in the analysis window (%llu "
                 "deliveries, %llu payload rows in the trace)\n",
                 static_cast<unsigned long long>(trace.delivery_count()),
                 static_cast<unsigned long long>(trace.payload_count()));
    return 1;
  }

  if (kv) {
    std::fputs(harness::format_tree_kv(stats).c_str(), stdout);
    std::printf("tree_eager_child_top_share=%g\ntree_eager_child_top=%g\n",
                stats.eager_child_concentration(top), top);
    return 0;
  }

  harness::Table table("emergent structure: " + path);
  table.header({"metric", "value"});
  table.row({"messages / tree edges", std::to_string(stats.messages) + " / " +
                                          std::to_string(stats.edges)});
  table.row({"orphan deliveries (no parent)",
             std::to_string(stats.orphan_deliveries)});
  table.row({"eager hop share (%)",
             harness::Table::num(100.0 * stats.eager_hop_share(), 2)});
  table.row({"tree-edge latency mean (ms)",
             harness::Table::num(stats.mean_edge_latency_ms(), 2)});
  table.row({"all-link latency mean (ms)",
             harness::Table::num(stats.mean_link_latency_ms(), 2)});
  table.row({"tree depth mean / max",
             harness::Table::num(stats.mean_depth(), 2) + " / " +
                 std::to_string(stats.max_depth())});
  table.row({"edge overlap (Jaccard)",
             harness::Table::num(stats.mean_jaccard(), 3)});
  table.row({"eager fanout: top-" + harness::Table::num(100.0 * top, 0) +
                 "% node share (%)",
             harness::Table::num(
                 100.0 * stats.eager_child_concentration(top), 1)});
  table.print();

  // Phase rows (scenario runs) partition the trace timeline; re-running
  // the analyzer per window shows how the structure shifts across fault
  // phases. Each window is [phase i, phase i+1), the last one unbounded.
  const auto& phases = trace.phases();
  if (with_phases && !phases.empty()) {
    harness::Table per_phase("per-phase structure");
    per_phase.header({"phase", "from s", "msgs", "edges", "eager %",
                      "edge ms", "jaccard"});
    for (std::size_t i = 0; i < phases.size(); ++i) {
      obs::TreeStatsOptions window;
      window.window_start = phases[i].time;
      window.window_end = i + 1 < phases.size() ? phases[i + 1].time : 0;
      const obs::TreeStats p = obs::analyze_trees(trace, window);
      per_phase.row(
          {phases[i].label,
           harness::Table::num(static_cast<double>(phases[i].time) /
                                   static_cast<double>(kSecond), 1),
           std::to_string(p.messages), std::to_string(p.edges),
           harness::Table::num(100.0 * p.eager_hop_share(), 2),
           harness::Table::num(p.mean_edge_latency_ms(), 2),
           harness::Table::num(p.mean_jaccard(), 3)});
    }
    per_phase.print();
  }
  return 0;
}
