// esm_sweep: sweep one parameter over a list of values and print the
// resulting latency/bandwidth/reliability series — a generic version of
// the figure benches for user-chosen configurations.
//
//   esm_sweep --param pi --values 0,0.2,0.5,1
//   esm_sweep --param noise --values 0,0.25,0.5,1 --strategy ranked
//   esm_sweep --param kill --values 0,0.2,0.4 --strategy ttl --u 3 --csv
//
// Any esm_run flag is accepted as the base configuration, and point V is
// exactly what esm_run builds from the base flags followed by --NAME V:
// sweep names are flag names, and values use the flag's grammar. esm_run's
// single-run flags (--reps, --trace, --trace-stream, --metrics-out,
// --expect) are rejected. --csv emits machine-readable rows instead of the
// table. Points run concurrently on --jobs worker threads (default:
// hardware concurrency); each point owns its Simulator and RNG streams, so
// output is byte-identical to --jobs 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  using namespace esm;
  std::vector<std::string> args(argv + 1, argv + argc);

  std::string param, values_text;
  bool csv = false;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == "--param" || args[i] == "--values") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "esm_sweep: %s requires a value\n",
                     args[i].c_str());
        return 2;
      }
      (args[i] == "--param" ? param : values_text) = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--csv") {
      csv = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (param.empty() || values_text.empty()) {
    std::fprintf(stderr,
                 "esm_sweep: --param NAME and --values V1,V2,... are "
                 "required.\nNAME is any esm_run flag that takes a value, "
                 "without its dashes; each value uses that flag's "
                 "grammar.\nAll esm_run flags form the base "
                 "configuration;\n"
                 "--jobs N runs points concurrently (default: all cores).\n");
    return 2;
  }
  std::string error;
  const auto sweep = harness::parse_sweep(args, param, values_text, error);
  if (!sweep) {
    std::fprintf(stderr, "esm_sweep: %s\n", error.c_str());
    return 2;
  }
  const std::vector<harness::ExperimentConfig>& configs = sweep->points;
  const harness::ExperimentConfig& base = sweep->base.config;

  std::vector<harness::ExperimentResult> results;
  try {
    results = harness::run_experiments(configs, sweep->base.jobs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_sweep: %s\n", e.what());
    return 1;
  }

  // With --tree-stats each point also reports the emergent-structure
  // series: eager-hop share, tree-edge latency vs the all-pairs overlay
  // baseline, and consecutive-tree Jaccard overlap.
  const bool tree = base.collect_tree_stats;
  // Workload sweeps also report the offered-load/goodput series — the
  // saturation-knee axes.
  const bool load_cols =
      std::any_of(configs.begin(), configs.end(),
                  [](const auto& c) { return !c.workload.empty(); });

  harness::Table table("sweep of " + param + " (" +
                       base.strategy.describe() + ")");
  std::vector<std::string> header = {param, "latency ms", "p95 ms",
                                     "payload/msg", "deliveries %", "top5 %",
                                     "retries", "stalled"};
  if (load_cols) {
    header.insert(header.end(),
                  {"offered/s", "goodput/s", "redund", "knee ms"});
  }
  if (tree) {
    header.insert(header.end(),
                  {"eager %", "edge ms", "overlay ms", "jaccard"});
  }
  table.header(header);
  if (csv) {
    std::printf(
        "%s,latency_ms,p95_ms,payload_per_msg,deliveries,top5_share,"
        "iwant_retries,recovery_stalled%s%s\n",
        param.c_str(),
        load_cols ? ",offered_msgs_per_s,goodput_msgs_per_s,redundancy_ratio,"
                    "knee_time_ms"
                  : "",
        tree ? ",tree_eager_hop_share,tree_edge_latency_ms,"
               "tree_overlay_latency_ms,tree_mean_jaccard"
             : "");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& label = sweep->values[i];
    const harness::ExperimentResult& r = results[i];
    if (csv) {
      std::printf("%s,%.3f,%.3f,%.3f,%.5f,%.5f,%llu,%llu", label.c_str(),
                  r.mean_latency_ms, r.p95_latency_ms,
                  r.load_all.payload_per_msg, r.mean_delivery_fraction,
                  r.top5_connection_share,
                  static_cast<unsigned long long>(r.iwant_retries),
                  static_cast<unsigned long long>(r.recovery_stalled));
      if (load_cols) {
        std::printf(",%.3f,%.3f,%.3f,%.0f", r.offered_msgs_per_s,
                    r.goodput_msgs_per_s, r.redundancy_ratio, r.knee_time_ms);
      }
      if (tree && r.tree_stats) {
        std::printf(",%.5f,%.3f,%.3f,%.5f", r.tree_stats->eager_hop_share(),
                    r.tree_stats->mean_edge_latency_ms(),
                    r.tree_stats->overlay_mean_link_ms(),
                    r.tree_stats->mean_jaccard());
      } else if (tree) {
        std::printf(",,,,");
      }
      std::printf("\n");
    } else {
      std::vector<std::string> row = {
          label,
          harness::Table::num(r.mean_latency_ms, 0),
          harness::Table::num(r.p95_latency_ms, 0),
          harness::Table::num(r.load_all.payload_per_msg, 2),
          harness::Table::num(100.0 * r.mean_delivery_fraction, 2),
          harness::Table::num(100.0 * r.top5_connection_share, 1),
          std::to_string(r.iwant_retries),
          std::to_string(r.recovery_stalled)};
      if (load_cols) {
        row.push_back(harness::Table::num(r.offered_msgs_per_s, 1));
        row.push_back(harness::Table::num(r.goodput_msgs_per_s, 1));
        row.push_back(harness::Table::num(r.redundancy_ratio, 2));
        row.push_back(r.knee_time_ms < 0.0
                          ? std::string("none")
                          : harness::Table::num(r.knee_time_ms, 0));
      }
      if (tree) {
        if (r.tree_stats) {
          row.push_back(harness::Table::num(
              100.0 * r.tree_stats->eager_hop_share(), 2));
          row.push_back(
              harness::Table::num(r.tree_stats->mean_edge_latency_ms(), 2));
          row.push_back(
              harness::Table::num(r.tree_stats->overlay_mean_link_ms(), 2));
          row.push_back(harness::Table::num(r.tree_stats->mean_jaccard(), 3));
        } else {
          row.insert(row.end(), {"-", "-", "-", "-"});
        }
      }
      table.row(row);
    }
  }
  if (!csv) table.print();
  return 0;
}
