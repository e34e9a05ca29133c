// esm_run: run one experiment from the command line.
//
//   esm_run --strategy hybrid --rho 10 --u 3 --best 0.05 --nodes 100
//   esm_run --strategy flat --pi 0 --loss 0.01 --kv
//   esm_run --strategy ttl --u 3 --reps 8 --jobs 8   # CI-style replication
//
// --reps N runs N replications of the same configuration with seeds
// seed, seed+1, ..., seed+N-1 (concurrently on --jobs threads) and reports
// mean ± 95% CI over the replications. See `esm_run --help` for every flag.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "stats/running.hpp"

int main(int argc, char** argv) {
  using namespace esm;
  std::string error;
  auto options =
      harness::parse_cli(std::vector<std::string>(argv + 1, argv + argc),
                         error);
  if (!options) {
    std::fprintf(stderr, "esm_run: %s (see esm_run --help)\n", error.c_str());
    return 2;
  }
  if (options->help) {
    std::fputs(harness::cli_help_text().c_str(), stdout);
    return 0;
  }
  if (!harness::load_input_files(*options, error)) {
    std::fprintf(stderr, "esm_run: %s\n", error.c_str());
    return 2;
  }
  // --trace buffers the run's events and writes them at the end;
  // --trace-stream writes rows while the run executes, so memory stays
  // bounded at large N. `-` means stdout for --metrics-out and
  // --trace-stream.
  const std::string& trace_path = options->trace_path;
  const std::string& trace_stream_path = options->trace_stream_path;
  const std::string& metrics_path = options->metrics_path;
  const std::uint64_t reps = options->reps;

  expect::ExpectationSet expectations;
  for (const std::string& path : options->expect_paths) {
    try {
      expectations.merge(expect::load_expectation_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esm_run: %s\n", e.what());
      return 2;
    }
  }
  if (expectations.needs_trace()) {
    if (!trace_stream_path.empty()) {
      std::fprintf(stderr,
                   "esm_run: --expect trace predicates need the buffered "
                   "trace; use --trace instead of --trace-stream\n");
      return 2;
    }
    if (options->config.shards >= 2) {
      std::fprintf(stderr,
                   "esm_run: --expect trace predicates (deliver/latency/"
                   "structure/jaccard/tree) need --shards 1; scalar metric "
                   "and recovery bounds work at any shard count\n");
      return 2;
    }
    // Trace-based expectations imply buffered trace collection.
    options->config.collect_trace = true;
  }

  std::ofstream trace_stream;
  if (!trace_stream_path.empty()) {
    options->config.trace_sink =
        trace_stream_path == "-" ? &std::cout : &trace_stream;
  }
  // collect_trace and trace_sink are final here, so every --shards gate
  // is decided before the file opens or any run starts.
  if (const std::string gate = harness::config_error(options->config);
      !gate.empty()) {
    std::fprintf(stderr, "esm_run: %s\n", gate.c_str());
    return 2;
  }
  if (!trace_stream_path.empty() && trace_stream_path != "-") {
    trace_stream.open(trace_stream_path);
    if (!trace_stream) {
      std::fprintf(stderr, "esm_run: cannot write %s\n",
                   trace_stream_path.c_str());
      return 1;
    }
  }
  // Exactly one machine-readable stream may own stdout; the human summary
  // moves aside when trace rows or the metrics JSON are sent there.
  const bool suppress_stdout_summary =
      trace_stream_path == "-" || metrics_path == "-";

  // Renders the emergent-structure summary (one row per headline metric).
  auto print_tree_table = [](const obs::TreeStats& t) {
    harness::Table tree("emergent structure (first-delivery trees)");
    tree.header({"metric", "value"});
    tree.row({"messages / tree edges",
              std::to_string(t.messages) + " / " + std::to_string(t.edges)});
    tree.row({"eager hop share (%)",
              harness::Table::num(100.0 * t.eager_hop_share(), 2)});
    tree.row({"tree-edge latency mean (ms)",
              harness::Table::num(t.mean_edge_latency_ms(), 2)});
    tree.row({"overlay-link latency mean (ms)",
              harness::Table::num(t.mean_link_latency_ms(), 2)});
    if (t.overlay_mean_link_us > 0.0) {
      tree.row({"overlay all-pairs mean (ms)",
                harness::Table::num(t.overlay_mean_link_ms(), 2)});
    }
    tree.row({"tree depth mean / max",
              harness::Table::num(t.mean_depth(), 2) + " / " +
                  std::to_string(t.max_depth())});
    if (t.stretch_pct.count() > 0) {
      tree.row({"latency stretch mean (%)",
                harness::Table::num(t.mean_stretch(), 1)});
    }
    tree.row({"edge overlap (Jaccard)",
              harness::Table::num(t.mean_jaccard(), 3)});
    if (t.has_rank_info) {
      tree.row({"interior nodes in top ranks (%)",
                harness::Table::num(100.0 * t.interior_top_share(), 1) +
                    " (top " +
                    harness::Table::num(100.0 * t.top_fraction, 0) + "%)"});
      tree.row({"eager edges from top ranks (%)",
                harness::Table::num(100.0 * t.eager_from_top_share(), 1)});
    }
    tree.row({"eager fanout: top-5% node share (%)",
              harness::Table::num(100.0 * t.eager_child_concentration(0.05),
                                  1)});
    tree.print();
  };

  // Writes the merged metrics document. Merging happens in input (seed)
  // order and every merge op is associative/commutative, so the file is
  // byte-identical at any --jobs count.
  auto write_metrics =
      [&](const obs::RunMetrics& merged,
          const std::vector<std::vector<stats::PhaseReport>>& phase_runs) {
        if (metrics_path == "-") {
          std::cout << harness::format_metrics_json(merged, phase_runs);
          return true;
        }
        std::ofstream out(metrics_path);
        if (!out) {
          std::fprintf(stderr, "esm_run: cannot write %s\n",
                       metrics_path.c_str());
          return false;
        }
        out << harness::format_metrics_json(merged, phase_runs);
        std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
        return true;
      };

  if (reps > 1) {
    std::vector<harness::ExperimentConfig> configs(reps, options->config);
    for (std::uint64_t r = 0; r < reps; ++r) configs[r].seed += r;
    std::vector<harness::ExperimentResult> results;
    try {
      results = harness::run_experiments(configs, options->jobs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esm_run: %s\n", e.what());
      return 1;
    }
    if (!metrics_path.empty()) {
      // --metrics-out collects metrics in every run.
      obs::RunMetrics merged = *results.front().metrics;
      std::vector<std::vector<stats::PhaseReport>> phase_runs;
      for (const auto& r : results) {
        if (&r != &results.front()) merged.merge(*r.metrics);
        phase_runs.push_back(r.phase_reports);
      }
      if (!write_metrics(merged, phase_runs)) return 1;
    }
    stats::RunningStat latency, payload, deliveries, top5;
    for (const auto& r : results) {
      latency.add(r.mean_latency_ms);
      payload.add(r.load_all.payload_per_msg);
      deliveries.add(100.0 * r.mean_delivery_fraction);
      top5.add(100.0 * r.top5_connection_share);
    }
    // Tree stats merge in seed order (results come back in config order
    // regardless of --jobs), so the combined numbers are deterministic.
    std::shared_ptr<obs::TreeStats> tree_merged;
    for (const auto& r : results) {
      if (!r.tree_stats) continue;
      if (!tree_merged) {
        tree_merged = std::make_shared<obs::TreeStats>(*r.tree_stats);
      } else {
        tree_merged->merge(*r.tree_stats);
      }
    }
    if (options->json) {
      std::printf("reps=%llu\n", static_cast<unsigned long long>(reps));
      std::printf("mean_latency_ms=%g\nmean_latency_ms_ci95=%g\n",
                  latency.mean(), latency.ci95_half_width());
      std::printf("payload_per_msg_all=%g\npayload_per_msg_all_ci95=%g\n",
                  payload.mean(), payload.ci95_half_width());
      std::printf(
          "mean_delivery_fraction=%g\nmean_delivery_fraction_ci95=%g\n",
          deliveries.mean() / 100.0, deliveries.ci95_half_width() / 100.0);
      std::printf("top5_connection_share=%g\ntop5_connection_share_ci95=%g\n",
                  top5.mean() / 100.0, top5.ci95_half_width() / 100.0);
      if (tree_merged) {
        std::fputs(harness::format_tree_kv(*tree_merged).c_str(), stdout);
      }
      return 0;
    }
    harness::Table table("replications: " +
                         options->config.strategy.describe());
    table.header({"seed", "latency ms", "payload/msg", "deliveries %",
                  "top5 %"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      table.row({std::to_string(configs[i].seed),
                 harness::Table::num(r.mean_latency_ms, 1),
                 harness::Table::num(r.load_all.payload_per_msg, 2),
                 harness::Table::num(100.0 * r.mean_delivery_fraction, 2),
                 harness::Table::num(100.0 * r.top5_connection_share, 1)});
    }
    table.row({"mean ± ci95",
               harness::Table::num(latency.mean(), 1) + " ± " +
                   harness::Table::num(latency.ci95_half_width(), 1),
               harness::Table::num(payload.mean(), 2) + " ± " +
                   harness::Table::num(payload.ci95_half_width(), 2),
               harness::Table::num(deliveries.mean(), 2) + " ± " +
                   harness::Table::num(deliveries.ci95_half_width(), 2),
               harness::Table::num(top5.mean(), 1) + " ± " +
                   harness::Table::num(top5.ci95_half_width(), 1)});
    table.print();
    if (tree_merged) print_tree_table(*tree_merged);
    return 0;
  }

  harness::ExperimentResult result;
  try {
    result = harness::run_experiment(options->config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_run: %s\n", e.what());
    return 1;
  }

  if (!trace_stream_path.empty() && result.trace) {
    if (trace_stream_path == "-") {
      std::cout.flush();
    } else {
      trace_stream.flush();
    }
    std::fprintf(
        stderr, "trace streamed to %s (%llu deliveries, %llu payloads)\n",
        trace_stream_path == "-" ? "stdout" : trace_stream_path.c_str(),
        static_cast<unsigned long long>(result.trace->delivery_count()),
        static_cast<unsigned long long>(result.trace->payload_count()));
  }

  if (!trace_path.empty() && result.trace) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "esm_run: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    result.trace->write_csv(out);
    std::fprintf(stderr, "trace written to %s (%zu deliveries, %zu payloads)\n",
                 trace_path.c_str(), result.trace->deliveries().size(),
                 result.trace->payloads().size());
  }

  // Expectation evaluation runs before the metrics write so the expect.*
  // counters land in the esm-metrics-v1 JSON. Exit 3 on any violation.
  expect::Report expect_report;
  const bool have_expect = !expectations.empty();
  if (have_expect) {
    expect::EvalInput in;
    in.trace = result.trace.get();
    if (!result.phase_reports.empty()) in.phases = &result.phase_reports;
    in.metrics = result.metrics.get();
    in.scalars = expect::parse_scalars(harness::format_result_kv(result));
    in.ranked = result.best_nodes;
    in.expected_deliveries = result.expected_deliveries;
    in.default_expected = result.live_nodes;
    in.round = options->config.retransmission_period;
    expect_report = expect::evaluate(expectations, in);
    if (result.metrics) {
      expect::add_report_counters(expect_report, result.metrics->aggregate);
    }
  }
  const int exit_code = have_expect && !expect_report.ok() ? 3 : 0;

  if (!metrics_path.empty() && result.metrics) {
    if (!write_metrics(*result.metrics, {result.phase_reports})) return 1;
  }

  if (options->json) {
    if (!suppress_stdout_summary) {
      std::fputs(harness::format_result_kv(result).c_str(), stdout);
      if (have_expect) {
        std::fputs(expect::format_report_kv(expect_report).c_str(), stdout);
      }
    }
    return exit_code;
  }
  if (suppress_stdout_summary) return exit_code;

  harness::Table table("experiment: " + options->config.strategy.describe());
  table.header({"metric", "value"});
  table.row({"live nodes", std::to_string(result.live_nodes)});
  table.row({"mean latency (ms)",
             harness::Table::num(result.mean_latency_ms, 1) + " ± " +
                 harness::Table::num(result.latency_ci95_ms, 1)});
  table.row({"p50 / p95 latency (ms)",
             harness::Table::num(result.p50_latency_ms, 1) + " / " +
                 harness::Table::num(result.p95_latency_ms, 1)});
  table.row({"deliveries (% of live)",
             harness::Table::num(100.0 * result.mean_delivery_fraction, 2)});
  table.row({"atomic deliveries (%)",
             harness::Table::num(100.0 * result.atomic_delivery_fraction, 2)});
  table.row({"payload/delivery",
             harness::Table::num(result.payload_per_delivery, 2)});
  table.row({"payload/msg per node (all / low / best)",
             harness::Table::num(result.load_all.payload_per_msg, 2) + " / " +
                 harness::Table::num(result.load_low.payload_per_msg, 2) +
                 " / " +
                 harness::Table::num(result.load_best.payload_per_msg, 2)});
  table.row({"top-5% connection share (%)",
             harness::Table::num(100.0 * result.top5_connection_share, 1)});
  table.row({"payload / control packets",
             std::to_string(result.payload_packets) + " / " +
                 std::to_string(result.control_packets)});
  table.row({"duplicates / requests / lost / buffer drops",
             std::to_string(result.duplicate_payloads) + " / " +
                 std::to_string(result.requests_sent) + " / " +
                 std::to_string(result.packets_lost) + " / " +
                 std::to_string(result.buffer_drops)});
  table.row({"iwant retries / gave up / stalled",
             std::to_string(result.iwant_retries) + " / " +
                 std::to_string(result.recovery_gave_up) + " / " +
                 std::to_string(result.recovery_stalled)});
  table.row({"events executed", std::to_string(result.events_executed)});
  table.print();

  if (result.offered_msgs > 0) {
    harness::Table load("offered load and goodput");
    load.header({"metric", "value"});
    load.row({"offered msgs (rate /s)",
              std::to_string(result.offered_msgs) + " (" +
                  harness::Table::num(result.offered_msgs_per_s, 1) + ")"});
    load.row({"goodput (first deliveries /s)",
              harness::Table::num(result.goodput_msgs_per_s, 1)});
    load.row({"redundancy (payload tx / delivery)",
              harness::Table::num(result.redundancy_ratio, 2)});
    load.row({"saturation knee (ms after start)",
              result.knee_time_ms < 0.0
                  ? std::string("none")
                  : harness::Table::num(result.knee_time_ms, 0)});
    if (result.offtopic_deliveries > 0) {
      load.row({"off-topic deliveries",
                std::to_string(result.offtopic_deliveries)});
    }
    if (result.egress_serialized_packets > 0) {
      load.row({"egress queue delay mean / max (ms)",
                harness::Table::num(result.egress_queue_delay_mean_ms, 2) +
                    " / " +
                    harness::Table::num(result.egress_queue_delay_max_ms, 2)});
      load.row({"egress peak depth / queued bytes",
                std::to_string(result.egress_peak_depth) + " / " +
                    std::to_string(result.egress_peak_queued_bytes)});
    }
    load.print();
  }

  if (result.tree_stats) print_tree_table(*result.tree_stats);

  if (!result.phase_reports.empty()) {
    const bool tree_cols = result.tree_stats != nullptr;
    harness::Table phases("scenario phases (" +
                          std::to_string(result.faults_injected) +
                          " fault events)");
    std::vector<std::string> phase_header = {
        "phase",      "window s", "msgs", "reliability %", "latency ms",
        "payload/msg", "top5 %"};
    if (tree_cols) {
      phase_header.insert(phase_header.end(),
                          {"tree edges", "eager %", "edge ms"});
    }
    phases.header(phase_header);
    for (const auto& p : result.phase_reports) {
      std::vector<std::string> row = {
          p.label,
          harness::Table::num(to_ms(p.start) / 1000.0, 1) + "-" +
              harness::Table::num(to_ms(p.end) / 1000.0, 1),
          std::to_string(p.messages),
          harness::Table::num(100.0 * p.reliability, 2),
          harness::Table::num(p.mean_latency_ms, 1),
          harness::Table::num(p.payload_per_msg, 2),
          harness::Table::num(100.0 * p.top5_connection_share, 1)};
      if (tree_cols) {
        row.push_back(std::to_string(p.tree_edges));
        row.push_back(harness::Table::num(100.0 * p.tree_eager_hop_share, 2));
        row.push_back(harness::Table::num(p.tree_mean_edge_latency_ms, 2));
      }
      phases.row(row);
    }
    phases.print();
  }

  if (have_expect) {
    harness::Table expects("expectations: " + std::to_string(expect_report.passed) +
                           " passed, " + std::to_string(expect_report.failed) +
                           " failed, " + std::to_string(expect_report.skipped) +
                           " skipped");
    expects.header({"status", "where", "expectation", "observed", "bound",
                    "detail"});
    for (const expect::Outcome& out : expect_report.outcomes) {
      expects.row({expect::to_string(out.status),
                   (out.file.empty() ? std::string() : out.file + ":") +
                       std::to_string(out.line),
                   out.text, harness::Table::num(out.observed, 4),
                   harness::Table::num(out.bound, 4), out.detail});
    }
    expects.print();
  }
  return exit_code;
}
