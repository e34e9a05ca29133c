#include "harness/report.hpp"

#include <algorithm>
#include <sstream>

namespace esm::harness {

std::array<RunScalar, kRunScalars> run_scalars(const ExperimentResult& r) {
  constexpr auto C = RunScalar::Merge::counter;
  constexpr auto G = RunScalar::Merge::gauge;
  constexpr auto A = RunScalar::When::always;
  constexpr auto S = RunScalar::When::sharded;
  constexpr auto B = RunScalar::When::backpressure;
  return {{
      {"mean_latency_ms", nullptr, G, A, r.mean_latency_ms},
      {"latency_ci95_ms", nullptr, G, A, r.latency_ci95_ms},
      {"p50_latency_ms", nullptr, G, A, r.p50_latency_ms},
      {"p95_latency_ms", nullptr, G, A, r.p95_latency_ms},
      {"payload_per_delivery", nullptr, G, A, r.payload_per_delivery},
      {"payload_per_msg_all", nullptr, G, A, r.load_all.payload_per_msg},
      {"payload_per_msg_low", nullptr, G, A, r.load_low.payload_per_msg},
      {"payload_per_msg_best", nullptr, G, A, r.load_best.payload_per_msg},
      {"mean_delivery_fraction", nullptr, G, A, r.mean_delivery_fraction},
      {"atomic_delivery_fraction", nullptr, G, A, r.atomic_delivery_fraction},
      {"top5_connection_share", nullptr, G, A, r.top5_connection_share},
      {"payload_packets", nullptr, C, A, r.payload_packets},
      {"control_packets", nullptr, C, A, r.control_packets},
      {"total_bytes", nullptr, C, A, r.total_bytes},
      {"duplicate_payloads", nullptr, C, A, r.duplicate_payloads},
      {"requests_sent", nullptr, C, A, r.requests_sent},
      // kv-only: the lifecycle tracker owns these metrics names, and its
      // recovery_stalled counts something else.
      {"iwant_retries", nullptr, C, A, r.iwant_retries},
      {"recovery_gave_up", nullptr, C, A, r.recovery_gave_up},
      {"recovery_stalled", nullptr, C, A, r.recovery_stalled},
      {"packets_lost", nullptr, C, A, r.packets_lost},
      {"buffer_drops", "transport.buffer_drops", C, A, r.buffer_drops},
      {"live_nodes", nullptr, G, A, r.live_nodes},
      {"events_executed", nullptr, C, A, r.events_executed},
      // Deterministic footprints. Peak RSS is process-wide and depends on
      // scheduling, so it stays out of the metrics document.
      {"path_model_bytes", "path_model.bytes", G, A, r.path_model_bytes},
      {"path_rows_computed", "path_model.rows_computed", G, A,
       r.path_rows_computed},
      {"path_row_evictions", "path_model.row_evictions", G, A,
       r.path_row_evictions},
      {nullptr, "arena.messages", G, A, r.arena_messages},
      {nullptr, "arena.bytes", G, A, r.arena_bytes},
      {"offered_msgs", "goodput.offered_msgs", C, A, r.offered_msgs},
      {nullptr, "goodput.expected_deliveries", C, A,
       r.goodput_expected_deliveries},
      {nullptr, "goodput.deliveries", C, A, r.goodput_deliveries},
      {nullptr, "goodput.payload_sends", C, A, r.goodput_payload_sends},
      {"offered_msgs_per_s", "goodput.offered_msgs_per_s", G, A,
       r.offered_msgs_per_s},
      {"goodput_msgs_per_s", "goodput.goodput_msgs_per_s", G, A,
       r.goodput_msgs_per_s},
      {"redundancy_ratio", "goodput.redundancy_ratio", G, A,
       r.redundancy_ratio},
      {"knee_time_ms", "goodput.knee_time_ms", G, A, r.knee_time_ms},
      {"offtopic_deliveries", "goodput.offtopic_deliveries", C, A,
       r.offtopic_deliveries},
      {"egress_serialized_packets", "transport.egress_serialized_packets", C,
       A, r.egress_serialized_packets},
      {"egress_queue_delay_mean_ms", nullptr, G, A,
       r.egress_queue_delay_mean_ms},
      // The same maximum twice: the kv line in ms, the exact key in us.
      {"egress_queue_delay_max_ms", nullptr, G, A,
       r.egress_queue_delay_max_ms},
      {nullptr, "transport.egress_max_sojourn_us", G, A,
       r.egress_max_sojourn_us},
      {"egress_peak_depth", "transport.egress_peak_depth", G, A,
       r.egress_peak_depth},
      {"egress_peak_queued_bytes", "transport.egress_peak_queued_bytes", G, A,
       r.egress_peak_queued_bytes},
      {"eager_deferred", "backpressure.eager_deferred", C, B,
       r.eager_deferred},
      {"replies_deferred", "backpressure.replies_deferred", C, B,
       r.replies_deferred},
      {"drops_readvertised", "backpressure.drops_readvertised", C, B,
       r.drops_readvertised},
      {"iwants_purged", "backpressure.iwants_purged", C, B, r.iwants_purged},
      {"watermark_episodes", "backpressure.watermark_episodes", C, B,
       r.watermark_episodes},
      {"watermark_residency_ms", "backpressure.watermark_residency_ms", G, B,
       r.watermark_residency_ms},
      // Conservative-window execution accounting. busy/barrier_wait are
      // wall-clock diagnostics (nondeterministic); the rest is exact.
      {"sim_shard_count", "sim.shard.count", G, S, r.shards_used},
      {"sim_shard_windows", "sim.shard.windows", C, S, r.shard_windows},
      {"sim_shard_lookahead_ms", nullptr, G, S, r.shard_lookahead_us / 1e3},
      {nullptr, "sim.shard.lookahead_us", G, S, r.shard_lookahead_us},
      {"sim_shard_mailbox_packets", "sim.shard.mailbox_packets", C, S,
       r.shard_mailbox_packets},
      {"sim_shard_mailbox_bytes", "sim.shard.mailbox_bytes", C, S,
       r.shard_mailbox_bytes},
      {"sim_shard_busy_ms", "sim.shard.busy_ms", G, S, r.shard_busy_ms},
      {"sim_shard_barrier_wait_ms", "sim.shard.barrier_wait_ms", G, S,
       r.shard_barrier_wait_ms},
  }};
}

std::string format_result_kv(const ExperimentResult& result) {
  std::ostringstream os;
  for (const RunScalar& s : run_scalars(result)) {
    if (s.kv == nullptr || !s.exported(result)) continue;
    os << s.kv << '=';
    std::visit([&os](auto value) { os << value; }, s.value);
    os << '\n';
  }
  if (result.tree_stats) os << format_tree_kv(*result.tree_stats);
  if (!result.phase_reports.empty()) {
    os << "faults_injected=" << result.faults_injected << "\n"
       << "phases=" << result.phase_reports.size() << "\n";
    for (std::size_t i = 0; i < result.phase_reports.size(); ++i) {
      const auto& p = result.phase_reports[i];
      const std::string prefix = "phase" + std::to_string(i) + "_";
      os << prefix << "label=" << p.label << "\n"
         << prefix << "start_ms=" << to_ms(p.start) << "\n"
         << prefix << "end_ms=" << to_ms(p.end) << "\n"
         << prefix << "messages=" << p.messages << "\n"
         << prefix << "reliability=" << p.reliability << "\n"
         << prefix << "atomic_fraction=" << p.atomic_fraction << "\n"
         << prefix << "mean_latency_ms=" << p.mean_latency_ms << "\n"
         << prefix << "p95_latency_ms=" << p.p95_latency_ms << "\n"
         << prefix << "payload_per_msg=" << p.payload_per_msg << "\n"
         << prefix << "top5_connection_share=" << p.top5_connection_share
         << "\n"
         << prefix << "offered_per_s=" << p.offered_per_s << "\n"
         << prefix << "goodput_per_s=" << p.goodput_per_s << "\n";
      if (result.tree_stats) {
        os << prefix << "tree_edges=" << p.tree_edges << "\n"
           << prefix << "tree_eager_hop_share=" << p.tree_eager_hop_share
           << "\n"
           << prefix << "tree_edge_latency_ms=" << p.tree_mean_edge_latency_ms
           << "\n";
      }
    }
  }
  return os.str();
}

std::string format_tree_kv(const obs::TreeStats& stats) {
  std::ostringstream os;
  os << "tree_messages=" << stats.messages << "\n"
     << "tree_edges=" << stats.edges << "\n"
     << "tree_eager_edges=" << stats.eager_edges << "\n"
     << "tree_orphan_deliveries=" << stats.orphan_deliveries << "\n"
     << "tree_eager_hop_share=" << stats.eager_hop_share() << "\n"
     << "tree_edge_latency_ms_mean=" << stats.mean_edge_latency_ms() << "\n"
     << "tree_edge_latency_ms_p95="
     << static_cast<double>(stats.edge_latency_us.quantile(0.95)) / 1000.0
     << "\n"
     << "tree_link_latency_ms_mean=" << stats.mean_link_latency_ms() << "\n"
     << "tree_overlay_latency_ms_mean=" << stats.overlay_mean_link_ms()
     << "\n"
     << "tree_mean_depth=" << stats.mean_depth() << "\n"
     << "tree_max_depth=" << stats.max_depth() << "\n"
     << "tree_mean_stretch_pct=" << stats.mean_stretch() << "\n"
     << "tree_mean_jaccard=" << stats.mean_jaccard() << "\n"
     << "tree_interior_top_share=" << stats.interior_top_share() << "\n"
     << "tree_eager_from_top_share=" << stats.eager_from_top_share() << "\n"
     << "tree_top_fraction=" << stats.top_fraction << "\n"
     << "tree_eager_child_top5_share="
     << stats.eager_child_concentration(0.05) << "\n";
  return os.str();
}

std::string format_metrics_json(
    const obs::RunMetrics& metrics,
    const std::vector<std::vector<stats::PhaseReport>>& phase_runs) {
  std::string out = "{\"schema\":\"esm-metrics-v1\",\"runs\":" +
                    std::to_string(metrics.runs) + ",\"aggregate\":";
  metrics.aggregate.append_json(out);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < metrics.per_node.size(); ++i) {
    out += (i > 0 ? ",{\"id\":" : "{\"id\":") + std::to_string(i) +
           ",\"metrics\":";
    metrics.per_node[i].append_json(out);
    out += '}';
  }
  out += ']';

  // Phase p of the first run that has one gives the label and start;
  // later runs raise the end and add their counts.
  std::vector<stats::PhaseReport> merged;
  for (const auto& run : phase_runs) {
    for (std::size_t p = 0; p < run.size(); ++p) {
      if (p == merged.size()) {
        merged.push_back(run[p]);
        continue;
      }
      stats::PhaseReport& m = merged[p];
      m.end = std::max(m.end, run[p].end);
      m.messages += run[p].messages;
      m.deliveries += run[p].deliveries;
      m.payload_packets += run[p].payload_packets;
      m.tree_edges += run[p].tree_edges;
      m.tree_eager_edges += run[p].tree_eager_edges;
    }
  }
  for (std::size_t p = 0; p < merged.size(); ++p) {
    const stats::PhaseReport& m = merged[p];
    out += p > 0 ? ",{\"label\":" : ",\"phases\":[{\"label\":";
    obs::append_json_string(out, m.label);
    out += ",\"start_ms\":" + obs::json_double(to_ms(m.start)) +
           ",\"end_ms\":" + obs::json_double(to_ms(m.end)) +
           ",\"messages\":" + std::to_string(m.messages) +
           ",\"deliveries\":" + std::to_string(m.deliveries) +
           ",\"payload_packets\":" + std::to_string(m.payload_packets) +
           ",\"tree_edges\":" + std::to_string(m.tree_edges) +
           ",\"tree_eager_edges\":" + std::to_string(m.tree_eager_edges) +
           '}';
  }
  out += merged.empty() ? "}\n" : "]}\n";
  return out;
}

}  // namespace esm::harness
