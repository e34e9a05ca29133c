#include "obs/tree_stats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "trace/trace_log.hpp"

namespace esm::obs {
namespace {

using trace::TraceLog;

/// One message: 0 -> 1 (eager), 1 -> 2 (lazy recovery), 1 -> 3 (eager).
TraceLog small_tree_trace() {
  TraceLog log;
  log.record_delivery({1000, 0, 0, 0, 0, 0, true});  // origin
  auto p1 = log.record_payload({1000, 0, 1, 0, true});
  log.set_payload_recv(p1, 1040);
  log.record_delivery({1040, 1, 0, 0, 40, 0, true});
  auto p2 = log.record_payload({1100, 1, 2, 0, false});
  log.set_payload_recv(p2, 1160);
  log.record_delivery({1160, 2, 0, 0, 160, 1, false});
  auto p3 = log.record_payload({1050, 1, 3, 0, true});
  log.set_payload_recv(p3, 1090);
  log.record_delivery({1090, 3, 0, 0, 90, 1, true});
  // A lost duplicate: no recv_time, must not enter the link baseline.
  log.record_payload({1000, 0, 2, 0, true});
  return log;
}

TEST(TreeStats, ReconstructsFirstDeliveryTree) {
  const TreeStats ts = analyze_trees(small_tree_trace());
  EXPECT_EQ(ts.messages, 1u);
  EXPECT_EQ(ts.edges, 3u);
  EXPECT_EQ(ts.eager_edges, 2u);
  EXPECT_EQ(ts.orphan_deliveries, 0u);
  EXPECT_DOUBLE_EQ(ts.eager_hop_share(), 2.0 / 3.0);

  // Interior nodes: 0 (one child) and 1 (two children).
  EXPECT_EQ(ts.interior_nodes, 2u);
  EXPECT_EQ(ts.fanout.count(), 2u);
  EXPECT_EQ(ts.fanout.sum(), 3u);
  ASSERT_GE(ts.eager_children.size(), 2u);
  EXPECT_EQ(ts.eager_children[0], 1u);
  EXPECT_EQ(ts.eager_children[1], 1u);

  // Depths: node 1 at 1, nodes 2 and 3 at 2.
  EXPECT_EQ(ts.depth.count(), 3u);
  EXPECT_EQ(ts.depth.sum(), 5u);
  EXPECT_EQ(ts.max_depth(), 2u);

  // Edge latencies match the delivering transmissions: 40, 60, 40 us.
  EXPECT_EQ(ts.edge_latency_us.count(), 3u);
  EXPECT_EQ(ts.edge_latency_us.sum(), 140u);
  // Link baseline covers the same three arrivals; the lost duplicate
  // payload is excluded.
  EXPECT_EQ(ts.link_latency_us.count(), 3u);
}

TEST(TreeStats, CountsOrphansAndSurvivesV1Traces) {
  // A v1-style trace: deliveries carry no `from` attribution.
  TraceLog log;
  log.record_delivery({1000, 0, 0, 0, 0});
  log.record_delivery({1040, 1, 0, 0, 40});  // from defaults to kInvalidNode
  const TreeStats ts = analyze_trees(log);
  EXPECT_EQ(ts.messages, 1u);
  EXPECT_EQ(ts.edges, 0u);
  EXPECT_EQ(ts.orphan_deliveries, 1u);
}

TEST(TreeStats, JaccardTracksEdgeReuse) {
  TraceLog log;
  // Message 0 and 1 use the identical edge 0->1; message 2 uses 0->2.
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    const SimTime base = 1000 + 1000 * seq;
    const NodeId child = seq < 2 ? 1 : 2;
    log.record_delivery({base, 0, 0, seq, 0, 0, true});
    log.record_delivery({base + 40, child, 0, seq, 40, 0, true});
  }
  const TreeStats ts = analyze_trees(log);
  EXPECT_EQ(ts.jaccard_pairs, 2u);
  // Pair (0,1): identical -> 1.0; pair (1,2): disjoint -> 0.0.
  EXPECT_DOUBLE_EQ(ts.mean_jaccard(), 0.5);
}

TEST(TreeStats, WindowSelectsByMulticastTime) {
  TraceLog log;
  // Message 0 multicast at t=1000, message 1 at t=5000. A late delivery
  // of message 0 (t=6000) must still be attributed to the first window.
  log.record_delivery({1000, 0, 0, 0, 0, 0, true});
  log.record_delivery({6000, 1, 0, 0, 5000, 0, true});
  log.record_delivery({5000, 0, 0, 1, 0, 0, true});
  log.record_delivery({5040, 2, 0, 1, 40, 0, true});

  TreeStatsOptions first;
  first.window_end = 2000;
  const TreeStats a = analyze_trees(log, first);
  EXPECT_EQ(a.messages, 1u);
  EXPECT_EQ(a.edges, 1u);

  TreeStatsOptions second;
  second.window_start = 2000;
  const TreeStats b = analyze_trees(log, second);
  EXPECT_EQ(b.messages, 1u);
  EXPECT_EQ(b.edges, 1u);

  // The two windows partition the unbounded analysis.
  const TreeStats all = analyze_trees(log);
  EXPECT_EQ(all.messages, a.messages + b.messages);
  EXPECT_EQ(all.edges, a.edges + b.edges);
}

TEST(TreeStats, RankInfoCreditsTopNodes) {
  TraceLog log;
  log.record_delivery({1000, 0, 0, 0, 0, 0, true});
  log.record_delivery({1040, 1, 0, 0, 40, 0, true});
  log.record_delivery({1080, 2, 0, 0, 80, 1, true});

  TreeStatsOptions options;
  options.ranked = {0, 1, 2};  // best first
  options.top_fraction = 0.34;  // exactly node 0
  const TreeStats ts = analyze_trees(log, options);
  EXPECT_TRUE(ts.has_rank_info);
  EXPECT_EQ(ts.interior_nodes, 2u);
  EXPECT_EQ(ts.interior_top_ranked, 1u);   // node 0
  EXPECT_EQ(ts.eager_edges_from_top, 1u);  // the 0->1 edge
}

TEST(TreeStats, MergeMatchesCombinedAnalysis) {
  const TraceLog log = small_tree_trace();
  TreeStats merged = analyze_trees(log);
  merged.merge(analyze_trees(log));
  const TreeStats single = analyze_trees(log);
  EXPECT_EQ(merged.messages, 2 * single.messages);
  EXPECT_EQ(merged.edges, 2 * single.edges);
  EXPECT_EQ(merged.eager_edges, 2 * single.eager_edges);
  EXPECT_EQ(merged.depth.count(), 2 * single.depth.count());
  EXPECT_EQ(merged.depth.sum(), 2 * single.depth.sum());
  EXPECT_DOUBLE_EQ(merged.eager_hop_share(), single.eager_hop_share());
  ASSERT_EQ(merged.eager_children.size(), single.eager_children.size());
  for (std::size_t i = 0; i < merged.eager_children.size(); ++i) {
    EXPECT_EQ(merged.eager_children[i], 2 * single.eager_children[i]);
  }
}

harness::ExperimentConfig structure_config() {
  harness::ExperimentConfig c;
  c.seed = 42;
  c.num_nodes = 100;
  c.num_messages = 80;
  c.overlay_kind = harness::OverlayKind::static_random;
  c.collect_tree_stats = true;
  return c;
}

/// The paper's emergence claim (§6), pinned: under the ranked strategy the
/// dissemination trees concentrate on fast links and top-capacity nodes;
/// under flat gossip they do not. Margins sit well clear of the measured
/// values (ranked link/overlay ratio ~0.80, flat ~0.99; ranked eager
/// concentration ~0.92, flat ~0.14) so the test survives benign drift but
/// fails if the bias signal disappears.
TEST(TreeStats, RankedRunsBiasTreesFlatRunsDoNot) {
  harness::ExperimentConfig ranked_config = structure_config();
  ranked_config.strategy = harness::StrategySpec::make_ranked(0.05);
  const harness::ExperimentResult ranked =
      harness::run_experiment(ranked_config);
  ASSERT_NE(ranked.tree_stats, nullptr);
  const TreeStats& r = *ranked.tree_stats;

  harness::ExperimentConfig flat_config = structure_config();
  flat_config.strategy = harness::StrategySpec::make_flat(1.0);
  const harness::ExperimentResult flat = harness::run_experiment(flat_config);
  ASSERT_NE(flat.tree_stats, nullptr);
  const TreeStats& f = *flat.tree_stats;

  // Both runs deliver everything and reconstruct full trees.
  const std::uint64_t expect_edges =
      static_cast<std::uint64_t>(ranked_config.num_messages) *
      (ranked_config.num_nodes - 1);
  EXPECT_EQ(r.edges, expect_edges);
  EXPECT_EQ(f.edges, expect_edges);
  EXPECT_EQ(r.orphan_deliveries, 0u);
  EXPECT_EQ(f.orphan_deliveries, 0u);

  ASSERT_GT(r.overlay_mean_link_us, 0.0);
  ASSERT_GT(f.overlay_mean_link_us, 0.0);

  // Ranked: payload traffic rides links well below the all-pairs overlay
  // baseline — the tree prefers fast links.
  EXPECT_LT(r.mean_edge_latency_ms(), 0.9 * r.overlay_mean_link_ms());
  EXPECT_LT(r.mean_link_latency_ms(), 0.9 * r.overlay_mean_link_ms());
  // Flat: payload sends sample the overlay without bias.
  EXPECT_GT(f.mean_link_latency_ms(), 0.95 * f.overlay_mean_link_ms());

  // Ranked: eager forwarding concentrates on the top-ranked nodes (the
  // strategy's best set is 5% of nodes); flat spreads it out.
  EXPECT_TRUE(r.has_rank_info);
  EXPECT_GT(r.eager_from_top_share(), 0.6);
  EXPECT_GT(r.eager_child_concentration(0.05), 0.6);
  EXPECT_LT(f.eager_child_concentration(0.05), 0.3);

  // Ranked trees reuse edges message-to-message (a stable backbone);
  // flat trees re-randomize.
  EXPECT_GT(r.mean_jaccard(), f.mean_jaccard() + 0.03);
}

/// --tree-stats output is part of the determinism contract: analysis,
/// kv rendering and the metrics JSON must be byte-identical at any job
/// count.
TEST(TreeStats, OutputIdenticalAcrossJobCounts) {
  harness::ExperimentConfig base = structure_config();
  base.num_nodes = 40;
  base.num_messages = 30;
  base.strategy = harness::StrategySpec::make_ranked(0.1);
  base.collect_metrics = true;

  std::vector<harness::ExperimentConfig> configs(3, base);
  for (std::size_t i = 0; i < configs.size(); ++i) configs[i].seed += i;

  auto render = [&](unsigned jobs) {
    const auto results = harness::run_experiments(configs, jobs);
    std::string out;
    obs::RunMetrics metrics;
    std::vector<std::vector<stats::PhaseReport>> phase_runs;
    bool first = true;
    for (const auto& res : results) {
      EXPECT_NE(res.tree_stats, nullptr);
      out += harness::format_tree_kv(*res.tree_stats);
      phase_runs.push_back(res.phase_reports);
      if (first) {
        metrics = *res.metrics;
        first = false;
      } else {
        metrics.merge(*res.metrics);
      }
    }
    out += harness::format_metrics_json(metrics, phase_runs);
    return out;
  };

  const std::string serial = render(1);
  const std::string parallel = render(3);
  EXPECT_EQ(serial, parallel);
  // The JSON actually carries the tree metrics.
  EXPECT_NE(serial.find("\"tree.edges\""), std::string::npos);
  EXPECT_NE(serial.find("\"tree.jaccard_permille\""), std::string::npos);
}

/// Tree reconstruction under interleaved multi-source traffic: k
/// publishers inject concurrently, so payloads of different messages
/// overlap on the wire — per-message trees must still come out complete
/// and byte-identical at any --jobs count.
TEST(TreeStats, InterleavedMultiSourceTrafficAtAnyJobs) {
  harness::ExperimentConfig base = structure_config();
  base.num_nodes = 40;
  base.collect_metrics = true;
  load::WorkloadSpec wl;
  wl.duration = 5 * kSecond;
  for (int p = 0; p < 4; ++p) {
    load::PublisherSpec pub;
    pub.arrival = p % 2 == 0 ? load::ArrivalKind::poisson
                             : load::ArrivalKind::fixed_rate;
    pub.rate = 8.0;
    wl.publishers.push_back(pub);
  }
  base.workload = wl;

  std::vector<harness::ExperimentConfig> configs(3, base);
  for (std::size_t i = 0; i < configs.size(); ++i) configs[i].seed += i;

  auto render = [&](unsigned jobs) {
    const auto results = harness::run_experiments(configs, jobs);
    std::string out;
    for (const auto& res : results) {
      EXPECT_NE(res.tree_stats, nullptr);
      // Every injected multicast produced a tree, and concurrent sources
      // really interleaved (offered count matches the tree count).
      EXPECT_EQ(res.tree_stats->messages, res.offered_msgs);
      EXPECT_GT(res.offered_msgs, 40u);  // ~4 pubs * 8/s * 5s
      out += harness::format_tree_kv(*res.tree_stats);
      out += harness::format_result_kv(res);
    }
    return out;
  };

  const std::string serial = render(1);
  const std::string parallel = render(3);
  EXPECT_EQ(serial, parallel);
}

/// In-process analysis and the offline `esm_trace trees` path (CSV
/// round-trip, no topology) agree on every trace-derived metric.
TEST(TreeStats, OfflineCsvAnalysisMatchesInProcess) {
  harness::ExperimentConfig c = structure_config();
  c.num_nodes = 40;
  c.num_messages = 30;
  c.strategy = harness::StrategySpec::make_ranked(0.1);
  c.collect_trace = true;
  const harness::ExperimentResult result = harness::run_experiment(c);
  ASSERT_NE(result.trace, nullptr);
  ASSERT_NE(result.tree_stats, nullptr);

  std::ostringstream csv;
  result.trace->write_csv(csv);
  std::istringstream in(csv.str());
  const TraceLog parsed = TraceLog::read_csv(in);
  const TreeStats offline = analyze_trees(parsed);

  const TreeStats& live = *result.tree_stats;
  EXPECT_EQ(offline.messages, live.messages);
  EXPECT_EQ(offline.edges, live.edges);
  EXPECT_EQ(offline.eager_edges, live.eager_edges);
  EXPECT_EQ(offline.edge_latency_us.sum(), live.edge_latency_us.sum());
  EXPECT_EQ(offline.link_latency_us.sum(), live.link_latency_us.sum());
  EXPECT_EQ(offline.depth.sum(), live.depth.sum());
  EXPECT_DOUBLE_EQ(offline.mean_jaccard(), live.mean_jaccard());
}

}  // namespace
}  // namespace esm::obs
