#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/table.hpp"
#include "net/latency_model.hpp"

namespace esm::harness {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c;
  c.seed = 3;
  c.num_nodes = 30;
  c.num_messages = 40;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

TEST(RankByCloseness, OrdersByMeanLatency) {
  // 4 clients; node 1 is closest to everyone.
  net::ClientMetrics m(4);
  const SimTime base = 10 * kMillisecond;
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      SimTime lat = base * (a + b + 2);
      if (a == 1 || b == 1) lat = base;  // node 1 is central
      m.set(a, b, lat, 2);
    }
  }
  const auto order = rank_by_closeness(m);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order.size(), 4u);
}

TEST(RankByCloseness, DeterministicTieBreak) {
  net::ClientMetrics m(3);
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 0; b < 3; ++b) {
      if (a != b) m.set(a, b, 5 * kMillisecond, 2);
    }
  }
  const auto order = rank_by_closeness(m);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Harness, BoundedEgressBufferDropsUnderOverload) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_flat(1.0);
  c.payload_bytes = 4096;
  c.mean_interval = 50 * kMillisecond;  // sustained overload
  c.bandwidth_bps = 1'000'000;
  c.egress_buffer_bytes = 32 * 1024;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.buffer_drops, 0u);
  // ~7x oversubscribed egress: deliveries suffer, but the epidemic keeps
  // reaching a majority of nodes (graceful, not cliff-edge, degradation).
  EXPECT_GT(r.mean_delivery_fraction, 0.50);
  EXPECT_LT(r.mean_delivery_fraction, 1.0);
}

TEST(Harness, UnboundedBufferNeverDrops) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_flat(1.0);
  c.bandwidth_bps = 1'000'000;
  c.egress_buffer_bytes = 0;
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.buffer_drops, 0u);
}

TEST(Harness, SlowNodesGetSlowBandwidth) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_ttl(2);
  c.slow_fraction = 0.3;
  c.slow_bandwidth_bps = 500'000;
  c.payload_bytes = 2048;
  c.mean_interval = 100 * kMillisecond;
  c.egress_buffer_bytes = 32 * 1024;
  const ExperimentResult slow = run_experiment(c);
  c.slow_fraction = 0.0;
  const ExperimentResult fast = run_experiment(c);
  // Heterogeneous capacity hurts latency relative to the homogeneous run.
  EXPECT_GT(slow.mean_latency_ms, fast.mean_latency_ms);
}

TEST(Harness, AdaptiveFanoutPreservesDelivery) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_flat(1.0);
  c.slow_fraction = 0.3;
  c.slow_bandwidth_bps = 10'000'000;
  c.adaptive_fanout = true;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.mean_delivery_fraction, 0.99);
  // Fanout redistribution: fast nodes relay more than fanout, slow less,
  // so the average payload contribution stays near the configured fanout.
  EXPECT_NEAR(r.load_all.payload_per_msg, 11.0, 2.0);
}

TEST(Harness, ReportBestFractionControlsClassSplit) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_ranked(0.1);
  c.report_best_fraction = 0.5;
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.load_best.nodes, 15u);
  EXPECT_EQ(r.load_low.nodes, 15u);
  // Strategy still used its own 10% best set.
  EXPECT_EQ(r.best_nodes.size(), 3u);
}

TEST(Harness, ResultBookkeepingConsistency) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_ttl(2);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.node_payloads.size(), c.num_nodes);
  EXPECT_EQ(r.load_all.nodes, c.num_nodes);
  std::uint64_t node_total = 0;
  for (const auto p : r.node_payloads) node_total += p;
  EXPECT_EQ(node_total, r.payload_packets);
  // Connection payload counts sum to the same total.
  std::uint64_t link_total = 0;
  for (const auto& [link, count] : r.connection_payloads) link_total += count;
  EXPECT_EQ(link_total, r.payload_packets);
}

TEST(Harness, ChurnKeepsDeliveringWithEagerGossip) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_flat(1.0);
  c.num_messages = 60;
  c.churn_rate = 2.0;  // aggressive for a 30-node group
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.mean_delivery_fraction, 0.90);
  EXPECT_LE(r.mean_delivery_fraction, 1.0);
}

TEST(Harness, ChurnRevivalsRejoinHyParView) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_flat(1.0);
  c.overlay_kind = OverlayKind::hyparview;
  c.overlay.view_size = 6;
  c.gossip.fanout = 6;
  c.warmup = 20 * kSecond;
  c.num_messages = 60;
  c.mean_interval = 300 * kMillisecond;
  c.churn_rate = 1.0;
  const ExperimentResult r = run_experiment(c);
  // Revived nodes re-join and resume delivering: the run stays healthy.
  EXPECT_GT(r.mean_delivery_fraction, 0.85);
}

TEST(Harness, GarbageCollectionBoundsState) {
  ExperimentConfig c = tiny_config();
  c.strategy = StrategySpec::make_ttl(2);
  c.num_messages = 100;
  c.mean_interval = 200 * kMillisecond;
  c.message_lifetime = 4 * kSecond;
  const ExperimentResult gc = run_experiment(c);
  c.message_lifetime = 0;
  const ExperimentResult no_gc = run_experiment(c);

  // GC keeps the known-set far below the total message count; without it
  // every node remembers everything.
  EXPECT_GT(gc.messages_garbage_collected, 50u);
  EXPECT_LT(gc.max_known_messages, 60u);
  EXPECT_EQ(no_gc.messages_garbage_collected, 0u);
  EXPECT_EQ(no_gc.max_known_messages, 100u);
  // A lifetime of many seconds never collects an active message:
  // deliveries are unaffected.
  EXPECT_DOUBLE_EQ(gc.mean_delivery_fraction, 1.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace esm::harness
