// Golden regression tests: exact metric values for pinned seeds.
//
// Everything in this library is deterministic given (config, seed), so any
// behavioral change — an extra RNG draw, a reordered event, a protocol
// tweak — shifts these numbers. That is the point: they catch silent
// semantic drift that the invariant-based tests would absorb. When a
// change is *intentional*, re-run with --gtest_also_run_disabled_tests
// or just update the constants below (the failure message prints the new
// values).
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace esm::harness {
namespace {

ExperimentConfig golden_config() {
  ExperimentConfig c;
  c.seed = 777;
  c.num_nodes = 50;
  c.num_messages = 100;
  c.warmup = 15 * kSecond;
  c.topology.num_underlay_vertices = 800;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

TEST(Golden, EagerPush) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_flat(1.0);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.payload_packets, 55000u);  // 100 msgs x 50 nodes x fanout 11
  EXPECT_EQ(r.duplicate_payloads, 50100u);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_NEAR(r.mean_latency_ms, 70.54, 0.05);
}

TEST(Golden, LazyPush) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_flat(0.0);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.payload_packets, 4900u);  // exactly one per non-origin node
  EXPECT_EQ(r.duplicate_payloads, 0u);
  EXPECT_NEAR(r.mean_latency_ms, 219.99, 0.05);
}

TEST(Golden, TtlStrategy) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_ttl(3);
  const ExperimentResult r = run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_NEAR(r.mean_latency_ms, 78.42, 0.05);
  EXPECT_NEAR(r.payload_per_delivery, 2.832, 0.005);
}

TEST(Golden, TopologyScale) {
  net::TopologyParams params;
  params.num_clients = 100;
  const net::Topology topo = net::generate_topology(params, 2007);
  // The calibrated latency scale and edge count are pure functions of the
  // seed; drift means the generator's RNG consumption changed.
  EXPECT_EQ(topo.graph.num_edges(), 3644u);
  EXPECT_DOUBLE_EQ(topo.latency_scale, 61852.141592020438);
}

TEST(Golden, TopologyScaleClosedForm) {
  // Above kDensePathMaxClients calibration uses the attach-grouped closed
  // form instead of the dense probe; pin that path too.
  net::TopologyParams params;
  params.num_clients = 3000;
  const net::Topology topo = net::generate_topology(params, 2007);
  EXPECT_EQ(topo.graph.num_edges(), 6544u);
  EXPECT_DOUBLE_EQ(topo.latency_scale, 64093.723195398961);
}

}  // namespace
}  // namespace esm::harness
