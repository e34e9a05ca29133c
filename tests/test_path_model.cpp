// Tests for the pluggable PathModel: the on-demand attach-router model
// must be indistinguishable from the dense all-pairs matrix at every
// query — point latencies/hops, aggregate statistics, closeness sums,
// and whole-experiment output — while staying inside its byte budget.
// Both, and the router path solver under them, must match a reference
// heap Dijkstra over the full graph.
#include "net/path_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace esm::net {
namespace {

TopologyParams small_params() {
  TopologyParams p;
  p.num_underlay_vertices = 400;
  p.num_transit_domains = 3;
  p.transit_per_domain = 6;
  p.num_clients = 80;
  return p;
}

void expect_models_agree(const PathModel& dense, const PathModel& lazy) {
  ASSERT_EQ(dense.num_clients(), lazy.num_clients());
  const std::uint32_t n = dense.num_clients();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(dense.latency(a, b), lazy.latency(a, b))
          << "latency mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ(dense.hops(a, b), lazy.hops(a, b))
          << "hops mismatch at (" << a << ", " << b << ")";
    }
  }
}

// ---- Reference routing ------------------------------------------------------

using Cost = std::pair<std::uint32_t, SimTime>;  // (hops, latency)

/// Test-only reference: lexicographic (hops, latency) heap Dijkstra over
/// the full graph, client leaves included, from any vertex. Unreached
/// vertices keep latency kTimeInfinity.
std::vector<Cost> reference_dijkstra(const Topology& topo, double scale,
                                     VertexId origin) {
  std::vector<Cost> dist(topo.graph.num_vertices(),
                         Cost{0xffffffffu, kTimeInfinity});
  using QEntry = std::pair<Cost, VertexId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  dist[origin] = {0, 0};
  queue.emplace(Cost{0, 0}, origin);
  while (!queue.empty()) {
    const auto [cost, u] = queue.top();
    queue.pop();
    if (cost != dist[u]) continue;  // stale entry
    for (const Edge& e : topo.graph.neighbors(u)) {
      const SimTime w = std::max<SimTime>(
          e.fixed_latency + static_cast<SimTime>(std::llround(e.length * scale)),
          1);
      const Cost next{cost.first + 1, cost.second + w};
      if (next < dist[e.to]) {
        dist[e.to] = next;
        queue.emplace(next, e.to);
      }
    }
  }
  return dist;
}

/// RouterPaths rows from every client's attach router equal the reference
/// on every router vertex.
void expect_router_rows_match_reference(const Topology& topo) {
  const double scale = topo.latency_scale;
  const VertexId routers = topo.params.num_underlay_vertices;
  RouterPaths paths(topo, scale);
  for (const VertexId origin : topo.client_vertex) {
    paths.solve(origin);
    const std::vector<Cost> ref = reference_dijkstra(topo, scale, origin);
    for (VertexId v = 0; v < routers; ++v) {
      ASSERT_EQ(paths.hops(v), ref[v].first)
          << "hops from " << origin << " to " << v;
      ASSERT_EQ(paths.latency(v), ref[v].second)
          << "latency from " << origin << " to " << v;
    }
  }
}

/// The dense matrix equals the reference run from every client leaf.
void expect_dense_matches_reference(const Topology& topo) {
  const ClientMetrics dense = compute_client_metrics(topo);
  const auto n = static_cast<NodeId>(topo.client_leaf.size());
  for (NodeId a = 0; a < n; ++a) {
    const std::vector<Cost> ref =
        reference_dijkstra(topo, topo.latency_scale, topo.client_leaf[a]);
    for (NodeId b = 0; b < n; ++b) {
      const Cost want = a == b ? Cost{0, 0} : ref[topo.client_leaf[b]];
      ASSERT_EQ(dense.latency(a, b), want.second)
          << "latency mismatch at (" << a << ", " << b << ")";
      ASSERT_EQ(dense.hops(a, b), want.first)
          << "hops mismatch at (" << a << ", " << b << ")";
    }
  }
}

TEST(RouterPaths, MatchesReferenceDijkstra) {
  TopologyParams p;  // the §5.1 underlay, 100 clients on distinct stubs
  for (std::uint64_t seed : {2007, 2008, 11}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Topology topo = generate_topology(p, seed);
    expect_router_rows_match_reference(topo);
    expect_dense_matches_reference(topo);
  }
}

TEST(RouterPaths, MatchesReferenceWhenClientsShareStubs) {
  TopologyParams p;
  p.num_clients = 3000;
  p.num_underlay_vertices = 1000;  // ~970 stubs: about three clients each
  const Topology topo = generate_topology(p, 2007);
  expect_dense_matches_reference(topo);
}

TEST(RouterPaths, MatchesReferenceOnEqualHopAlternatives) {
  // A peer link on every stub router gives many equal-hop paths, so the
  // latency tie-break decides most rows.
  TopologyParams p;
  p.stub_peer_link_prob = 1.0;
  const Topology topo = generate_topology(p, 2007);
  expect_router_rows_match_reference(topo);
  expect_dense_matches_reference(topo);
}

TEST(RouterPaths, DisconnectedUnderlayThrows) {
  // Two router islands {0, 1} and {2, 3}, one client on each.
  Topology topo;
  topo.params.num_underlay_vertices = 4;
  topo.params.num_clients = 2;
  topo.graph = Graph(6);
  topo.graph.add_edge(0, 1, 0.1);
  topo.graph.add_edge(2, 3, 0.1);
  topo.graph.add_edge(4, 1, 0.0, kMillisecond);
  topo.graph.add_edge(5, 2, 0.0, kMillisecond);
  topo.client_vertex = {1, 2};
  topo.client_leaf = {4, 5};
  topo.latency_scale = 1e5;
  const auto expect_disconnected = [](const std::function<void()>& f) {
    try {
      f();
      ADD_FAILURE() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("underlay graph is disconnected"),
                std::string::npos)
          << e.what();
    }
  };
  expect_disconnected([&] { compute_client_metrics(topo); });
  expect_disconnected([&] { mean_client_latency_us(topo, 1e5); });
  const OnDemandPathModel lazy(topo);
  expect_disconnected([&] { lazy.latency(0, 1); });
}

TEST(PathModel, OnDemandMatchesDensePointwise) {
  const Topology topo = generate_topology(small_params(), 2007);
  const ClientMetrics dense = compute_client_metrics(topo);
  const OnDemandPathModel lazy(topo);
  expect_models_agree(dense, lazy);
  EXPECT_EQ(lazy.row_evictions(), 0u);
  EXPECT_LE(lazy.rows_computed(), lazy.num_attach_vertices());
}

TEST(PathModel, OnDemandMatchesDenseAggregates) {
  const Topology topo = generate_topology(small_params(), 4242);
  const ClientMetrics dense = compute_client_metrics(topo);
  const OnDemandPathModel lazy(topo);
  // The defaults accumulate in the same order over the same values, so
  // the doubles are bit-identical, not merely close.
  EXPECT_EQ(dense.mean_latency_us(), lazy.mean_latency_us());
  EXPECT_EQ(dense.mean_hops(), lazy.mean_hops());
  EXPECT_EQ(dense.hop_fraction(5, 6), lazy.hop_fraction(5, 6));
  EXPECT_EQ(dense.latency_fraction(39 * kMillisecond, 60 * kMillisecond),
            lazy.latency_fraction(39 * kMillisecond, 60 * kMillisecond));
  EXPECT_EQ(dense.latency_quantile(0.5), lazy.latency_quantile(0.5));
  EXPECT_EQ(dense.closeness_sums(), lazy.closeness_sums());
}

TEST(PathModel, ClosedFormMeanMatchesDenseProbe) {
  const Topology topo = generate_topology(small_params(), 99);
  const ClientMetrics dense = compute_client_metrics(topo);
  EXPECT_DOUBLE_EQ(dense.mean_latency_us(),
                   mean_client_latency_us(topo, topo.latency_scale));
}

TEST(PathModel, AgreesWhenClientsShareStubs) {
  // More clients than stub routers: attachment round-robins, so many
  // clients share an attach router (and the decomposition must still
  // distinguish their distinct access-edge weights).
  TopologyParams p = small_params();
  p.num_clients = 450;  // a 400-vertex underlay has < 400 stubs
  const Topology topo = generate_topology(p, 7);
  const ClientMetrics dense = compute_client_metrics(topo);
  const OnDemandPathModel lazy(topo);
  ASSERT_LT(lazy.num_attach_vertices(), p.num_clients);
  expect_models_agree(dense, lazy);
}

TEST(PathModel, TinyCacheEvictsButStaysExact) {
  const Topology topo = generate_topology(small_params(), 31337);
  const ClientMetrics dense = compute_client_metrics(topo);
  // A 1-byte budget degrades to a single retained row; answers must be
  // unchanged while the cache thrashes.
  const OnDemandPathModel lazy(topo, topo.latency_scale, 1);
  expect_models_agree(dense, lazy);
  EXPECT_GT(lazy.row_evictions(), 0u);
  // A second sweep in reverse source order recomputes evicted rows; the
  // recomputed answers must match the dense matrix just like the first
  // (cold) pass did.
  const std::uint32_t n = dense.num_clients();
  for (NodeId a = n; a-- > 0;) {
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(dense.latency(a, b), lazy.latency(a, b));
      ASSERT_EQ(dense.hops(a, b), lazy.hops(a, b));
    }
  }
  EXPECT_GT(lazy.rows_computed(), lazy.num_attach_vertices());
  // Only one row is ever resident under a 1-byte budget.
  EXPECT_LT(lazy.memory_bytes(), dense.memory_bytes());
}

TEST(PathModel, ResolveAutomaticSwitchesAtThreshold) {
  EXPECT_EQ(resolve_path_model(PathModelKind::automatic, 1),
            PathModelKind::dense);
  EXPECT_EQ(resolve_path_model(PathModelKind::automatic, kDensePathMaxClients),
            PathModelKind::dense);
  EXPECT_EQ(
      resolve_path_model(PathModelKind::automatic, kDensePathMaxClients + 1),
      PathModelKind::ondemand);
  // Explicit requests pass through regardless of N.
  EXPECT_EQ(resolve_path_model(PathModelKind::dense, 1u << 20),
            PathModelKind::dense);
  EXPECT_EQ(resolve_path_model(PathModelKind::ondemand, 2),
            PathModelKind::ondemand);
}

TEST(PathModel, FactoryHonorsResolvedKind) {
  const Topology topo = generate_topology(small_params(), 5);
  const auto dense = make_path_model(topo, PathModelKind::automatic);
  EXPECT_NE(dynamic_cast<const ClientMetrics*>(dense.get()), nullptr);
  const auto lazy = make_path_model(topo, PathModelKind::ondemand);
  EXPECT_NE(dynamic_cast<const OnDemandPathModel*>(lazy.get()), nullptr);
}

harness::ExperimentConfig experiment_config(std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.seed = seed;
  c.num_nodes = 40;
  c.num_messages = 30;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

void expect_identical_results(const harness::ExperimentResult& a,
                              const harness::ExperimentResult& b) {
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p50_latency_ms, b.p50_latency_ms);
  EXPECT_EQ(a.p95_latency_ms, b.p95_latency_ms);
  EXPECT_EQ(a.mean_delivery_fraction, b.mean_delivery_fraction);
  EXPECT_EQ(a.atomic_delivery_fraction, b.atomic_delivery_fraction);
  EXPECT_EQ(a.payload_packets, b.payload_packets);
  EXPECT_EQ(a.control_packets, b.control_packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.top5_connection_share, b.top5_connection_share);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(PathModel, ExperimentOutputIdenticalDenseVsOnDemand) {
  // The ranked strategy consumes closeness scores, the monitor consumes
  // pairwise latencies — both must see identical values from either model.
  for (const harness::StrategySpec& strategy :
       {harness::StrategySpec::make_flat(0.5),
        harness::StrategySpec::make_ranked(0.2)}) {
    harness::ExperimentConfig dense = experiment_config(77);
    dense.strategy = strategy;
    dense.path_model = PathModelKind::dense;
    harness::ExperimentConfig lazy = dense;
    lazy.path_model = PathModelKind::ondemand;
    const harness::ExperimentResult rd = harness::run_experiment(dense);
    const harness::ExperimentResult rl = harness::run_experiment(lazy);
    expect_identical_results(rd, rl);
    // At toy N the dense matrix is smaller than the on-demand model's
    // fixed per-vertex tables — the crossover is what kDensePathMaxClients
    // encodes — so only sanity-check the gauges here.
    EXPECT_GT(rl.path_rows_computed, 0u);
    EXPECT_GT(rl.path_model_bytes, 0u);
    EXPECT_EQ(rd.path_row_evictions, 0u);
  }
}

TEST(PathModel, OnDemandRunsAreJobCountInvariant) {
  // The large-N determinism contract, scaled down for CI: on-demand runs
  // fanned over a worker pool must be bit-identical to the serial loop.
  std::vector<harness::ExperimentConfig> configs;
  for (std::uint64_t seed : {21, 22, 23, 24}) {
    harness::ExperimentConfig c = experiment_config(seed);
    c.strategy = harness::StrategySpec::make_flat(0.5);
    c.path_model = PathModelKind::ondemand;
    configs.push_back(c);
  }
  const auto serial = harness::run_experiments(configs, 1);
  const auto parallel = harness::run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical_results(serial[i], parallel[i]);
    EXPECT_EQ(serial[i].path_model_bytes, parallel[i].path_model_bytes);
    EXPECT_EQ(serial[i].path_rows_computed, parallel[i].path_rows_computed);
  }
}

}  // namespace
}  // namespace esm::net
