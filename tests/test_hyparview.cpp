#include "overlay/hyparview.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <memory>
#include <set>
#include <vector>

#include "harness/experiment.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {
namespace {

struct Swarm {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{10 * kMillisecond};
  net::Transport transport;
  std::vector<std::unique_ptr<HyParViewNode>> nodes;

  explicit Swarm(std::uint32_t n, HyParViewParams params = {})
      : transport(sim, latency, n, {}, Rng(51)) {
    for (NodeId id = 0; id < n; ++id) {
      nodes.push_back(std::make_unique<HyParViewNode>(sim, transport, id,
                                                      params, Rng(700 + id)));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        nodes[id]->handle_packet(src, static_cast<const HpvPacket&>(*p));
      });
    }
  }

  /// Staggered joins through random earlier nodes, then settle.
  void bootstrap_and_settle(SimTime settle = 30 * kSecond) {
    Rng boot(99);
    for (NodeId id = 0; id < nodes.size(); ++id) {
      nodes[id]->start();
      if (id == 0) continue;
      const NodeId contact = static_cast<NodeId>(boot.below(id));
      HyParViewNode* node = nodes[id].get();
      sim.schedule_at(100 * kMillisecond * id,
                      [node, contact] { node->join(contact); });
    }
    sim.run_until(100 * kMillisecond * nodes.size() + settle);
  }

  /// True if every pair (a in b's active view) is mutual.
  bool views_symmetric() const {
    for (NodeId a = 0; a < nodes.size(); ++a) {
      for (const NodeId b : nodes[a]->active_view()) {
        if (transport.is_silenced(b) || transport.is_silenced(a)) continue;
        if (!nodes[b]->has_active(a)) return false;
      }
    }
    return true;
  }

  bool connected_over_active() const {
    const std::size_t n = nodes.size();
    std::vector<bool> seen(n, false);
    NodeId start = kInvalidNode;
    std::size_t live = 0;
    for (NodeId id = 0; id < n; ++id) {
      if (!transport.is_silenced(id)) {
        ++live;
        if (start == kInvalidNode) start = id;
      }
    }
    if (start == kInvalidNode) return true;
    std::vector<NodeId> stack{start};
    seen[start] = true;
    std::size_t count = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : nodes[u]->active_view()) {
        if (!seen[v] && !transport.is_silenced(v)) {
          seen[v] = true;
          ++count;
          stack.push_back(v);
        }
      }
    }
    return count == live;
  }
};

TEST(HyParView, JoinFillsActiveViews) {
  Swarm swarm(40);
  swarm.bootstrap_and_settle();
  for (const auto& node : swarm.nodes) {
    EXPECT_GE(node->active_view().size(), 2u) << "node isolated";
    EXPECT_LE(node->active_view().size(), 5u);  // default capacity
    // No self, no duplicates.
    std::set<NodeId> seen;
    for (const NodeId peer : node->active_view()) {
      EXPECT_NE(peer, node->active_view().size() ? kInvalidNode : 0u);
      EXPECT_TRUE(seen.insert(peer).second);
    }
  }
}

TEST(HyParView, ActiveViewsAreSymmetric) {
  Swarm swarm(40);
  swarm.bootstrap_and_settle();
  EXPECT_TRUE(swarm.views_symmetric());
}

TEST(HyParView, OverlayIsConnected) {
  Swarm swarm(50);
  swarm.bootstrap_and_settle();
  EXPECT_TRUE(swarm.connected_over_active());
}

TEST(HyParView, PassiveViewsFillViaShuffles) {
  Swarm swarm(40);
  swarm.bootstrap_and_settle(60 * kSecond);
  std::size_t with_passive = 0;
  for (const auto& node : swarm.nodes) {
    EXPECT_LE(node->passive_view().size(), 30u);  // capacity respected
    if (node->passive_view().size() >= 5) ++with_passive;
    // Passive and active views are disjoint.
    for (const NodeId p : node->passive_view()) {
      EXPECT_FALSE(node->has_active(p));
    }
  }
  EXPECT_GT(with_passive, 30u);
}

TEST(HyParView, RepairsAfterFailures) {
  Swarm swarm(50);
  swarm.bootstrap_and_settle(60 * kSecond);
  // Kill 30% of the nodes.
  Rng killer(3);
  std::vector<NodeId> everyone(50);
  std::iota(everyone.begin(), everyone.end(), 0);
  for (const NodeId v : killer.sample(everyone, 15)) {
    swarm.transport.silence(v);
  }
  swarm.sim.run_until(swarm.sim.now() + 60 * kSecond);

  std::uint64_t repairs = 0;
  for (NodeId id = 0; id < 50; ++id) {
    if (swarm.transport.is_silenced(id)) continue;
    repairs += swarm.nodes[id]->repairs();
    // Dead peers purged from active views.
    for (const NodeId peer : swarm.nodes[id]->active_view()) {
      EXPECT_FALSE(swarm.transport.is_silenced(peer))
          << "node " << id << " still lists dead peer " << peer;
    }
    EXPECT_GE(swarm.nodes[id]->active_view().size(), 1u)
        << "node " << id << " left isolated";
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_TRUE(swarm.connected_over_active());
}

TEST(HyParView, SamplerDrawsFromActiveView) {
  Swarm swarm(30);
  swarm.bootstrap_and_settle();
  auto& node = *swarm.nodes[7];
  for (int i = 0; i < 20; ++i) {
    const auto s = node.sample(3);
    EXPECT_LE(s.size(), 3u);
    for (const NodeId id : s) EXPECT_TRUE(node.has_active(id));
  }
}

TEST(HyParView, RejectsBadParams) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1);
  net::Transport transport(sim, latency, 2, {}, Rng(1));
  HyParViewParams bad;
  bad.active_size = 0;
  EXPECT_THROW(HyParViewNode(sim, transport, 0, bad, Rng(1)), CheckFailure);
  HyParViewParams bad2;
  bad2.prwl = 10;
  bad2.arwl = 3;
  EXPECT_THROW(HyParViewNode(sim, transport, 0, bad2, Rng(1)), CheckFailure);
}

TEST(HyParView, AdaptiveGossipOverHyParViewSurvivesFailures) {
  // End-to-end: Plumtree-style strategy over its real substrate, with
  // failures mid-experiment — membership repairs, grafts rebuild the tree.
  harness::ExperimentConfig c;
  c.seed = 31;
  c.num_nodes = 50;
  c.num_messages = 150;
  c.warmup = 30 * kSecond;
  c.topology.num_underlay_vertices = 600;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  c.overlay_kind = harness::OverlayKind::hyparview;
  c.overlay.view_size = 8;       // active view size
  c.gossip.fanout = 16;          // cover the full active view
  c.gossip.exclude_sender = true;
  c.strategy = harness::StrategySpec::make_adaptive();
  c.kill_fraction = 0.2;
  c.kill_mode = harness::KillMode::random;
  const auto r = harness::run_experiment(c);
  EXPECT_GT(r.mean_delivery_fraction, 0.98);
  EXPECT_LT(r.payload_per_delivery, 3.0);
}

}  // namespace
}  // namespace esm::overlay
