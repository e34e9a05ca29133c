#include "overlay/neem.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
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
  std::vector<std::unique_ptr<NeemNode>> nodes;

  explicit Swarm(std::uint32_t n, NeemParams params = {})
      : transport(sim, latency, n, {}, Rng(61)) {
    for (NodeId id = 0; id < n; ++id) {
      nodes.push_back(
          std::make_unique<NeemNode>(sim, transport, id, params, Rng(800 + id)));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        nodes[id]->handle_packet(src, static_cast<const NeemPacket&>(*p));
      });
    }
  }

  void bootstrap_and_settle(SimTime settle = 30 * kSecond) {
    Rng boot(7);
    for (NodeId id = 0; id < nodes.size(); ++id) {
      std::vector<NodeId> contacts;
      while (contacts.size() < 5 && contacts.size() + 1 < nodes.size()) {
        const NodeId c = static_cast<NodeId>(boot.below(nodes.size()));
        if (c != id &&
            std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
          contacts.push_back(c);
        }
      }
      nodes[id]->bootstrap(contacts);
      nodes[id]->start();
    }
    sim.run_until(settle);
  }

  bool connections_symmetric() const {
    for (NodeId a = 0; a < nodes.size(); ++a) {
      if (transport.is_silenced(a)) continue;
      for (const NodeId b : nodes[a]->connections()) {
        if (transport.is_silenced(b)) continue;
        if (!nodes[b]->connected_to(a)) return false;
      }
    }
    return true;
  }
};

TEST(Neem, HandshakeEstablishesSymmetricConnections) {
  Swarm swarm(30);
  swarm.bootstrap_and_settle(5 * kSecond);
  // The overlay mixes continuously, so an instantaneous check can catch
  // half-completed handshakes: quiesce first.
  for (auto& node : swarm.nodes) node->stop();
  swarm.sim.run_until(swarm.sim.now() + 2 * kSecond);
  for (const auto& node : swarm.nodes) {
    EXPECT_GE(node->connections().size(), 3u);
    std::set<NodeId> seen;
    for (const NodeId peer : node->connections()) {
      EXPECT_TRUE(seen.insert(peer).second);  // no duplicate connections
    }
  }
  EXPECT_TRUE(swarm.connections_symmetric());
}

TEST(Neem, ShufflesGrowDegreeTowardTarget) {
  NeemParams params;
  params.target_degree = 12;
  Swarm swarm(40, params);
  swarm.bootstrap_and_settle(60 * kSecond);
  double mean_degree = 0.0;
  for (const auto& node : swarm.nodes) {
    mean_degree += static_cast<double>(node->connections().size());
    EXPECT_LE(node->connections().size(), params.max_degree);
  }
  mean_degree /= static_cast<double>(swarm.nodes.size());
  EXPECT_GT(mean_degree, 8.0);  // bootstrapped with only 5 contacts
}

TEST(Neem, OverlayKeepsMixing) {
  // The paper notes connections are periodically shuffled: over a long run
  // many more connections are opened than exist at any instant.
  Swarm swarm(30);
  swarm.bootstrap_and_settle(120 * kSecond);
  std::uint64_t opened = 0;
  std::size_t current = 0;
  for (const auto& node : swarm.nodes) {
    opened += node->connections_opened();
    current += node->connections().size();
  }
  EXPECT_GT(opened, current);  // churned connections
}

TEST(Neem, BrokenConnectionsAreDetectedAndDropped) {
  Swarm swarm(20);
  swarm.bootstrap_and_settle(10 * kSecond);
  const NodeId dead = 4;
  swarm.transport.silence(dead);
  swarm.sim.run_until(swarm.sim.now() + 10 * kSecond);
  for (NodeId id = 0; id < 20; ++id) {
    if (id == dead) continue;
    EXPECT_FALSE(swarm.nodes[id]->connected_to(dead))
        << "node " << id << " still holds a connection to the dead node";
  }
}

TEST(Neem, SampleDrawsFromConnections) {
  Swarm swarm(20);
  swarm.bootstrap_and_settle(10 * kSecond);
  auto& node = *swarm.nodes[3];
  for (int i = 0; i < 20; ++i) {
    for (const NodeId peer : node.sample(4)) {
      EXPECT_TRUE(node.connected_to(peer));
    }
  }
}

TEST(Neem, RejectsBadParams) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1);
  net::Transport transport(sim, latency, 2, {}, Rng(1));
  NeemParams bad;
  bad.target_degree = 0;
  EXPECT_THROW(NeemNode(sim, transport, 0, bad, Rng(1)), CheckFailure);
  NeemParams bad2;
  bad2.target_degree = 10;
  bad2.max_degree = 5;
  EXPECT_THROW(NeemNode(sim, transport, 0, bad2, Rng(1)), CheckFailure);
}

TEST(Neem, GossipOverNeemDeliversAtomically) {
  harness::ExperimentConfig c;
  c.seed = 41;
  c.num_nodes = 40;
  c.num_messages = 60;
  c.warmup = 15 * kSecond;
  c.topology.num_underlay_vertices = 600;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  c.overlay_kind = harness::OverlayKind::neem;
  c.strategy = harness::StrategySpec::make_ttl(2);
  const auto r = harness::run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
}

}  // namespace
}  // namespace esm::overlay
