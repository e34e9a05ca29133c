#include "overlay/cyclon.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {
namespace {

struct Swarm {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{5 * kMillisecond};
  net::Transport transport;
  std::vector<std::unique_ptr<CyclonNode>> nodes;

  explicit Swarm(std::uint32_t n, OverlayParams params = {})
      : transport(sim, latency, n, {}, Rng(11)) {
    Rng boot(1234);
    for (NodeId id = 0; id < n; ++id) {
      nodes.push_back(std::make_unique<CyclonNode>(sim, transport, id, params,
                                                   Rng(1000 + id)));
    }
    for (NodeId id = 0; id < n; ++id) {
      std::vector<NodeId> contacts;
      while (contacts.size() < params.view_size && contacts.size() + 1 < n) {
        const NodeId c = static_cast<NodeId>(boot.below(n));
        if (c != id &&
            std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
          contacts.push_back(c);
        }
      }
      nodes[id]->bootstrap(contacts);
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        nodes[id]->handle_packet(src, static_cast<const ShufflePacket&>(*p));
      });
    }
  }

  void start_all() {
    for (auto& n : nodes) n->start();
  }
};

TEST(Cyclon, BootstrapFillsViewWithoutSelfOrDuplicates) {
  Swarm swarm(30);
  for (const auto& node : swarm.nodes) {
    std::set<NodeId> seen;
    for (const ViewEntry& e : node->view()) {
      EXPECT_NE(e.id, node->self());
      EXPECT_TRUE(seen.insert(e.id).second);
    }
    EXPECT_LE(node->view().size(), 15u);
    EXPECT_GE(node->view().size(), 1u);
  }
}

TEST(Cyclon, ViewsStayBoundedAndCleanAfterShuffling) {
  Swarm swarm(30);
  swarm.start_all();
  swarm.sim.run_until(30 * kSecond);
  for (const auto& node : swarm.nodes) {
    EXPECT_LE(node->view().size(), 15u);
    EXPECT_GE(node->view().size(), 10u);  // exchanges keep views full
    std::set<NodeId> seen;
    for (const ViewEntry& e : node->view()) {
      EXPECT_NE(e.id, node->self());
      EXPECT_TRUE(seen.insert(e.id).second);
      EXPECT_LT(e.id, 30u);
    }
  }
}

TEST(Cyclon, ShufflingMixesViews) {
  Swarm swarm(40);
  std::vector<std::set<NodeId>> before(swarm.nodes.size());
  for (std::size_t i = 0; i < swarm.nodes.size(); ++i) {
    for (const ViewEntry& e : swarm.nodes[i]->view()) before[i].insert(e.id);
  }
  swarm.start_all();
  swarm.sim.run_until(30 * kSecond);
  // After 30 shuffle rounds most views should have churned substantially.
  int changed = 0;
  for (std::size_t i = 0; i < swarm.nodes.size(); ++i) {
    std::set<NodeId> after;
    for (const ViewEntry& e : swarm.nodes[i]->view()) after.insert(e.id);
    std::vector<NodeId> kept;
    std::set_intersection(before[i].begin(), before[i].end(), after.begin(),
                          after.end(), std::back_inserter(kept));
    if (kept.size() < before[i].size()) ++changed;
  }
  EXPECT_GT(changed, static_cast<int>(swarm.nodes.size() * 3 / 4));
}

TEST(Cyclon, InDegreeStaysBalanced) {
  Swarm swarm(50);
  swarm.start_all();
  swarm.sim.run_until(60 * kSecond);
  std::vector<int> indegree(50, 0);
  for (const auto& node : swarm.nodes) {
    for (const ViewEntry& e : node->view()) ++indegree[e.id];
  }
  const double mean =
      std::accumulate(indegree.begin(), indegree.end(), 0.0) / 50.0;
  for (const int d : indegree) {
    // Uniformity: no node should be wildly over- or under-represented.
    EXPECT_GT(d, mean * 0.3);
    EXPECT_LT(d, mean * 2.5);
  }
}

TEST(Cyclon, UnionGraphStaysConnected) {
  Swarm swarm(40);
  swarm.start_all();
  swarm.sim.run_until(30 * kSecond);
  // BFS over the union of views (undirected).
  std::vector<std::set<NodeId>> adj(40);
  for (const auto& node : swarm.nodes) {
    for (const ViewEntry& e : node->view()) {
      adj[node->self()].insert(e.id);
      adj[e.id].insert(node->self());
    }
  }
  std::vector<bool> seen(40, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, 40u);
}

TEST(Cyclon, SampleReturnsDistinctViewMembers) {
  Swarm swarm(30);
  swarm.start_all();
  swarm.sim.run_until(10 * kSecond);
  auto& node = *swarm.nodes[0];
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = node.sample(5);
    EXPECT_LE(s.size(), 5u);
    std::set<NodeId> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
    for (const NodeId id : s) EXPECT_TRUE(node.knows(id));
  }
}

TEST(Cyclon, SampleLargerThanViewReturnsWholeView) {
  Swarm swarm(5);
  const auto s = swarm.nodes[0]->sample(100);
  EXPECT_EQ(s.size(), swarm.nodes[0]->view().size());
}

TEST(Cyclon, FailedNodeIsForgotten) {
  Swarm swarm(30);
  swarm.start_all();
  swarm.sim.run_until(10 * kSecond);
  const NodeId dead = 7;
  swarm.transport.silence(dead);
  auto count_references = [&] {
    int refs = 0;
    for (const auto& node : swarm.nodes) {
      if (node->self() != dead && node->knows(dead)) ++refs;
    }
    return refs;
  };
  const int before = count_references();
  swarm.sim.run_until(120 * kSecond);
  const int after = count_references();
  // Age-based eviction steadily purges the dead descriptor.
  EXPECT_LT(after, before / 2 + 1);
}

TEST(Cyclon, SurvivesMassFailure) {
  Swarm swarm(40);
  swarm.start_all();
  swarm.sim.run_until(10 * kSecond);
  for (NodeId id = 20; id < 40; ++id) swarm.transport.silence(id);
  swarm.sim.run_until(60 * kSecond);
  // Survivors keep non-empty views dominated by live peers.
  for (NodeId id = 0; id < 20; ++id) {
    const auto& view = swarm.nodes[id]->view();
    EXPECT_GE(view.size(), 3u);
    int live = 0;
    for (const ViewEntry& e : view) {
      if (e.id < 20) ++live;
    }
    EXPECT_GT(live, static_cast<int>(view.size()) / 2);
  }
}

TEST(Cyclon, ReseedForceInsertsContact) {
  Swarm swarm(30);
  auto& node = *swarm.nodes[0];
  // View is full after bootstrap; a normal bootstrap() call cannot add.
  const std::size_t before = node.view().size();
  node.reseed(29);
  EXPECT_TRUE(node.knows(29));
  EXPECT_EQ(node.view().size(), before);  // replaced, not grown
  node.reseed(29);                        // idempotent
  node.reseed(0);                         // self is ignored
  EXPECT_FALSE(node.knows(0));
}

TEST(Cyclon, ReseedRemergesPartitionedOverlay) {
  // Partition long enough for each side to forget the other, heal, then
  // reseed one bridge: shuffling must re-merge the membership.
  Swarm swarm(30);
  swarm.start_all();
  std::vector<int> group(30, 0);
  for (NodeId id = 15; id < 30; ++id) group[id] = 1;
  swarm.transport.set_partition(group);
  swarm.sim.run_until(120 * kSecond);
  auto cross_links = [&] {
    int cross = 0;
    for (const auto& node : swarm.nodes) {
      for (const ViewEntry& e : node->view()) {
        if ((node->self() < 15) != (e.id < 15)) ++cross;
      }
    }
    return cross;
  };
  EXPECT_EQ(cross_links(), 0);  // fully forgotten
  swarm.transport.heal_partition();
  swarm.sim.run_until(swarm.sim.now() + 30 * kSecond);
  EXPECT_EQ(cross_links(), 0);  // healing alone cannot re-merge
  swarm.nodes[0]->reseed(20);   // one bridge descriptor
  swarm.sim.run_until(swarm.sim.now() + 60 * kSecond);
  EXPECT_GT(cross_links(), 30);  // mixed back together
}

TEST(FullMembershipSampler, UniformOverLiveNodes) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1);
  net::Transport transport(sim, latency, 10, {}, Rng(1));
  transport.silence(3);
  FullMembershipSampler sampler(transport, 0, Rng(2));
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = sampler.sample(4);
    EXPECT_EQ(s.size(), 4u);
    for (const NodeId id : s) {
      EXPECT_NE(id, 0u);   // not self
      EXPECT_NE(id, 3u);   // not silenced
      EXPECT_LT(id, 10u);
    }
  }
}

}  // namespace
}  // namespace esm::overlay
