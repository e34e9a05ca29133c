#include "rank/rank_estimator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "overlay/cyclon.hpp"
#include "sim/simulator.hpp"

namespace esm::rank {
namespace {

struct Swarm {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{10 * kMillisecond};
  net::Transport transport;
  std::vector<std::unique_ptr<overlay::FullMembershipSampler>> samplers;
  std::vector<std::unique_ptr<GossipRankEstimator>> estimators;

  /// Node i's score is i: the best `best_fraction` are the highest ids.
  Swarm(std::uint32_t n, double best_fraction, RankParams params = {})
      : transport(sim, latency, n, {}, Rng(23)) {
    for (NodeId id = 0; id < n; ++id) {
      samplers.push_back(std::make_unique<overlay::FullMembershipSampler>(
          transport, id, Rng(600 + id)));
      estimators.push_back(std::make_unique<GossipRankEstimator>(
          sim, transport, id, *samplers[id], static_cast<double>(id),
          best_fraction, params, Rng(700 + id)));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        estimators[id]->handle_packet(
            src, static_cast<const RankGossipPacket&>(*p));
      });
    }
  }

  void run(SimTime t) {
    for (auto& e : estimators) e->start();
    sim.run_until(t);
  }
};

TEST(RankEstimator, SelfOnlyViewTreatsSelfAsTop) {
  Swarm swarm(5, 0.2);
  // Before any gossip, a node only knows itself: quantile defaults to 1.
  EXPECT_DOUBLE_EQ(swarm.estimators[0]->estimated_quantile(0), 1.0);
  EXPECT_TRUE(swarm.estimators[0]->is_best(0));
}

TEST(RankEstimator, UnknownPeerIsNotBest) {
  Swarm swarm(5, 0.2);
  EXPECT_DOUBLE_EQ(swarm.estimators[0]->estimated_quantile(3), -1.0);
  EXPECT_FALSE(swarm.estimators[0]->is_best(3));
}

TEST(RankEstimator, ConvergesToTrueTopFraction) {
  constexpr std::uint32_t kN = 30;
  Swarm swarm(kN, 0.2);
  swarm.run(30 * kSecond);
  // Oracle: best nodes are ids 24..29 (top 20% of scores 0..29).
  int correct = 0;
  for (NodeId id = 0; id < kN; ++id) {
    const bool truth = id >= 24;
    if (swarm.estimators[id]->is_best(id) == truth) ++correct;
  }
  // Approximate ranking: expect at least 80% of nodes to self-classify
  // correctly (the paper only needs approximate ranking).
  EXPECT_GE(correct, 24);
}

TEST(RankEstimator, PeersClassifiedFromLocalSample) {
  constexpr std::uint32_t kN = 30;
  Swarm swarm(kN, 0.2);
  swarm.run(30 * kSecond);
  // Node 0 should classify clearly-best and clearly-worst known peers.
  const auto& est = *swarm.estimators[0];
  int checked = 0, correct = 0;
  for (NodeId peer = 0; peer < kN; ++peer) {
    const double q = est.estimated_quantile(peer);
    if (q < 0.0) continue;  // unknown
    ++checked;
    const bool truth = peer >= 24;
    if (est.is_best(peer) == truth) ++correct;
  }
  EXPECT_GT(checked, 10);
  EXPECT_GE(correct * 10, checked * 8);  // >= 80% of known peers
}

TEST(RankEstimator, SampleCapacityIsRespected) {
  RankParams params;
  params.sample_capacity = 10;
  Swarm swarm(40, 0.2, params);
  swarm.run(20 * kSecond);
  for (const auto& est : swarm.estimators) {
    EXPECT_LE(est->samples_known(), 11u);  // capacity + self
  }
}

TEST(RankEstimator, QuantileOrderingMatchesScores) {
  Swarm swarm(20, 0.25);
  swarm.run(20 * kSecond);
  const auto& est = *swarm.estimators[5];
  // For any two known peers, the better score gets the better quantile.
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      const double qa = est.estimated_quantile(a);
      const double qb = est.estimated_quantile(b);
      if (qa < 0 || qb < 0 || a >= b) continue;
      EXPECT_LE(qa, qb) << "scores " << a << " vs " << b;
    }
  }
}

TEST(RankEstimator, RejectsBadParameters) {
  Swarm swarm(3, 0.2);
  EXPECT_THROW(GossipRankEstimator(swarm.sim, swarm.transport, 0,
                                   *swarm.samplers[0], 1.0, 0.0, RankParams{},
                                   Rng(1)),
               CheckFailure);
  EXPECT_THROW(GossipRankEstimator(swarm.sim, swarm.transport, 0,
                                   *swarm.samplers[0], 1.0, 1.0, RankParams{},
                                   Rng(1)),
               CheckFailure);
  RankParams bad;
  bad.sample_capacity = 2;
  bad.samples_per_gossip = 8;
  EXPECT_THROW(GossipRankEstimator(swarm.sim, swarm.transport, 0,
                                   *swarm.samplers[0], 1.0, 0.2, bad, Rng(1)),
               CheckFailure);
}

}  // namespace
}  // namespace esm::rank
