// Gossip-based node ranking (paper §4.1, Ranked strategy: "a ranking can
// also be computed using local Performance Monitors and a gossip based
// sorting protocol [11] ... this is greatly eased by the fact that the
// protocol still works even if ranking is approximate").
//
// Each node carries a capacity score (e.g. closeness estimated by its
// Performance Monitor, or provisioned bandwidth). Nodes epidemically
// exchange bounded samples of (node, score) pairs; every node estimates its
// own — and any sampled peer's — global rank quantile against its local
// sample, and considers a node "best" when its estimated quantile falls in
// the top `best_fraction`. The estimate is approximate by construction,
// which is exactly the regime the paper's noise experiments (§6.5) show the
// Ranked strategy tolerates.
#pragma once

#include <vector>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/strategies.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::rank {

/// One (node, score) observation; higher score = better node. `age` is
/// the time since the *origin* node emitted the score, accumulated across
/// relays, so stale observations of crashed nodes can be expired no
/// matter how many gossip hops keep recirculating them.
struct ScoreSample {
  NodeId id = kInvalidNode;
  double score = 0.0;
  SimTime age = 0;
};

/// Epidemic exchange of score samples.
struct RankGossipPacket final : net::PacketOf<net::PacketType::rank_gossip> {
  std::vector<ScoreSample> samples;

  /// node(4) + age_ms(4) + score(8) per sample, plus header/count.
  std::size_t wire_bytes() const { return 16 + samples.size() * 16; }
};

struct RankParams {
  /// Local sample capacity (besides self).
  std::size_t sample_capacity = 64;
  /// Peers gossiped to per period.
  std::size_t gossip_fanout = 2;
  /// Samples shipped per gossip (self always included).
  std::size_t samples_per_gossip = 8;
  /// Gossip period.
  SimTime period = 500 * kMillisecond;
  /// Samples whose origin emission is older than this are discarded on
  /// arrival and pruned at each tick, so crashed nodes fall out of every
  /// best-set within max_sample_age (§6.3 re-concentration). 0 disables
  /// aging. Live nodes re-emit their own score every `period`, so any
  /// multiple of the period comfortably keeps live entries.
  SimTime max_sample_age = 10 * kSecond;
};

/// Per-node rank estimator; doubles as the BestSet consumed by the Ranked
/// and Hybrid strategies.
class GossipRankEstimator final : public core::BestSet {
 public:
  GossipRankEstimator(sim::Simulator& sim, net::Transport& transport,
                      NodeId self, overlay::PeerSampler& sampler,
                      double own_score, double best_fraction,
                      RankParams params, Rng rng);

  void start();
  void stop();

  /// Consumes a rank-gossip packet addressed to this node.
  void handle_packet(NodeId src, const RankGossipPacket& gossip);

  /// True when the node's estimated quantile is in the top best_fraction.
  /// For peers, decided from the local sample; unknown peers are not best.
  bool is_best(NodeId node) const override;

  /// Estimated quantile of `node` in [0, 1] (1 = best score seen);
  /// -1 if the node is unknown locally.
  double estimated_quantile(NodeId node) const;

  std::size_t samples_known() const { return entries_.size(); }

 private:
  /// A known score plus the (local-clock) time its origin emitted it.
  struct Entry {
    NodeId id = kInvalidNode;
    double score = 0.0;
    SimTime stamp = 0;
  };

  void tick();
  const Entry* find_entry(NodeId node) const;
  void erase_at(std::uint32_t pos);

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  overlay::PeerSampler& sampler_;
  double best_fraction_;
  RankParams params_;
  Rng rng_;
  /// Known scores in a dense array (own entry always present), plus an
  /// id -> position index. Iteration order is the insertion/swap-remove
  /// history — a pure function of the event sequence, so expiry sweeps,
  /// the gossip flatten, and random eviction are deterministic at any
  /// --jobs (the old unordered_map walked bucket order instead, which was
  /// equally deterministic but layout-dependent; the compact goldens
  /// re-pin gossip-rank runs, see tests/test_equivalence.cpp).
  std::vector<Entry> entries_;
  compact::FlatMap<NodeId, std::uint32_t> index_;
  std::vector<NodeId> peers_scratch_;  // gossip targets, reused per tick
  sim::PeriodicTimer timer_;
};

}  // namespace esm::rank
