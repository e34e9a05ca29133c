#include "rank/rank_estimator.hpp"

#include <memory>

#include "common/check.hpp"

namespace esm::rank {

GossipRankEstimator::GossipRankEstimator(sim::Simulator& sim,
                                         net::Transport& transport,
                                         NodeId self,
                                         overlay::PeerSampler& sampler,
                                         double own_score,
                                         double best_fraction,
                                         RankParams params, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      sampler_(sampler),
      best_fraction_(best_fraction),
      params_(params),
      rng_(rng),
      timer_(sim, [this] { tick(); }) {
  ESM_CHECK(best_fraction > 0.0 && best_fraction < 1.0,
            "best fraction must be in (0, 1)");
  ESM_CHECK(params.sample_capacity >= params.samples_per_gossip,
            "sample capacity must cover a gossip batch");
  ESM_CHECK(params.max_sample_age >= 0, "max sample age must be >= 0");
  entries_.reserve(params.sample_capacity + 2);
  index_.reserve(params.sample_capacity + 2);
  entries_.push_back(Entry{self_, own_score, sim.now()});
  index_[self_] = 0;
}

void GossipRankEstimator::start() {
  timer_.start(rng_.range(0, params_.period - 1), params_.period);
}

void GossipRankEstimator::stop() { timer_.stop(); }

const GossipRankEstimator::Entry* GossipRankEstimator::find_entry(
    NodeId node) const {
  const auto* pos = index_.find(node);
  return pos ? &entries_[*pos] : nullptr;
}

/// Swap-remove: the back entry fills the hole and its index is patched.
void GossipRankEstimator::erase_at(std::uint32_t pos) {
  index_.erase(entries_[pos].id);
  if (pos + 1 != entries_.size()) {
    entries_[pos] = entries_.back();
    index_[entries_[pos].id] = pos;
  }
  entries_.pop_back();
}

void GossipRankEstimator::tick() {
  const SimTime now = sim_.now();
  // Our own score is fresh by definition at every emission.
  entries_[*index_.find(self_)].stamp = now;
  // Expire observations whose origin emission is too old: the one signal
  // that a node crashed is that it stopped re-emitting (§6.3).
  if (params_.max_sample_age > 0) {
    for (std::uint32_t i = 0; i < entries_.size();) {
      if (entries_[i].id != self_ &&
          now - entries_[i].stamp > params_.max_sample_age) {
        erase_at(i);
      } else {
        ++i;
      }
    }
  }
  // Flatten once; reuse for each target this round. Relayed samples carry
  // their accumulated origin age.
  std::vector<ScoreSample> all;
  all.reserve(entries_.size());
  for (const Entry& e : entries_) {
    if (e.id != self_) {
      all.push_back(ScoreSample{e.id, e.score, now - e.stamp});
    }
  }
  const double own_score = entries_[*index_.find(self_)].score;
  std::vector<NodeId> peers = std::move(peers_scratch_);
  sampler_.sample_into(params_.gossip_fanout, peers);
  for (const NodeId peer : peers) {
    auto packet = net::make_packet<RankGossipPacket>();
    packet->samples.push_back(ScoreSample{self_, own_score, 0});
    for (const ScoreSample& s :
         rng_.sample(all, params_.samples_per_gossip - 1)) {
      packet->samples.push_back(s);
    }
    const std::size_t bytes = packet->wire_bytes();
    transport_.send(self_, peer, std::move(packet), bytes,
                    /*is_payload=*/false);
  }
  peers_scratch_ = std::move(peers);
}

void GossipRankEstimator::handle_packet(NodeId,
                                        const RankGossipPacket& gossip) {
  const SimTime now = sim_.now();
  for (const ScoreSample& s : gossip.samples) {
    if (s.id == self_) continue;
    if (params_.max_sample_age > 0 && s.age > params_.max_sample_age) {
      continue;  // stale before it even arrived
    }
    // Anchor the sample's origin age to the local clock; keep the freshest
    // observation per node.
    const SimTime stamp = now - s.age;
    const auto [pos, inserted] = index_.try_emplace(s.id);
    if (inserted) {
      *pos = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{s.id, s.score, stamp});
    } else if (stamp >= entries_[*pos].stamp) {
      entries_[*pos] = Entry{s.id, s.score, stamp};
    }
  }
  // Bound memory: evict random non-self entries beyond capacity.
  while (entries_.size() > params_.sample_capacity + 1) {
    const auto pick =
        static_cast<std::uint32_t>(rng_.below(entries_.size()));
    if (entries_[pick].id != self_) erase_at(pick);
  }
}

double GossipRankEstimator::estimated_quantile(NodeId node) const {
  const Entry* entry = find_entry(node);
  if (entry == nullptr) return -1.0;
  if (entries_.size() == 1) return 1.0;
  std::size_t below = 0;
  for (const Entry& e : entries_) {
    if (e.id != node && e.score < entry->score) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(entries_.size() - 1);
}

bool GossipRankEstimator::is_best(NodeId node) const {
  const double q = estimated_quantile(node);
  return q >= 0.0 && q >= 1.0 - best_fraction_;
}

}  // namespace esm::rank
