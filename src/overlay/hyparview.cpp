#include "overlay/hyparview.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esm::overlay {

HyParViewNode::HyParViewNode(sim::Simulator& sim, net::Transport& transport,
                             NodeId self, HyParViewParams params, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      params_(params),
      rng_(rng),
      keepalive_timer_(sim, [this] { keepalive_tick(); }),
      shuffle_timer_(sim, [this] { shuffle_tick(); }) {
  ESM_CHECK(params.active_size >= 1, "active view must hold at least 1 peer");
  ESM_CHECK(params.prwl <= params.arwl, "PRWL must not exceed ARWL");
}

void HyParViewNode::send(NodeId dst, HpvPacket packet) {
  auto p = net::make_packet<HpvPacket>(std::move(packet));
  const std::size_t bytes = p->wire_bytes();
  transport_.send(self_, dst, std::move(p), bytes, /*is_payload=*/false);
}

void HyParViewNode::join(NodeId contact) {
  HpvPacket p;
  p.kind = HpvPacket::Kind::join;
  send(contact, p);
}

void HyParViewNode::start() {
  keepalive_timer_.start(rng_.range(0, params_.keepalive_period - 1),
                         params_.keepalive_period);
  shuffle_timer_.start(rng_.range(0, params_.shuffle_period - 1),
                       params_.shuffle_period);
}

void HyParViewNode::stop() {
  keepalive_timer_.stop();
  shuffle_timer_.stop();
}

bool HyParViewNode::has_active(NodeId id) const {
  return std::find(active_.begin(), active_.end(), id) != active_.end();
}

void HyParViewNode::add_active(NodeId id) {
  if (id == self_ || has_active(id)) return;
  // Make room: evict a random active peer into the passive view.
  while (active_.size() >= params_.active_size) {
    const std::size_t victim = rng_.below(active_.size());
    const NodeId evicted = active_[victim];
    HpvPacket p;
    p.kind = HpvPacket::Kind::disconnect;
    send(evicted, p);
    drop_active(evicted, /*send_disconnect=*/false, /*to_passive=*/true);
  }
  active_.push_back(id);
  missed_.push_back(0);
  std::erase(passive_, id);
  std::erase(pending_neighbor_, id);
}

void HyParViewNode::drop_active(NodeId id, bool send_disconnect,
                                bool to_passive) {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != id) continue;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    missed_.erase(missed_.begin() + static_cast<std::ptrdiff_t>(i));
    if (send_disconnect) {
      HpvPacket p;
      p.kind = HpvPacket::Kind::disconnect;
      send(id, p);
    }
    if (to_passive) add_passive(id);
    return;
  }
}

void HyParViewNode::add_passive(NodeId id) {
  if (id == self_ || has_active(id)) return;
  if (std::find(passive_.begin(), passive_.end(), id) != passive_.end()) {
    return;
  }
  if (passive_.size() >= params_.passive_size) {
    passive_[rng_.below(passive_.size())] = id;
  } else {
    passive_.push_back(id);
  }
}

void HyParViewNode::promote_from_passive() {
  // Ask a random passive peer to become an active neighbor. High priority
  // when we are isolated, so the target must accept.
  std::vector<NodeId> candidates;
  for (const NodeId id : passive_) {
    if (std::find(pending_neighbor_.begin(), pending_neighbor_.end(), id) ==
        pending_neighbor_.end()) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return;
  ++repairs_;
  const NodeId target = candidates[rng_.below(candidates.size())];
  pending_neighbor_.push_back(target);
  HpvPacket p;
  p.kind = HpvPacket::Kind::neighbor;
  p.flag = active_.empty();  // priority
  send(target, p);
}

void HyParViewNode::keepalive_tick() {
  for (std::size_t i = 0; i < active_.size();) {
    if (++missed_[i] > params_.keepalive_loss_threshold) {
      // Failed peer: drop (keep it out of the passive view — it is dead)
      // and repair from the passive reservoir.
      const NodeId failed = active_[i];
      drop_active(failed, /*send_disconnect=*/false, /*to_passive=*/false);
      promote_from_passive();
      continue;
    }
    ++i;
  }
  HpvPacket probe;
  probe.kind = HpvPacket::Kind::keepalive;
  for (const NodeId peer : active_) send(peer, probe);
  // Under-full active view (e.g. after failures or a sparse join): keep
  // promoting until full.
  if (active_.size() < params_.active_size) promote_from_passive();
}

void HyParViewNode::shuffle_tick() {
  if (active_.empty()) return;
  HpvPacket p;
  p.kind = HpvPacket::Kind::shuffle;
  p.subject = self_;
  p.ttl = params_.shuffle_ttl;
  p.nodes = rng_.sample(active_, params_.shuffle_active);
  for (const NodeId id : rng_.sample(passive_, params_.shuffle_passive)) {
    p.nodes.push_back(id);
  }
  p.nodes.push_back(self_);
  send(active_[rng_.below(active_.size())], p);
}

void HyParViewNode::sample_into(std::size_t f, std::vector<NodeId>& out) {
  rng_.sample_into(active_.data(), active_.size(), f, out);
}

void HyParViewNode::handle_packet(NodeId src, const HpvPacket& p) {
  switch (p.kind) {
    case HpvPacket::Kind::join: {
      add_active(src);
      // Tell the joiner the link is up (it learns symmetric membership).
      HpvPacket reply;
      reply.kind = HpvPacket::Kind::neighbor_reply;
      reply.flag = true;
      send(src, reply);
      // Spread the joiner through the overlay with random walks.
      HpvPacket walk;
      walk.kind = HpvPacket::Kind::forward_join;
      walk.subject = src;
      walk.ttl = params_.arwl;
      for (const NodeId peer : active_) {
        if (peer != src) send(peer, walk);
      }
      return;
    }
    case HpvPacket::Kind::forward_join: {
      const NodeId joiner = p.subject;
      if (joiner == self_ || joiner == kInvalidNode) return;
      if (p.ttl == 0 || active_.size() <= 1) {
        // Terminal: adopt the joiner as an active neighbor.
        add_active(joiner);
        HpvPacket reply;
        reply.kind = HpvPacket::Kind::neighbor_reply;
        reply.flag = true;
        send(joiner, reply);
        return;
      }
      if (p.ttl == params_.arwl - params_.prwl) add_passive(joiner);
      // Continue the walk away from where it came.
      std::vector<NodeId> next;
      for (const NodeId peer : active_) {
        if (peer != src && peer != joiner) next.push_back(peer);
      }
      if (next.empty()) {
        add_active(joiner);
        HpvPacket reply;
        reply.kind = HpvPacket::Kind::neighbor_reply;
        reply.flag = true;
        send(joiner, reply);
        return;
      }
      HpvPacket walk = p;
      --walk.ttl;
      send(next[rng_.below(next.size())], walk);
      return;
    }
    case HpvPacket::Kind::neighbor: {
      HpvPacket reply;
      reply.kind = HpvPacket::Kind::neighbor_reply;
      // Priority requests must be accepted; others only if there is room.
      reply.flag = p.flag || active_.size() < params_.active_size;
      if (reply.flag) add_active(src);
      send(src, reply);
      return;
    }
    case HpvPacket::Kind::neighbor_reply: {
      std::erase(pending_neighbor_, src);
      if (p.flag) {
        add_active(src);
      } else {
        add_passive(src);
        // Rejected: try another passive candidate if still under-full.
        if (active_.size() < params_.active_size) promote_from_passive();
      }
      return;
    }
    case HpvPacket::Kind::disconnect:
      drop_active(src, /*send_disconnect=*/false, /*to_passive=*/true);
      return;
    case HpvPacket::Kind::shuffle: {
      if (p.ttl > 0 && active_.size() > 1 && p.subject != self_) {
        // Keep walking.
        std::vector<NodeId> next;
        for (const NodeId peer : active_) {
          if (peer != src && peer != p.subject) next.push_back(peer);
        }
        if (!next.empty()) {
          HpvPacket walk = p;
          --walk.ttl;
          send(next[rng_.below(next.size())], walk);
          return;
        }
      }
      // Terminal: integrate and answer with our own sample.
      HpvPacket reply;
      reply.kind = HpvPacket::Kind::shuffle_reply;
      reply.nodes = rng_.sample(passive_, p.nodes.size());
      if (p.subject != kInvalidNode && p.subject != self_) {
        send(p.subject, reply);
      }
      for (const NodeId id : p.nodes) add_passive(id);
      return;
    }
    case HpvPacket::Kind::shuffle_reply:
      for (const NodeId id : p.nodes) add_passive(id);
      return;
    case HpvPacket::Kind::keepalive: {
      HpvPacket ack;
      ack.kind = HpvPacket::Kind::keepalive_ack;
      send(src, ack);
      // A keepalive from a peer that believes the link exists: accept the
      // link if we have room (heals one-sided state after message loss).
      if (!has_active(src) && active_.size() < params_.active_size) {
        add_active(src);
      }
      return;
    }
    case HpvPacket::Kind::keepalive_ack: {
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == src) {
          missed_[i] = 0;
          break;
        }
      }
      return;
    }
  }
}

}  // namespace esm::overlay
