#include "overlay/neem.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esm::overlay {

NeemNode::NeemNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
                   NeemParams params, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      params_(params),
      rng_(rng),
      shuffle_timer_(sim, [this] { shuffle_tick(); }),
      probe_timer_(sim, [this] { probe_tick(); }) {
  ESM_CHECK(params.target_degree >= 1, "target degree must be positive");
  ESM_CHECK(params.max_degree >= params.target_degree,
            "max degree must cover the target");
}

void NeemNode::send(NodeId dst, NeemPacket packet) {
  auto p = net::make_packet<NeemPacket>(std::move(packet));
  const std::size_t bytes = p->wire_bytes();
  transport_.send(self_, dst, std::move(p), bytes, /*is_payload=*/false);
}

bool NeemNode::connected_to(NodeId id) const {
  return std::find(connected_.begin(), connected_.end(), id) !=
         connected_.end();
}

void NeemNode::open(NodeId peer) {
  if (peer == self_ || connected_to(peer)) return;
  if (std::find(pending_.begin(), pending_.end(), peer) != pending_.end()) {
    return;  // handshake already in flight
  }
  if (connected_.size() + pending_.size() >= params_.max_degree) return;
  pending_.push_back(peer);
  NeemPacket p;
  p.kind = NeemPacket::Kind::connect;
  send(peer, p);
}

void NeemNode::drop(NodeId peer, bool send_close) {
  for (std::size_t i = 0; i < connected_.size(); ++i) {
    if (connected_[i] != peer) continue;
    connected_.erase(connected_.begin() + static_cast<std::ptrdiff_t>(i));
    missed_.erase(missed_.begin() + static_cast<std::ptrdiff_t>(i));
    ++closed_;
    if (send_close) {
      NeemPacket p;
      p.kind = NeemPacket::Kind::close;
      send(peer, p);
    }
    return;
  }
}

void NeemNode::shed_if_over(std::uint32_t cap) {
  while (connected_.size() > cap) {
    drop(connected_[rng_.below(connected_.size())], /*send_close=*/true);
  }
}

void NeemNode::bootstrap(const std::vector<NodeId>& contacts) {
  for (const NodeId c : contacts) open(c);
}

void NeemNode::start() {
  shuffle_timer_.start(rng_.range(0, params_.shuffle_period - 1),
                       params_.shuffle_period);
  probe_timer_.start(rng_.range(0, params_.probe_period - 1),
                     params_.probe_period);
}

void NeemNode::stop() {
  shuffle_timer_.stop();
  probe_timer_.stop();
}

void NeemNode::shuffle_tick() {
  if (connected_.empty()) return;
  // Gossip a sample of neighbor addresses (plus our own) to a random
  // neighbor; the receiver connects to addresses it likes.
  NeemPacket p;
  p.kind = NeemPacket::Kind::shuffle;
  p.addresses = rng_.sample(connected_, params_.shuffle_size);
  p.addresses.push_back(self_);
  const NodeId target = connected_[rng_.below(connected_.size())];
  std::erase(p.addresses, target);
  send(target, p);
}

void NeemNode::probe_tick() {
  for (std::size_t i = 0; i < connected_.size();) {
    if (++missed_[i] > params_.probe_loss_threshold) {
      drop(connected_[i], /*send_close=*/false);  // broken connection
      continue;
    }
    ++i;
  }
  NeemPacket probe;
  probe.kind = NeemPacket::Kind::probe;
  for (const NodeId peer : connected_) send(peer, probe);
  // Keep pursuing the target degree: ask a neighbor for addresses
  // implicitly through the regular shuffle; direct re-bootstrap is the
  // application's job if we became isolated.
}

void NeemNode::sample_into(std::size_t f, std::vector<NodeId>& out) {
  rng_.sample_into(connected_.data(), connected_.size(), f, out);
}

void NeemNode::handle_packet(NodeId src, const NeemPacket& p) {
  switch (p.kind) {
    case NeemPacket::Kind::connect: {
      NeemPacket reply;
      if (connected_to(src)) {
        reply.kind = NeemPacket::Kind::accept;  // idempotent
      } else if (connected_.size() < params_.max_degree) {
        connected_.push_back(src);
        missed_.push_back(0);
        ++opened_;
        reply.kind = NeemPacket::Kind::accept;
      } else {
        reply.kind = NeemPacket::Kind::reject;
      }
      send(src, reply);
      return;
    }
    case NeemPacket::Kind::accept: {
      std::erase(pending_, src);
      if (!connected_to(src)) {
        connected_.push_back(src);
        missed_.push_back(0);
        ++opened_;
      }
      // Accepting may have pushed us over target: shed down to it so the
      // overlay keeps mixing instead of saturating at max_degree.
      shed_if_over(params_.target_degree);
      return;
    }
    case NeemPacket::Kind::reject:
      std::erase(pending_, src);
      return;
    case NeemPacket::Kind::close:
      drop(src, /*send_close=*/false);
      return;
    case NeemPacket::Kind::shuffle: {
      for (const NodeId addr : p.addresses) {
        if (addr == self_ || connected_to(addr)) continue;
        if (connected_.size() < params_.target_degree) {
          open(addr);
        } else if (rng_.chance(params_.replace_probability)) {
          // Full view: swap a random existing connection for the new
          // address — the continuous mixing that keeps the overlay an
          // (approximately) uniform random graph.
          drop(connected_[rng_.below(connected_.size())],
               /*send_close=*/true);
          open(addr);
        }
      }
      return;
    }
    case NeemPacket::Kind::probe: {
      NeemPacket ack;
      ack.kind = NeemPacket::Kind::probe_ack;
      send(src, ack);
      return;
    }
    case NeemPacket::Kind::probe_ack: {
      for (std::size_t i = 0; i < connected_.size(); ++i) {
        if (connected_[i] == src) {
          missed_[i] = 0;
          break;
        }
      }
      return;
    }
  }
}

}  // namespace esm::overlay
