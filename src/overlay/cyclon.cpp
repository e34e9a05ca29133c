#include "overlay/cyclon.hpp"

#include <algorithm>

namespace esm::overlay {

CyclonNode::CyclonNode(sim::Simulator& sim, net::Transport& transport,
                       NodeId self, OverlayParams params, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      params_(params),
      rng_(rng),
      timer_(sim, [this] { shuffle_tick(); }) {
  ESM_CHECK(params.view_size >= 1, "view size must be positive");
  ESM_CHECK(params.shuffle_length >= 1, "shuffle length must be positive");
  view_.reserve(params.view_size);
}

void CyclonNode::bootstrap(const std::vector<NodeId>& contacts) {
  for (const NodeId c : contacts) {
    if (c == self_ || find(c) != view_.size()) continue;
    if (view_.size() >= params_.view_size) break;
    view_.push_back(ViewEntry{c, 0});
  }
}

void CyclonNode::reseed(NodeId contact) {
  if (contact == self_ || find(contact) != view_.size()) return;
  if (view_.size() < params_.view_size) {
    view_.push_back(ViewEntry{contact, 0});
  } else {
    view_[rng_.below(view_.size())] = ViewEntry{contact, 0};
  }
}

void CyclonNode::start() {
  timer_.start(rng_.range(0, params_.shuffle_period - 1),
               params_.shuffle_period);
}

void CyclonNode::stop() { timer_.stop(); }

std::size_t CyclonNode::find(NodeId id) const {
  for (std::size_t i = 0; i < view_.size(); ++i) {
    if (view_[i].id == id) return i;
  }
  return view_.size();
}

bool CyclonNode::knows(NodeId id) const { return find(id) != view_.size(); }

void CyclonNode::shuffle_tick() {
  if (view_.empty()) return;
  for (ViewEntry& e : view_) ++e.age;

  // Pick the oldest descriptor as shuffle target and drop it: a failed
  // target is thereby forgotten even though it never replies.
  std::size_t oldest = 0;
  for (std::size_t i = 1; i < view_.size(); ++i) {
    if (view_[i].age > view_[oldest].age) oldest = i;
  }
  const NodeId target = view_[oldest].id;
  view_.erase(view_.begin() + static_cast<std::ptrdiff_t>(oldest));

  // Ship a fresh descriptor of ourselves plus a random slice of the view.
  auto request = net::make_packet<ShufflePacket>();
  request->is_reply = false;
  request->entries.push_back(ViewEntry{self_, 0});
  std::vector<std::size_t> indices(view_.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  indices = rng_.sample(indices, params_.shuffle_length - 1);
  last_sent_.clear();
  for (const std::size_t i : indices) {
    request->entries.push_back(view_[i]);
    last_sent_.push_back(view_[i].id);
  }
  const std::size_t bytes = request->wire_bytes();
  transport_.send(self_, target, std::move(request), bytes,
                  /*is_payload=*/false);
}

void CyclonNode::handle_packet(NodeId src, const ShufflePacket& shuffle) {
  if (!shuffle.is_reply) {
    // Answer with a random slice of our view, then merge theirs. The
    // entries we shipped are the preferred victims for replacement.
    auto reply = net::make_packet<ShufflePacket>();
    reply->is_reply = true;
    std::vector<std::size_t> indices(view_.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    indices = rng_.sample(indices, params_.shuffle_length);
    std::vector<NodeId> sent;
    for (const std::size_t i : indices) {
      reply->entries.push_back(view_[i]);
      sent.push_back(view_[i].id);
    }
    const std::size_t bytes = reply->wire_bytes();
    transport_.send(self_, src, std::move(reply), bytes, /*is_payload=*/false);
    merge(shuffle.entries, sent);
  } else {
    merge(shuffle.entries, last_sent_);
    last_sent_.clear();
  }
}

void CyclonNode::merge(const std::vector<ViewEntry>& received,
                       const std::vector<NodeId>& sent) {
  std::vector<NodeId> victims = sent;
  for (const ViewEntry& entry : received) {
    if (entry.id == self_) continue;
    const std::size_t existing = find(entry.id);
    if (existing != view_.size()) {
      // Keep the fresher descriptor.
      view_[existing].age = std::min(view_[existing].age, entry.age);
      continue;
    }
    if (view_.size() < params_.view_size) {
      view_.push_back(entry);
      continue;
    }
    // Replace a descriptor we just shipped away, else a random one.
    bool replaced = false;
    while (!victims.empty() && !replaced) {
      const NodeId victim = victims.back();
      victims.pop_back();
      const std::size_t at = find(victim);
      if (at != view_.size()) {
        view_[at] = entry;
        replaced = true;
      }
    }
    if (!replaced) {
      view_[rng_.below(view_.size())] = entry;
    }
  }
}

void CyclonNode::sample_into(std::size_t f, std::vector<NodeId>& out) {
  view_ids_.clear();
  for (const ViewEntry& e : view_) view_ids_.push_back(e.id);
  rng_.sample_into(view_ids_.data(), view_ids_.size(), f, out);
}

void FullMembershipSampler::sample_into(std::size_t f,
                                        std::vector<NodeId>& out) {
  live_.clear();
  for (NodeId n = 0; n < transport_.num_nodes(); ++n) {
    if (n != self_ && !transport_.is_silenced(n)) live_.push_back(n);
  }
  rng_.sample_into(live_.data(), live_.size(), f, out);
}

}  // namespace esm::overlay
