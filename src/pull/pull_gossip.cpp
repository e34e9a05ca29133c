#include "pull/pull_gossip.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace esm::pull {

PullNode::PullNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
                   PullParams params, overlay::PeerSampler& sampler,
                   DeliverFn deliver, Rng rng, core::MessageArena* arena)
    : sim_(sim),
      transport_(transport),
      self_(self),
      params_(params),
      sampler_(sampler),
      deliver_(std::move(deliver)),
      rng_(rng),
      owned_arena_(arena ? nullptr : std::make_unique<core::MessageArena>()),
      arena_(arena ? arena : owned_arena_.get()),
      timer_(sim, [this] { poll_tick(); }) {
  ESM_CHECK(params.period > 0, "poll period must be positive");
  ESM_CHECK(params.fanout >= 1, "poll fanout must be positive");
  ESM_CHECK(static_cast<bool>(deliver_), "deliver up-call must be callable");
}

void PullNode::start() {
  timer_.start(rng_.range(0, params_.period - 1), params_.period);
}

void PullNode::stop() { timer_.stop(); }

core::AppMessage PullNode::multicast(std::uint32_t payload_bytes,
                                     std::uint32_t seq, SimTime now) {
  core::AppMessage msg;
  msg.id = rng_.next_msg_id();
  msg.origin = self_;
  msg.seq = seq;
  msg.payload_bytes = payload_bytes;
  msg.multicast_time = now;
  accept(msg);
  return msg;
}

void PullNode::accept(const core::AppMessage& msg) {
  const MsgKey key = arena_->store(msg);
  fetching_.erase(key);
  advert_count_.erase(key);
  if (!known_.set(key)) {
    ++duplicate_payloads_;
    return;
  }
  deliver_(msg);
}

void PullNode::poll_tick() {
  // Digest of everything currently known, in ascending intern-key order
  // (bounded; random subset when the store exceeds the cap so no id is
  // systematically never advertised).
  std::vector<MsgId> digest;
  digest.reserve(known_.count());
  known_.for_each_set(
      [&](std::size_t key) { digest.push_back(arena_->id(MsgKey(key))); });
  if (digest.size() > params_.max_digest) {
    digest = rng_.sample(digest, params_.max_digest);
  }
  std::vector<NodeId> peers = std::move(peers_scratch_);
  sampler_.sample_into(params_.fanout, peers);
  for (const NodeId peer : peers) {
    auto request = net::make_packet<PullRequestPacket>();
    request->known = digest;
    const std::size_t bytes = request->wire_bytes();
    transport_.send(self_, peer, std::move(request), bytes,
                    /*is_payload=*/false);
  }
  peers_scratch_ = std::move(peers);
}

bool PullNode::handle_packet(NodeId src, const net::PacketPtr& packet) {
  switch (packet->type) {
    case net::PacketType::pull_request: {
      const auto& request = static_cast<const PullRequestPacket&>(*packet);
      // What is the poller missing? Mark its digest in the scratch bitset,
      // then enumerate our store minus it (ascending key order).
      theirs_scratch_.clear();
      for (const MsgId& id : request.known) {
        theirs_scratch_.set(arena_->intern(id));
      }
      std::vector<MsgKey> missing;
      known_.for_each_set([&](std::size_t key) {
        if (!theirs_scratch_.test(key)) missing.push_back(MsgKey(key));
      });
      if (missing.empty()) return true;
      if (params_.lazy_reply) {
        auto advertise = net::make_packet<PullAdvertisePacket>();
        advertise->ids.reserve(missing.size());
        for (const MsgKey key : missing) {
          advertise->ids.push_back(arena_->id(key));
        }
        const std::size_t bytes = advertise->wire_bytes();
        transport_.send(self_, src, std::move(advertise), bytes,
                        /*is_payload=*/false);
      } else {
        // Eager pull reply: one payload packet per message, so the payload
        // accounting matches the push protocols'.
        for (const MsgKey key : missing) {
          auto reply = net::make_packet<PullReplyPacket>();
          reply->messages.push_back(arena_->message(key));
          const std::size_t bytes = reply->wire_bytes();
          transport_.send(self_, src, std::move(reply), bytes,
                          /*is_payload=*/true);
        }
      }
      return true;
    }
    case net::PacketType::pull_advertise: {
      const auto& advertise = static_cast<const PullAdvertisePacket&>(*packet);
      const SimTime timeout = params_.refetch_timeout > 0
                                  ? params_.refetch_timeout
                                  : params_.period;
      const bool rarest = params_.order == core::PullOrder::rarest;
      fetch_scratch_.clear();
      for (const MsgId& id : advertise.ids) {
        const MsgKey key = arena_->intern(id);
        if (known_.test(key)) continue;
        if (rarest) ++advert_count_[key];
        const auto [stamp, inserted] = fetching_.try_emplace(key);
        if (inserted) {
          *stamp = sim_.now();
        } else {
          // A fetch is already in flight; re-fetch only once it has had a
          // full timeout to be answered (it or its reply may be lost).
          if (sim_.now() - *stamp < timeout) continue;
          *stamp = sim_.now();
          ++refetches_;
        }
        fetch_scratch_.push_back({id, key, /*refetch=*/!inserted});
      }
      if (rarest && fetch_scratch_.size() > 1) {
        // Rarest-first (PullParams::order): fewest observed advertisements
        // first; stable so equally-rare ids keep advertise order.
        std::stable_sort(fetch_scratch_.begin(), fetch_scratch_.end(),
                         [this](const FetchCandidate& a,
                                const FetchCandidate& b) {
                           return *advert_count_.find(a.key) <
                                  *advert_count_.find(b.key);
                         });
      }
      if (!fetch_scratch_.empty()) {
        auto fetch = net::make_packet<PullFetchPacket>();
        fetch->ids.reserve(fetch_scratch_.size());
        for (const FetchCandidate& c : fetch_scratch_) {
          if (fetch_listener_) fetch_listener_(c.id, c.refetch);
          fetch->ids.push_back(c.id);
        }
        const std::size_t bytes = fetch->wire_bytes();
        transport_.send(self_, src, std::move(fetch), bytes,
                        /*is_payload=*/false);
      }
      return true;
    }
    case net::PacketType::pull_fetch: {
      const auto& fetch = static_cast<const PullFetchPacket&>(*packet);
      for (const MsgId& id : fetch.ids) {
        const MsgKey key = arena_->find(id);
        if (key == kInvalidMsgKey || !known_.test(key)) continue;
        auto reply = net::make_packet<PullReplyPacket>();
        reply->messages.push_back(arena_->message(key));
        const std::size_t bytes = reply->wire_bytes();
        transport_.send(self_, src, std::move(reply), bytes,
                        /*is_payload=*/true);
      }
      return true;
    }
    case net::PacketType::pull_reply: {
      const auto& reply = static_cast<const PullReplyPacket&>(*packet);
      for (const core::AppMessage& msg : reply.messages) accept(msg);
      return true;
    }
    default:
      return false;  // another protocol's packet
  }
}

void PullNode::garbage_collect(const std::vector<MsgId>& ids) {
  for (const MsgId& id : ids) {
    const MsgKey key = arena_->find(id);
    if (key == kInvalidMsgKey) continue;
    known_.reset(key);
    fetching_.erase(key);
    advert_count_.erase(key);
  }
}

}  // namespace esm::pull
