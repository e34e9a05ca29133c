// Eager push gossip protocol layer (paper Fig. 2).
//
// The layer is oblivious to the Payload Scheduler beneath it: it calls
// L-Send for every relay and receives L-Receive up-calls, exactly as it
// would over a raw transport. Duplicate suppression uses the set K of
// known message ids; forwarding stops after t rounds; relay targets come
// from the peer sampling service, f at a time.
#pragma once

#include <functional>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/message.hpp"
#include "core/scheduler.hpp"
#include "overlay/peer_sampler.hpp"

namespace esm::core {

/// Gossip configuration (paper §5.2: fanout 11; t bounds relay rounds).
struct GossipParams {
  /// Relay fanout f.
  std::uint32_t fanout = 11;
  /// Maximum relay rounds t.
  Round max_rounds = 8;
  /// Never relay a message back to the peer it came from. The paper's
  /// Fig. 2 samples peers blindly (a rare wasted transmission at fanout
  /// 11 over 100 nodes); Plumtree-style adaptive strategies require the
  /// exclusion ("eagerPush to eagerPushPeers \ {sender}") or every relay
  /// prunes the very edge it arrived on.
  bool exclude_sender = false;
};

/// One node's gossip agent.
class GossipNode {
 public:
  /// Deliver(d) up-call to the application.
  using DeliverFn = std::function<void(const AppMessage&)>;

  GossipNode(NodeId self, GossipParams params, overlay::PeerSampler& sampler,
             PayloadScheduler& scheduler, DeliverFn deliver, Rng rng);

  /// Multicast(d): originates a message of `payload_bytes` at time `now`
  /// (simulated payload). Returns the generated message (with its fresh
  /// id) for bookkeeping.
  AppMessage multicast(std::uint32_t payload_bytes, std::uint32_t seq,
                       SimTime now);

  /// Multicast(d) with real content: `data` travels end-to-end to every
  /// Deliver up-call (and through the wire codec when installed).
  AppMessage multicast(std::vector<std::uint8_t> data, std::uint32_t seq,
                       SimTime now);

  /// L-Receive(i, d, r, s) up-call from the scheduler.
  void l_receive(const AppMessage& msg, Round round, NodeId source);

  /// Number of distinct messages known (|K|).
  std::size_t known_count() const { return known_.count(); }
  bool knows(const MsgId& id) const {
    const MsgKey key = scheduler_.arena().find(id);
    return key != kInvalidMsgKey && known_.test(key);
  }

  /// Drops ids from K (garbage collection; §3.1 notes efficient schemes
  /// exist — the harness calls this for messages past their lifetime).
  void garbage_collect(const std::vector<MsgId>& ids);

  /// Observation hook: invoked once per Forward() with the relay round
  /// the message arrived at (0 = originated here) and how many peers it
  /// was relayed to (0 past max_rounds). Feeds the obs lifecycle tracker;
  /// not part of the protocol.
  using RelayListener =
      std::function<void(const MsgId&, Round round, std::size_t relayed_to)>;
  void set_relay_listener(RelayListener listener) {
    relay_listener_ = std::move(listener);
  }

 private:
  void forward(const AppMessage& msg, Round round, NodeId from);

  NodeId self_;
  GossipParams params_;
  overlay::PeerSampler& sampler_;
  PayloadScheduler& scheduler_;
  DeliverFn deliver_;
  Rng rng_;
  /// K, as a bitset over the scheduler's arena keys (one bit per message
  /// ever seen in the run instead of a hash-set node per known id).
  compact::DynamicBitset known_;
  /// Relay targets, reused across forwards (taken while in use, so a
  /// re-entrant forward gets a fresh vector instead of clobbering it).
  std::vector<NodeId> targets_scratch_;
  RelayListener relay_listener_;
};

}  // namespace esm::core
