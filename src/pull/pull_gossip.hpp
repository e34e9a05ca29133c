// Pull (anti-entropy) gossip — the comparator discussed in the paper's
// related work (§7):
//
//   "Lazy push gossip can also be confused with pull gossip, as in both
//    cases payload is transmitted only upon request. Pull gossip is however
//    fundamentally different as it issues generic requests to a random
//    sub-set of nodes, which might or not have new data ... In fact,
//    unless performed lazily, pull gossip will result in multiple payload
//    transmissions to the same destination as much as eager push gossip."
//
// Each node periodically polls random peers with a digest of the message
// ids it already knows; the peer answers with what the poller is missing.
// Two reply modes make the paper's point measurable:
//
//   * eager reply — the peer ships full payloads immediately. Concurrent
//     polls to different peers fetch the same payload several times.
//   * lazy reply — the peer ships only the missing ids; the poller fetches
//     each payload once with a follow-up request (one more round trip).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/message.hpp"
#include "core/msg_arena.hpp"
#include "core/strategy.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::pull {

/// Poll: "here is what I know; send me news".
struct PullRequestPacket final : net::PacketOf<net::PacketType::pull_request> {
  std::vector<MsgId> known;

  std::size_t wire_bytes() const { return 24 + known.size() * 16; }
};

/// Eager reply: full payloads the poller was missing.
struct PullReplyPacket final : net::PacketOf<net::PacketType::pull_reply> {
  std::vector<core::AppMessage> messages;

  std::size_t wire_bytes() const {
    std::size_t total = 24;
    for (const auto& m : messages) total += 40 + m.payload_bytes;
    return total;
  }
};

/// Lazy reply: just the missing ids (poller fetches separately).
struct PullAdvertisePacket final
    : net::PacketOf<net::PacketType::pull_advertise> {
  std::vector<MsgId> ids;

  std::size_t wire_bytes() const { return 24 + ids.size() * 16; }
};

/// Fetch of specific payloads after a lazy reply.
struct PullFetchPacket final : net::PacketOf<net::PacketType::pull_fetch> {
  std::vector<MsgId> ids;

  std::size_t wire_bytes() const { return 24 + ids.size() * 16; }
};

struct PullParams {
  /// Poll period. Pull latency is dominated by this (expected wait for
  /// the first poll after infection reaches a neighbor is period/2).
  SimTime period = 200 * kMillisecond;
  /// Peers polled per period.
  std::size_t fanout = 1;
  /// Ship payloads in replies (eager) or only ids (lazy).
  bool lazy_reply = false;
  /// Digest cap per request (bounds request size; older ids are garbage
  /// collected by the application).
  std::size_t max_digest = 512;
  /// How long an in-flight PullFetch suppresses re-fetching the same id.
  /// If the fetch or its reply is dropped, a later advertisement may
  /// re-fetch once this much time has passed. 0 = one poll `period`.
  SimTime refetch_timeout = 0;
  /// Fetch scheduling after a lazy advertise (Sanghavi-style): `random`
  /// fetches in advertise order (bit-identical with older builds);
  /// `rarest` fetches the id with the fewest advertisements observed so
  /// far first — under a saturated serving egress the head of the fetch
  /// is served first and survives purging, so rare messages spread.
  core::PullOrder order = core::PullOrder::random;
};

/// One node of the pull-gossip protocol.
class PullNode {
 public:
  using DeliverFn = std::function<void(const core::AppMessage&)>;

  /// `arena` is the run-wide intern table + canonical payload store; pass
  /// the shared one when many nodes live in one simulation, nullptr for a
  /// private arena (standalone construction).
  PullNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
           PullParams params, overlay::PeerSampler& sampler, DeliverFn deliver,
           Rng rng, core::MessageArena* arena = nullptr);

  /// Starts periodic polling (random initial phase).
  void start();
  void stop();

  /// Originates a message.
  core::AppMessage multicast(std::uint32_t payload_bytes, std::uint32_t seq,
                             SimTime now);

  /// Seeds the local store with an externally obtained message — e.g. a
  /// payload delivered by a push layer when this node runs pull as an
  /// anti-entropy *repair* layer. No delivery up-call and no duplicate
  /// accounting: the payload is already in the application's hands.
  void insert(const core::AppMessage& msg) {
    const MsgKey key = arena_->store(msg);
    fetching_.erase(key);
    advert_count_.erase(key);
    known_.set(key);
  }

  bool handle_packet(NodeId src, const net::PacketPtr& packet);

  std::size_t known_count() const { return known_.count(); }
  bool knows(const MsgId& id) const {
    const MsgKey key = arena_->find(id);
    return key != kInvalidMsgKey && known_.test(key);
  }

  /// Payload copies received for already-known messages (the §7 waste of
  /// non-lazy pull).
  std::uint64_t duplicate_payloads() const { return duplicate_payloads_; }

  /// PullFetch requests re-issued after an earlier fetch for the same id
  /// timed out (the fetch or its reply was lost).
  std::uint64_t refetches() const { return refetches_; }

  /// Observation hook: invoked for every PullFetch id sent, with
  /// `refetch` true when it re-fetches after a timed-out earlier attempt.
  using FetchListener = std::function<void(const MsgId&, bool refetch)>;
  void set_fetch_listener(FetchListener listener) {
    fetch_listener_ = std::move(listener);
  }

  /// Drops finished messages from the local store.
  void garbage_collect(const std::vector<MsgId>& ids);

 private:
  void poll_tick();
  void accept(const core::AppMessage& msg);

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  PullParams params_;
  overlay::PeerSampler& sampler_;
  DeliverFn deliver_;
  Rng rng_;
  std::unique_ptr<core::MessageArena> owned_arena_;
  core::MessageArena* arena_;
  /// Local store, as a bitset over arena keys: this node serves a payload
  /// iff its bit is set (the bytes live once in the arena's canonical
  /// copy). Digests and missing-lists enumerate in ascending key order —
  /// first-sight order of the run, deterministic at any --jobs.
  compact::DynamicBitset known_;
  /// Scratch for the poller's digest during request handling (reused).
  compact::DynamicBitset theirs_scratch_;
  /// Keys requested via PullFetch and not yet received, with the send time
  /// of the latest fetch. Suppresses duplicate fetches from concurrent
  /// advertisers, but only for `refetch_timeout`: a dropped fetch or
  /// reply must not suppress recovery forever.
  compact::FlatMap<MsgKey, SimTime> fetching_;
  /// Advertisements observed per still-missing key (rarest-first fetch
  /// ordering only; erased on receipt/GC). Counting distinct observations
  /// approximates how replicated the message already is around us.
  compact::FlatMap<MsgKey, std::uint32_t> advert_count_;
  /// Staging for fetch candidates while ordering (recycled).
  struct FetchCandidate {
    MsgId id;
    MsgKey key = kInvalidMsgKey;
    bool refetch = false;
  };
  std::vector<FetchCandidate> fetch_scratch_;
  std::vector<NodeId> peers_scratch_;  // poll targets, reused per tick
  sim::PeriodicTimer timer_;
  std::uint64_t duplicate_payloads_ = 0;
  std::uint64_t refetches_ = 0;
  FetchListener fetch_listener_;
};

}  // namespace esm::pull
