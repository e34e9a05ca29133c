// HyParView membership (Leitão, Pereira & Rodrigues, DSN 2007 — the same
// group and venue as this paper, and the published substrate of the
// Plumtree broadcast trees our adaptive strategy reproduces).
//
// Each node keeps two views:
//   * a small *symmetric* active view — the gossip neighbors. Symmetry is
//     maintained by explicit NEIGHBOR/DISCONNECT handshakes, so if A
//     gossips to B, B can gossip and advertise back to A, which is what
//     per-link prune/graft state needs to converge;
//   * a larger passive view — a reservoir of backup peers maintained by
//     periodic shuffles, from which failed active peers are replaced.
//
// Protocol summary (faithful to the paper, with keepalive-based failure
// detection standing in for TCP connection breakage):
//   JOIN            new node -> contact; contact adds it to its active
//                   view and spreads FORWARDJOIN random walks.
//   FORWARDJOIN     random walk of length ARWL; the terminal node (or any
//                   node with a near-empty active view) adds the joiner
//                   via NEIGHBOR; at PRWL hops the joiner is inserted into
//                   the walker's passive view.
//   NEIGHBOR        symmetric active-link request; `priority` forces
//                   acceptance when the requester has no active peers.
//   DISCONNECT      clean removal from the active view (evicted peers are
//                   kept in the passive view).
//   SHUFFLE         random walk carrying a sample of the sender's views;
//                   the terminal node replies with its own sample; both
//                   integrate into passive views.
//   keepalives      periodic probes of active peers; a silent peer is
//                   dropped and replaced by promoting a passive peer.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {

struct HyParViewParams {
  /// Active view capacity (gossip degree). Plumtree uses fanout+1.
  std::uint32_t active_size = 5;
  /// Passive view capacity.
  std::uint32_t passive_size = 30;
  /// Active random-walk length for FORWARDJOIN.
  std::uint32_t arwl = 6;
  /// Passive random-walk length (walker inserts joiner into its passive
  /// view when ttl reaches arwl - prwl).
  std::uint32_t prwl = 3;
  /// Shuffle period and sample sizes.
  SimTime shuffle_period = 5 * kSecond;
  std::uint32_t shuffle_active = 3;
  std::uint32_t shuffle_passive = 4;
  std::uint32_t shuffle_ttl = 4;
  /// Keepalive period; an active peer missing `keepalive_loss_threshold`
  /// consecutive probes is declared failed.
  SimTime keepalive_period = 500 * kMillisecond;
  std::uint32_t keepalive_loss_threshold = 3;
};

struct HpvPacket final : net::PacketOf<net::PacketType::hyparview> {
  enum class Kind : std::uint8_t {
    join,
    forward_join,
    neighbor,
    neighbor_reply,
    disconnect,
    shuffle,
    shuffle_reply,
    keepalive,
    keepalive_ack,
  };
  Kind kind = Kind::join;
  NodeId subject = kInvalidNode;  // joiner (forward_join) / shuffle origin
  std::uint32_t ttl = 0;
  bool flag = false;  // neighbor: priority; neighbor_reply: accepted
  std::vector<NodeId> nodes;  // shuffle payloads

  std::size_t wire_bytes() const { return 32 + nodes.size() * 4; }
};

/// One node's HyParView agent; doubles as the gossip layer's PeerSampler
/// over the active view.
class HyParViewNode final : public PeerSampler {
 public:
  HyParViewNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
                HyParViewParams params, Rng rng);

  /// Joins through `contact` (must be an already-joined node). The first
  /// node of a group simply start()s without joining.
  void join(NodeId contact);

  /// Starts periodic shuffling and keepalives.
  void start();
  void stop();

  void handle_packet(NodeId src, const HpvPacket& p);

  // PeerSampler over the active view.
  void sample_into(std::size_t f, std::vector<NodeId>& out) override;

  const std::vector<NodeId>& active_view() const { return active_; }
  const std::vector<NodeId>& passive_view() const { return passive_; }
  bool has_active(NodeId id) const;
  std::uint64_t repairs() const { return repairs_; }

 private:
  void add_active(NodeId id);
  void drop_active(NodeId id, bool send_disconnect, bool to_passive);
  void add_passive(NodeId id);
  void promote_from_passive();
  void send(NodeId dst, HpvPacket packet);
  void keepalive_tick();
  void shuffle_tick();

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  HyParViewParams params_;
  Rng rng_;
  std::vector<NodeId> active_;
  std::vector<std::uint32_t> missed_;  // keepalive misses, parallel to active_
  std::vector<NodeId> passive_;
  /// Peers we asked to NEIGHBOR and not yet heard from.
  std::vector<NodeId> pending_neighbor_;
  sim::PeriodicTimer keepalive_timer_;
  sim::PeriodicTimer shuffle_timer_;
  std::uint64_t repairs_ = 0;
};

}  // namespace esm::overlay
