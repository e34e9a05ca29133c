// Cyclon-style gossip membership: the peer sampling substrate.
//
// The paper runs over the NeEM overlay, whose membership layer periodically
// "shuffles peers with neighbors" (§6.1). We implement the shuffle as the
// published Cyclon exchange (Voulgaris, Gavidia & van Steen, 2005), a
// standard instance of the peer sampling service the paper's gossip layer
// assumes [10]: fixed-size partial views of (peer, age) descriptors,
// periodic age-based exchanges, and age-based eviction that self-heals the
// view after failures — reproducing both the uniform sampling and the
// membership dynamics the paper's experiments depend on.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {

/// One descriptor in a partial view.
struct ViewEntry {
  NodeId id = kInvalidNode;
  std::uint32_t age = 0;
};

struct OverlayParams {
  /// Partial view capacity; the paper's "overlay fanout" of 15 (§5.2).
  std::uint32_t view_size = 15;
  /// Descriptors exchanged per shuffle.
  std::uint32_t shuffle_length = 6;
  /// Interval between shuffles initiated by a node.
  SimTime shuffle_period = 1 * kSecond;
};

/// Shuffle request/reply packets.
struct ShufflePacket final : net::PacketOf<net::PacketType::shuffle> {
  bool is_reply = false;
  std::vector<ViewEntry> entries;

  /// Wire-size estimate: header + 8 bytes per descriptor.
  std::size_t wire_bytes() const { return 16 + entries.size() * 8; }
};

/// One node's membership agent. Register its owner's packets through
/// `handle_packet`; call `start()` once bootstrapped.
class CyclonNode final : public PeerSampler {
 public:
  CyclonNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
             OverlayParams params, Rng rng);

  /// Seeds the view with initial contacts (the join step; in deployments
  /// this comes from a rendezvous service). Entries beyond the view
  /// capacity are ignored.
  void bootstrap(const std::vector<NodeId>& contacts);

  /// Force-inserts a fresh contact, evicting a random entry if the view is
  /// full. Used to re-merge after connectivity events (e.g. a healed
  /// partition): once one cross-side descriptor enters a view, shuffling
  /// re-mixes both sides. In deployments the contact comes from the same
  /// rendezvous service as bootstrap.
  void reseed(NodeId contact);

  /// Starts periodic shuffling, with a random initial phase to avoid
  /// synchronized rounds.
  void start();
  void stop();

  /// Consumes a shuffle packet addressed to this node.
  void handle_packet(NodeId src, const ShufflePacket& shuffle);

  // PeerSampler:
  void sample_into(std::size_t f, std::vector<NodeId>& out) override;

  const std::vector<ViewEntry>& view() const { return view_; }
  NodeId self() const { return self_; }

  /// True if `id` is currently in the view (test helper).
  bool knows(NodeId id) const;

 private:
  void shuffle_tick();
  /// Merges received descriptors into the view, preferring to overwrite
  /// the descriptors we just sent away (`sent`), per Cyclon.
  void merge(const std::vector<ViewEntry>& received,
             const std::vector<NodeId>& sent);
  std::size_t find(NodeId id) const;

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  OverlayParams params_;
  Rng rng_;
  std::vector<ViewEntry> view_;
  /// Descriptors shipped in our outstanding shuffle request, eligible for
  /// replacement when the reply arrives.
  std::vector<NodeId> last_sent_;
  std::vector<NodeId> view_ids_;  // sample_into() staging, reused
  sim::PeriodicTimer timer_;
};

/// Oracle sampler: uniform over all live (non-silenced) nodes. Used by
/// tests and ablations to isolate protocol effects from membership effects.
class FullMembershipSampler final : public PeerSampler {
 public:
  FullMembershipSampler(const net::Transport& transport, NodeId self, Rng rng)
      : transport_(transport), self_(self), rng_(rng) {}

  void sample_into(std::size_t f, std::vector<NodeId>& out) override;

 private:
  const net::Transport& transport_;
  NodeId self_;
  Rng rng_;
  std::vector<NodeId> live_;  // sample_into() staging, reused
};

}  // namespace esm::overlay
