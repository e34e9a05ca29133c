// Simulated unreliable point-to-point transport (the paper's L-Send /
// L-Receive service, §3.1).
//
// Semantics: unicast datagrams with per-path one-way delay (from a
// LatencyModel), independent per-packet loss, optional per-node egress
// bandwidth serialization, and optional delay jitter. Nodes can be
// *silenced* — the firewall-rule failure injection of §6.3: a silenced
// node's packets never leave and packets addressed to it are dropped on
// arrival.
//
// Every packet transmission is accounted in TrafficStats per directed link;
// payload-bearing packets are counted separately, since the paper's central
// metrics (payload/msg, top-5% connection share, Fig. 4/6) are defined over
// payload transmissions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/latency_model.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace esm::sim {
class ShardedSimulator;
}

namespace esm::net {

/// Base class for everything that travels through the transport. Protocol
/// layers define subclasses and dispatch on their concrete types.
class Packet {
 public:
  virtual ~Packet() = default;
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Optional serialization hook: when installed on the transport, every
/// packet is encoded at the sender and decoded at the receiver, so (a) the
/// byte accounting uses real wire sizes and (b) the codec is exercised by
/// all live traffic. Implemented by esm_wire (src/wire/codec.hpp); declared
/// here so the transport does not depend on the protocol libraries.
class PacketCodec {
 public:
  virtual ~PacketCodec() = default;
  virtual std::vector<std::uint8_t> encode(const Packet& packet, NodeId src,
                                           NodeId dst) const = 0;
  /// Throws on malformed input.
  virtual PacketPtr decode(const std::vector<std::uint8_t>& bytes) const = 0;
};

/// Per-directed-link counters.
struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t payload_packets = 0;
  std::uint64_t payload_bytes = 0;
};

/// Traffic accounting across all links and nodes.
class TrafficStats {
 public:
  explicit TrafficStats(std::uint32_t num_nodes)
      : node_sent_payload_(num_nodes, 0), node_sent_packets_(num_nodes, 0) {}

  void record_send(NodeId src, NodeId dst, std::size_t bytes, bool is_payload);

  /// Clears all counters (used to exclude warm-up traffic).
  void reset();

  /// Adds every counter of `other` into this instance (same node count).
  /// Used to combine per-shard accounting into one run-wide view; link
  /// sets are unioned, so disjoint per-shard sources merge exactly.
  void merge(const TrafficStats& other);

  const LinkCounters& link(NodeId src, NodeId dst) const;
  std::uint64_t total_payload_packets() const { return total_payload_packets_; }
  std::uint64_t total_packets() const { return total_packets_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t node_sent_payload(NodeId n) const {
    return node_sent_payload_.at(n);
  }
  std::uint64_t node_sent_packets(NodeId n) const {
    return node_sent_packets_.at(n);
  }
  /// Number of directed links that carried at least one packet.
  std::size_t links_used() const { return links_.size(); }

  /// Fraction of all payload transmissions carried by the top `fraction`
  /// of used connections when ranked by payload traffic — the emergent-
  /// structure measure of Fig. 4 and Fig. 6(c). Connections are undirected
  /// (the paper's NeEM connections are TCP links).
  double top_connection_payload_share(double fraction) const;

  /// (undirected link, payload packets) pairs, for structure plots.
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::uint64_t>>
  undirected_payload_counts() const;

 private:
  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  std::unordered_map<std::uint64_t, LinkCounters> links_;
  std::vector<std::uint64_t> node_sent_payload_;
  std::vector<std::uint64_t> node_sent_packets_;
  std::uint64_t total_payload_packets_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Transport configuration.
struct TransportOptions {
  /// Independent probability that any packet is lost in transit.
  double loss_rate = 0.0;
  /// Default per-node egress bandwidth in bits/s; 0 disables serialization
  /// delay. (The paper's testbed is 100 Mb/s switched Ethernet.)
  std::uint64_t bandwidth_bps = 0;
  /// Per-node bandwidth overrides (index = NodeId); empty = all nodes use
  /// bandwidth_bps. Models heterogeneous capacity (paper §1: "nodes and
  /// links with higher capacity").
  std::vector<std::uint64_t> node_bandwidth_bps;
  /// Egress buffer bound in bytes; under overload packets are purged at
  /// the sender (NeEM buffers messages in user space when a connection
  /// blocks "which then uses a custom purging strategy to improve
  /// reliability", §5.2; buffer management per Koldehofe [13]).
  /// 0 = unbounded.
  std::uint64_t egress_buffer_bytes = 0;
  /// Which packet to purge when the buffer is full:
  ///   drop_newest — refuse the arriving packet (tail drop);
  ///   drop_oldest — purge queued packets from the front until the new
  ///                 one fits (freshness-preserving, the behavior NeEM's
  ///                 age-based purging approximates).
  enum class PurgePolicy { drop_newest, drop_oldest };
  PurgePolicy purge_policy = PurgePolicy::drop_newest;
  /// Egress occupancy watermarks as fractions of egress_buffer_bytes, the
  /// hysteresis band for backpressure into the protocol layer. Both must
  /// be set (0 < low <= high <= 1) together with a bounded buffer for the
  /// watermark listener to arm; with either at 0 the feature is inert and
  /// the transport behaves exactly as before. The rising edge fires at
  /// occupancy >= high, the falling edge at occupancy <= low; when the
  /// two byte thresholds coincide the rising edge is strict (> high) so
  /// the single boundary cannot flap.
  double high_watermark = 0.0;
  double low_watermark = 0.0;
  /// Uniform multiplicative jitter on the one-way delay: the delay is
  /// multiplied by a factor in [1 - jitter, 1 + jitter].
  double jitter = 0.0;
  /// When set, every packet is serialized/deserialized through this codec
  /// and the explicit `bytes` argument of send() is replaced by the real
  /// encoded size. The codec must outlive the transport.
  const PacketCodec* codec = nullptr;
};

/// The transport itself. One instance per experiment.
class Transport {
 public:
  /// Handler invoked on packet arrival at a node: (source, packet).
  using Handler = std::function<void(NodeId, const PacketPtr&)>;

  Transport(sim::Simulator& sim, const LatencyModel& latency,
            std::uint32_t num_nodes, TransportOptions options, Rng rng);

  /// Switches the transport into sharded mode: all per-node scheduling
  /// (egress drains, deliveries) routes through `world`'s shard
  /// simulators, cross-shard deliveries travel through its mailboxes
  /// keyed by (source, per-source send counter), and all mutable
  /// accounting splits into per-shard slots so shard workers never share
  /// a cache line of transport state. Each node's loss/jitter draws move
  /// to a private stream split from the constructor's Rng by node id.
  /// Call once, after construction and before any traffic; `world` must
  /// outlive the transport. `shard_latency` supplies one latency model
  /// per shard when the shared model is not safe for concurrent reads
  /// (the on-demand path cache mutates under latency()); leave it empty
  /// to share the constructor's model across all shards.
  void bind_shards(sim::ShardedSimulator& world,
                   std::vector<const LatencyModel*> shard_latency = {});
  bool sharded() const { return world_ != nullptr; }

  /// Installs the receive handler for `node` (its protocol stack mux).
  void register_handler(NodeId node, Handler handler);

  /// Sends `packet` (`bytes` on the wire; `is_payload` marks transmissions
  /// that carry message payload, for the paper's payload accounting).
  /// Unreliable: the packet may be silently lost.
  void send(NodeId src, NodeId dst, PacketPtr packet, std::size_t bytes,
            bool is_payload);

  /// Partitions the network: packets between nodes in different groups
  /// are dropped at the sender (in-flight packets still arrive). Pass one
  /// group id per node. heal_partition() removes the split.
  void set_partition(const std::vector<int>& group_of_node);
  void heal_partition();
  /// Packets dropped because their endpoints were in different groups
  /// (summed across shard slots).
  std::uint64_t partition_drops() const;

  /// Additional loss applied on top of options_.loss_rate, composed as
  /// independent drop processes: p = 1 - (1-loss_rate)(1-extra). Global
  /// (all links) and per-link variants. Per-link faults are SYMMETRIC by
  /// contract: the setters install the value on both directed keys, so
  /// the send path's directed (src, dst) lookup observes the same fault
  /// whichever endpoint transmits. Used by the fault injector for
  /// loss_burst events. Pass 0 to clear.
  void set_extra_loss(double extra);
  void set_link_extra_loss(NodeId a, NodeId b, double extra);
  /// Multiplies the one-way propagation delay (before jitter). Used by the
  /// fault injector for latency_spike events. Pass 1.0 to clear.
  void set_delay_factor(double factor);
  void set_link_delay_factor(NodeId a, NodeId b, double factor);
  double extra_loss() const { return global_extra_loss_; }
  double delay_factor() const { return global_delay_factor_; }
  /// Installed per-link fault as the send path sees it for a packet from
  /// `src` to `dst` (excluding the global modifiers). Symmetric in its
  /// arguments by the setter contract above; exposed so tests and tools
  /// can pin that orientation-independence.
  double link_extra_loss(NodeId src, NodeId dst) const;
  double link_delay_factor(NodeId src, NodeId dst) const;
  /// Packets dropped by the *extra* (fault-injected) loss process
  /// (summed across shard slots).
  std::uint64_t fault_drops() const;

  /// Silences a node (fail-by-firewall, §6.3).
  void silence(NodeId node);
  /// Lifts a silence (node recovery under churn). Protocol state on the
  /// node is whatever it was at failure time; overlays must re-integrate
  /// it (HyParView re-joins, Cyclon shuffles back in).
  void revive(NodeId node);
  bool is_silenced(NodeId node) const { return silenced_.at(node); }
  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(silenced_.size()); }

  /// Traffic accounting. In unsharded mode there is a single slot and
  /// these are the complete story; in sharded mode they expose slot 0
  /// only — use merged_stats() for the run-wide view.
  TrafficStats& stats() { return stats_.front(); }
  const TrafficStats& stats() const { return stats_.front(); }

  /// Sum of all per-shard traffic slots (a copy; O(links) to build).
  TrafficStats merged_stats() const;

  /// Clears traffic counters in every shard slot. stats().reset() only
  /// touches slot 0, which is everything in unsharded mode.
  void reset_stats();

  /// Packets dropped by the loss process so far (summed across shards).
  std::uint64_t packets_lost() const;

  /// Packets dropped at the sender because the egress buffer was full.
  std::uint64_t buffer_drops() const;

  /// Effective egress bandwidth of a node (override or default).
  std::uint64_t node_bandwidth(NodeId node) const;

  /// Egress serialization accounting for one node. A packet's *sojourn*
  /// is the time from enqueue to wire (queueing delay plus its own
  /// transmission time), measured when the drain loop pops it. Pure
  /// observation: no RNG draws, no scheduled events.
  struct EgressStats {
    std::uint64_t serialized_packets = 0;  // packets that left via the queue
    std::uint64_t total_sojourn_us = 0;
    std::uint64_t max_sojourn_us = 0;
    std::uint64_t peak_depth = 0;        // max packets ever queued
    std::uint64_t peak_queued_bytes = 0;
  };
  const EgressStats& egress_stats(NodeId node) const {
    return egress_stats_.at(node);
  }
  /// Sum/max-merge over all nodes.
  EgressStats egress_totals() const;
  /// Clears per-node egress stats (used to exclude warm-up traffic,
  /// mirroring stats().reset()). Packets already queued keep their
  /// enqueue timestamps; their sojourn lands in the post-reset window.
  void reset_egress_stats();

  /// Observation hook: invoked when a packet finishes serialization, with
  /// its sojourn and the queue depth left behind. Feeds per-node
  /// queue-delay histograms; not part of the network model.
  using EgressListener = std::function<void(
      NodeId src, std::uint64_t sojourn_us, std::size_t depth_after)>;
  void set_egress_listener(EgressListener listener) {
    egress_listener_ = std::move(listener);
  }

  /// Why a packet never reached its destination handler.
  enum class DropReason {
    kLoss,         // base loss process
    kFault,        // fault-injected extra loss
    kBuffer,       // egress buffer overflow purge
    kPartition,    // endpoints in different partition groups
    kSilenced,     // src silenced at send
    kSilencedDst,  // dst silenced at arrival
  };

  /// Observation hook: invoked for every dropped packet with the directed
  /// link, payload flag, and reason. Feeds the obs lifecycle tracker; not
  /// part of the network model (one branch per drop when unset). Bound to
  /// shards, it runs on the receiver's shard for kSilencedDst and on the
  /// sender's for every other reason.
  using DropListener =
      std::function<void(NodeId src, NodeId dst, bool is_payload, DropReason)>;
  void set_drop_listener(DropListener listener) {
    drop_listener_ = std::move(listener);
  }

  /// Instantaneous view of one node's egress queue, for protocol-layer
  /// backpressure decisions at send time. Pure observation: no RNG draws,
  /// no scheduled events, no queue mutation.
  struct BackpressureView {
    std::uint64_t queued_bytes = 0;
    std::size_t depth = 0;
    std::uint64_t capacity_bytes = 0;  // 0 = unbounded buffer
    bool congested = false;            // current watermark hysteresis state
    double occupancy() const {
      return capacity_bytes == 0
                 ? 0.0
                 : static_cast<double>(queued_bytes) /
                       static_cast<double>(capacity_bytes);
    }
  };
  BackpressureView backpressure(NodeId node) const;

  /// Watermark hysteresis hook: fired with above_high=true when a node's
  /// egress occupancy first reaches the high watermark, and with
  /// above_high=false when it later drains to the low watermark. Requires
  /// a bounded buffer and both watermark fractions set; never fires (and
  /// costs nothing) otherwise. The listener may re-enter send().
  using WatermarkListener = std::function<void(NodeId src, bool above_high)>;
  void set_watermark_listener(WatermarkListener listener) {
    watermark_listener_ = std::move(listener);
  }

  /// Packet-carrying purge hook: fired for every packet the bounded egress
  /// buffer purges (DropReason::kBuffer), with the actual packet object so
  /// the protocol layer can re-enter the advertise/retry path for the keys
  /// it carried. In codec mode the purged bytes are decoded back into a
  /// packet first (purges are off the hot path by definition). Listeners
  /// are invoked only after the queue mutation completes, so they may
  /// re-enter send(). Complements (does not replace) the DropListener.
  using PurgeListener = std::function<void(NodeId src, NodeId dst,
                                           const PacketPtr& packet,
                                           bool is_payload)>;
  void set_purge_listener(PurgeListener listener) {
    purge_listener_ = std::move(listener);
  }

  /// Current egress queue accounting (satellite views of BackpressureView,
  /// used by the accounting-invariant tests).
  std::size_t egress_depth(NodeId node) const {
    return egress_.at(node).queue.size();
  }
  std::uint64_t egress_queued_bytes(NodeId node) const {
    return egress_.at(node).queued_bytes;
  }
  /// Recomputes queued_bytes from the queued items and compares with the
  /// incremental counter — the invariant the drop-oldest purge must keep
  /// while protecting the in-service head. Test/debug helper, O(depth).
  bool egress_accounting_consistent(NodeId node) const;

 private:
  /// One packet waiting on a node's egress link. In codec mode `packet`
  /// is an EncodedPacket (transport.cpp) holding the sender's wire bytes,
  /// so queue slots and delivery closures carry one PacketPtr either way.
  struct Queued {
    NodeId dst = kInvalidNode;
    bool is_payload = false;
    std::size_t bytes = 0;
    SimTime enqueued_at = 0;  // for egress sojourn accounting
    PacketPtr packet;
  };

  /// Per-directed-link fault modifiers (loss_burst / latency_spike).
  struct LinkFault {
    double extra_loss = 0.0;
    double delay_factor = 1.0;
    bool neutral() const { return extra_loss == 0.0 && delay_factor == 1.0; }
  };

  /// Drop counters, one slot per shard (a single slot unsharded). Split
  /// so concurrent shard workers never write the same counter; accessors
  /// sum the slots.
  struct SlotCounters {
    std::uint64_t packets_lost = 0;
    std::uint64_t buffer_drops = 0;
    std::uint64_t fault_drops = 0;
    std::uint64_t partition_drops = 0;
  };

  /// Accounting slot for a node: its shard in sharded mode, 0 otherwise.
  std::uint32_t slot_of(NodeId node) const;
  /// Simulator owning a node's events (its shard sim, or the ctor's).
  sim::Simulator& sim_for(NodeId node);
  /// RNG for a node's loss/jitter draws (its private stream, or the
  /// shared one — the legacy draw sequence is part of the goldens).
  Rng& rng_for(NodeId src);
  /// Latency model for packets leaving `src` (per-shard when provided).
  const LatencyModel& latency_for(NodeId src) const;
  /// Schedules a delivery at `arrival`: plain FIFO unsharded; keyed by
  /// (src, send counter) and routed via shard sims/mailboxes sharded.
  /// `bytes` is the packet's wire size, billed to the cross-shard mailbox
  /// accounting when the delivery crosses a shard boundary.
  void schedule_delivery(NodeId src, NodeId dst, SimTime arrival,
                         std::uint32_t bytes, sim::EventCallback cb);

  /// Transmits over the wire: accounting, loss, propagation, delivery.
  /// The delivery closure captures only what deliver() needs, so it fits
  /// EventCallback's inline buffer (checked in transport.cpp).
  void transmit(NodeId src, Queued item);
  /// Arrival at `dst`: dropped (kSilenced) if `dst` is firewalled,
  /// otherwise handed to its handler, decoded first in codec mode.
  void deliver(NodeId src, NodeId dst, bool is_payload,
               const PacketPtr& packet);
  /// The packet as protocol layers see it: decoded in codec mode.
  PacketPtr decoded(const PacketPtr& packet) const;
  /// Starts/continues draining a node's egress queue.
  void drain(NodeId src);
  /// Hands a purged item's packet to the purge listener (decoding first in
  /// codec mode). Only called with the listener installed.
  void notify_purge(NodeId src, const Queued& item);
  /// Re-evaluates the watermark hysteresis state for `src` and fires the
  /// listener on a crossing. No-op unless watermarks are armed.
  void update_watermark(NodeId src);
  LinkFault& link_fault(NodeId a, NodeId b);
  void prune_link_fault(NodeId a, NodeId b);

  sim::Simulator& sim_;
  const LatencyModel& latency_;
  TransportOptions options_;
  Rng rng_;
  /// Sharded-mode routing state; all empty/null in unsharded mode.
  sim::ShardedSimulator* world_ = nullptr;
  std::vector<const LatencyModel*> shard_latency_;
  std::vector<Rng> node_rng_;             // per-node draw streams
  std::vector<std::uint32_t> send_seq_;   // per-src delivery key counters
  std::vector<Handler> handlers_;
  std::vector<bool> silenced_;
  /// Partition group per node; empty = no partition.
  std::vector<int> partition_;
  /// Per-node egress queues (bandwidth model). A ring, NOT a vector:
  /// drain pops the head per transmitted packet and the drop-oldest purge
  /// erases at (or one past) the front, so under sustained overload a
  /// contiguous buffer would go quadratic — exactly the regime the
  /// bounded-buffer model exists to study. Both stay O(1) in the ring,
  /// which also keeps its capacity, so a queue that fills and drains
  /// repeatedly stops allocating once it has seen its peak depth.
  struct Egress {
    compact::Ring<Queued> queue;
    std::uint64_t queued_bytes = 0;
    bool draining = false;
  };
  std::vector<Egress> egress_;
  std::vector<EgressStats> egress_stats_;
  EgressListener egress_listener_;
  /// Watermark hysteresis: byte thresholds (0 = disarmed) and per-node
  /// congestion state. One byte per node, NOT vector<bool>: in sharded
  /// mode each node's flag is touched only by its own shard's thread, and
  /// packed bits would share words across shards.
  std::uint64_t high_watermark_bytes_ = 0;
  std::uint64_t low_watermark_bytes_ = 0;
  std::vector<std::uint8_t> congested_;
  WatermarkListener watermark_listener_;
  PurgeListener purge_listener_;
  /// One traffic slot per shard (a single slot unsharded), indexed by
  /// slot_of(src) at record time.
  std::vector<TrafficStats> stats_;
  std::vector<SlotCounters> counters_;
  /// Fault-injection modifiers. Keyed by directed (src<<32)|dst; the
  /// setters install both directions so lookups stay O(1) on the hot path.
  double global_extra_loss_ = 0.0;
  double global_delay_factor_ = 1.0;
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  DropListener drop_listener_;
};

}  // namespace esm::net
