// Lazy Point-to-Point module of the Payload Scheduler (paper Fig. 3).
//
// Sits transparently between the gossip layer's L-Send/L-Receive and the
// unreliable transport. For every outgoing transmission it asks the
// Transmission Strategy whether to send the full MSG eagerly or an IHAVE
// advertisement; advertised-but-missing payloads are pulled with IWANT
// requests under a negative-acknowledgement discipline:
//
//   * the first IWANT for a message fires `first_request_delay` after its
//     first IHAVE (immediately for Flat/TTL/Ranked, after T0 for Radius);
//   * while other advertisers remain known, further IWANTs fire every
//     `retransmission_period` (the paper's T = 400 ms), each aimed at a
//     source chosen by the strategy (FIFO or nearest) and not asked before;
//   * when the advertiser queue drains without a reply, the timer stays
//     armed: every further period cycles through the already-asked sources
//     again (in original arrival order), up to `RequestPolicy::max_rounds`
//     full passes, after which the recovery is abandoned and counted in
//     `recovery_gave_up` — a single lost IWANT or DATA reply therefore
//     never strands a message while advertisers are alive;
//   * payload arrival clears all pending requests for that message.
//
// From the correctness point of view any schedule is safe as long as every
// queued source is eventually asked unless the payload arrives first —
// which this implementation guarantees (each timer fire consumes one
// source; the timer keeps running while sources or retry rounds remain).
//
// Storage (the compact node core): all per-message state is keyed by the
// dense MsgKey of a MessageArena — shared across the nodes of a run by the
// harness, or privately owned when constructed standalone — so the R set
// is a bitset, the C cache is {MsgKey -> Round} (payload bytes live once
// in the arena), and pending requests / IHAVE batches are slab slots whose
// vectors are recycled on reuse. Steady-state message churn allocates
// nothing; see DESIGN.md "Memory layout".
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/compact.hpp"
#include "common/types.hpp"
#include "core/message.hpp"
#include "core/msg_arena.hpp"
#include "core/strategy.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace esm::core {

/// Counters the scheduler exposes for evaluation.
struct SchedulerStats {
  /// MSG packets received for an id already in R (redundant payload).
  std::uint64_t duplicate_payloads = 0;
  /// IWANT packets sent.
  std::uint64_t requests_sent = 0;
  /// IHAVE packets sent.
  std::uint64_t advertisements_sent = 0;
  /// MSG packets sent eagerly (strategy said eager).
  std::uint64_t eager_payloads_sent = 0;
  /// MSG packets sent in response to IWANT.
  std::uint64_t requested_payloads_sent = 0;
  /// IWANTs that found no cached payload (only possible after cache GC).
  std::uint64_t requests_unserved = 0;
  /// PRUNE feedback packets sent (adaptive strategies only).
  std::uint64_t prunes_sent = 0;
  /// IWANTs re-sent to an already-asked source (retry passes beyond the
  /// first round; subset of requests_sent).
  std::uint64_t iwant_retries = 0;
  /// Lazy recoveries abandoned after RequestPolicy::max_rounds passes
  /// over the advertiser set without a payload arriving.
  std::uint64_t recovery_gave_up = 0;
  /// Eager payload pushes degraded to IHAVE because the egress queue was
  /// above the high watermark (backpressure enabled only).
  std::uint64_t eager_deferred = 0;
  /// IWANT replies deferred by the per-destination congestion cap.
  std::uint64_t replies_deferred = 0;
  /// Purged payload/IHAVE ids that re-entered the advertise path via the
  /// transport's purge notification (drop-aware recovery).
  std::uint64_t drops_readvertised = 0;
  /// Own IWANT packets purged in the egress queue. Counted here, and the
  /// affected recovery earns a retry-budget refund: a purged request
  /// never reached its target, so the pass that sent it must not count
  /// against RequestPolicy::max_rounds (without this, disabling the pull
  /// layer leaves the requester stalled once the budget burns down on
  /// requests that never left the node).
  std::uint64_t iwants_purged = 0;
};

class PayloadScheduler {
 public:
  /// Up-call to the gossip layer: L-Receive(i, d, r, s).
  using ReceiveFn =
      std::function<void(const AppMessage&, Round, NodeId source)>;

  /// `arena` is the run-wide message intern table and canonical payload
  /// store. Pass the shared arena when many nodes live in one simulation
  /// (the harness does); nullptr makes the scheduler own a private one,
  /// preserving the standalone construction the unit tests use.
  PayloadScheduler(sim::Simulator& sim, net::Transport& transport, NodeId self,
                   TransmissionStrategy& strategy, ReceiveFn receive,
                   MessageArena* arena = nullptr);

  /// Cancels every timer still armed in the simulator (pending-request,
  /// IHAVE-batch and readvertise timers), so a scheduler destroyed before
  /// its simulator drains cannot have a queued fire run into a dead object.
  ~PayloadScheduler();

  /// The arena this scheduler interns through (shared or private). The
  /// gossip layer keys its K set off the same table.
  MessageArena& arena() { return *arena_; }
  const MessageArena& arena() const { return *arena_; }

  /// Pre-sizes the per-node tables for `expected_messages` concurrently
  /// tracked messages, so steady-state runs never rehash mid-measurement.
  void reserve(std::size_t expected_messages);

  /// L-Send(i, d, r, p): transmit `msg` at round `round` to `dst`, eagerly
  /// or lazily per the strategy.
  void l_send(const AppMessage& msg, Round round, NodeId dst);

  /// Consumes MSG/IHAVE/IWANT/PRUNE packets addressed to this node.
  /// Returns false for any other packet type.
  bool handle_packet(NodeId src, const net::PacketPtr& packet);

  /// True if payload for `id` has been received (or originated) here.
  bool has_payload(const MsgId& id) const {
    const MsgKey key = arena_->find(id);
    return key != kInvalidMsgKey && received_.test(key);
  }

  /// Number of messages with outstanding lazy requests (test helper).
  std::size_t pending_requests() const { return pending_index_.size(); }

  const SchedulerStats& stats() const { return stats_; }

  /// Drops cached payloads and request state for messages the application
  /// has finished with. In the paper this is the garbage collection of C/R
  /// (§3.2), which "is similar to the management of set K".
  void garbage_collect(const std::vector<MsgId>& ids);

  /// Batches IHAVE advertisements per destination within this window
  /// (0 = advertise immediately, one id per packet, as the paper does).
  /// Batching trades a small advertisement delay for fewer control
  /// packets; see bench_ablation_timers for the measured tradeoff.
  void set_ihave_batch_window(SimTime window) {
    ESM_CHECK(window >= 0, "batch window must be non-negative");
    ihave_batch_window_ = window;
  }

  /// Observation hook: invoked for every payload transmission this node
  /// performs (eager or requested). Used by the harness for per-message
  /// accounting and tracing; not part of the protocol.
  using SendListener =
      std::function<void(const AppMessage&, NodeId dst, bool eager)>;
  void set_send_listener(SendListener listener) {
    send_listener_ = std::move(listener);
  }

  /// Observation hook: invoked with (peer, rtt) whenever a payload arrives
  /// from the peer our latest IWANT for that message targeted — a free RTT
  /// sample from traffic the protocol exchanges anyway (§3.2 notes the
  /// monitor may measure round-trip delays; this needs no extra packets).
  using RttObserver = std::function<void(NodeId peer, SimTime rtt)>;
  void set_rtt_observer(RttObserver observer) {
    rtt_observer_ = std::move(observer);
  }

  /// Observation hook: invoked for every MSG (payload) packet that reaches
  /// this node, before duplicate suppression, with the sending peer and
  /// whether the payload was already held. The harness uses it to stamp
  /// payload receive times and attribute deliveries to their sender (the
  /// dissemination-tree parent); not part of the protocol.
  using AcceptListener =
      std::function<void(NodeId src, const AppMessage&, bool duplicate)>;
  void set_accept_listener(AcceptListener listener) {
    accept_listener_ = std::move(listener);
  }

  /// Stages of a lazy recovery, reported through the lifecycle hook.
  enum class LazyEvent {
    kFirstIHave,   // first advertisement queued for a missing payload
    kIWant,        // IWANT sent on the first pass over the advertisers
    kIWantRetry,   // IWANT re-sent on a later pass (source cycling)
    kRecovered,    // payload arrived while a recovery was pending
    kGaveUp,       // abandoned after RequestPolicy::max_rounds passes
  };

  /// Observation hook: per-message recovery lifecycle events, consumed by
  /// the obs::LifecycleTracker. `peer` is the advertiser / request target
  /// / payload source (kInvalidNode for kGaveUp). Not part of the
  /// protocol; costs one branch when unset.
  using LazyListener =
      std::function<void(const MsgId&, LazyEvent, NodeId peer)>;
  void set_lazy_listener(LazyListener listener) {
    lazy_listener_ = std::move(listener);
  }

  // --- egress backpressure (tentpole of the flow-control PR) ---------------
  // The transport's bounded egress queue reports watermark crossings and
  // purged packets; the scheduler reacts instead of letting deliveries
  // stall: eager pushes degrade to IHAVE while congested, IWANT replies
  // are capped per destination, and purged payload/IHAVE keys re-enter
  // the advertise path. Everything below is inert (and the protocol is
  // bit-identical with older builds) until set_backpressure enables it.

  struct BackpressureConfig {
    bool enabled = false;
    /// Payload replies allowed per destination while congested; further
    /// IWANTs are deferred and served when the queue drains to the low
    /// watermark. 0 defers every reply.
    std::uint32_t max_replies_per_dst = 4;
    /// Fallback flush period for deferred work while congestion persists
    /// (re-advertising waits for the low watermark first; this bounds the
    /// wait when the queue never drains). Typically the strategy's
    /// retransmission period.
    SimTime readvertise_delay = 400 * kMillisecond;
  };
  void set_backpressure(const BackpressureConfig& config) { bp_ = config; }

  /// Pull-request scheduling policy for deferred/re-advertised work (see
  /// PullOrder in strategy.hpp). `random` preserves arrival order exactly.
  void set_pull_order(PullOrder order) { pull_order_ = order; }

  /// Transport watermark callback: entering congestion only flips the
  /// flag; leaving it flushes deferred replies and the drop backlog.
  void set_congested(bool congested);
  bool congested() const { return congested_; }

  /// Transport purge callback: a packet this node had queued was purged by
  /// the bounded egress buffer. Payload and IHAVE keys re-enter the
  /// advertise path (flushed at the low watermark or after
  /// readvertise_delay); a purged IWANT credits its pending recovery with
  /// a retry-budget refund — the request never left this node, so the
  /// retransmission timer keeps cycling the advertisers instead of giving
  /// up after max_rounds passes spent on purged requests.
  void on_egress_purge(NodeId dst, const net::Packet& packet);

  /// Backpressure decision points, for the goodput tracker's defer/
  /// drop-recovery accounting. Not part of the protocol.
  enum class BpEvent {
    kEagerDeferred,     // eager push degraded to IHAVE
    kReplyDeferred,     // IWANT reply held back by the per-dst cap
    kDropReadvertised,  // purged payload/IHAVE key re-advertised
    kIWantPurged,       // own IWANT purged (self-healing)
  };
  using BackpressureListener = std::function<void(BpEvent)>;
  void set_backpressure_listener(BackpressureListener listener) {
    bp_listener_ = std::move(listener);
  }

 private:
  /// Slab-resident recovery state for one advertised-but-missing message.
  /// reset() clears logical state but keeps the vectors' capacity, so a
  /// recycled slot re-runs a recovery without allocating.
  struct Pending {
    /// Advertisers, one heap block instead of three: peers[0..head) are
    /// the sources already asked this pass (in ask order), peers[head..)
    /// the ones still queued. Asking rotates the picked source to index
    /// head and advances head; a drained pass cycles by resetting head
    /// to 0 (the ask order becomes the next pass's queue order, exactly
    /// as the old swap(sources, asked) did). Dedupe scans the whole
    /// vector (small: <= the node's in-degree).
    std::vector<NodeId> peers;
    std::uint32_t head = 0;
    sim::EventHandle timer{};
    std::uint32_t round = 0;      // completed passes over sources
    /// IWANTs for this message purged at our own egress since the last
    /// budget refund. A purged request never reached its target, so the
    /// retry pass that sent it proved nothing about the advertisers; the
    /// exhausted-budget check refunds one extra pass per purge batch
    /// instead of giving up (critical when the pull layer is off and no
    /// other mechanism would refetch).
    std::uint32_t purged = 0;
    bool requested_before = false;  // at least one IWANT sent
    NodeId last_request_target = kInvalidNode;
    SimTime last_request_time = 0;

    void reset() {
      peers.clear();
      head = 0;
      timer = sim::EventHandle{};
      round = 0;
      purged = 0;
      requested_before = false;
      last_request_target = kInvalidNode;
      last_request_time = 0;
    }
  };

  /// Slab-resident advertisement batch for one destination.
  struct IHaveBatch {
    std::vector<MsgKey> ids;
    sim::EventHandle timer{};
  };

  /// One unit of deferred backpressure work: a (message, destination)
  /// pair, either a purged packet's key to re-advertise or a capped IWANT
  /// reply to serve later.
  struct DeferredEntry {
    MsgKey key = kInvalidMsgKey;
    NodeId dst = kInvalidNode;
  };

  Pending* find_pending(MsgKey key);
  void queue_source(MsgKey key, NodeId src);
  void request_timer_fired(MsgKey key);
  void clear(MsgKey key);
  void send_data(const AppMessage& msg, Round round, NodeId dst, bool eager);
  void enqueue_ihave(MsgKey key, NodeId dst);
  void flush_ihaves(NodeId dst);
  void note_drop(MsgKey key, NodeId dst);
  void flush_drop_backlog();
  void flush_deferred_replies();
  /// Applies the pull-order policy to a deferred batch: `random` keeps
  /// insertion order; `rarest` stable-sorts most-demanded keys first
  /// (demand = occurrences of the key within the batch).
  void order_deferred(std::vector<DeferredEntry>& entries);
  static std::uint64_t deferred_id(MsgKey key, NodeId dst) {
    return (static_cast<std::uint64_t>(key) << 32) | dst;
  }

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  TransmissionStrategy& strategy_;
  ReceiveFn receive_;

  std::unique_ptr<MessageArena> owned_arena_;  // standalone construction
  MessageArena* arena_;

  /// R: keys whose payload was received here (or originated here).
  compact::DynamicBitset received_;
  /// C: relay round per cached key; the payload itself is the arena's
  /// canonical copy. An IWANT is servable iff the key is present here.
  compact::FlatMap<MsgKey, Round> cache_;
  /// Outstanding lazy requests: key -> slab slot.
  compact::FlatMap<MsgKey, compact::Slab<Pending>::Index> pending_index_;
  compact::Slab<Pending> pending_slab_;

  /// Per-destination advertisement batches awaiting flush: dst -> slot.
  SimTime ihave_batch_window_ = 0;
  compact::FlatMap<NodeId, compact::Slab<IHaveBatch>::Index> ihave_outbox_;
  compact::Slab<IHaveBatch> batch_slab_;
  std::vector<MsgKey> flush_scratch_;  // recycled flush staging buffer

  /// Backpressure state (all empty/inert unless bp_.enabled).
  BackpressureConfig bp_{};
  PullOrder pull_order_ = PullOrder::random;
  bool congested_ = false;
  /// Purged payload/IHAVE keys awaiting re-advertisement, insertion-
  /// ordered with a packed (key,dst) dedupe set alongside.
  std::vector<DeferredEntry> drop_backlog_;
  compact::FlatMap<std::uint64_t, char> drop_backlog_set_;
  sim::EventHandle readvertise_timer_{};
  /// IWANT replies deferred by the per-destination cap, same shape.
  std::vector<DeferredEntry> deferred_replies_;
  compact::FlatMap<std::uint64_t, char> deferred_replies_set_;
  /// Payload replies sent per destination during the current congestion
  /// episode; cleared when the low watermark is reached.
  compact::FlatMap<NodeId, std::uint32_t> replies_in_flight_;
  /// Recycled staging for the two flushes (separate buffers: a flush can
  /// re-enter note_drop via the transport purge path).
  std::vector<DeferredEntry> drop_flush_scratch_;
  std::vector<DeferredEntry> reply_flush_scratch_;
  compact::FlatMap<MsgKey, std::uint32_t> demand_scratch_;

  SchedulerStats stats_;
  SendListener send_listener_;
  AcceptListener accept_listener_;
  RttObserver rtt_observer_;
  LazyListener lazy_listener_;
  BackpressureListener bp_listener_;
};

}  // namespace esm::core
