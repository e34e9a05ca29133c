// Message-lifecycle tracker — the event layer of the observability
// subsystem.
//
// One tracker observes the nodes of one shard (the whole experiment at
// shards == 1); the harness merges the shards' documents after the run.
// The protocol layers expose cheap observation hooks (PayloadScheduler
// lazy-lifecycle events, Transport drops, GossipNode relays, PullNode
// fetches); the harness forwards each to the tracker of the shard that
// executes it when metrics collection is on. The tracker follows
// each (node, message) lazy *recovery episode* — opened by the first
// IHAVE for a payload the node is missing, advanced by IWANTs and retry
// passes, closed by the payload's arrival or by giving up — and
// finalize() classifies every episode as recovered or stalled, emitting
// counters and latency histograms into a RunMetrics (per node and
// aggregated).
//
// The headline numbers this produces:
//   * recovery_stalled   — episodes whose payload NEVER arrived; the
//                          pre-fix lazy-path stall shows up here, and the
//                          retry-cycling fix drives it to zero;
//   * iwant_retries      — IWANTs re-sent on retry passes (proof the
//                          retry discipline actually fired);
//   * recovery_ms        — histogram of first-IHAVE-to-payload times.
#pragma once

#include <cstdint>
#include <memory>

#include "common/compact.hpp"
#include "common/types.hpp"
#include "core/gossip.hpp"
#include "core/msg_arena.hpp"
#include "core/scheduler.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace esm::obs {

class LifecycleTracker {
 public:
  /// `metrics.per_node` is sized to `num_nodes`; the tracker writes into
  /// both the per-node registries and the aggregate. `metrics` must
  /// outlive the tracker. When `arena` is given, episode keys reuse its
  /// interned message keys (the harness passes its shard's arena, so
  /// tracking adds no id storage); otherwise the tracker interns into a
  /// private arena.
  LifecycleTracker(sim::Simulator& sim, std::uint32_t num_nodes,
                   RunMetrics& metrics, core::MessageArena* arena = nullptr);

  // --- hooks (forwarded by the harness from the protocol layers) ----------

  /// PayloadScheduler lazy-lifecycle event on `node`.
  void on_lazy_event(NodeId node, const MsgId& id,
                     core::PayloadScheduler::LazyEvent event, NodeId peer);

  /// A message was delivered on `node` with the given latency. Closes any
  /// open episode for it (a payload can also arrive eagerly after the
  /// scheduler gave up on the lazy path).
  void on_delivery(NodeId node, const MsgId& id, SimTime latency);

  /// Transport dropped a packet on the directed link.
  void on_drop(NodeId src, NodeId dst, bool is_payload,
               net::Transport::DropReason reason);

  /// GossipNode on `node` executed Forward(), relaying to `relayed_to`
  /// peers.
  void on_relay(NodeId node, std::size_t relayed_to);

  /// PullNode on `node` sent a PullFetch id (`refetch` = re-issued after
  /// an earlier fetch timed out).
  void on_pull_fetch(NodeId node, bool refetch);

  /// Classifies all episodes and writes the episode-derived counters and
  /// histograms into the RunMetrics. Call exactly once, after the run.
  void finalize();

 private:
  enum class EpisodeState { kOpen, kRecovered, kGaveUp };

  struct Episode {
    SimTime first_ihave = 0;
    SimTime closed_at = 0;
    std::uint32_t iwants = 0;
    std::uint32_t retries = 0;
    EpisodeState state = EpisodeState::kOpen;
  };

  /// Packed (node, interned message key) episode key.
  std::uint64_t episode_key(NodeId node, const MsgId& id) {
    return (static_cast<std::uint64_t>(node) << 32) | arena_->intern(id);
  }

  /// Counts one `name` event at `node` and in the run aggregate.
  void count(NodeId node, const char* name) {
    metrics_.per_node.at(node).add_counter(name);
    metrics_.aggregate.add_counter(name);
  }
  /// Adds `value` to histogram `name` at `node` and in the run aggregate.
  void sample(NodeId node, const char* name, std::uint64_t value) {
    metrics_.per_node.at(node).histogram(name).add(value);
    metrics_.aggregate.histogram(name).add(value);
  }
  /// Closes `ep`, an episode of `node`, as recovered now.
  void recover(NodeId node, Episode& ep);

  sim::Simulator& sim_;
  RunMetrics& metrics_;
  std::unique_ptr<core::MessageArena> owned_arena_;
  core::MessageArena* arena_;
  compact::FlatMap<std::uint64_t, Episode> episodes_;
  bool finalized_ = false;
};

}  // namespace esm::obs
