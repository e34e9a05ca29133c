// Experiment configuration mirroring the paper's setup (§5.2, §5.3).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "core/gossip.hpp"
#include "core/strategy.hpp"
#include "fault/scenario.hpp"
#include "load/workload.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "overlay/cyclon.hpp"

namespace esm::harness {

/// Which transmission strategy to instantiate per node (§4.1, §6.4;
/// `adaptive` is the Plumtree-style feedback extension).
enum class StrategyKind { flat, ttl, radius, ranked, hybrid, adaptive };

/// Which Performance Monitor feeds metric-based strategies (§4.2, §4.3).
enum class MonitorKind { oracle_latency, distance, ping, piggyback };

/// Node failure selection for the reliability experiment (§6.3).
enum class KillMode { none, random, best_ranked };

/// Membership substrate under the gossip layer.
enum class OverlayKind {
  /// Cyclon-style mixing partial views (the default; uniform sampling as
  /// the paper's NeEM overlay provides).
  cyclon,
  /// Fixed symmetric random graph (stable views; no protocol traffic).
  static_random,
  /// HyParView: symmetric active views with reactive repair from a
  /// passive view — the published substrate of Plumtree-style protocols.
  hyparview,
  /// NeEM-style connection-oriented membership — the overlay the paper's
  /// implementation runs on (§5.2).
  neem,
  /// Oracle uniform sampling over live nodes (ablation only).
  oracle,
};

const char* to_string(OverlayKind kind);

const char* to_string(StrategyKind kind);
const char* to_string(MonitorKind kind);
const char* to_string(KillMode mode);

struct StrategySpec {
  StrategyKind kind = StrategyKind::flat;
  /// Flat: eager probability pi.
  double pi = 1.0;
  /// TTL / Hybrid: eager while round < u.
  Round u = 0;
  /// Radius / Hybrid: metric radius rho (milliseconds for latency
  /// monitors; coordinate units for the distance monitor).
  double rho = 0.0;
  /// Radius / Hybrid: when set, rho is this quantile P of the monitor's
  /// pairwise metric over the run's own clients (`--rho qP`), resolved
  /// when the run builds its world.
  std::optional<double> rho_quantile;
  /// Ranked / Hybrid: fraction of nodes considered "best".
  double best_fraction = 0.2;
  /// Ranked / Hybrid: estimate the best set with the gossip rank protocol
  /// instead of the oracle ranking.
  bool use_gossip_rank = false;
  /// Noise ratio o of §4.3 (0 = exact strategy, 1 = structure erased).
  double noise = 0.0;
  /// Monitor backing Radius/Hybrid metrics and nearest-source selection.
  MonitorKind monitor = MonitorKind::oracle_latency;
  /// Radius/Hybrid first-request delay T0; 0 derives 2*rho (an RTT within
  /// the radius).
  SimTime t0 = 0;

  // --- named constructors for readable bench code ---
  static StrategySpec make_flat(double pi);
  static StrategySpec make_ttl(Round u);
  static StrategySpec make_radius(double rho_ms);
  static StrategySpec make_ranked(double best_fraction);
  static StrategySpec make_hybrid(double rho_ms, Round u,
                                  double best_fraction);
  /// Adaptive link strategy; t0_ms is the lazy-recovery delay (the
  /// Plumtree IHAVE timeout), default 100 ms.
  static StrategySpec make_adaptive(double t0_ms = 100.0);

  std::string describe() const;
};

struct ExperimentConfig {
  std::uint64_t seed = 42;
  /// Virtual nodes (paper: 100, low-bandwidth configs also at 200).
  std::uint32_t num_nodes = 100;
  net::TopologyParams topology{};  // num_clients is overwritten by num_nodes

  /// Pairwise path-metric storage: dense N×N matrix, memory-bounded
  /// on-demand path rows, or automatic by node count (dense up to
  /// net::kDensePathMaxClients). Dense and on-demand answer identical
  /// values; only memory/time trade off. CLI: --path-model.
  net::PathModelKind path_model = net::PathModelKind::automatic;
  /// Byte budget for the on-demand row cache (0 = model default, 256 MB).
  /// CLI: --path-cache-mb.
  std::size_t path_cache_bytes = 0;

  // Transport.
  double loss_rate = 0.0;
  /// Per-node egress bandwidth (paper testbed: 100 Mb/s Ethernet).
  std::uint64_t bandwidth_bps = 100'000'000;
  double jitter = 0.0;
  /// Sender-side buffer bound (0 = unbounded); under sustained overload
  /// packets are purged at the sender, as NeEM's user-space buffering does.
  std::uint64_t egress_buffer_bytes = 0;
  /// Purge policy when the buffer is full (drop newest vs drop oldest;
  /// NeEM's age-based purging corresponds to drop_oldest, [13]).
  net::TransportOptions::PurgePolicy purge_policy =
      net::TransportOptions::PurgePolicy::drop_newest;
  /// Fraction of nodes (chosen at random) provisioned with
  /// slow_bandwidth_bps instead of bandwidth_bps — the heterogeneous-
  /// capacity setting of §1/§7.
  double slow_fraction = 0.0;
  std::uint64_t slow_bandwidth_bps = 0;
  /// Egress backpressure into the scheduler (--backpressure): watermark
  /// crossings on the bounded egress buffer defer eager pushes to IHAVE,
  /// cap IWANT replies per destination, and feed purged payload/IHAVE
  /// keys back into the advertise path. Requires egress_buffer_bytes > 0
  /// to have any effect; off by default so legacy runs are bit-identical.
  bool backpressure = false;
  /// Watermark hysteresis band, as fractions of egress_buffer_bytes.
  double bp_high_watermark = 0.75;
  double bp_low_watermark = 0.50;
  /// IWANT replies allowed per destination while congested.
  std::uint32_t bp_max_replies_per_dst = 4;
  /// Pull-request scheduling policy past the knee (--pull-sched): random
  /// keeps arrival order; rarest is Sanghavi-style rarest-first.
  core::PullOrder pull_sched = core::PullOrder::random;
  /// Extension (§7, [17]): scale each node's gossip fanout by its
  /// provisioned bandwidth (mean fanout preserved, clamped to [3, 2f]),
  /// instead of the uniform fanout the paper uses throughout.
  bool adaptive_fanout = false;

  // Protocol stack.
  core::GossipParams gossip{/*fanout=*/11, /*max_rounds=*/8};
  overlay::OverlayParams overlay{/*view_size=*/15, /*shuffle_length=*/6,
                                 /*shuffle_period=*/1 * kSecond};
  StrategySpec strategy{};
  /// Retransmission period T (§5.2: 400 ms).
  SimTime retransmission_period = 400 * kMillisecond;
  /// Maximum full passes over a message's advertiser set before its lazy
  /// recovery is abandoned (RequestPolicy::max_rounds). Passes after the
  /// first re-ask already-asked sources every retransmission_period, so a
  /// lost IWANT or DATA reply does not strand the message. 1 restores the
  /// old ask-each-source-once discipline.
  std::uint32_t max_request_rounds = 5;
  /// IHAVE aggregation window (0 = one advertisement per packet, as the
  /// paper; >0 batches ids per destination to amortize headers).
  SimTime ihave_batch_window = 0;

  // Traffic (§5.3).
  /// Heavy-traffic workload (src/load): k publishers with their own
  /// arrival processes and optional topic fan-out. When non-empty it
  /// REPLACES the single light-traffic source loop below — num_messages /
  /// mean_interval / single_sender are ignored and the message count is
  /// the generated plan's size. Loaded from --workload files or built
  /// from --senders/--rate/... flags by the CLI; empty by default, so
  /// legacy configs are bit-for-bit unchanged.
  load::WorkloadSpec workload{};
  std::uint32_t num_messages = 400;
  std::uint32_t payload_bytes = 256;
  /// Mean of the uniform inter-multicast interval (500 ms).
  SimTime mean_interval = 500 * kMillisecond;
  /// kInvalidNode: round-robin senders (§5.3). Otherwise every message
  /// originates at this node (single-source streaming; the regime where a
  /// shared dissemination tree can be optimal for all traffic).
  NodeId single_sender = kInvalidNode;

  // Phases.
  SimTime warmup = 30 * kSecond;
  /// Extra time after the last multicast for retransmissions to settle.
  SimTime drain = 8 * kSecond;

  /// Intra-run parallelism (--shards): partition nodes across this many
  /// worker threads driven through conservative time windows
  /// (sim::ShardedSimulator). One assembly, two event orders: 1 = the
  /// single-threaded engine's FIFO order, which its goldens pin; >= 2 =
  /// the sharded engine's (time, key, seq) order, bit-identical at ANY
  /// shard count but may order same-microsecond arrival ties differently
  /// from shards == 1. Composes freely with the runner's --jobs (shards
  /// parallelize one run, jobs parallelize across runs). Gates (see
  /// shard_gate_error): scenario scripts, churn, strategy noise (the
  /// shared calibration is order-dependent), traces and tree stats need
  /// shards == 1. Metrics collection exports the full document plus the
  /// sim.shard.* block; warm-up kills are fine — they happen between
  /// windows.
  std::uint32_t shards = 1;

  // Failure injection (§6.3): kill_fraction of nodes silenced right after
  // warm-up, before logging starts.
  double kill_fraction = 0.0;
  KillMode kill_mode = KillMode::none;

  /// Continuous churn during the measurement phase: this many membership
  /// events per second; each event kills a random live node or revives a
  /// random dead one (kept balanced so the live population hovers around
  /// its initial size). Revived HyParView nodes re-join through a live
  /// contact; Cyclon re-absorbs them through shuffling. 0 disables churn.
  double churn_rate = 0.0;

  /// Scripted fault timeline applied during the measurement phase (event
  /// times are relative to the end of warm-up). Empty = no faults. Loaded
  /// from --scenario files by the tools; composes with kill_fraction and
  /// churn_rate, which fire through their own legacy paths.
  fault::ScenarioScript scenario;

  /// Membership substrate. The adaptive (Plumtree-style) strategy needs
  /// stable symmetric neighbors: static_random or hyparview.
  OverlayKind overlay_kind = OverlayKind::cyclon;

  /// Collect a full event trace (every delivery and payload transmission)
  /// into ExperimentResult::trace, as the paper's testbed logged every
  /// multicast and delivery for offline processing (§5.3).
  bool collect_trace = false;

  /// Stream the event trace as CSV rows into this sink while the run
  /// executes, instead of buffering it into ExperimentResult::trace —
  /// memory stays O(in-flight packets) at any N. The sink must outlive
  /// run_experiment. Mutually exclusive with collect_tree_stats (the
  /// analyzer needs the buffered events); single-run only (the parallel
  /// runner would interleave rows). CLI: esm_run --trace-stream FILE.
  std::ostream* trace_sink = nullptr;

  /// Reconstruct per-message first-delivery dissemination trees and report
  /// their structure metrics (obs::analyze_trees) in
  /// ExperimentResult::tree_stats. Implies trace collection for the run.
  /// CLI: --tree-stats.
  bool collect_tree_stats = false;

  /// Collect per-node and aggregated metrics plus message-lifecycle
  /// recovery episodes (src/obs) into ExperimentResult::metrics. Off by
  /// default; the tools enable it for --metrics-out.
  bool collect_metrics = false;

  /// Serialize every packet through the real wire codec (src/wire): byte
  /// accounting uses exact encoded sizes and receivers get freshly decoded
  /// objects. Slower; off by default.
  bool use_wire_codec = false;

  /// Garbage-collect protocol state (K, C, R and request queues) for
  /// messages older than this; 0 disables GC. The paper's §3.1/§3.2 note
  /// that efficient schemes exist which, with high probability, never
  /// collect an active message — a lifetime of many seconds is far beyond
  /// any message's dissemination time, so this models that regime.
  SimTime message_lifetime = 0;

  /// Node-class split used when *reporting* per-class payload loads
  /// ("best" vs "low" rows). 0 means "use strategy.best_fraction". The
  /// paper's Fig. 5(c) reports an 80/20 contribution split even though the
  /// strategy's configured best set can be smaller.
  double report_best_fraction = 0.0;
};

}  // namespace esm::harness
