// Experiment driver: assembles underlay, transport, overlay and protocol
// stacks for every node, runs the paper's traffic pattern, and extracts the
// metrics reported in §6.
//
// Stages, the same at every shard count:
//   1. build world: topology, path metrics, node ranking, transport;
//   2. build node stacks; 3. wire the packet mux and listeners;
//   4. bootstrap the overlay, warm up (paper: nodes "join the overlay and
//      warm up"), then optionally silence a fraction of nodes (§6.3);
//   5. reset traffic counters, schedule num_messages multicasts from live
//      senders in round-robin with uniform random spacing (§5.3);
//   6. run through the drain;
//   7. finalize: deliveries, latency, payload counts, structure measures.
// One assembly, two event orders: shards == 1 runs one FIFO simulator,
// shards >= 2 the conservative-window sharded engine.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/tree_stats.hpp"
#include "stats/phase_windows.hpp"
#include "stats/running.hpp"
#include "trace/trace_log.hpp"

namespace esm::harness {

/// Per-node-class payload contribution (the paper's "ranked (all)" vs
/// "ranked (low)" series split).
struct ClassLoad {
  /// Mean payload transmissions per multicast message, per node in class.
  double payload_per_msg = 0.0;
  std::uint32_t nodes = 0;
};

struct ExperimentResult {
  // --- latency (over deliveries at nodes other than the origin) ---
  double mean_latency_ms = 0.0;
  double latency_ci95_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;

  // --- payload economy ---
  /// Payload transmissions per message delivery (1.0 = optimal lazy,
  /// ~fanout = pure eager).
  double payload_per_delivery = 0.0;
  /// Per-node payload transmissions per multicast message: all nodes, the
  /// non-best ("low") class, and the best class (Fig. 5(a)/(c) axes).
  ClassLoad load_all;
  ClassLoad load_low;
  ClassLoad load_best;

  // --- reliability (Fig. 5(b)) ---
  /// Mean over messages of (deliveries / live nodes).
  double mean_delivery_fraction = 0.0;
  /// Fraction of messages delivered by every live node.
  double atomic_delivery_fraction = 0.0;
  double delivery_ci95 = 0.0;

  // --- emergent structure (Fig. 4, Fig. 6(c)) ---
  /// Payload share of the top 5% connections.
  double top5_connection_share = 0.0;

  // --- traffic accounting ---
  std::uint64_t payload_packets = 0;
  std::uint64_t control_packets = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t duplicate_payloads = 0;
  std::uint64_t requests_sent = 0;
  /// IWANTs re-sent on retry passes over already-asked advertisers
  /// (nonzero only when loss actually bit the lazy path).
  std::uint64_t iwant_retries = 0;
  /// Lazy recoveries abandoned after max_request_rounds full passes.
  std::uint64_t recovery_gave_up = 0;
  /// Lazy recoveries not completed by the end of the run: abandoned, or
  /// still pending when the drain ended. 0 means every advertised payload
  /// eventually arrived (always collected — no collect_metrics needed).
  std::uint64_t recovery_stalled = 0;
  std::uint64_t packets_lost = 0;
  /// Packets purged at senders because the bounded egress buffer was full.
  std::uint64_t buffer_drops = 0;

  // --- goodput / saturation (src/load + src/obs goodput) ---
  /// Multicasts injected during the measurement window (plan size for
  /// workload runs, num_messages for the legacy loop).
  std::uint64_t offered_msgs = 0;
  double offered_msgs_per_s = 0.0;
  /// Sum of per-message audiences, first deliveries observed and payload
  /// transmissions over the window (the goodput tracker's raw counts).
  std::uint64_t goodput_expected_deliveries = 0;
  std::uint64_t goodput_deliveries = 0;
  std::uint64_t goodput_payload_sends = 0;
  /// Useful throughput: first deliveries per second over the window.
  double goodput_msgs_per_s = 0.0;
  /// Payload transmissions per first delivery (>= 1; 1.0 = perfect tree).
  double redundancy_ratio = 0.0;
  /// Saturation-knee onset relative to measurement start; < 0 = no knee.
  double knee_time_ms = -1.0;
  /// Deliveries at nodes outside the message's topic (protocol-level
  /// relays that do not count toward reliability; 0 without topics).
  std::uint64_t offtopic_deliveries = 0;
  /// Egress serialization accounting (bandwidth model; all zero when
  /// bandwidth is uncapped).
  std::uint64_t egress_serialized_packets = 0;
  double egress_queue_delay_mean_ms = 0.0;  // enqueue -> wire, incl. tx time
  double egress_queue_delay_max_ms = 0.0;
  std::uint64_t egress_max_sojourn_us = 0;  // the same maximum, exact
  std::uint64_t egress_peak_depth = 0;
  std::uint64_t egress_peak_queued_bytes = 0;
  // --- backpressure (all zero with --backpressure off) ---
  /// Eager pushes degraded to IHAVE above the high watermark.
  std::uint64_t eager_deferred = 0;
  /// IWANT replies deferred by the per-destination congestion cap.
  std::uint64_t replies_deferred = 0;
  /// Purged payload/IHAVE keys re-advertised (drop-aware recovery).
  std::uint64_t drops_readvertised = 0;
  /// Own IWANT packets purged in egress queues (self-healing, counted).
  std::uint64_t iwants_purged = 0;
  /// Rising watermark crossings across all nodes.
  std::uint64_t watermark_episodes = 0;
  /// Node-milliseconds spent above the high watermark.
  double watermark_residency_ms = 0.0;
  /// Messages garbage-collected during the run (0 when GC is disabled).
  std::uint64_t messages_garbage_collected = 0;
  /// Largest per-node known-set size at the end of the run — bounded when
  /// GC is on, ~num_messages when off.
  std::size_t max_known_messages = 0;

  // --- bookkeeping ---
  std::uint32_t live_nodes = 0;
  std::uint64_t events_executed = 0;
  // --- sharded-execution accounting (shards_used >= 2 only) ---
  std::uint32_t shards_used = 1;
  /// Conservative windows run (start/end barrier pairs).
  std::uint64_t shard_windows = 0;
  /// Cross-shard mailbox traffic staged at window barriers.
  std::uint64_t shard_mailbox_packets = 0;
  std::uint64_t shard_mailbox_bytes = 0;
  /// Window width actually used (min cross-shard one-way latency).
  std::uint64_t shard_lookahead_us = 0;
  /// Wall-clock split summed over worker threads: window execution vs
  /// barrier waits. Diagnostics only — NOT deterministic across reruns.
  double shard_busy_ms = 0.0;
  double shard_barrier_wait_ms = 0.0;
  /// Path-model footprint: resident bytes of pairwise-path state (dense
  /// matrix or cached on-demand rows), path row solves, and LRU
  /// evictions (0 for the dense model).
  std::size_t path_model_bytes = 0;
  std::uint64_t path_rows_computed = 0;
  std::uint64_t path_row_evictions = 0;
  /// Message-arena high-water marks (interned messages and bytes).
  std::size_t arena_messages = 0;
  std::size_t arena_bytes = 0;
  /// Noise calibration check (Fig. 6(a)): eager-rate estimate c averaged
  /// over nodes; NaN when noise is off.
  double mean_eager_rate_estimate = 0.0;

  // --- structure dump for Fig. 4 style plots ---
  /// (undirected connection endpoints, payload packets), descending.
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::uint64_t>>
      connection_payloads;
  /// Payload packets sent per node.
  std::vector<std::uint64_t> node_payloads;
  /// Client coordinates (for rendering emergent structure).
  std::vector<net::Point> client_coords;
  /// Oracle best-node ranking actually used (empty when not ranked).
  std::vector<NodeId> best_nodes;
  /// Live audience (nodes that could deliver, incl. the origin) per
  /// message seq at its send time — the delivery-fraction denominator
  /// used by --expect `deliver`/`tree complete` checks.
  std::vector<std::uint32_t> expected_deliveries;
  /// Payload transmissions attributed to each message (index = seq). Lets
  /// benches plot convergence over time (e.g. the adaptive strategy's
  /// payload cost decaying as links are pruned).
  std::vector<std::uint32_t> payload_tx_per_message;
  /// PRUNE feedback packets sent (adaptive strategies; 0 otherwise).
  std::uint64_t prunes_sent = 0;
  /// Full event trace (only when config.collect_trace).
  std::shared_ptr<trace::TraceLog> trace;
  /// Per-node + aggregated metrics and recovery-lifecycle accounting
  /// (only when config.collect_metrics). Shared so replicated runs can
  /// merge registries without copying histograms.
  std::shared_ptr<obs::RunMetrics> metrics;
  /// Emergent-structure metrics over the reconstructed per-message
  /// dissemination trees (only when config.collect_tree_stats). Merges
  /// associatively across --reps replicas.
  std::shared_ptr<obs::TreeStats> tree_stats;

  // --- fault scenarios ---
  /// Per-phase windowed metrics (only when config.scenario is non-empty).
  std::vector<stats::PhaseReport> phase_reports;
  /// Fault-injector actions applied (crashes, restores, ramp steps, ...).
  std::uint64_t faults_injected = 0;

  // --- NeEM connection accounting (§5.4; only for OverlayKind::neem) ---
  /// Distinct connections opened over the whole run (paper: ~15000).
  std::uint64_t connections_opened = 0;
  /// Peak simultaneous connections, sampled once per second during the
  /// measurement phase (paper: ~550).
  std::uint64_t peak_simultaneous_connections = 0;
};

/// Runs one experiment. Deterministic given the config (including seed).
/// Throws esm::CheckFailure when config_error(config) is non-empty.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Empty when `config` can run at its shard count; otherwise a one-line
/// reason naming --shards. Scenario scripts, churn, strategy noise, traces
/// and tree stats need shards == 1. `scenario_file` marks a scenario
/// script that is named but not loaded into `config` yet (the CLI parses
/// paths before it reads files).
std::string shard_gate_error(const ExperimentConfig& config,
                             bool scenario_file = false);

/// Empty when `config` can run; otherwise a one-line reason naming the
/// flag at fault. It rejects exactly the values a module's ESM_CHECK would
/// abort the run on (--nodes, --kill, --pi for flat, --rho for radius and
/// hybrid, --best for ranked and hybrid, --report-best, --noise, --loss,
/// --fanout, --rounds, --degree for the chosen overlay, --sender, the
/// backpressure watermarks), then applies shard_gate_error. The CLI checks
/// flags before it reads files: `scenario_file` and `workload_file` mark
/// files named but not loaded into `config` yet.
std::string config_error(const ExperimentConfig& config,
                         bool scenario_file = false,
                         bool workload_file = false);

/// The radius a radius or hybrid run of `spec` uses over clients with
/// these path metrics and coordinates: spec.rho, or with rho_quantile = P
/// set, the P-quantile of what spec.monitor measures over the client
/// pairs, the coordinate distance for the distance monitor and the
/// one-way latency in ms for the others. Other strategies get spec.rho.
double resolved_rho(const StrategySpec& spec, const net::PathModel& paths,
                    const std::vector<net::Point>& coords);

/// Ranks nodes by closeness centrality over the path model (lower mean
/// latency to all others = better), best first. This is the oracle node
/// "capacity" ranking used by Ranked/Hybrid and by KillMode::best_ranked.
/// Works on any PathModel (dense matrix or on-demand rows); results are
/// identical because closeness_sums() fixes the accumulation order.
std::vector<NodeId> rank_by_closeness(const net::PathModel& metrics);

}  // namespace esm::harness
