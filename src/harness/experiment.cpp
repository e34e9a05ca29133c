#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>
#include <variant>

#include "common/compact.hpp"
#include "core/gossip.hpp"
#include "core/monitor.hpp"
#include "core/noise.hpp"
#include "core/scheduler.hpp"
#include "core/strategies.hpp"
#include "fault/injector.hpp"
#include "harness/report.hpp"
#include "load/workload.hpp"
#include "net/latency_model.hpp"
#include "net/path_model.hpp"
#include "net/transport.hpp"
#include "obs/goodput.hpp"
#include "obs/lifecycle.hpp"
#include "overlay/cyclon.hpp"
#include "overlay/hyparview.hpp"
#include "overlay/neem.hpp"
#include "overlay/static_overlay.hpp"
#include "rank/rank_estimator.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"

namespace esm::harness {

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::flat: return "flat";
    case StrategyKind::ttl: return "ttl";
    case StrategyKind::radius: return "radius";
    case StrategyKind::ranked: return "ranked";
    case StrategyKind::hybrid: return "hybrid";
    case StrategyKind::adaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(MonitorKind kind) {
  switch (kind) {
    case MonitorKind::oracle_latency: return "oracle-latency";
    case MonitorKind::distance: return "distance";
    case MonitorKind::ping: return "ping";
    case MonitorKind::piggyback: return "piggyback";
  }
  return "?";
}

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::cyclon: return "cyclon";
    case OverlayKind::static_random: return "static";
    case OverlayKind::hyparview: return "hyparview";
    case OverlayKind::neem: return "neem";
    case OverlayKind::oracle: return "oracle";
  }
  return "?";
}

const char* to_string(KillMode mode) {
  switch (mode) {
    case KillMode::none: return "none";
    case KillMode::random: return "random";
    case KillMode::best_ranked: return "best-ranked";
  }
  return "?";
}

StrategySpec StrategySpec::make_flat(double pi) {
  StrategySpec s;
  s.kind = StrategyKind::flat;
  s.pi = pi;
  return s;
}

StrategySpec StrategySpec::make_ttl(Round u) {
  StrategySpec s;
  s.kind = StrategyKind::ttl;
  s.u = u;
  return s;
}

StrategySpec StrategySpec::make_radius(double rho_ms) {
  StrategySpec s;
  s.kind = StrategyKind::radius;
  s.rho = rho_ms;
  return s;
}

StrategySpec StrategySpec::make_ranked(double best_fraction) {
  StrategySpec s;
  s.kind = StrategyKind::ranked;
  s.best_fraction = best_fraction;
  return s;
}

StrategySpec StrategySpec::make_hybrid(double rho_ms, Round u,
                                       double best_fraction) {
  StrategySpec s;
  s.kind = StrategyKind::hybrid;
  s.rho = rho_ms;
  s.u = u;
  s.best_fraction = best_fraction;
  return s;
}

namespace {
std::string trim_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}
}  // namespace

StrategySpec StrategySpec::make_adaptive(double t0_ms) {
  StrategySpec s;
  s.kind = StrategyKind::adaptive;
  s.t0 = static_cast<SimTime>(t0_ms * kMillisecond);
  return s;
}

std::string StrategySpec::describe() const {
  std::string out = to_string(kind);
  const std::string rho_text =
      rho_quantile ? "q" + trim_num(*rho_quantile) : trim_num(rho);
  switch (kind) {
    case StrategyKind::flat:
      out += " pi=" + trim_num(pi);
      break;
    case StrategyKind::ttl:
      out += " u=" + std::to_string(u);
      break;
    case StrategyKind::radius:
      out += " rho=" + rho_text;
      break;
    case StrategyKind::ranked:
      out += " best=" + trim_num(best_fraction);
      break;
    case StrategyKind::hybrid:
      out += " rho=" + rho_text + " u=" + std::to_string(u) +
             " best=" + trim_num(best_fraction);
      break;
    case StrategyKind::adaptive:
      out += " t0=" + trim_num(to_ms(t0)) + "ms";
      break;
  }
  if (use_gossip_rank) out += " gossip-rank";
  if (noise > 0.0) out += " noise=" + trim_num(noise);
  return out;
}

namespace {

/// Closeness ranking from precomputed per-node latency sums. Splitting
/// this out lets run_experiment reuse one closeness_sums() pass for the
/// ranking, the kill list and the gossip-rank seed scores.
std::vector<NodeId> order_by_closeness_sums(const std::vector<double>& sums) {
  const auto n = static_cast<std::uint32_t>(sums.size());
  std::vector<double> mean_latency(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    mean_latency[a] = n > 1 ? sums[a] / static_cast<double>(n - 1) : 0.0;
  }
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (mean_latency[a] != mean_latency[b]) {
      return mean_latency[a] < mean_latency[b];
    }
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<NodeId> rank_by_closeness(const net::PathModel& metrics) {
  return order_by_closeness_sums(metrics.closeness_sums());
}

double resolved_rho(const StrategySpec& spec, const net::PathModel& paths,
                    const std::vector<net::Point>& coords) {
  const bool uses_rho =
      spec.kind == StrategyKind::radius || spec.kind == StrategyKind::hybrid;
  if (!spec.rho_quantile || !uses_rho) return spec.rho;
  const double p = *spec.rho_quantile;
  if (spec.monitor != MonitorKind::distance) {
    return to_ms(paths.latency_quantile(p));
  }
  std::vector<double> d;
  for (std::size_t a = 0; a < coords.size(); ++a) {
    for (std::size_t b = a + 1; b < coords.size(); ++b) {
      d.push_back(net::distance(coords[a], coords[b]));
    }
  }
  std::sort(d.begin(), d.end());
  return d[static_cast<std::size_t>(p * static_cast<double>(d.size() - 1))];
}

namespace {

/// Everything one virtual node runs. Pointers give address stability for
/// the cross-layer callbacks.
struct NodeStack {
  std::unique_ptr<overlay::CyclonNode> cyclon;
  std::unique_ptr<overlay::FullMembershipSampler> oracle_sampler;
  std::unique_ptr<overlay::StaticNeighborSampler> static_sampler;
  std::unique_ptr<overlay::HyParViewNode> hyparview;
  std::unique_ptr<overlay::NeemNode> neem;
  overlay::PeerSampler* sampler = nullptr;
  std::unique_ptr<core::PingMonitor> ping;
  std::unique_ptr<core::PiggybackMonitor> piggyback;
  std::unique_ptr<rank::GossipRankEstimator> rank_estimator;
  std::unique_ptr<core::TransmissionStrategy> strategy;
  core::NoisyStrategy* noisy = nullptr;  // view into strategy when wrapped
  std::unique_ptr<core::PayloadScheduler> scheduler;
  std::unique_ptr<core::GossipNode> gossip;
};

/// Hands `packet` to `layer` as struct T, or drops it if the node lacks it.
template <typename T, typename Layer>
void route(const std::unique_ptr<Layer>& layer, NodeId src,
           const net::Packet& packet) {
  if (layer) layer->handle_packet(src, static_cast<const T&>(packet));
}

std::unique_ptr<core::TransmissionStrategy> make_strategy(
    const ExperimentConfig& config, double rho, NodeId self,
    const core::PerformanceMonitor* monitor, const core::BestSet* best,
    Rng rng) {
  const StrategySpec& spec = config.strategy;
  core::RequestPolicy policy;
  policy.retransmission_period = config.retransmission_period;
  policy.max_rounds = config.max_request_rounds;
  policy.first_request_delay = 0;
  if (spec.kind == StrategyKind::radius || spec.kind == StrategyKind::hybrid) {
    if (spec.t0 > 0) {
      policy.first_request_delay = spec.t0;
    } else if (spec.monitor == MonitorKind::distance) {
      policy.first_request_delay = 100 * kMillisecond;
    } else {
      // T0 ~ one RTT within the radius (rho is in milliseconds here).
      policy.first_request_delay =
          static_cast<SimTime>(2.0 * rho * kMillisecond);
    }
  } else if (spec.kind == StrategyKind::adaptive) {
    // The Plumtree IHAVE timer: give the eager copy a chance to arrive
    // before pulling (a pull grafts the serving link eager).
    policy.first_request_delay =
        spec.t0 > 0 ? spec.t0 : 100 * kMillisecond;
  }

  switch (spec.kind) {
    case StrategyKind::flat:
      return std::make_unique<core::FlatStrategy>(spec.pi, policy, rng);
    case StrategyKind::ttl:
      return std::make_unique<core::TtlStrategy>(spec.u, policy);
    case StrategyKind::radius:
      ESM_CHECK(monitor != nullptr, "radius strategy requires a monitor");
      return std::make_unique<core::RadiusStrategy>(self, *monitor, rho,
                                                    policy);
    case StrategyKind::ranked:
      ESM_CHECK(best != nullptr, "ranked strategy requires a best set");
      return std::make_unique<core::RankedStrategy>(self, *best, policy);
    case StrategyKind::hybrid:
      ESM_CHECK(monitor != nullptr && best != nullptr,
                "hybrid strategy requires a monitor and a best set");
      return std::make_unique<core::HybridStrategy>(self, *best, *monitor,
                                                    rho, spec.u, policy);
    case StrategyKind::adaptive:
      return std::make_unique<core::AdaptiveLinkStrategy>(policy);
  }
  ESM_CHECK(false, "unknown strategy kind");
  return nullptr;
}

}  // namespace

std::string shard_gate_error(const ExperimentConfig& config,
                             bool scenario_file) {
  if (config.shards < 2) return {};
  if (!config.scenario.empty() || scenario_file) {
    return "--shards: scenario scripts need the single-threaded engine";
  }
  if (config.churn_rate != 0.0) {
    return "--shards: --churn needs the single-threaded engine";
  }
  if (config.strategy.noise != 0.0) {
    return "--shards: --noise needs the single-threaded engine (the shared "
           "calibration is order-dependent)";
  }
  if (config.collect_trace || config.trace_sink != nullptr) {
    return "--shards: trace collection needs the single-threaded engine";
  }
  if (config.collect_tree_stats) {
    return "--shards: --tree-stats needs the single-threaded engine";
  }
  return {};
}

std::string config_error(const ExperimentConfig& config, bool scenario_file,
                         bool workload_file) {
  std::ostringstream os;
  const auto fail = [&os](const std::string& rule, double value) {
    os << rule << ", got " << value;
    return os.str();
  };
  const auto in = [](double v, double lo, double hi) {
    return v >= lo && v <= hi;
  };
  const StrategySpec& s = config.strategy;
  // The static overlay builds a ring, the others need one peer; the
  // oracle overlay has no view.
  const bool ring = config.overlay_kind == OverlayKind::static_random;
  const std::uint32_t min_nodes = ring ? 3 : 2;
  const std::uint32_t min_degree =
      ring ? 2 : config.overlay_kind == OverlayKind::oracle ? 0 : 1;
  if (config.num_nodes < min_nodes) {
    return fail("--nodes: must be >= " + std::to_string(min_nodes),
                config.num_nodes);
  }
  if (!(config.kill_fraction >= 0.0 && config.kill_fraction < 1.0)) {
    return fail("--kill: must be in [0, 1)", config.kill_fraction);
  }
  // The warm-up kill rounds the fraction to whole nodes.
  if (config.kill_mode != KillMode::none &&
      std::lround(config.kill_fraction * config.num_nodes) >=
          config.num_nodes) {
    return fail("--kill: must leave a live node of --nodes " +
                    std::to_string(config.num_nodes),
                config.kill_fraction);
  }
  if (s.kind == StrategyKind::flat && !in(s.pi, 0.0, 1.0)) {
    return fail("--pi: must be in [0, 1]", s.pi);
  }
  const bool radius =
      s.kind == StrategyKind::radius || s.kind == StrategyKind::hybrid;
  const bool ranked =
      s.kind == StrategyKind::ranked || s.kind == StrategyKind::hybrid;
  if (radius && s.rho_quantile) {
    if (!(*s.rho_quantile > 0.0 && *s.rho_quantile < 1.0)) {
      return fail("--rho: quantile qP must have P in (0, 1)", *s.rho_quantile);
    }
    // Resolving qP visits every client pair, which only the dense model's
    // size bound keeps small.
    if (net::resolve_path_model(config.path_model, config.num_nodes) !=
        net::PathModelKind::dense) {
      return "--rho: qP needs the dense path model (--nodes <= 2048)";
    }
  } else if (radius && s.rho < 0.0) {
    // The first-request delay is 2 * rho.
    return fail("--rho: must be >= 0", s.rho);
  }
  if (ranked && !in(s.best_fraction, 0.0, 1.0)) {
    return fail("--best: must be in [0, 1]", s.best_fraction);
  }
  if (!in(config.report_best_fraction, 0.0, 1.0)) {
    return fail("--report-best: must be in [0, 1]",
                config.report_best_fraction);
  }
  // Any noise wraps the strategy, and so does a scenario noise ramp.
  if ((s.noise > 0.0 || config.scenario.has_noise_events()) &&
      !in(s.noise, 0.0, 1.0)) {
    return fail("--noise: must be in [0, 1]", s.noise);
  }
  if (!(config.loss_rate >= 0.0 && config.loss_rate < 1.0)) {
    return fail("--loss: must be in [0, 1)", config.loss_rate);
  }
  if (config.gossip.fanout < 1) {
    return fail("--fanout: must be >= 1", config.gossip.fanout);
  }
  if (config.gossip.max_rounds < 1) {
    return fail("--rounds: must be >= 1", config.gossip.max_rounds);
  }
  if (config.overlay.view_size < min_degree) {
    return fail("--degree: must be >= " + std::to_string(min_degree),
                config.overlay.view_size);
  }
  if (config.workload.empty() && !workload_file) {
    if (config.num_messages == 0) return fail("--messages: must be >= 1", 0);
    if (config.single_sender != kInvalidNode &&
        config.single_sender >= config.num_nodes) {
      return fail("--sender: must be a node below --nodes " +
                      std::to_string(config.num_nodes),
                  config.single_sender);
    }
  }
  // The transport sees watermarks only with backpressure on a bounded
  // buffer, and checks them only when both are set.
  const double high = config.bp_high_watermark;
  const double low = config.bp_low_watermark;
  if (config.backpressure && config.egress_buffer_bytes > 0 && high > 0.0 &&
      low > 0.0 && !in(high, low, 1.0)) {
    std::ostringstream rule;
    rule << "--bp-high: must be in [--bp-low, 1] with --bp-low " << low;
    return fail(rule.str(), high);
  }
  return shard_gate_error(config, scenario_file);
}

namespace {

/// The event engine of one run, and the only code that branches on the
/// shard count. shards == 1 holds one sim::Simulator: FIFO order within a
/// timestamp, the order the single-threaded goldens pin, and the
/// transport stays unbound. shards >= 2 holds a sim::ShardedSimulator:
/// (time, key, seq) order, bit-identical at every shard count, with the
/// transport bound to its shard simulators.
class Engine {
 public:
  explicit Engine(std::uint32_t shards) {
    if (shards >= 2) {
      world_.emplace(shards);
    } else {
      sim_.emplace();
    }
  }

  bool sharded() const { return world_.has_value(); }
  std::uint32_t num_shards() const {
    return world_ ? world_->num_shards() : 1;
  }
  std::uint32_t shard_of(NodeId node) const {
    return world_ ? world_->shard_of(node) : 0;
  }
  sim::Simulator& shard(std::uint32_t s) {
    return world_ ? world_->shard(s) : *sim_;
  }
  sim::Simulator& sim_for(NodeId node) { return shard(shard_of(node)); }
  /// Run-global periodic work (GC sweeps, censuses, churn, faults).
  /// Sharded, its events run on the coordinator thread while every worker
  /// is parked at the window barrier, so they may touch any shard's state.
  sim::Simulator& control() { return world_ ? world_->control() : *sim_; }

  void run_until(SimTime end) {
    if (world_) {
      world_->run_until(end);
    } else {
      sim_->run_until(end);
    }
  }
  SimTime now() const { return world_ ? world_->now() : sim_->now(); }
  std::uint64_t events_executed() const {
    return world_ ? world_->events_executed() : sim_->events_executed();
  }

  /// Sets the conservative window width and routes the transport's
  /// per-node scheduling through the shard simulators, splitting its
  /// accounting per shard. Jitter can shrink a one-way delay to
  /// (1 - jitter) of the routed latency, never below, so that scaling of
  /// the path model's lower bound is a valid lookahead for every
  /// cross-shard packet.
  void bind(net::Transport& transport, const net::PathModel& paths,
            double jitter,
            std::vector<const net::LatencyModel*> shard_latency) {
    if (!world_) return;
    const auto bound = static_cast<double>(paths.min_latency_lower_bound());
    lookahead_ = std::max<SimTime>(
        1, static_cast<SimTime>(std::floor(bound * (1.0 - jitter))));
    world_->set_lookahead(lookahead_);
    transport.bind_shards(*world_, std::move(shard_latency));
  }

  /// Conservative-window execution accounting: the result's shard fields.
  /// Windows, mailbox counters and the lookahead are deterministic; the
  /// busy/wait wall-clock split is a diagnostic that varies run to run.
  void report(ExperimentResult& result) const {
    if (!world_) return;
    const sim::ShardedSimulator::Stats stats = world_->stats();
    result.shards_used = num_shards();
    result.shard_windows = stats.windows;
    result.shard_mailbox_packets = stats.mailbox_packets;
    result.shard_mailbox_bytes = stats.mailbox_bytes;
    result.shard_lookahead_us = static_cast<std::uint64_t>(lookahead_);
    for (std::size_t s = 0; s < stats.busy_ns.size(); ++s) {
      result.shard_busy_ms += static_cast<double>(stats.busy_ns[s]) / 1e6;
      result.shard_barrier_wait_ms +=
          static_cast<double>(stats.wait_ns[s]) / 1e6;
    }
  }

 private:
  std::optional<sim::Simulator> sim_;
  std::optional<sim::ShardedSimulator> world_;
  SimTime lookahead_ = 0;
};

/// One delivery, as the run-wide accumulators consume it.
struct Delivery {
  SimTime at = 0;
  NodeId node = kInvalidNode;
  std::uint32_t seq = 0;
  SimTime latency = 0;
  bool on_topic = true;
  bool origin = false;
};

/// A multicast awaiting garbage collection.
struct ActiveMsg {
  SimTime at = 0;
  std::uint32_t seq = 0;
  MsgId id{};
};

/// Everything a node's callbacks mutate, one per shard so shard workers
/// never share it. shards == 1 is the one-element case.
struct Shard {
  explicit Shard(SimTime warmup) : goodput(warmup) {}

  sim::Simulator* sim = nullptr;
  /// Private on-demand path replica and its latency view: latency()
  /// mutates the LRU row cache, so each shard worker reads its own copy
  /// (identical answers, separate caches). Empty = the run-wide model.
  std::unique_ptr<net::PathModel> paths;
  std::optional<net::PathLatencyModel> latency;
  std::optional<core::OracleLatencyMonitor> oracle_monitor;
  /// Message intern table. MsgIds are global, interned MsgKeys are
  /// shard-local — nothing ever compares keys across shards.
  core::MessageArena arena;
  obs::GoodputTracker goodput;
  std::vector<std::uint32_t> payload_tx;  // payload sends per message seq
  /// Sharded only: deliveries logged here and replayed after the run in
  /// (time, node) order; shards == 1 accumulates them as they happen.
  std::vector<Delivery> deliveries;
  std::deque<ActiveMsg> active;
  /// Metrics runs only: the lifecycle tracker of this shard's nodes and the
  /// document it and the egress listener write. Finalize merges the
  /// documents in shard order.
  std::shared_ptr<obs::RunMetrics> metrics;
  std::optional<obs::LifecycleTracker> tracker;
};

/// One experiment: the stages every shard count runs, in order. The
/// stages preserve both engines' RNG split order and scheduling order
/// exactly, because the goldens pin them.
class Assembly {
 public:
  explicit Assembly(const ExperimentConfig& config)
      : config_(config), root_(config.seed), engine_(config.shards) {}
  // Node and timer callbacks hold `this`.
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  ExperimentResult run() {
    build_world();
    build_nodes();
    wire_listeners();
    bootstrap_and_warm_up();
    schedule_traffic();
    execute();
    return finalize();
  }

 private:
  struct MsgRecord {
    std::uint32_t deliveries = 0;
    /// Nodes alive when the message was multicast (the reliability
    /// denominator; only differs from the global live count under churn).
    std::uint32_t live_at_send = 0;
    stats::RunningStat latency_ms;  // non-origin deliveries
  };
  struct InFlightPayload {
    std::uint32_t seq = 0;
    SimTime sent = 0;
    trace::TraceLog::PayloadHandle handle = trace::TraceLog::kNoHandle;
    bool eager = false;
  };
  struct LastAccept {
    MsgId id{};
    NodeId from = kInvalidNode;
    bool eager = true;
  };

  void build_world();
  void build_nodes();
  void wire_listeners();
  void bootstrap_and_warm_up();
  void schedule_traffic();
  void execute();
  ExperimentResult finalize();

  Shard& shard_of(NodeId node) { return shards_[engine_.shard_of(node)]; }
  void on_deliver(NodeId id, const core::AppMessage& msg);
  void count_delivery(const Delivery& d);
  void on_payload_sent(NodeId id, const core::AppMessage& msg, NodeId dst,
                       bool eager);
  void on_accept(NodeId id, NodeId src, const core::AppMessage& msg,
                 bool duplicate);
  std::pair<NodeId, std::uint32_t> resolve_sender(std::uint32_t i,
                                                  NodeId planned) const;
  void multicast(std::uint32_t i, NodeId sender, std::uint32_t audience);
  void rejoin_overlay(NodeId back, Rng& rng);
  void churn_tick();
  void set_churn_rate(double rate);
  void gc_tick();

  const ExperimentConfig& config_;
  const Rng root_;

  // World: workload plan, underlay, ranking, engine, transport.
  load::WorkloadPlan plan_;
  bool use_workload_ = false;
  std::uint32_t num_messages_ = 0;
  SimTime effective_interval_ = 0;  // mean multicast spacing
  net::Topology topo_;
  std::unique_ptr<net::PathModel> path_model_;
  std::optional<net::PathLatencyModel> latency_;
  bool needs_best_ = false;
  double rho_ = 0.0;  // the strategy's radius, resolved
  std::vector<double> closeness_sums_;
  std::vector<NodeId> closeness_order_;
  std::vector<NodeId> oracle_best_;
  Engine engine_;
  std::deque<Shard> shards_;
  const wire::WireCodec wire_codec_;
  std::optional<net::Transport> transport_;
  std::optional<core::DistanceMonitor> distance_monitor_;
  std::optional<core::StaticBestSet> static_best_;
  overlay::CsrAdjacency static_adj_;  // samplers borrow their rows
  std::shared_ptr<core::NoiseCalibration> noise_calibration_;
  bool wrap_noise_ = false;

  // Run-wide accounting and observation (trace and phase windows exist
  // only at shards == 1; the gates see to that).
  std::vector<MsgRecord> messages_;
  stats::Samples all_latency_ms_;
  std::uint64_t offtopic_deliveries_ = 0;
  std::vector<std::uint32_t> msg_topic_;
  std::vector<compact::DynamicBitset> topic_member_;
  std::shared_ptr<trace::TraceLog> trace_log_;
  compact::FlatMap<std::uint64_t, std::deque<InFlightPayload>> in_flight_;
  std::vector<LastAccept> last_accept_;
  std::optional<stats::PhaseWindows> phase_windows_;
  stats::PhaseWindows* pw_ = nullptr;
  std::vector<std::unique_ptr<NodeStack>> nodes_;

  // Failures and traffic.
  std::vector<bool> dead_;
  std::vector<NodeId> live_;
  Rng churn_rng_;
  std::vector<NodeId> churn_dead_;
  std::optional<sim::PeriodicTimer> churn_timer_;
  Rng rejoin_rng_;
  std::optional<fault::FaultInjector> injector_;
  SimTime last_send_ = 0;
  std::uint64_t gc_collected_ = 0;
  std::optional<sim::PeriodicTimer> gc_timer_;
  std::uint64_t peak_simultaneous_ = 0;
  std::optional<sim::PeriodicTimer> census_timer_;
};

// --- 1. World: workload plan, underlay, routing, ranking, transport ------

void Assembly::build_world() {
  const std::string error = config_error(config_);
  ESM_CHECK(error.empty(), error.c_str());
  config_.scenario.validate(config_.num_nodes);
  const std::uint32_t n = config_.num_nodes;

  // Heavy-traffic workload: resolve the whole arrival plan up front from
  // a dedicated RNG split. split() is const, so legacy runs (empty
  // workload) draw exactly the same sequences as before this subsystem
  // existed — the golden fingerprints pin that.
  use_workload_ = !config_.workload.empty();
  if (use_workload_) {
    plan_ = load::build_plan(config_.workload, n,
                             root_.split(0x776b6c64ULL));  // "wkld"
    ESM_CHECK(!plan_.arrivals.empty(),
              "workload generated no arrivals (rate * duration too small)");
  }
  num_messages_ = use_workload_ ? static_cast<std::uint32_t>(plan_.size())
                                : config_.num_messages;
  effective_interval_ =
      use_workload_
          ? config_.workload.duration / static_cast<SimTime>(plan_.size())
          : config_.mean_interval;

  net::TopologyParams topo_params = config_.topology;
  topo_params.num_clients = n;
  topo_ = generate_topology(topo_params, config_.seed);
  // Pairwise path metrics: dense matrix for small N, memory-bounded
  // on-demand rows above the cutover (or whatever the config forces).
  path_model_ =
      net::make_path_model(topo_, config_.path_model, config_.path_cache_bytes);
  const net::PathModel& metrics = *path_model_;
  latency_.emplace(metrics);
  const bool replicate_paths =
      engine_.sharded() && net::resolve_path_model(config_.path_model, n) ==
                               net::PathModelKind::ondemand;
  for (std::uint32_t s = 0; s < engine_.num_shards(); ++s) {
    Shard& shard = shards_.emplace_back(config_.warmup);
    shard.sim = &engine_.shard(s);
    if (replicate_paths) {
      shard.paths = net::make_path_model(topo_, config_.path_model,
                                         config_.path_cache_bytes);
      shard.latency.emplace(*shard.paths);
    }
  }

  rho_ = resolved_rho(config_.strategy, metrics, topo_.client_coords);
  needs_best_ = config_.strategy.kind == StrategyKind::ranked ||
                config_.strategy.kind == StrategyKind::hybrid;
  // The oracle closeness ranking costs O(N²) point queries, so it is only
  // computed when something consumes it: a ranked/hybrid best set, a
  // best-ranked kill list, or a fault scenario (whose crash-best events
  // address nodes by rank).
  const bool needs_closeness =
      needs_best_ ||
      (config_.kill_fraction > 0.0 &&
       config_.kill_mode == KillMode::best_ranked) ||
      !config_.scenario.empty() ||
      // Tree stats compare interior-node concentration against the
      // capacity ranking even for unranked strategies.
      config_.collect_tree_stats;
  if (needs_closeness) {
    closeness_sums_ = metrics.closeness_sums();
    closeness_order_ = order_by_closeness_sums(closeness_sums_);
  }
  if (needs_best_) {
    const auto num_best = static_cast<std::uint32_t>(std::lround(
        config_.strategy.best_fraction * static_cast<double>(n)));
    oracle_best_.assign(closeness_order_.begin(),
                        closeness_order_.begin() +
                            std::min<std::uint32_t>(num_best, n));
  }

  net::TransportOptions topts;
  topts.loss_rate = config_.loss_rate;
  topts.bandwidth_bps = config_.bandwidth_bps;
  topts.jitter = config_.jitter;
  topts.egress_buffer_bytes = config_.egress_buffer_bytes;
  topts.purge_policy = config_.purge_policy;
  if (config_.backpressure && config_.egress_buffer_bytes > 0) {
    topts.high_watermark = config_.bp_high_watermark;
    topts.low_watermark = config_.bp_low_watermark;
  }
  if (config_.slow_fraction > 0.0) {
    topts.node_bandwidth_bps.assign(n, config_.bandwidth_bps);
    std::vector<NodeId> everyone(n);
    std::iota(everyone.begin(), everyone.end(), 0);
    Rng slow_rng = root_.split(0x736c6f77ULL);
    const auto num_slow = static_cast<std::uint32_t>(
        std::lround(config_.slow_fraction * static_cast<double>(n)));
    for (const NodeId s : slow_rng.sample(everyone, num_slow)) {
      topts.node_bandwidth_bps[s] = config_.slow_bandwidth_bps;
    }
  }
  if (config_.use_wire_codec) topts.codec = &wire_codec_;
  // Sharded, the constructor's simulator is only the unsharded fallback:
  // bind() switches every per-node schedule to the shard simulators and
  // splits the transport's accounting and RNG per shard/node.
  transport_.emplace(engine_.shard(0), *latency_, n, topts,
                     root_.split(0x7472616eULL));
  std::vector<const net::LatencyModel*> shard_latency;
  for (Shard& shard : shards_) {
    if (shard.latency) shard_latency.push_back(&*shard.latency);
    // Radius/hybrid metric() queries run on the shard's thread, so each
    // shard's nodes read a monitor over that shard's latency view.
    shard.oracle_monitor.emplace(shard.latency ? *shard.latency : *latency_);
  }
  engine_.bind(*transport_, metrics, config_.jitter, std::move(shard_latency));

  distance_monitor_.emplace(topo_.client_coords);
  static_best_.emplace(oracle_best_);
  // One system-wide noise calibration (paper §4.3: a single constant c).
  // Strategies are also wrapped (at zero noise, an exact identity) when a
  // scenario ramps noise mid-run, so the injector has a knob to turn.
  wrap_noise_ =
      config_.strategy.noise > 0.0 || config_.scenario.has_noise_events();
  if (wrap_noise_) {
    noise_calibration_ = std::make_shared<core::NoiseCalibration>();
  }
}

// --- 2. Per-node stacks ---------------------------------------------------

void Assembly::build_nodes() {
  const std::uint32_t n = config_.num_nodes;
  messages_.resize(num_messages_);
  for (Shard& shard : shards_) {
    shard.arena.reserve(num_messages_);
    shard.payload_tx.assign(num_messages_, 0);
  }
  // Topic scoping: per-message topic tag and per-topic membership bitsets.
  // A delivery at a non-member node is a protocol-level relay, not a
  // useful delivery — it stays out of reliability/latency/goodput.
  msg_topic_.assign(use_workload_ ? num_messages_ : 0, load::kNoTopic);
  topic_member_.resize(plan_.topic_members.size());
  for (std::size_t t = 0; t < plan_.topic_members.size(); ++t) {
    for (const NodeId m : plan_.topic_members[t]) topic_member_[t].set(m);
  }
  for (std::uint32_t i = 0; i < msg_topic_.size(); ++i) {
    msg_topic_[i] = plan_.arrivals[i].topic;
  }
  ESM_CHECK(!(config_.collect_tree_stats && config_.trace_sink != nullptr),
            "tree stats need the buffered trace; incompatible with a stream "
            "sink");
  if (config_.collect_trace || config_.collect_tree_stats ||
      config_.trace_sink != nullptr) {
    trace_log_ = std::make_shared<trace::TraceLog>();
    if (config_.trace_sink != nullptr) {
      trace_log_->stream_to(*config_.trace_sink);
    }
    // Delivery attribution for tree reconstruction: last_accept_
    // remembers which sender's payload delivered each message at each
    // node — the node's parent in the dissemination tree.
    last_accept_.resize(n);
  }
  // Per-phase windowed metrics; only scenario runs pay for the tracking.
  if (!config_.scenario.empty()) {
    pw_ = &phase_windows_.emplace(config_.warmup);
  }
  // Observability: one metrics document and lifecycle tracker per shard,
  // wired into the protocol layers' observation hooks. Only metrics runs
  // pay.
  if (config_.collect_metrics) {
    for (Shard& shard : shards_) {
      shard.metrics = std::make_shared<obs::RunMetrics>();
      shard.tracker.emplace(*shard.sim, n, *shard.metrics, &shard.arena);
    }
  }

  const bool needs_monitor = config_.strategy.kind == StrategyKind::radius ||
                             config_.strategy.kind == StrategyKind::hybrid;
  // Oracle closeness seeds for the gossip-rank estimator (higher = closer
  // to everyone = better node). Reuses the closeness pass of the world
  // stage; runs without gossip rank skip it entirely.
  const bool use_gossip_rank =
      needs_best_ && config_.strategy.use_gossip_rank;
  std::vector<double> closeness_score(n, 0.0);
  if (use_gossip_rank) {
    for (NodeId id = 0; id < n; ++id) {
      closeness_score[id] = -closeness_sums_[id];
    }
  }
  // Fixed symmetric neighbor sets, when requested — compressed to one
  // shared CSR structure; samplers borrow their row instead of copying it.
  if (config_.overlay_kind == OverlayKind::static_random) {
    static_adj_ = overlay::CsrAdjacency::from_lists(
        overlay::build_symmetric_overlay(n, config_.overlay.view_size,
                                         root_.split(0x73746174ULL)));
  }
  // Pre-size per-node tables for the concurrently-tracked message window:
  // with GC, roughly lifetime / mean-interval messages are live at once;
  // without GC every message stays tracked. Pre-reserving keeps steady-
  // state runs from rehashing mid-measurement.
  const std::size_t expected_window =
      config_.message_lifetime > 0 && effective_interval_ > 0
          ? std::min<std::size_t>(
                num_messages_,
                static_cast<std::size_t>(config_.message_lifetime /
                                         effective_interval_) +
                    16)
          : num_messages_;
  // Adaptive fanout scales by provisioned bandwidth, mean preserved.
  double mean_bw = 0.0;
  if (config_.adaptive_fanout) {
    for (NodeId id = 0; id < n; ++id) {
      mean_bw += static_cast<double>(transport_->node_bandwidth(id));
    }
    mean_bw /= static_cast<double>(n);
  }

  net::Transport& transport = *transport_;
  nodes_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    auto stack = std::make_unique<NodeStack>();
    Rng node_rng = root_.split(0x100000ULL + id);
    // Everything this node schedules lives on its shard's simulator.
    sim::Simulator& sim = engine_.sim_for(id);
    Shard& shard = shard_of(id);

    switch (config_.overlay_kind) {
      case OverlayKind::static_random:
        stack->static_sampler =
            std::make_unique<overlay::StaticNeighborSampler>(
                static_adj_, id, node_rng.split(1));
        stack->sampler = stack->static_sampler.get();
        break;
      case OverlayKind::oracle:
        stack->oracle_sampler =
            std::make_unique<overlay::FullMembershipSampler>(
                transport, id, node_rng.split(1));
        stack->sampler = stack->oracle_sampler.get();
        break;
      case OverlayKind::hyparview: {
        overlay::HyParViewParams hpv;
        hpv.active_size = config_.overlay.view_size;
        stack->hyparview = std::make_unique<overlay::HyParViewNode>(
            sim, transport, id, hpv, node_rng.split(1));
        stack->sampler = stack->hyparview.get();
        break;
      }
      case OverlayKind::neem: {
        overlay::NeemParams np;
        np.target_degree = config_.overlay.view_size;
        np.max_degree =
            config_.overlay.view_size + config_.overlay.view_size / 3;
        stack->neem = std::make_unique<overlay::NeemNode>(
            sim, transport, id, np, node_rng.split(1));
        stack->sampler = stack->neem.get();
        break;
      }
      case OverlayKind::cyclon:
        stack->cyclon = std::make_unique<overlay::CyclonNode>(
            sim, transport, id, config_.overlay, node_rng.split(1));
        stack->sampler = stack->cyclon.get();
        break;
    }

    const core::PerformanceMonitor* monitor = nullptr;
    if (needs_monitor) {
      switch (config_.strategy.monitor) {
        case MonitorKind::oracle_latency:
          monitor = &*shard.oracle_monitor;
          break;
        case MonitorKind::distance:
          monitor = &*distance_monitor_;
          break;
        case MonitorKind::ping:
          stack->ping = std::make_unique<core::PingMonitor>(
              sim, transport, id, *stack->sampler, core::PingMonitor::Params{},
              node_rng.split(2));
          monitor = stack->ping.get();
          break;
        case MonitorKind::piggyback:
          stack->piggyback = std::make_unique<core::PiggybackMonitor>(id);
          monitor = stack->piggyback.get();
          break;
      }
    }

    const core::BestSet* best = nullptr;
    if (needs_best_) {
      if (use_gossip_rank) {
        stack->rank_estimator = std::make_unique<rank::GossipRankEstimator>(
            sim, transport, id, *stack->sampler, closeness_score[id],
            config_.strategy.best_fraction, rank::RankParams{},
            node_rng.split(3));
        best = stack->rank_estimator.get();
      } else {
        best = &*static_best_;
      }
    }

    stack->strategy =
        make_strategy(config_, rho_, id, monitor, best, node_rng.split(4));
    if (wrap_noise_) {
      auto noisy = std::make_unique<core::NoisyStrategy>(
          std::move(stack->strategy), config_.strategy.noise,
          noise_calibration_, node_rng.split(5));
      stack->noisy = noisy.get();
      stack->strategy = std::move(noisy);
    }

    NodeStack* raw = stack.get();
    stack->scheduler = std::make_unique<core::PayloadScheduler>(
        sim, transport, id, *stack->strategy,
        [raw](const core::AppMessage& msg, Round round, NodeId src) {
          raw->gossip->l_receive(msg, round, src);
        },
        &shard.arena);
    stack->scheduler->reserve(expected_window);
    stack->scheduler->set_ihave_batch_window(config_.ihave_batch_window);
    stack->scheduler->set_pull_order(config_.pull_sched);
    if (config_.backpressure) {
      core::PayloadScheduler::BackpressureConfig bp;
      bp.enabled = true;
      bp.max_replies_per_dst = config_.bp_max_replies_per_dst;
      bp.readvertise_delay = config_.retransmission_period;
      stack->scheduler->set_backpressure(bp);
      obs::GoodputTracker* const goodput = &shard.goodput;
      stack->scheduler->set_backpressure_listener(
          [goodput](core::PayloadScheduler::BpEvent event) {
            if (event == core::PayloadScheduler::BpEvent::kEagerDeferred) {
              goodput->on_defer();
            } else if (event ==
                       core::PayloadScheduler::BpEvent::kDropReadvertised) {
              goodput->on_drop_recovery();
            }
          });
    }
    if (stack->piggyback) {
      core::PiggybackMonitor* piggyback = stack->piggyback.get();
      stack->scheduler->set_rtt_observer(
          [piggyback](NodeId peer, SimTime rtt) {
            piggyback->observe(peer, rtt);
          });
    }
    if (shard.tracker) {
      obs::LifecycleTracker* const trk = &*shard.tracker;
      stack->scheduler->set_lazy_listener(
          [trk, id](const MsgId& mid, core::PayloadScheduler::LazyEvent event,
                    NodeId peer) { trk->on_lazy_event(id, mid, event, peer); });
    }
    stack->scheduler->set_send_listener(
        [this, id](const core::AppMessage& msg, NodeId dst, bool eager) {
          on_payload_sent(id, msg, dst, eager);
        });
    if (trace_log_) {
      stack->scheduler->set_accept_listener(
          [this, id](NodeId src, const core::AppMessage& msg, bool duplicate) {
            on_accept(id, src, msg, duplicate);
          });
    }

    core::GossipParams gossip_params = config_.gossip;
    if (mean_bw > 0.0) {
      const double scaled =
          static_cast<double>(config_.gossip.fanout) *
          static_cast<double>(transport.node_bandwidth(id)) / mean_bw;
      gossip_params.fanout = static_cast<std::uint32_t>(
          std::clamp(std::lround(scaled), 3L,
                     2L * static_cast<long>(config_.gossip.fanout)));
    }
    stack->gossip = std::make_unique<core::GossipNode>(
        id, gossip_params, *stack->sampler, *stack->scheduler,
        [this, id](const core::AppMessage& msg) { on_deliver(id, msg); },
        node_rng.split(6));
    if (shard.tracker) {
      obs::LifecycleTracker* const trk = &*shard.tracker;
      stack->gossip->set_relay_listener(
          [trk, id](const MsgId&, Round, std::size_t relayed_to) {
            trk->on_relay(id, relayed_to);
          });
    }

    nodes_.push_back(std::move(stack));
  }
}

// --- 3. Listeners: packet mux, backpressure loop, drop observation -------

void Assembly::wire_listeners() {
  net::Transport& transport = *transport_;
  // Packet mux: the type byte names the one layer that owns a packet.
  // The scheduler takes MSG, IHAVE, IWANT and PRUNE and drops the rest.
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    NodeStack* stack = nodes_[id].get();
    transport.register_handler(
        id, [stack](NodeId src, const net::PacketPtr& p) {
          switch (p->type) {
            case net::PacketType::shuffle:
              return route<overlay::ShufflePacket>(stack->cyclon, src, *p);
            case net::PacketType::hyparview:
              return route<overlay::HpvPacket>(stack->hyparview, src, *p);
            case net::PacketType::neem:
              return route<overlay::NeemPacket>(stack->neem, src, *p);
            case net::PacketType::ping:
              return route<core::PingPacket>(stack->ping, src, *p);
            case net::PacketType::rank_gossip:
              return route<rank::RankGossipPacket>(stack->rank_estimator,
                                                   src, *p);
            default:
              stack->scheduler->handle_packet(src, p);
          }
        });
  }

  // Backpressure loop: the transport's watermark crossings flip each
  // scheduler's congestion flag (the low-watermark edge also flushes its
  // deferred work), and purged packets re-enter the owning scheduler's
  // advertise path. Installed only when enabled, so legacy runs keep the
  // listener-free fast path. Both fire on the *source* node's shard
  // (send/drain/purge are source-side), so touching the source's shard
  // state and scheduler is race-free.
  if (config_.backpressure && config_.egress_buffer_bytes > 0) {
    transport.set_watermark_listener([this](NodeId src, bool above_high) {
      Shard& shard = shard_of(src);
      shard.goodput.on_watermark(shard.sim->now(), above_high);
      nodes_[src]->scheduler->set_congested(above_high);
    });
    transport.set_purge_listener(
        [this](NodeId src, NodeId dst, const net::PacketPtr& packet,
               bool /*is_payload*/) {
          nodes_[src]->scheduler->on_egress_purge(dst, *packet);
        });
  }
  if (config_.collect_metrics) {
    // A drop goes to the tracker of the shard that executes it: the
    // receiver's for a silenced receiver, the sender's otherwise.
    transport.set_drop_listener([this](NodeId src, NodeId dst,
                                       bool is_payload,
                                       net::Transport::DropReason reason) {
      const bool at_dst = reason == net::Transport::DropReason::kSilencedDst;
      shard_of(at_dst ? dst : src).tracker->on_drop(src, dst, is_payload,
                                                    reason);
    });
  }
}

// --- 4. Bootstrap, warm-up and failure injection --------------------------

void Assembly::bootstrap_and_warm_up() {
  const std::uint32_t n = config_.num_nodes;
  Rng boot = root_.split(0x626f6f74ULL);
  const auto random_contacts = [&boot, n](NodeId id, std::size_t want) {
    std::vector<NodeId> contacts;
    while (contacts.size() < want && contacts.size() + 1 < n) {
      const NodeId c = static_cast<NodeId>(boot.below(n));
      if (c != id &&
          std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
        contacts.push_back(c);
      }
    }
    return contacts;
  };
  for (NodeId id = 0; id < n; ++id) {
    NodeStack& node = *nodes_[id];
    if (node.cyclon) {
      node.cyclon->bootstrap(random_contacts(id, config_.overlay.view_size));
      node.cyclon->start();
    } else if (node.neem) {
      // A few random contacts; shuffles then mix the connection graph
      // toward the target degree.
      node.neem->bootstrap(random_contacts(id, 5));
      node.neem->start();
    } else if (node.hyparview) {
      // Staggered joins, each through a random already-joined contact.
      node.hyparview->start();
      if (id == 0) continue;
      const NodeId contact = static_cast<NodeId>(boot.below(id));
      const SimTime when = 50 * kMillisecond * id;
      ESM_CHECK(when < config_.warmup, "warmup too short for staggered joins");
      overlay::HyParViewNode* hpv = node.hyparview.get();
      engine_.sim_for(id).schedule_at(when,
                                      [hpv, contact] { hpv->join(contact); });
    }
  }
  for (const auto& node : nodes_) {
    if (node->ping) node->ping->start();
    if (node->rank_estimator) node->rank_estimator->start();
  }
  engine_.run_until(config_.warmup);

  // Warm-up kills run between run_until() segments, never concurrent
  // with event execution.
  dead_.assign(n, false);
  const auto num_kill = static_cast<std::uint32_t>(
      std::lround(config_.kill_fraction * static_cast<double>(n)));
  if (num_kill > 0 && config_.kill_mode != KillMode::none) {
    std::vector<NodeId> victims;
    if (config_.kill_mode == KillMode::random) {
      std::vector<NodeId> everyone(n);
      std::iota(everyone.begin(), everyone.end(), 0);
      Rng killer = root_.split(0x6b696c6cULL);
      victims = killer.sample(everyone, num_kill);
    } else {  // best_ranked: exactly the biggest contributors (§6.3)
      victims.assign(closeness_order_.begin(),
                     closeness_order_.begin() +
                         std::min<std::uint32_t>(num_kill, n));
    }
    for (const NodeId v : victims) {
      transport_->silence(v);
      dead_[v] = true;
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!dead_[id]) live_.push_back(id);
  }
  ESM_CHECK(!live_.empty(), "all nodes were killed");
}

// --- 5. Traffic, churn, faults and the periodic sweeps --------------------

void Assembly::schedule_traffic() {
  transport_->reset_stats();  // measure only the logged phase
  transport_->reset_egress_stats();
  if (config_.collect_metrics) {
    // Per-node queue-delay/depth histograms over the measurement phase.
    // Observation only: the listener fires on drain pops that happen
    // anyway (on the sender's shard), no RNG draws, no extra events.
    transport_->set_egress_listener(
        [this](NodeId src, std::uint64_t sojourn_us, std::size_t depth) {
          obs::RunMetrics& rm = *shard_of(src).metrics;
          rm.per_node[src].histogram("egress_sojourn_us").add(sojourn_us);
          rm.aggregate.histogram("transport.queue_delay_us").add(sojourn_us);
          rm.aggregate.histogram("transport.queue_depth").add(depth);
        });
  }

  // Continuous churn (extension): alternate kills and revivals, keeping
  // the live population near its initial size.
  churn_rng_ = root_.split(0x6368726eULL);
  churn_timer_.emplace(engine_.control(), [this] { churn_tick(); });
  if (config_.churn_rate > 0.0) set_churn_rate(config_.churn_rate);

  // Fault injector: armed *before* the traffic is scheduled so scenario
  // events fire ahead of multicasts that share their timestamp (the event
  // queue is FIFO within a timestamp).
  rejoin_rng_ = root_.split(0x72656a6fULL);
  if (!config_.scenario.empty()) {
    fault::InjectorHooks hooks;
    hooks.on_recover = [this](NodeId back) {
      rejoin_overlay(back, rejoin_rng_);
    };
    hooks.on_phase = [this](const std::string& label) {
      const SimTime now = engine_.control().now();
      if (pw_) pw_->start_phase(now, label);
      if (trace_log_) trace_log_->record_phase({now, label});
    };
    hooks.on_churn_rate = [this](double rate) { set_churn_rate(rate); };
    hooks.on_noise = [this](double level) {
      for (const auto& stack : nodes_) {
        if (stack->noisy) stack->noisy->set_noise(level);
      }
    };
    injector_.emplace(engine_.control(), *transport_, config_.scenario,
                      closeness_order_, root_.split(0x6661756cULL),
                      std::move(hooks));
    injector_->set_initial_noise(config_.strategy.noise);
    injector_->arm(config_.warmup);
  }

  // Multicasts. The workload plan pre-resolves every arrival, so
  // scheduling consumes no RNG draws; the legacy source loop draws its
  // spacing from a dedicated split.
  Rng traffic = root_.split(0x74726166ULL);
  SimTime t = config_.warmup;
  last_send_ = config_.warmup;
  if (!use_workload_ && config_.single_sender != kInvalidNode) {
    ESM_CHECK(config_.single_sender < config_.num_nodes &&
                  !dead_[config_.single_sender],
              "single sender must be a live node");
  }
  for (std::uint32_t i = 0; i < num_messages_; ++i) {
    NodeId planned = kInvalidNode;
    if (use_workload_) {
      const load::Arrival& arr = plan_.arrivals[i];
      t = config_.warmup + arr.at;
      last_send_ = std::max(last_send_, t);
      planned = arr.origin;
    } else {
      t += traffic.range(0, 2 * config_.mean_interval);
      last_send_ = t;
      planned = config_.single_sender != kInvalidNode
                    ? config_.single_sender
                    : live_[i % live_.size()];
    }
    if (engine_.sharded()) {
      // With churn and scenarios gated the silenced set is frozen from
      // here on, so the sender resolves now and the multicast goes
      // straight onto its shard; a message whose pool is down is never
      // scheduled.
      const auto [sender, audience] = resolve_sender(i, planned);
      if (sender == kInvalidNode) continue;
      engine_.sim_for(sender).schedule_at(
          t, [this, i, sender = sender, audience = audience] {
            multicast(i, sender, audience);
          });
    } else {
      // Under churn the planned sender may be down at fire time: resolve
      // then.
      engine_.control().schedule_at(t, [this, i, planned] {
        const auto [sender, audience] = resolve_sender(i, planned);
        if (sender != kInvalidNode) multicast(i, sender, audience);
      });
    }
  }

  // Optional garbage collection: periodically drop protocol state for
  // messages past their lifetime, on every node (§3.1/§3.2).
  gc_timer_.emplace(engine_.control(), [this] { gc_tick(); });
  if (config_.message_lifetime > 0) {
    gc_timer_->start(config_.message_lifetime, config_.message_lifetime / 2);
  }

  // Connection census (§5.4): sample simultaneous NeEM connections once
  // per second; each symmetric connection is held by two endpoints.
  census_timer_.emplace(engine_.control(), [this] {
    std::uint64_t endpoints = 0;
    for (const auto& stack : nodes_) {
      if (stack->neem) endpoints += stack->neem->connections().size();
    }
    peak_simultaneous_ = std::max(peak_simultaneous_, endpoints / 2);
  });
  if (config_.overlay_kind == OverlayKind::neem) {
    census_timer_->start(0, 1 * kSecond);
  }
}

// --- 6. Run ------------------------------------------------------------------

void Assembly::execute() {
  engine_.run_until(last_send_ + config_.drain);
  gc_timer_->stop();
  churn_timer_->stop();
  census_timer_->stop();
  // Streaming trace: emit payload rows whose packets never arrived.
  if (trace_log_ && trace_log_->streaming()) trace_log_->flush();
}

// --- node and timer callbacks ---------------------------------------------

void Assembly::on_deliver(NodeId id, const core::AppMessage& msg) {
  Shard& shard = shard_of(id);
  const SimTime now = shard.sim->now();
  // Topic gate: a delivery at a node outside the message's topic is
  // protocol relay traffic. It still feeds the lifecycle tracker and the
  // trace (the packet really arrived), but stays out of reliability,
  // latency, phase windows and goodput.
  const std::uint32_t topic =
      msg.seq < msg_topic_.size() ? msg_topic_[msg.seq] : load::kNoTopic;
  const Delivery d{now, id, msg.seq, now - msg.multicast_time,
                   topic == load::kNoTopic || topic_member_[topic].test(id),
                   msg.origin == id};
  if (d.on_topic) {
    if (pw_) pw_->on_delivery(msg.seq, to_ms(d.latency), d.origin);
    shard.goodput.on_delivery(now);
  }
  // The order-sensitive accumulators (latency Samples/RunningStat) see
  // deliveries in execution order at shards == 1; the sharded engine
  // logs them per shard and replays them in canonical order after the
  // run.
  if (engine_.sharded()) {
    shard.deliveries.push_back(d);
  } else {
    count_delivery(d);
  }
  if (shard.tracker) shard.tracker->on_delivery(id, msg.id, d.latency);
  if (trace_log_) {
    // The payload that delivered here was matched by the accept listener
    // synchronously upstream of this callback; the origin delivers its
    // own multicast (parent = itself, "eager").
    NodeId from = id;
    bool eager = true;
    if (!d.origin) {
      const LastAccept& acc = last_accept_[id];
      if (acc.id == msg.id) {
        from = acc.from;
        eager = acc.eager;
      } else {
        from = kInvalidNode;
      }
    }
    trace_log_->record_delivery(
        {now, id, msg.origin, msg.seq, d.latency, from, eager});
  }
}

void Assembly::count_delivery(const Delivery& d) {
  if (!d.on_topic) {
    ++offtopic_deliveries_;
    return;
  }
  MsgRecord& rec = messages_.at(d.seq);
  ++rec.deliveries;
  if (!d.origin) {
    const double ms = to_ms(d.latency);
    rec.latency_ms.add(ms);
    all_latency_ms_.add(ms);
  }
}

void Assembly::on_payload_sent(NodeId id, const core::AppMessage& msg,
                               NodeId dst, bool eager) {
  Shard& shard = shard_of(id);
  if (msg.seq < shard.payload_tx.size()) ++shard.payload_tx[msg.seq];
  shard.goodput.on_payload();
  if (pw_) pw_->on_payload(id, dst);
  if (trace_log_) {
    // Per-directed-link FIFO queues match each accepted payload packet
    // back to the send that produced it (on_accept stamps its receive
    // time on the trace row).
    const SimTime now = shard.sim->now();
    const auto handle =
        trace_log_->record_payload({now, id, dst, msg.seq, eager});
    const std::uint64_t link = (static_cast<std::uint64_t>(id) << 32) | dst;
    in_flight_[link].push_back({msg.seq, now, handle, eager});
  }
}

void Assembly::on_accept(NodeId id, NodeId src, const core::AppMessage& msg,
                         bool duplicate) {
  const SimTime now = shard_of(id).sim->now();
  const std::uint64_t link = (static_cast<std::uint64_t>(src) << 32) | id;
  bool eager = true;
  if (auto* queue = in_flight_.find(link)) {
    // Entries older than any plausible one-way delay belong to lost
    // packets; drop them so the scan stays bounded.
    constexpr SimTime kLostAfter = 30 * kSecond;
    while (!queue->empty() && queue->front().sent + kLostAfter < now) {
      queue->pop_front();
    }
    for (auto q = queue->begin(); q != queue->end(); ++q) {
      if (q->seq == msg.seq) {
        trace_log_->set_payload_recv(q->handle, now);
        eager = q->eager;
        queue->erase(q);
        break;
      }
    }
    if (queue->empty()) in_flight_.erase(link);
  }
  if (!duplicate) last_accept_[id] = {msg.id, src, eager};
}

/// Falls forward from the planned sender to the first live node of the
/// message's origin pool (its topic members, or every node), and counts
/// the message's live audience — the reliability denominator. Returns
/// kInvalidNode when the whole pool is down.
std::pair<NodeId, std::uint32_t> Assembly::resolve_sender(
    std::uint32_t i, NodeId planned) const {
  const net::Transport& transport = *transport_;
  const std::uint32_t topic =
      use_workload_ ? plan_.arrivals[i].topic : load::kNoTopic;
  NodeId sender = planned;
  std::uint32_t audience = 0;
  if (topic != load::kNoTopic) {
    const std::vector<NodeId>& pool = plan_.topic_members[topic];
    std::size_t idx = plan_.arrivals[i].origin_index % pool.size();
    for (std::size_t step = 0;
         transport.is_silenced(pool[idx]) && step < pool.size(); ++step) {
      idx = (idx + 1) % pool.size();
    }
    sender = pool[idx];
    for (const NodeId m : pool) {
      if (!transport.is_silenced(m)) ++audience;
    }
  } else {
    for (std::uint32_t step = 0;
         transport.is_silenced(sender) && step < config_.num_nodes; ++step) {
      sender = (sender + 1) % config_.num_nodes;
    }
    for (NodeId id = 0; id < config_.num_nodes; ++id) {
      if (!transport.is_silenced(id)) ++audience;
    }
  }
  if (transport.is_silenced(sender)) return {kInvalidNode, 0};
  return {sender, audience};
}

void Assembly::multicast(std::uint32_t i, NodeId sender,
                         std::uint32_t audience) {
  Shard& shard = shard_of(sender);
  const SimTime now = shard.sim->now();
  messages_[i].live_at_send = audience;
  if (pw_) pw_->on_multicast(i, audience);
  shard.goodput.on_offered(now, audience);
  const std::uint32_t planned_bytes =
      use_workload_ ? plan_.arrivals[i].payload_bytes : 0;
  const std::uint32_t bytes =
      planned_bytes != 0 ? planned_bytes : config_.payload_bytes;
  const core::AppMessage msg = nodes_[sender]->gossip->multicast(bytes, i, now);
  shard.active.push_back({now, i, msg.id});
}

/// Overlay re-integration of a revived node: NeEM re-bootstraps and
/// HyParView re-joins through a random live contact; Cyclon and the
/// samplers re-absorb revived nodes through regular shuffling. Shared by
/// the churn process and the fault injector's recover events.
void Assembly::rejoin_overlay(NodeId back, Rng& rng) {
  NodeStack& node = *nodes_[back];
  if (!node.neem && !node.hyparview) return;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const NodeId contact = static_cast<NodeId>(rng.below(config_.num_nodes));
    if (contact != back && !transport_->is_silenced(contact)) {
      if (node.neem) {
        node.neem->bootstrap({contact});
      } else {
        node.hyparview->join(contact);
      }
      return;
    }
  }
}

void Assembly::churn_tick() {
  const std::uint32_t live_min = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(live_.size()) / 2);
  std::uint32_t live_now = 0;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!transport_->is_silenced(id)) ++live_now;
  }
  const bool revive = !churn_dead_.empty() &&
                      (live_now <= live_min || churn_rng_.chance(0.5));
  if (revive) {
    const std::size_t pick = churn_rng_.below(churn_dead_.size());
    const NodeId back = churn_dead_[pick];
    churn_dead_.erase(churn_dead_.begin() + static_cast<std::ptrdiff_t>(pick));
    transport_->revive(back);
    rejoin_overlay(back, churn_rng_);
    return;
  }
  for (int attempt = 0; attempt < 10; ++attempt) {
    const NodeId victim =
        static_cast<NodeId>(churn_rng_.below(config_.num_nodes));
    if (victim == config_.single_sender || transport_->is_silenced(victim)) {
      continue;
    }
    transport_->silence(victim);
    churn_dead_.push_back(victim);
    return;
  }
}

void Assembly::set_churn_rate(double rate) {
  churn_timer_->stop();
  if (rate > 0.0) {
    const auto period =
        static_cast<SimTime>(static_cast<double>(kSecond) / rate);
    churn_timer_->start(period, std::max<SimTime>(period, 1));
  }
}

void Assembly::gc_tick() {
  if (config_.message_lifetime <= 0) return;
  const SimTime now = engine_.control().now();
  std::vector<ActiveMsg> expired;
  for (Shard& shard : shards_) {
    while (!shard.active.empty() &&
           shard.active.front().at + config_.message_lifetime < now) {
      expired.push_back(shard.active.front());
      shard.active.pop_front();
    }
  }
  if (expired.empty()) return;
  // Merge in (time, seq) order so the collection sequence is shard-count
  // invariant. One queue is already in that order: multicasts execute in
  // time order, and same-time ones in scheduling (= seq) order.
  std::sort(expired.begin(), expired.end(),
            [](const ActiveMsg& a, const ActiveMsg& b) {
              return a.at != b.at ? a.at < b.at : a.seq < b.seq;
            });
  gc_collected_ += expired.size();
  std::vector<MsgId> ids;
  ids.reserve(expired.size());
  for (const ActiveMsg& m : expired) ids.push_back(m.id);
  for (const auto& stack : nodes_) {
    stack->gossip->garbage_collect(ids);
    stack->scheduler->garbage_collect(ids);
  }
}

// --- 7. Finalize -------------------------------------------------------------

ExperimentResult Assembly::finalize() {
  const std::uint32_t n = config_.num_nodes;
  const SimTime end = engine_.now();
  ExperimentResult result;
  result.live_nodes = static_cast<std::uint32_t>(live_.size());
  result.events_executed = engine_.events_executed();
  if (pw_) result.phase_reports = pw_->finalize(end);
  if (injector_) result.faults_injected = injector_->events_applied();

  if (engine_.sharded()) {
    // Replay the delivery logs in canonical (time, node) order. Entries
    // sharing a (time, node) pair come from a single shard's log in its
    // execution order, so a stable sort yields one global order that does
    // not depend on the shard count.
    std::vector<Delivery> replay;
    for (const Shard& shard : shards_) {
      replay.insert(replay.end(), shard.deliveries.begin(),
                    shard.deliveries.end());
    }
    std::stable_sort(replay.begin(), replay.end(),
                     [](const Delivery& a, const Delivery& b) {
                       return a.at != b.at ? a.at < b.at : a.node < b.node;
                     });
    for (const Delivery& d : replay) count_delivery(d);
  }

  stats::RunningStat per_msg_latency;
  stats::RunningStat delivery_fraction;
  std::uint64_t total_deliveries = 0;
  std::uint32_t atomic = 0;
  result.expected_deliveries.reserve(messages_.size());
  for (const MsgRecord& rec : messages_) {
    ESM_CHECK(rec.deliveries <= n, "a node delivered the same message twice");
    total_deliveries += rec.deliveries;
    // Under churn the denominator is the live population at send time;
    // nodes revived mid-flight can push the raw ratio past 1.
    const std::uint32_t denom =
        rec.live_at_send > 0 ? rec.live_at_send
                             : static_cast<std::uint32_t>(live_.size());
    result.expected_deliveries.push_back(denom);
    delivery_fraction.add(std::min(
        1.0, static_cast<double>(rec.deliveries) / static_cast<double>(denom)));
    if (rec.deliveries >= denom) ++atomic;
    if (rec.latency_ms.count() > 0) per_msg_latency.add(rec.latency_ms.mean());
  }
  result.mean_latency_ms = all_latency_ms_.mean();
  result.latency_ci95_ms = per_msg_latency.ci95_half_width();
  result.p50_latency_ms = all_latency_ms_.quantile(0.50);
  result.p95_latency_ms = all_latency_ms_.quantile(0.95);
  result.mean_delivery_fraction = delivery_fraction.mean();
  result.delivery_ci95 = delivery_fraction.ci95_half_width();
  result.atomic_delivery_fraction =
      static_cast<double>(atomic) / static_cast<double>(num_messages_);

  // Run-wide traffic view. The sharded engine sums its per-shard slots;
  // the single slot is read in place.
  std::optional<net::TrafficStats> merged;
  if (engine_.sharded()) merged.emplace(transport_->merged_stats());
  const net::TrafficStats& tstats = merged ? *merged : transport_->stats();
  result.payload_packets = tstats.total_payload_packets();
  result.control_packets =
      tstats.total_packets() - tstats.total_payload_packets();
  result.total_bytes = tstats.total_bytes();
  result.packets_lost = transport_->packets_lost();
  result.buffer_drops = transport_->buffer_drops();

  // Goodput / saturation view of the same run: the per-shard trackers
  // fold into one (summed counters/buckets; watermark clocks joined).
  obs::GoodputTracker& goodput = shards_.front().goodput;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    goodput.merge(shards_[s].goodput);
  }
  const obs::GoodputReport gp = goodput.finalize(end);
  result.offered_msgs = gp.offered_msgs;
  result.offered_msgs_per_s = gp.offered_msgs_per_s;
  result.goodput_expected_deliveries = gp.expected_deliveries;
  result.goodput_deliveries = gp.deliveries;
  result.goodput_payload_sends = gp.payload_sends;
  result.goodput_msgs_per_s = gp.goodput_msgs_per_s;
  result.redundancy_ratio = gp.redundancy_ratio;
  result.knee_time_ms = gp.knee_time_ms;
  result.offtopic_deliveries = offtopic_deliveries_;
  const net::Transport::EgressStats egress_totals = transport_->egress_totals();
  result.egress_serialized_packets = egress_totals.serialized_packets;
  if (egress_totals.serialized_packets > 0) {
    result.egress_queue_delay_mean_ms =
        static_cast<double>(egress_totals.total_sojourn_us) /
        static_cast<double>(egress_totals.serialized_packets) / 1000.0;
  }
  result.egress_max_sojourn_us = egress_totals.max_sojourn_us;
  result.egress_queue_delay_max_ms = result.egress_max_sojourn_us / 1e3;
  result.egress_peak_depth = egress_totals.peak_depth;
  result.egress_peak_queued_bytes = egress_totals.peak_queued_bytes;
  result.watermark_episodes = gp.watermark_episodes;
  result.watermark_residency_ms = gp.watermark_residency_ms;

  std::uint64_t still_pending = 0;
  for (const auto& stack : nodes_) {
    const core::SchedulerStats& ss = stack->scheduler->stats();
    // Backpressure accounting (all zero when --backpressure off).
    result.eager_deferred += ss.eager_deferred;
    result.replies_deferred += ss.replies_deferred;
    result.drops_readvertised += ss.drops_readvertised;
    result.iwants_purged += ss.iwants_purged;
    result.duplicate_payloads += ss.duplicate_payloads;
    result.requests_sent += ss.requests_sent;
    result.prunes_sent += ss.prunes_sent;
    result.iwant_retries += ss.iwant_retries;
    result.recovery_gave_up += ss.recovery_gave_up;
    still_pending += stack->scheduler->pending_requests();
    // Each opened symmetric connection is counted at both endpoints.
    if (stack->neem) {
      result.connections_opened += stack->neem->connections_opened();
    }
    result.max_known_messages =
        std::max(result.max_known_messages, stack->gossip->known_count());
  }
  result.recovery_stalled = result.recovery_gave_up + still_pending;
  result.connections_opened /= 2;

  result.payload_per_delivery =
      total_deliveries == 0
          ? 0.0
          : static_cast<double>(result.payload_packets) /
                static_cast<double>(total_deliveries);

  // Per-node-class payload contribution. Classes use the oracle ranking so
  // "(low)" is comparable across oracle-rank and gossip-rank runs; the
  // reporting split may be wider than the strategy's best set (Fig. 5(c)
  // reports an 80/20 contribution split).
  const double report_fraction = config_.report_best_fraction > 0.0
                                     ? config_.report_best_fraction
                                     : config_.strategy.best_fraction;
  const auto report_best = static_cast<std::uint32_t>(
      std::lround(report_fraction * static_cast<double>(n)));
  std::vector<bool> is_best(n, false);
  for (std::uint32_t i = 0; i < report_best && i < closeness_order_.size();
       ++i) {
    is_best[closeness_order_[i]] = true;
  }
  stats::RunningStat all_load, low_load, best_load;
  for (const NodeId id : live_) {
    const double per_msg = static_cast<double>(tstats.node_sent_payload(id)) /
                           static_cast<double>(num_messages_);
    all_load.add(per_msg);
    if (needs_best_ && is_best[id]) {
      best_load.add(per_msg);
    } else {
      low_load.add(per_msg);
    }
  }
  result.load_all = {all_load.mean(),
                     static_cast<std::uint32_t>(all_load.count())};
  result.load_low = {low_load.mean(),
                     static_cast<std::uint32_t>(low_load.count())};
  result.load_best = {best_load.mean(),
                      static_cast<std::uint32_t>(best_load.count())};

  result.top5_connection_share = tstats.top_connection_payload_share(0.05);
  result.connection_payloads = tstats.undirected_payload_counts();
  // Equal-count ties: the single-threaded engine keeps them in hash-map
  // iteration order, which its goldens pin; the sharded engine's merged
  // map is rebuilt shard by shard, so it breaks them by endpoint to stay
  // identical at every shard count.
  const bool by_endpoint = engine_.sharded();
  std::sort(result.connection_payloads.begin(),
            result.connection_payloads.end(),
            [by_endpoint](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return by_endpoint && a.first < b.first;
            });
  result.node_payloads.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    result.node_payloads[id] = tstats.node_sent_payload(id);
  }
  result.client_coords = topo_.client_coords;
  if (needs_best_) result.best_nodes = oracle_best_;

  // Per-shard send counters sum into the run-wide vector.
  result.payload_tx_per_message = std::move(shards_.front().payload_tx);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    for (std::uint32_t i = 0; i < num_messages_; ++i) {
      result.payload_tx_per_message[i] += shards_[s].payload_tx[i];
    }
  }
  result.trace = trace_log_;
  result.peak_simultaneous_connections = peak_simultaneous_;
  result.messages_garbage_collected = gc_collected_;

  if (wrap_noise_) {
    stats::RunningStat c_est;
    for (const auto& stack : nodes_) {
      if (stack->noisy) c_est.add(stack->noisy->eager_rate_estimate());
    }
    result.mean_eager_rate_estimate = c_est.mean();
  } else {
    result.mean_eager_rate_estimate = std::numeric_limits<double>::quiet_NaN();
  }
  // Emergent-structure analysis: reconstruct the per-message dissemination
  // trees from the trace and aggregate their structure metrics, run-wide
  // and per scenario phase window (messages attributed by send time, the
  // same rule PhaseWindows uses).
  if (config_.collect_tree_stats && trace_log_) {
    obs::TreeStatsOptions topt;
    topt.ranked = closeness_order_;
    topt.top_fraction = report_fraction;
    topt.paths = path_model_.get();
    auto tree = std::make_shared<obs::TreeStats>(
        obs::analyze_trees(*trace_log_, topt));
    // All-pairs mean one-way overlay latency: the strategy-independent
    // baseline for the tree-edge latency comparison, derived from the
    // closeness pass of the world stage.
    double closeness_total = 0.0;
    for (const double s : closeness_sums_) closeness_total += s;
    const double ordered_pairs =
        static_cast<double>(n) * static_cast<double>(n - 1);
    tree->overlay_mean_link_us =
        ordered_pairs > 0.0 ? closeness_total / ordered_pairs : 0.0;
    for (stats::PhaseReport& p : result.phase_reports) {
      obs::TreeStatsOptions wopt = topt;
      wopt.window_start = p.start;
      wopt.window_end = p.end;
      const obs::TreeStats w = obs::analyze_trees(*trace_log_, wopt);
      p.tree_edges = w.edges;
      p.tree_eager_edges = w.eager_edges;
      p.tree_eager_hop_share = w.eager_hop_share();
      p.tree_mean_edge_latency_ms = w.mean_edge_latency_ms();
    }
    result.tree_stats = std::move(tree);
  }

  // Footprints summed over the shards' copies: path-model replicas (with
  // their row work) and message arenas, whose intern tables never shrink,
  // so their final size is the run's peak.
  result.path_model_bytes = path_model_->memory_bytes();
  result.path_rows_computed = path_model_->rows_computed();
  result.path_row_evictions = path_model_->row_evictions();
  for (const Shard& shard : shards_) {
    result.arena_messages += shard.arena.size();
    result.arena_bytes += shard.arena.bytes();
    if (!shard.paths) continue;
    result.path_model_bytes += shard.paths->memory_bytes();
    result.path_rows_computed += shard.paths->rows_computed();
    result.path_row_evictions += shard.paths->row_evictions();
  }
  engine_.report(result);
  std::shared_ptr<obs::RunMetrics> metrics;
  if (config_.collect_metrics) {
    // The shard documents merge in shard order into the first one;
    // shards == 1 is the one-document case. Together they are one run.
    metrics = shards_.front().metrics;
    for (Shard& shard : shards_) {
      shard.tracker->finalize();
      if (shard.metrics != metrics) metrics->merge(*shard.metrics);
    }
    metrics->runs = 1;
    // Every exported scalar with a metrics key. Backpressure keys only
    // with the feature on, so backpressure-off documents stay
    // byte-identical with older builds.
    obs::MetricsRegistry& agg = metrics->aggregate;
    for (const RunScalar& s : run_scalars(result)) {
      if (s.json == nullptr || !s.exported(result) ||
          (s.when == RunScalar::When::backpressure && !config_.backpressure)) {
        continue;
      }
      const double gauge =
          std::visit([](auto v) { return static_cast<double>(v); }, s.value);
      if (s.merge == RunScalar::Merge::counter) {
        agg.add_counter(s.json, std::get<std::uint64_t>(s.value));
      } else {
        agg.gauge_max(s.json, gauge);
      }
    }
    if (result.tree_stats) {
      // Only merge-exact quantities go into the metrics document: counters
      // (sum), histograms (bucket-add) and one max-semantics gauge, so the
      // tree.* keys stay byte-identical across --reps at any --jobs.
      const obs::TreeStats& t = *result.tree_stats;
      agg.add_counter("tree.messages", t.messages);
      agg.add_counter("tree.edges", t.edges);
      agg.add_counter("tree.eager_edges", t.eager_edges);
      agg.add_counter("tree.eager_edges_from_top", t.eager_edges_from_top);
      agg.add_counter("tree.orphan_deliveries", t.orphan_deliveries);
      agg.add_counter("tree.interior_nodes", t.interior_nodes);
      agg.add_counter("tree.interior_top_ranked", t.interior_top_ranked);
      agg.add_counter("tree.jaccard_pairs", t.jaccard_pairs);
      agg.gauge_max("tree.overlay_mean_link_us", t.overlay_mean_link_us);
      agg.histogram("tree.edge_latency_us").merge(t.edge_latency_us);
      agg.histogram("tree.link_latency_us").merge(t.link_latency_us);
      agg.histogram("tree.depth").merge(t.depth);
      agg.histogram("tree.fanout").merge(t.fanout);
      agg.histogram("tree.stretch_pct").merge(t.stretch_pct);
      agg.histogram("tree.jaccard_permille").merge(t.jaccard_permille);
    }
  }
  result.metrics = std::move(metrics);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return Assembly(config).run();
}

}  // namespace esm::harness
