// esm_benchmark: runs one named workload per process through the public
// harness API, checks every op's simulated output against the workload's
// .exp expectations, and prints every metric by name with its unit. The
// last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}
//
//   esm_benchmark --workload paper_mix --seed 2007 --seconds 10 --trace 0
//   esm_benchmark --workload load_burst --trace 1 --spans spans.json
//   esm_benchmark --workload faults_observed --smoke
//
// Load model: a closed loop with one client. One op is one run_experiment
// call, and the next starts when the previous one returns. One pass is the
// workload's list of ops in order; passes repeat until --seconds have
// elapsed, except that the scale workloads run one cold op per process.
// --trace 0 prints the end-to-end metrics (medians over passes).
// --trace 1 re-runs the workload with spans around every call the benchmark
// makes into a layer, joins them with the layer-boundary counters that
// ExperimentResult carries, runs the packet-path microbenchmarks, and prints
// the per-layer metrics instead. README.md has the workloads, the metric
// table and the layer map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "core/scheduler.hpp"
#include "core/strategies.hpp"
#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario_text.hpp"
#include "load/workload.hpp"
#include "net/latency_model.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "obs/tree_stats.hpp"
#include "overlay/static_overlay.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace esm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- metric names

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"events_per_s", "events/s"}, {"peak_rss_mb", "MB"},
    {"allocs_per_event", "allocs/event"}, {"alloc_mb", "MB"},
};

// Printed with --trace 1. A layer time that is structurally zero on some
// workload (the layer does not run there) is reported as a share of the op
// time, so that every printed time is a measured, nonzero number.
constexpr MetricDef kPerLayer[] = {
    {"harness.run_s", "s"},
    {"harness.run_allocs", "count"},
    {"harness.allocs_per_event", "allocs/event"},
    {"harness.setup_share", "share"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.shard_windows", "count"},
    {"sim.shard_mailbox_packets", "count"},
    {"sim.shard_wait_share", "share"},
    {"sim.drv_ns_per_event", "ns"},
    {"sim.drv_ns_per_event_deep", "ns"},
    {"sim.drv_allocs_per_event", "allocs/event"},
    {"net.topology_s", "s"},
    {"net.topology_allocs", "count"},
    {"net.path_model_s", "s"},
    {"net.path_model_mb", "MB"},
    {"net.path_rows_computed", "count"},
    {"net.path_row_evictions", "count"},
    {"net.payload_packets", "count"},
    {"net.control_packets", "count"},
    {"net.bytes_mb", "MB"},
    {"net.egress_serialized_packets", "count"},
    {"net.egress_queue_delay_mean_ms", "sim_ms"},
    {"net.egress_peak_depth", "count"},
    {"net.buffer_drops", "count"},
    {"net.packets_lost", "count"},
    {"net.drv_ns_per_packet", "ns"},
    {"net.drv_allocs_per_packet", "allocs/packet"},
    {"overlay.build_share", "share"},
    {"core.payload_per_msg", "payloads/msg"},
    {"core.duplicate_payloads", "count"},
    {"core.useful_payload_share", "share"},
    {"core.iwants_sent", "count"},
    {"core.iwant_retries", "count"},
    {"core.recovery_stalled", "count"},
    {"core.recovery_gave_up", "count"},
    {"core.eager_deferred", "count"},
    {"core.replies_deferred", "count"},
    {"core.drops_readvertised", "count"},
    {"core.iwants_purged", "count"},
    {"core.drv_ns_per_eager_msg", "ns"},
    {"core.drv_allocs_per_eager_msg", "allocs/msg"},
    {"core.drv_ns_per_lazy_msg", "ns"},
    {"core.drv_allocs_per_lazy_msg", "allocs/msg"},
    {"load.build_plan_share", "share"},
    {"load.arrivals", "count"},
    {"fault.injected", "count"},
    {"obs.cost_share", "share"},
    {"obs.analyze_trees_share", "share"},
    {"obs.tree_edges", "count"},
    {"obs.recovery_episodes", "count"},
    {"trace.rows", "count"},
    {"trace.min_child_coverage", "share"},
    {"expect.evaluate_s", "s"},
    {"expect.checked", "count"},
    {"expect.failed", "count"},
};

// -------------------------------------------------------------------- spans

/// One traced call. Allocation counts are the counting allocator's deltas
/// over the span (all threads).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = -1;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// In-memory span recorder; inert unless enabled. Spans nest by call order.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    // Reserved up front so recording never allocates inside a span.
    if (enabled_) {
      spans_.reserve(1 << 16);
      stack_.reserve(8);
    }
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int open(const char* name, int op) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    const alloc::Snapshot a = alloc::snapshot();
    s.allocs = a.count;
    s.bytes = a.bytes;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    const alloc::Snapshot a = alloc::snapshot();
    s.allocs = a.count - s.allocs;
    s.bytes = a.bytes - s.bytes;
    stack_.pop_back();
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op
          << ", \"allocs\": " << s.allocs << ", \"bytes\": " << s.bytes << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int op)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------- workloads

const std::string kWorkloadsDir = ESM_BENCH_WORKLOADS_DIR;

struct Op {
  std::string name;
  harness::ExperimentConfig config;
  /// Trace, lifecycle metrics and tree analysis on (faults_observed).
  bool observed = false;
  expect::ExpectationSet checks;
};

struct Workload {
  std::vector<Op> ops;
  /// Warm, repeated workloads: one untimed op, then timed passes until
  /// --seconds have elapsed (at least two). Cold workloads (scale) run one
  /// pass of one op in a fresh process, because users pay that cold start
  /// on every run; their repeats are the benchmark's repeated runs.
  bool cold = false;
};

Op make_op(const std::string& name, const harness::ExperimentConfig& config,
           const std::vector<std::string>& exp_files) {
  Op op;
  op.name = name;
  op.config = config;
  for (const std::string& f : exp_files) {
    op.checks.merge(expect::load_expectation_file(kWorkloadsDir + "/" + f));
  }
  return op;
}

Workload paper_mix(std::uint64_t seed, bool smoke) {
  harness::ExperimentConfig base;
  base.seed = seed;
  base.num_nodes = smoke ? 60 : 100;
  base.num_messages = smoke ? 40 : 400;

  using harness::StrategySpec;
  StrategySpec radius = StrategySpec::make_radius(20.0);
  radius.monitor = harness::MonitorKind::ping;
  StrategySpec ranked = StrategySpec::make_ranked(0.2);
  ranked.use_gossip_rank = true;
  StrategySpec hybrid = StrategySpec::make_hybrid(20.0, 2, 0.2);
  hybrid.monitor = harness::MonitorKind::ping;
  StrategySpec adaptive;
  adaptive.kind = harness::StrategyKind::adaptive;

  struct Row {
    const char* name;
    StrategySpec strategy;
    harness::OverlayKind overlay;
    const char* payload_check;  // extra .exp file, or nullptr
  };
  const Row rows[] = {
      {"flat_pi0", StrategySpec::make_flat(0.0), harness::OverlayKind::cyclon,
       "paper_mix_pi0.exp"},
      {"flat_pi1", StrategySpec::make_flat(1.0), harness::OverlayKind::cyclon,
       "paper_mix_pi1.exp"},
      {"ttl_u2", StrategySpec::make_ttl(2), harness::OverlayKind::cyclon,
       nullptr},
      {"radius_ping", radius, harness::OverlayKind::cyclon, nullptr},
      {"ranked_gossip", ranked, harness::OverlayKind::cyclon, nullptr},
      {"hybrid_ping", hybrid, harness::OverlayKind::cyclon, nullptr},
      {"adaptive_hyparview", adaptive, harness::OverlayKind::hyparview,
       nullptr},
      {"flat_pi03_neem", StrategySpec::make_flat(0.3),
       harness::OverlayKind::neem, nullptr},
  };
  Workload w;
  for (const Row& row : rows) {
    harness::ExperimentConfig c = base;
    c.strategy = row.strategy;
    c.overlay_kind = row.overlay;
    std::vector<std::string> files = {"paper_mix.exp"};
    if (row.payload_check != nullptr) files.emplace_back(row.payload_check);
    w.ops.push_back(make_op(row.name, c, files));
  }
  return w;
}

Workload scale(std::uint64_t seed, std::uint32_t shards, bool smoke) {
  harness::ExperimentConfig c;
  c.seed = seed;
  // The smoke world stays small: topology set-up grows with the node count
  // (a 2k-node op takes ~3 s), and the smoke test must finish in 15 s.
  c.num_nodes = smoke ? 300 : 50'000;
  c.overlay_kind = harness::OverlayKind::static_random;
  c.strategy = harness::StrategySpec::make_flat(0.0);
  c.num_messages = smoke ? 4 : 8;
  c.mean_interval = 100 * kMillisecond;
  c.shards = shards;
  Workload w;
  w.cold = true;
  w.ops.push_back(make_op("scale", c, {"scale.exp"}));
  return w;
}

Workload load_burst(std::uint64_t seed, bool smoke) {
  harness::ExperimentConfig c;
  c.seed = seed;
  c.num_nodes = smoke ? 60 : 300;
  c.overlay_kind = harness::OverlayKind::static_random;
  c.strategy = harness::StrategySpec::make_flat(1.0);
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 32 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  c.workload.duration = (smoke ? 2 : 10) * kSecond;
  for (int p = 0; p < 8; ++p) {
    load::PublisherSpec pub;
    pub.arrival = load::ArrivalKind::burst;
    pub.rate = 40.0;
    c.workload.publishers.push_back(pub);
  }
  Workload w;
  c.backpressure = false;
  w.ops.push_back(make_op("backpressure_off", c, {"load_burst_off.exp"}));
  c.backpressure = true;
  w.ops.push_back(make_op("backpressure_on", c, {"load_burst_on.exp"}));
  return w;
}

Workload faults_observed(std::uint64_t seed, bool smoke) {
  struct Row {
    const char* scenario;
    bool ranked;
    std::uint32_t messages;
  };
  const Row rows[] = {
      {"kill_best_nodes", true, 600},
      {"burst_degrade", true, 800},
      // 400, not the example's 600 messages: at 600 the trace's payload
      // rows straddle 2^19 from seed to seed, and the vector's capacity
      // doubling swings peak RSS by 20 MB.
      {"churn_flux", false, 400},
      {"partition_heal", false, 600},
  };
  Workload w;
  for (const Row& row : rows) {
    harness::ExperimentConfig c;
    c.seed = seed;
    // Half the messages still reach the last phase of every scenario.
    c.num_messages = smoke ? row.messages / 2 : row.messages;
    if (row.ranked) {
      c.strategy.kind = harness::StrategyKind::ranked;
      c.strategy.use_gossip_rank = true;
    }
    c.scenario = harness::load_scenario_file(kWorkloadsDir + "/" +
                                             row.scenario + ".scn");
    c.collect_trace = true;
    c.collect_metrics = true;
    Op op = make_op(row.scenario, c, {std::string(row.scenario) + ".exp"});
    op.observed = true;
    w.ops.push_back(std::move(op));
  }
  return w;
}

/// Builds the named workload from the seed; throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  if (name == "paper_mix") {
    w = paper_mix(seed, smoke);
  } else if (name == "scale_50k") {
    w = scale(seed, 1, smoke);
  } else if (name == "scale_50k_shards2") {
    w = scale(seed, 2, smoke);
  } else if (name == "load_burst") {
    w = load_burst(seed, smoke);
  } else if (name == "faults_observed") {
    w = faults_observed(seed, smoke);
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  // Op i runs its own world (seed + i * 2^32): a pass then averages over
  // several topologies instead of repeating one, which keeps the work per
  // pass nearly the same from one --seed to the next.
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    w.ops[i].config.seed += static_cast<std::uint64_t>(i) << 32;
  }
  // The smoke test shrinks every workload to its first op.
  if (smoke) w.ops.resize(1);
  return w;
}

// ------------------------------------------------------------------ running

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-pass sums; metric name -> value.
using PassValues = std::map<std::string, double>;

class Bench {
 public:
  explicit Bench(bool trace) : tracer_(trace) {}

  Tracer& tracer() { return tracer_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Runs one op: the benchmark's own set-up calls (freed before the run),
  /// run_experiment, tree analysis for observed ops, then the checks.
  /// Adds the op's numbers to `pass` (nullptr for the warm-up op).
  void run_op(const Op& op, PassValues* pass) {
    ++attempted_;
    const int id = next_op_++;
    const std::size_t first_span = tracer_.spans().size();
    const harness::ExperimentConfig& c = op.config;
    bool ok = true;
    double setup_s = 0.0;
    double run_s = 0.0;
    harness::ExperimentResult r;
    obs::TreeStats tree;
    expect::Report report;
    std::uint64_t arrivals = 0;
    try {
      SpanScope op_span(tracer_, "op", id);
      const Clock::time_point t0 = Clock::now();
      arrivals = set_up_world(c, id);
      setup_s = seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      {
        SpanScope s(tracer_, "harness.run", id);
        r = harness::run_experiment(c);
      }
      run_s = seconds_since(t1);
      if (op.observed) {
        SpanScope s(tracer_, "obs.analyze_trees", id);
        obs::TreeStatsOptions topt;
        topt.ranked = r.best_nodes;
        tree = obs::analyze_trees(*r.trace, topt);
      }
      {
        SpanScope s(tracer_, "expect.evaluate", id);
        report = evaluate(op, r);
      }
      ok = report.ok();
      if (!ok) {
        std::fprintf(stderr, "esm_benchmark: op %s failed its checks:\n%s",
                     op.name.c_str(),
                     expect::format_report_kv(report).c_str());
      }
      if (tracer_.enabled() && op.observed) {
        // Observation cost measured from outside: the same op with
        // collection off. Observation is pure, so the event count matches.
        harness::ExperimentConfig plain = c;
        plain.collect_trace = false;
        plain.collect_metrics = false;
        SpanScope s(tracer_, "obs.baseline_run", id);
        const harness::ExperimentResult p = harness::run_experiment(plain);
        if (p.events_executed != r.events_executed) {
          std::fprintf(stderr,
                       "esm_benchmark: op %s: observation changed the run "
                       "(%llu vs %llu events)\n",
                       op.name.c_str(),
                       static_cast<unsigned long long>(p.events_executed),
                       static_cast<unsigned long long>(r.events_executed));
          ok = false;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esm_benchmark: op %s: %s\n", op.name.c_str(),
                   e.what());
      ok = false;
    }
    if (!ok) ++failed_;
    if (pass == nullptr) return;
    PassValues& p = *pass;
    p["setup_s"] += setup_s;
    p["wall_s"] += run_s;
    p["events"] += static_cast<double>(r.events_executed);
    if (tracer_.enabled()) {
      add_layers(p, id, first_span, r, tree, report, arrivals);
    }
  }

 private:
  /// The set-up calls run_experiment makes before it builds the node
  /// stacks, with the same params and seed; returns the plan size.
  std::uint64_t set_up_world(const harness::ExperimentConfig& c, int id) {
    const Rng root(c.seed);
    net::TopologyParams tp = c.topology;
    tp.num_clients = c.num_nodes;
    std::unique_ptr<net::Topology> topo;
    {
      SpanScope s(tracer_, "net.topology", id);
      topo = std::make_unique<net::Topology>(
          net::generate_topology(tp, c.seed));
    }
    {
      SpanScope s(tracer_, "net.path_model", id);
      net::make_path_model(*topo, c.path_model, c.path_cache_bytes).reset();
    }
    if (c.overlay_kind == harness::OverlayKind::static_random) {
      SpanScope s(tracer_, "overlay.build", id);
      overlay::CsrAdjacency::from_lists(overlay::build_symmetric_overlay(
          c.num_nodes, c.overlay.view_size, root.split(0x73746174ULL)));
    }
    std::uint64_t arrivals = 0;
    if (!c.workload.empty()) {
      SpanScope s(tracer_, "load.build_plan", id);
      arrivals = load::build_plan(c.workload, c.num_nodes,
                                  root.split(0x776b6c64ULL))
                     .size();
    }
    return arrivals;
  }

  static expect::Report evaluate(const Op& op,
                                 const harness::ExperimentResult& r) {
    expect::EvalInput in;
    in.trace = r.trace.get();
    if (!r.phase_reports.empty()) in.phases = &r.phase_reports;
    in.metrics = r.metrics.get();
    in.scalars = expect::parse_scalars(harness::format_result_kv(r));
    in.ranked = r.best_nodes;
    in.expected_deliveries = r.expected_deliveries;
    in.default_expected = r.live_nodes;
    in.round = op.config.retransmission_period;
    return expect::evaluate(op.checks, in);
  }

  /// Joins the op's spans with the layer-boundary counters of its result.
  void add_layers(PassValues& p, int id, std::size_t first_span,
                  const harness::ExperimentResult& r,
                  const obs::TreeStats& tree, const expect::Report& report,
                  std::uint64_t arrivals) {
    std::map<std::string, double> dur;
    std::map<std::string, double> allocs;
    double op_s = 0.0;
    double children_s = 0.0;
    const std::vector<Span>& spans = tracer_.spans();
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.op != id) continue;
      dur[s.name] += s.seconds();
      allocs[s.name] += static_cast<double>(s.allocs);
      if (s.parent < 0 && std::string(s.name) == "op") op_s = s.seconds();
      if (s.parent >= 0 &&
          std::string(spans[static_cast<std::size_t>(s.parent)].name) ==
              "op") {
        children_s += s.seconds();
      }
    }
    const double coverage = op_s > 0.0 ? children_s / op_s : 0.0;
    if (p.count("trace.min_child_coverage") == 0 ||
        coverage < p["trace.min_child_coverage"]) {
      p["trace.min_child_coverage"] = coverage;
    }
    const auto events = static_cast<double>(r.events_executed);
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    p["op_s"] += op_s;
    p["harness.run_s"] += dur["harness.run"];
    p["harness.run_allocs"] += allocs["harness.run"];
    p["setup_calls_s"] += dur["net.topology"] + dur["net.path_model"] +
                          dur["overlay.build"] + dur["load.build_plan"];
    p["sim.events"] += events;
    p["sim.shard_windows"] += u(r.shard_windows);
    p["sim.shard_mailbox_packets"] += u(r.shard_mailbox_packets);
    p["shard_busy_ms"] += r.shard_busy_ms;
    p["shard_wait_ms"] += r.shard_barrier_wait_ms;
    p["net.topology_s"] += dur["net.topology"];
    p["net.topology_allocs"] += allocs["net.topology"];
    p["net.path_model_s"] += dur["net.path_model"];
    p["net.path_model_mb"] = std::max(
        p["net.path_model_mb"], static_cast<double>(r.path_model_bytes) / kMiB);
    p["net.path_rows_computed"] += u(r.path_rows_computed);
    p["net.path_row_evictions"] += u(r.path_row_evictions);
    p["net.payload_packets"] += u(r.payload_packets);
    p["net.control_packets"] += u(r.control_packets);
    p["net.bytes_mb"] += static_cast<double>(r.total_bytes) / kMiB;
    p["net.egress_serialized_packets"] += u(r.egress_serialized_packets);
    p["egress_delay_weighted"] +=
        r.egress_queue_delay_mean_ms * u(r.egress_serialized_packets);
    p["net.egress_peak_depth"] =
        std::max(p["net.egress_peak_depth"], u(r.egress_peak_depth));
    p["net.buffer_drops"] += u(r.buffer_drops);
    p["net.packets_lost"] += u(r.packets_lost);
    p["overlay_s"] += dur["overlay.build"];
    p["payload_per_msg_sum"] += r.load_all.payload_per_msg;
    p["ops"] += 1.0;
    p["core.duplicate_payloads"] += u(r.duplicate_payloads);
    if (r.redundancy_ratio > 0.0) {
      p["first_deliveries"] += u(r.payload_packets) / r.redundancy_ratio;
    }
    p["core.iwants_sent"] += u(r.requests_sent);
    p["core.iwant_retries"] += u(r.iwant_retries);
    p["core.recovery_stalled"] += u(r.recovery_stalled);
    p["core.recovery_gave_up"] += u(r.recovery_gave_up);
    p["core.eager_deferred"] += u(r.eager_deferred);
    p["core.replies_deferred"] += u(r.replies_deferred);
    p["core.drops_readvertised"] += u(r.drops_readvertised);
    p["core.iwants_purged"] += u(r.iwants_purged);
    p["plan_s"] += dur["load.build_plan"];
    p["load.arrivals"] += u(arrivals);
    p["fault.injected"] += u(r.faults_injected);
    if (dur.count("obs.baseline_run") != 0) {
      p["obs_cost_s"] += dur["harness.run"] + dur["obs.analyze_trees"] +
                         dur["expect.evaluate"] - dur["obs.baseline_run"];
    }
    p["analyze_s"] += dur["obs.analyze_trees"];
    p["obs.tree_edges"] += u(tree.edges);
    p["obs.recovery_episodes"] +=
        r.metrics ? u(r.metrics->aggregate.counter("recovery_episodes")) : 0.0;
    p["trace.rows"] +=
        r.trace ? u(r.trace->deliveries().size() + r.trace->payloads().size())
                : 0.0;
    p["expect.evaluate_s"] += dur["expect.evaluate"];
    p["expect.checked"] += u(report.checked());
    p["expect.failed"] += u(report.failed);
  }

  Tracer tracer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int next_op_ = 0;
};

/// Ratios that are defined over a whole pass, from its sums.
void finish_layer_pass(PassValues& p) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  p["harness.allocs_per_event"] =
      ratio(p["harness.run_allocs"], p["sim.events"]);
  // run_experiment makes the same set-up calls before it builds the node
  // stacks, so this is the share of harness.run_s that is world set-up;
  // the rest is stack build and event execution.
  p["harness.setup_share"] = ratio(p["setup_calls_s"], p["harness.run_s"]);
  p["sim.ns_per_event"] = ratio(p["harness.run_s"] * 1e9, p["sim.events"]);
  p["sim.shard_wait_share"] =
      ratio(p["shard_wait_ms"], p["shard_busy_ms"] + p["shard_wait_ms"]);
  p["net.egress_queue_delay_mean_ms"] =
      ratio(p["egress_delay_weighted"], p["net.egress_serialized_packets"]);
  p["overlay.build_share"] = ratio(p["overlay_s"], p["op_s"]);
  p["core.payload_per_msg"] = ratio(p["payload_per_msg_sum"], p["ops"]);
  p["core.useful_payload_share"] =
      ratio(p["first_deliveries"], p["net.payload_packets"]);
  p["load.build_plan_share"] = ratio(p["plan_s"], p["op_s"]);
  p["obs.cost_share"] = ratio(p["obs_cost_s"], p["op_s"]);
  p["obs.analyze_trees_share"] = ratio(p["analyze_s"], p["op_s"]);
}

// ------------------------------------------------ packet-path microbenchmarks
//
// Each drives one layer through its public API on a fixed synthetic load and
// reports wall time and allocations per unit of work: the per-layer baseline
// that packet-path optimisations (allocation-free steady state, heap layout)
// are judged against.

struct MicroResult {
  double ns_per_unit = 0.0;
  double allocs_per_unit = 0.0;
};

/// Times `body`, which returns the number of units of work it did.
template <typename F>
MicroResult measure(F&& body) {
  const alloc::Snapshot a0 = alloc::snapshot();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t units = body();
  const double s = seconds_since(t0);
  const alloc::Snapshot a1 = alloc::snapshot();
  if (units == 0) throw std::runtime_error("microbenchmark did no work");
  return {s * 1e9 / static_cast<double>(units),
          static_cast<double>(a1.count - a0.count) /
              static_cast<double>(units)};
}

/// Hold model on the event queue: `depth` pending events; every fired
/// event arms and cancels a timer (the retransmission pattern) and
/// schedules its successor, until `events` have fired.
struct HoldLoop {
  sim::Simulator sim;
  Rng rng;
  std::uint64_t remaining = 0;
  SimTime mean_delay = kMillisecond;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    sim.cancel(sim.schedule_after(4 * mean_delay, [] {}));
    schedule_next();
  }
  void schedule_next() {
    const auto delay = 1 + static_cast<SimTime>(rng.below(
                               static_cast<std::uint64_t>(2 * mean_delay)));
    sim.schedule_after(delay, [this] { fire(); });
  }
};

MicroResult micro_simulator(std::size_t depth, std::uint64_t events,
                             std::uint64_t seed) {
  HoldLoop loop;
  loop.rng = Rng(seed);
  loop.remaining = events;
  return measure([&] {
    for (std::size_t i = 0; i < depth; ++i) loop.schedule_next();
    loop.sim.run();
    return loop.sim.events_executed();
  });
}

struct ProbePacket final : net::Packet {};

/// Transport::send to a handler through a serialized (100 Mb/s), bounded
/// (1 MiB, drop-oldest) egress, in bursts of 64 packets.
MicroResult micro_transport(std::uint64_t packets, std::uint64_t seed) {
  sim::Simulator sim;
  const net::ConstantLatencyModel latency(kMillisecond);
  net::TransportOptions options;
  options.bandwidth_bps = 100'000'000;
  options.egress_buffer_bytes = 1 << 20;
  options.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  net::Transport transport(sim, latency, 2, options, Rng(seed));
  std::uint64_t delivered = 0;
  transport.register_handler(
      1, [&delivered](NodeId, const net::PacketPtr&) { ++delivered; });
  const net::PacketPtr packet = std::make_shared<ProbePacket>();
  std::uint64_t sent = 0;
  const MicroResult result = measure([&] {
    while (sent < packets) {
      for (int i = 0; i < 64; ++i, ++sent) {
        transport.send(0, 1, packet, 280, /*is_payload=*/true);
      }
      sim.run();
    }
    return sent;
  });
  if (delivered != sent || transport.buffer_drops() != 0) {
    throw std::runtime_error("transport microbenchmark lost packets");
  }
  return result;
}

/// PayloadScheduler between two nodes: pi = 1 pushes every payload eagerly,
/// pi = 0 takes the lazy IHAVE -> IWANT -> MSG path.
MicroResult micro_scheduler(double pi, std::uint64_t messages,
                             std::uint64_t seed) {
  sim::Simulator sim;
  const net::ConstantLatencyModel latency(kMillisecond);
  net::Transport transport(sim, latency, 2, {}, Rng(seed));
  core::FlatStrategy strategy(pi, {}, Rng(seed + 1));
  std::uint64_t delivered = 0;
  core::PayloadScheduler sender(
      sim, transport, 0, strategy,
      [](const core::AppMessage&, Round, NodeId) {});
  core::PayloadScheduler receiver(
      sim, transport, 1, strategy,
      [&delivered](const core::AppMessage&, Round, NodeId) { ++delivered; });
  transport.register_handler(
      0, [&sender](NodeId src, const net::PacketPtr& p) {
        sender.handle_packet(src, p);
      });
  transport.register_handler(
      1, [&receiver](NodeId src, const net::PacketPtr& p) {
        receiver.handle_packet(src, p);
      });
  core::AppMessage msg;
  msg.origin = 0;
  msg.payload_bytes = 256;
  const MicroResult result = measure([&] {
    for (std::uint64_t i = 0; i < messages; ++i) {
      msg.id = MsgId{seed, i + 1};
      msg.seq = static_cast<std::uint32_t>(i);
      sender.l_send(msg, 1, 1);
      sim.run();
    }
    return messages;
  });
  if (delivered != messages) {
    throw std::runtime_error("scheduler microbenchmark lost messages");
  }
  return result;
}

void run_micros(PassValues& out, std::uint64_t seed, bool smoke) {
  const std::uint64_t scale = smoke ? 100 : 1;
  const MicroResult shallow = micro_simulator(64, 2'000'000 / scale, seed);
  const MicroResult deep =
      micro_simulator(smoke ? 4096 : 1 << 18, 1'000'000 / scale, seed);
  out["sim.drv_ns_per_event"] = shallow.ns_per_unit;
  out["sim.drv_ns_per_event_deep"] = deep.ns_per_unit;
  out["sim.drv_allocs_per_event"] =
      std::max(shallow.allocs_per_unit, deep.allocs_per_unit);
  const MicroResult net = micro_transport(500'000 / scale, seed);
  out["net.drv_ns_per_packet"] = net.ns_per_unit;
  out["net.drv_allocs_per_packet"] = net.allocs_per_unit;
  const MicroResult eager = micro_scheduler(1.0, 100'000 / scale, seed);
  out["core.drv_ns_per_eager_msg"] = eager.ns_per_unit;
  out["core.drv_allocs_per_eager_msg"] = eager.allocs_per_unit;
  const MicroResult lazy = micro_scheduler(0.0, 100'000 / scale, seed);
  out["core.drv_ns_per_lazy_msg"] = lazy.ns_per_unit;
  out["core.drv_allocs_per_lazy_msg"] = lazy.allocs_per_unit;
}

// ---------------------------------------------------------------- reporting

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First and third quartile by the exclusive method (Python's
/// statistics.quantiles default); min and max when n < 4.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return {0.0, 0.0};
  if (n < 4) return {v.front(), v.back()};
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = i * m / 4;
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2007;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

int usage(const char* error) {
  std::fprintf(stderr,
               "esm_benchmark: %s\n"
               "usage: esm_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--smoke]\n"
               "workloads: paper_mix scale_50k scale_50k_shards2 load_burst "
               "faults_observed\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage((flag + " requires a value").c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed: not a number");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds: must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace: 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");

  Workload workload;
  try {
    workload = make_workload(opt.workload, opt.seed, opt.smoke);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  Bench bench(opt.trace);
  std::map<std::string, std::vector<double>> series;
  const bool repeat = !workload.cold && !opt.smoke;
  if (repeat) bench.run_op(workload.ops.front(), nullptr);
  const Clock::time_point start = Clock::now();
  std::size_t passes = 0;
  do {
    ++passes;
    PassValues pass;
    const alloc::Snapshot a0 = alloc::snapshot();
    for (const Op& op : workload.ops) bench.run_op(op, &pass);
    const alloc::Snapshot a1 = alloc::snapshot();
    if (opt.trace) {
      finish_layer_pass(pass);
    } else {
      pass["events_per_s"] =
          pass["wall_s"] > 0.0 ? pass["events"] / pass["wall_s"] : 0.0;
      pass["allocs_per_event"] =
          pass["events"] > 0.0
              ? static_cast<double>(a1.count - a0.count) / pass["events"]
              : 0.0;
      pass["alloc_mb"] = static_cast<double>(a1.bytes - a0.bytes) / kMiB;
    }
    for (const auto& [name, value] : pass) series[name].push_back(value);
  } while (repeat && (passes < 2 || seconds_since(start) < opt.seconds));

  if (opt.trace) {
    PassValues micros;
    try {
      run_micros(micros, opt.seed, opt.smoke);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esm_benchmark: %s\n", e.what());
      return 1;
    }
    for (const auto& [name, value] : micros) series[name].push_back(value);
    if (!opt.spans_path.empty() &&
        !bench.tracer().write_json(opt.spans_path)) {
      std::fprintf(stderr, "esm_benchmark: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  } else {
    series["peak_rss_mb"].push_back(peak_rss_mb());
  }

  std::printf("esm_benchmark %s seed=%llu %s run: %zu passes, %llu ops, "
              "%llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", passes,
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()));
  std::printf("%-34s %-13s %14s %14s %14s %3s\n", "metric", "unit", "median",
              "q1|min", "q3|max", "n");
  std::string json;
  char buf[512];
  auto print_all = [&](const auto& defs) {
    for (const MetricDef& def : defs) {
      const std::vector<double>& values = series[def.name];
      const double med = median(values);
      const auto [lo, hi] = quartiles(values);
      std::printf("%-34s %-13s %14.6g %14.6g %14.6g %3zu\n", def.name,
                  def.unit, med, lo, hi, values.size());
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", def.name, med, def.unit);
      json += buf;
    }
  };
  if (opt.trace) {
    print_all(kPerLayer);
  } else {
    print_all(kEndToEnd);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              bench.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(bench.attempted()),
              static_cast<unsigned long long>(bench.failed()), json.c_str());
  return 0;
}
