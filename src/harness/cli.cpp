#include "harness/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <sstream>

#include "common/text_input.hpp"

namespace esm::harness {

std::string cli_help_text() {
  return R"(esm_run — run one emergent-structure multicast experiment

Strategy selection:
  --strategy NAME     flat | ttl | radius | ranked | hybrid | adaptive
                                                               (default flat)
  --pi P              flat: eager probability                  (default 1.0)
  --u N               ttl/hybrid: eager while round < N
  --rho MS            radius/hybrid: metric radius (ms, or coordinate units
                      with --monitor distance)
  --best F            ranked/hybrid: best-node fraction        (default 0.2)
  --gossip-rank       estimate the best set epidemically instead of oracle
  --monitor NAME      oracle | distance | ping | piggyback    (default oracle)
  --noise O           noise ratio of Eager? decisions, 0..1    (default 0)
  --t0 MS             radius/hybrid first-request delay (0 = 2*rho)

Workload and network:
  --nodes N           virtual nodes                            (default 100)
  --messages N        multicasts                               (default 400)
  --payload BYTES     application payload per message          (default 256)
  --interval-ms MS    mean multicast spacing                   (default 500)
  --seed S            experiment seed                          (default 42)
  --path-model M      dense | ondemand | auto: pairwise path-metric storage.
                      dense keeps the N^2 latency/hop matrix; ondemand
                      computes path rows lazily under an LRU byte
                      budget (same values, bounded memory — required
                      for large --nodes). auto = dense up to 2048 nodes
                                                               (default auto)
  --path-cache-mb MB  on-demand row-cache budget               (default 256)
  --sender N          single-source mode: node N sends everything
  --loss P            packet loss probability                  (default 0)
  --bandwidth BPS     per-node egress bandwidth                (default 100M)
  --buffer BYTES      egress buffer bound, 0 = unbounded       (default 0)
  --purge POLICY      newest | oldest: what to drop when full  (default newest)
  --backpressure M    on | off: egress watermark backpressure into the
                      scheduler — defer eager pushes to IHAVE above the
                      high watermark, cap IWANT replies per destination,
                      re-advertise purged payloads. Needs --buffer > 0
                                                               (default off)
  --bp-high F         high watermark, fraction of --buffer     (default 0.75)
  --bp-low F          low watermark, fraction of --buffer      (default 0.50)
  --bp-replies N      IWANT replies per destination while congested
                                                               (default 4)
  --pull-sched P      random | rarest: pull-request scheduling (default random)
  --slow F            fraction of nodes provisioned slow       (default 0)
  --slow-bandwidth B  bandwidth of slow nodes
  --adaptive-fanout   scale fanout by node bandwidth

Heavy-traffic workload (replaces --messages/--interval-ms when present):
  --workload FILE     workload spec file: topics + publishers with their own
                      arrival processes (grammar in src/load/workload_text.hpp)
  --senders K         K concurrent publishers, round-robin origins
  --arrival KIND      poisson | fixed | burst arrival process (default poisson)
  --rate R            per-publisher rate, messages/s           (default 10)
  --duration-ms MS    workload length after warm-up            (default 20000)
  --burst-on-ms MS    burst arrivals: on-window length         (default 500)
  --burst-off-ms MS   burst arrivals: off-window length        (default 1500)
  --topics N          N topics; publisher p publishes to topic p mod N
  --topic-fraction F  fraction of nodes subscribed per topic   (default 0.25)

Protocol parameters:
  --fanout F          gossip fanout                            (default 11)
  --rounds T          max relay rounds                         (default 8)
  --degree D          overlay view size                        (default 15)
  --period-ms MS      retransmission period T                  (default 400)
  --retry-rounds N    max full passes over a message's advertisers before
                      its lazy recovery is abandoned; passes after the
                      first re-ask already-asked sources       (default 5)
  --batch-ms MS       IHAVE aggregation window                 (default 0)
  --overlay NAME      cyclon | static | hyparview | neem | oracle
                                                               (default cyclon)
  --oracle-sampler    alias for --overlay oracle
  --static-overlay    alias for --overlay static
  --exclude-sender    never relay a message back to the peer it came from
  --wire              serialize every packet through the real wire codec

Failures:
  --kill F            fraction of nodes silenced after warm-up (default 0)
  --kill-mode MODE    random | best                            (default random)
  --churn RATE        continuous churn: RATE membership events per second
  --scenario FILE     scripted fault timeline (crashes, partitions, loss
                      bursts, churn, noise ramps, phase markers); see
                      docs/PROTOCOL.md for the grammar. Event times are
                      relative to the end of warm-up. Adds per-phase
                      windowed metrics to the output.

Execution:
  --reps N            replications with seeds seed..seed+N-1   (default 1)
  --jobs N            worker threads for --reps and sweeps; 0 or absent =
                      hardware concurrency. Results are bit-for-bit
                      identical at every job count.
  --shards N          partition the nodes of EACH run across N worker
                      threads advancing through conservative time windows
                      (default 1 = the single-threaded engine). Results
                      are bit-for-bit identical at every shard count >= 2;
                      composes with --jobs. Incompatible with --scenario,
                      --churn, --noise, --trace* and --tree-stats (also as
                      sweep points). Adds sim_shard_*
                      output lines; --metrics-out emits the sim.shard.*
                      execution block (no per-node lifecycle metrics).

Output:
  --kv                print key=value lines instead of the table
  --tree-stats        reconstruct per-message first-delivery dissemination
                      trees from the run's trace and report their structure
                      metrics (eager-hop share, tree-edge latency vs the
                      overlay baseline, interior-node concentration on
                      top-ranked nodes, depth, stretch, consecutive-tree
                      Jaccard overlap); adds tree_* output lines, tree.*
                      metrics JSON keys and per-phase tree columns
  --metrics-out FILE  write per-node + aggregated metrics and recovery
                      lifecycle accounting as JSON (schema esm-metrics-v1;
                      merged across --reps, bit-for-bit identical at every
                      --jobs count). FILE may be - for stdout (the summary
                      is suppressed there).
  --trace FILE        buffer the run's event trace and write it as CSV at
                      the end (single run only); feed it to esm_trees for
                      offline tree analysis
  --trace-stream FILE stream trace rows to FILE while the run executes;
                      memory stays bounded at large N (single run only,
                      incompatible with --trace and --tree-stats). FILE may
                      be - for stdout (the summary is suppressed there).
  --expect FILE       evaluate the declarative expectations in FILE (.exp,
                      PROTOCOL.md section 7c) against the finished run:
                      per-phase delivery/latency bounds, recovery bounds,
                      structure assertions, tree-shape recognizers, scalar
                      metric bounds. Repeatable (files compose); prints a
                      per-expectation pass/fail report, adds expect.*
                      counters to --metrics-out JSON, exits 3 on violation.
                      Trace predicates imply buffered trace collection and
                      need --shards 1; metric/recovery counter bounds work
                      at any shard count. Single run only.
  --help              this text
)";
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error) {
  CliOptions options;
  ExperimentConfig& c = options.config;
  StrategySpec& s = c.strategy;

  // Inline heavy-traffic workload flags, assembled into config.workload
  // after the loop (only when --senders was given).
  std::uint64_t wl_senders = 0;
  double wl_rate = 10.0;
  load::ArrivalKind wl_arrival = load::ArrivalKind::poisson;
  SimTime wl_duration = 20 * kSecond;
  SimTime wl_burst_on = 500 * kMillisecond;
  SimTime wl_burst_off = 1500 * kMillisecond;
  std::uint64_t wl_topics = 0;
  double wl_topic_fraction = 0.25;
  bool wl_aux_seen = false;  // any workload flag other than --senders

  std::size_t i = 0;
  auto next_value = [&](const std::string& flag, std::string& out) {
    if (i + 1 >= args.size()) {
      error = flag + " requires a value";
      return false;
    }
    out = args[++i];
    return true;
  };
  auto next_double = [&](const std::string& flag, double& out) {
    std::string v;
    if (!next_value(flag, v)) return false;
    const std::optional<double> parsed = text::parse_double(v);
    if (!parsed) {
      error = flag + ": not a number: " + v;
      return false;
    }
    out = *parsed;
    return true;
  };
  auto next_uint = [&]<typename T>(const std::string& flag, T& out) {
    std::string v;
    if (!next_value(flag, v)) return false;
    const std::optional<T> parsed = text::parse_uint<T>(v);
    if (!parsed) {
      error = flag + ": must be " + text::integer_range<T>() + ", got '" + v +
              "'";
      return false;
    }
    out = *parsed;
    return true;
  };

  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    std::uint64_t u64 = 0;
    double d = 0.0;
    std::string v;
    if (flag == "--help") {
      options.help = true;
      return options;
    } else if (flag == "--kv") {
      options.json = true;
    } else if (flag == "--strategy") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "flat") {
        s.kind = StrategyKind::flat;
      } else if (v == "ttl") {
        s.kind = StrategyKind::ttl;
      } else if (v == "radius") {
        s.kind = StrategyKind::radius;
      } else if (v == "ranked") {
        s.kind = StrategyKind::ranked;
      } else if (v == "hybrid") {
        s.kind = StrategyKind::hybrid;
      } else if (v == "adaptive") {
        s.kind = StrategyKind::adaptive;
      } else {
        error = "--strategy: unknown strategy: " + v;
        return std::nullopt;
      }
    } else if (flag == "--monitor") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "oracle") {
        s.monitor = MonitorKind::oracle_latency;
      } else if (v == "distance") {
        s.monitor = MonitorKind::distance;
      } else if (v == "ping") {
        s.monitor = MonitorKind::ping;
      } else if (v == "piggyback") {
        s.monitor = MonitorKind::piggyback;
      } else {
        error = "--monitor: unknown monitor: " + v;
        return std::nullopt;
      }
    } else if (flag == "--kill-mode") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "random") {
        c.kill_mode = KillMode::random;
      } else if (v == "best") {
        c.kill_mode = KillMode::best_ranked;
      } else {
        error = "--kill-mode: unknown mode: " + v;
        return std::nullopt;
      }
    } else if (flag == "--pi") {
      if (!next_double(flag, s.pi)) return std::nullopt;
    } else if (flag == "--u") {
      if (!next_uint(flag, s.u)) return std::nullopt;
    } else if (flag == "--rho") {
      if (!next_double(flag, s.rho)) return std::nullopt;
    } else if (flag == "--best") {
      if (!next_double(flag, s.best_fraction)) return std::nullopt;
    } else if (flag == "--noise") {
      if (!next_double(flag, s.noise)) return std::nullopt;
    } else if (flag == "--t0") {
      if (!next_double(flag, d)) return std::nullopt;
      s.t0 = static_cast<SimTime>(d * kMillisecond);
    } else if (flag == "--gossip-rank") {
      s.use_gossip_rank = true;
    } else if (flag == "--nodes") {
      if (!next_uint(flag, c.num_nodes)) return std::nullopt;
    } else if (flag == "--messages") {
      if (!next_uint(flag, c.num_messages)) return std::nullopt;
    } else if (flag == "--payload") {
      if (!next_uint(flag, c.payload_bytes)) return std::nullopt;
    } else if (flag == "--interval-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      c.mean_interval = static_cast<SimTime>(u64) * kMillisecond;
    } else if (flag == "--seed") {
      if (!next_uint(flag, c.seed)) return std::nullopt;
    } else if (flag == "--shards") {
      if (!next_uint(flag, c.shards)) return std::nullopt;
      if (c.shards < 1) {
        error = "--shards: must be >= 1";
        return std::nullopt;
      }
    } else if (flag == "--path-model") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "dense") {
        c.path_model = net::PathModelKind::dense;
      } else if (v == "ondemand") {
        c.path_model = net::PathModelKind::ondemand;
      } else if (v == "auto") {
        c.path_model = net::PathModelKind::automatic;
      } else {
        error = "--path-model: unknown model: " + v;
        return std::nullopt;
      }
    } else if (flag == "--path-cache-mb") {
      if (!next_uint(flag, u64)) return std::nullopt;
      c.path_cache_bytes = static_cast<std::size_t>(u64) << 20;
    } else if (flag == "--sender") {
      if (!next_uint(flag, c.single_sender)) return std::nullopt;
    } else if (flag == "--loss") {
      if (!next_double(flag, c.loss_rate)) return std::nullopt;
    } else if (flag == "--bandwidth") {
      if (!next_uint(flag, c.bandwidth_bps)) return std::nullopt;
    } else if (flag == "--buffer") {
      if (!next_uint(flag, c.egress_buffer_bytes)) return std::nullopt;
    } else if (flag == "--purge") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "newest") {
        c.purge_policy = net::TransportOptions::PurgePolicy::drop_newest;
      } else if (v == "oldest") {
        c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
      } else {
        error = "--purge: unknown policy: " + v;
        return std::nullopt;
      }
    } else if (flag == "--backpressure") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "on") {
        c.backpressure = true;
      } else if (v == "off") {
        c.backpressure = false;
      } else {
        error = "--backpressure: expected on or off, got: " + v;
        return std::nullopt;
      }
    } else if (flag == "--bp-high") {
      if (!next_double(flag, c.bp_high_watermark)) return std::nullopt;
    } else if (flag == "--bp-low") {
      if (!next_double(flag, c.bp_low_watermark)) return std::nullopt;
    } else if (flag == "--bp-replies") {
      if (!next_uint(flag, c.bp_max_replies_per_dst)) return std::nullopt;
    } else if (flag == "--pull-sched") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "random") {
        c.pull_sched = core::PullOrder::random;
      } else if (v == "rarest") {
        c.pull_sched = core::PullOrder::rarest;
      } else {
        error = "--pull-sched: unknown policy: " + v;
        return std::nullopt;
      }
    } else if (flag == "--slow") {
      if (!next_double(flag, c.slow_fraction)) return std::nullopt;
    } else if (flag == "--slow-bandwidth") {
      if (!next_uint(flag, c.slow_bandwidth_bps)) return std::nullopt;
    } else if (flag == "--adaptive-fanout") {
      c.adaptive_fanout = true;
    } else if (flag == "--fanout") {
      if (!next_uint(flag, c.gossip.fanout)) return std::nullopt;
    } else if (flag == "--rounds") {
      if (!next_uint(flag, c.gossip.max_rounds)) return std::nullopt;
    } else if (flag == "--degree") {
      if (!next_uint(flag, c.overlay.view_size)) return std::nullopt;
    } else if (flag == "--period-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      c.retransmission_period = static_cast<SimTime>(u64) * kMillisecond;
    } else if (flag == "--retry-rounds") {
      if (!next_uint(flag, c.max_request_rounds)) return std::nullopt;
    } else if (flag == "--batch-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      c.ihave_batch_window = static_cast<SimTime>(u64) * kMillisecond;
    } else if (flag == "--overlay") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "cyclon") {
        c.overlay_kind = OverlayKind::cyclon;
      } else if (v == "static") {
        c.overlay_kind = OverlayKind::static_random;
      } else if (v == "hyparview") {
        c.overlay_kind = OverlayKind::hyparview;
      } else if (v == "neem") {
        c.overlay_kind = OverlayKind::neem;
      } else if (v == "oracle") {
        c.overlay_kind = OverlayKind::oracle;
      } else {
        error = "--overlay: unknown overlay: " + v;
        return std::nullopt;
      }
    } else if (flag == "--oracle-sampler") {  // alias for --overlay oracle
      c.overlay_kind = OverlayKind::oracle;
    } else if (flag == "--wire") {
      c.use_wire_codec = true;
    } else if (flag == "--static-overlay") {  // alias for --overlay static
      c.overlay_kind = OverlayKind::static_random;
    } else if (flag == "--exclude-sender") {
      c.gossip.exclude_sender = true;
    } else if (flag == "--tree-stats") {
      c.collect_tree_stats = true;
    } else if (flag == "--churn") {
      if (!next_double(flag, c.churn_rate)) return std::nullopt;
    } else if (flag == "--scenario") {
      if (!next_value(flag, options.scenario_path)) return std::nullopt;
    } else if (flag == "--kill") {
      if (!next_double(flag, c.kill_fraction)) return std::nullopt;
      if (c.kill_mode == KillMode::none) c.kill_mode = KillMode::random;
    } else if (flag == "--workload") {
      if (!next_value(flag, options.workload_path)) return std::nullopt;
    } else if (flag == "--senders") {
      if (!next_uint(flag, wl_senders)) return std::nullopt;
      if (wl_senders == 0) {
        error = "--senders: must be >= 1";
        return std::nullopt;
      }
    } else if (flag == "--rate") {
      if (!next_double(flag, d)) return std::nullopt;
      if (!std::isfinite(d) || d <= 0.0) {
        error = "--rate: must be > 0";
        return std::nullopt;
      }
      wl_rate = d;
      wl_aux_seen = true;
    } else if (flag == "--arrival") {
      if (!next_value(flag, v)) return std::nullopt;
      if (v == "poisson") {
        wl_arrival = load::ArrivalKind::poisson;
      } else if (v == "fixed") {
        wl_arrival = load::ArrivalKind::fixed_rate;
      } else if (v == "burst") {
        wl_arrival = load::ArrivalKind::burst;
      } else {
        error = "--arrival: unknown kind: " + v;
        return std::nullopt;
      }
      wl_aux_seen = true;
    } else if (flag == "--duration-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      if (u64 == 0) {
        error = "--duration-ms: must be > 0";
        return std::nullopt;
      }
      wl_duration = static_cast<SimTime>(u64) * kMillisecond;
      wl_aux_seen = true;
    } else if (flag == "--burst-on-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      if (u64 == 0) {
        error = "--burst-on-ms: must be > 0";
        return std::nullopt;
      }
      wl_burst_on = static_cast<SimTime>(u64) * kMillisecond;
      wl_aux_seen = true;
    } else if (flag == "--burst-off-ms") {
      if (!next_uint(flag, u64)) return std::nullopt;
      wl_burst_off = static_cast<SimTime>(u64) * kMillisecond;
      wl_aux_seen = true;
    } else if (flag == "--topics") {
      if (!next_uint(flag, wl_topics)) return std::nullopt;
      if (wl_topics == 0) {
        error = "--topics: must be >= 1";
        return std::nullopt;
      }
      wl_aux_seen = true;
    } else if (flag == "--topic-fraction") {
      if (!next_double(flag, d)) return std::nullopt;
      if (!std::isfinite(d) || d <= 0.0 || d > 1.0) {
        error = "--topic-fraction: must be in (0, 1]";
        return std::nullopt;
      }
      wl_topic_fraction = d;
      wl_aux_seen = true;
    } else {
      error = "unknown flag: " + flag;
      return std::nullopt;
    }
  }

  if (wl_aux_seen && wl_senders == 0 && options.workload_path.empty()) {
    error = "--senders: required when other workload flags are given";
    return std::nullopt;
  }
  if (c.backpressure && c.egress_buffer_bytes == 0) {
    error = "--backpressure on: requires a bounded egress buffer (--buffer)";
    return std::nullopt;
  }
  // Parse-time view of the --shards gates; run_experiment re-checks the
  // final config, catching flags the tools apply after parsing.
  error = shard_gate_error(c, !options.scenario_path.empty());
  if (!error.empty()) return std::nullopt;
  if ((wl_senders > 0 || wl_aux_seen) && !options.workload_path.empty()) {
    error = "--workload: cannot be combined with inline workload flags";
    return std::nullopt;
  }
  if (wl_senders > 0) {
    load::WorkloadSpec& wl = c.workload;
    wl.duration = wl_duration;
    for (std::uint64_t t = 0; t < wl_topics; ++t) {
      load::TopicSpec topic;
      topic.name = "t" + std::to_string(t);
      topic.fraction = wl_topic_fraction;
      wl.topics.push_back(topic);
    }
    for (std::uint64_t p = 0; p < wl_senders; ++p) {
      load::PublisherSpec pub;
      pub.arrival = wl_arrival;
      pub.rate = wl_rate;
      pub.burst_on = wl_burst_on;
      pub.burst_off = wl_burst_off;
      if (wl_topics > 0) pub.topic = static_cast<std::uint32_t>(p % wl_topics);
      wl.publishers.push_back(pub);
    }
    try {
      wl.validate(c.num_nodes);
    } catch (const std::exception& ex) {
      error = ex.what();
      return std::nullopt;
    }
  }
  return options;
}

namespace {

/// A sweep value for an integer parameter: whole and in [lo, T's max].
template <typename T>
bool sweep_uint(const std::string& name, double value, T& out,
                std::string& error, T lo = 0) {
  if (value >= static_cast<double>(lo) && value == std::floor(value) &&
      value < static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
    out = static_cast<T>(value);
    return true;
  }
  std::ostringstream os;
  os.precision(17);
  os << name << ": must be " << text::integer_range<T>(lo) << ", got "
     << value;
  error = os.str();
  return false;
}

}  // namespace

bool apply_sweep_param(ExperimentConfig& config, const std::string& name,
                       double value, std::string& error) {
  if (std::find(kSweepParams.begin(), kSweepParams.end(), name) ==
      kSweepParams.end()) {
    error = "unknown sweep parameter: " + name;
    return false;
  }
  if (name == "pi") {
    config.strategy.pi = value;
  } else if (name == "u") {
    if (!sweep_uint(name, value, config.strategy.u, error)) return false;
  } else if (name == "rho") {
    config.strategy.rho = value;
  } else if (name == "best") {
    config.strategy.best_fraction = value;
  } else if (name == "noise") {
    config.strategy.noise = value;
  } else if (name == "t0-ms") {
    config.strategy.t0 = static_cast<SimTime>(value * kMillisecond);
  } else if (name == "loss") {
    config.loss_rate = value;
  } else if (name == "kill") {
    config.kill_fraction = value;
    if (config.kill_mode == KillMode::none && value > 0.0) {
      config.kill_mode = KillMode::random;
    }
  } else if (name == "churn") {
    config.churn_rate = value;
  } else if (name == "batch-ms") {
    config.ihave_batch_window = static_cast<SimTime>(value * kMillisecond);
  } else if (name == "interval-ms") {
    config.mean_interval = static_cast<SimTime>(value * kMillisecond);
  } else if (name == "period-ms") {
    config.retransmission_period = static_cast<SimTime>(value * kMillisecond);
  } else if (name == "retry-rounds") {
    if (!sweep_uint(name, value, config.max_request_rounds, error)) {
      return false;
    }
  } else if (name == "fanout") {
    if (!sweep_uint(name, value, config.gossip.fanout, error)) return false;
  } else if (name == "nodes") {
    if (!sweep_uint(name, value, config.num_nodes, error)) return false;
  } else if (name == "messages") {
    if (!sweep_uint(name, value, config.num_messages, error)) return false;
  } else if (name == "seed") {
    if (!sweep_uint(name, value, config.seed, error)) return false;
  } else if (name == "shards") {
    if (!sweep_uint(name, value, config.shards, error, 1u)) return false;
  } else if (name == "backpressure") {
    if (value != 0.0 && config.egress_buffer_bytes == 0) {
      error = "backpressure: requires a bounded egress buffer (--buffer)";
      return false;
    }
    config.backpressure = value != 0.0;
  } else if (name == "senders") {
    std::uint32_t k = 0;
    if (!sweep_uint(name, value, k, error, 1u)) return false;
    // Grow/shrink the publisher pool, cloning the first spec so a sweep
    // over k keeps whatever arrival process the base config set up.
    const load::PublisherSpec proto = config.workload.publishers.empty()
                                          ? load::PublisherSpec{}
                                          : config.workload.publishers.front();
    config.workload.publishers.assign(k, proto);
    if (!config.workload.topics.empty()) {
      for (std::size_t p = 0; p < k; ++p) {
        config.workload.publishers[p].topic =
            static_cast<std::uint32_t>(p % config.workload.topics.size());
      }
    }
  } else if (name == "rate") {
    if (!(value > 0.0)) {
      error = "rate: must be > 0";
      return false;
    }
    if (config.workload.empty()) {
      error = "rate: requires a workload (--senders or --workload)";
      return false;
    }
    for (auto& pub : config.workload.publishers) pub.rate = value;
  } else if (name == "duration-ms") {
    if (!(value > 0.0)) {
      error = "duration-ms: must be > 0";
      return false;
    }
    config.workload.duration = static_cast<SimTime>(value * kMillisecond);
  } else if (name == "burst-on-ms") {
    if (!(value > 0.0)) {
      error = "burst-on-ms: must be > 0";
      return false;
    }
    if (config.workload.empty()) {
      error = "burst-on-ms: requires a workload (--senders or --workload)";
      return false;
    }
    for (auto& pub : config.workload.publishers) {
      pub.burst_on = static_cast<SimTime>(value * kMillisecond);
    }
  } else if (name == "burst-off-ms") {
    if (value < 0.0) {
      error = "burst-off-ms: must be >= 0";
      return false;
    }
    if (config.workload.empty()) {
      error = "burst-off-ms: requires a workload (--senders or --workload)";
      return false;
    }
    for (auto& pub : config.workload.publishers) {
      pub.burst_off = static_cast<SimTime>(value * kMillisecond);
    }
  }
  // A sweep point may enter a gated combination the base config was not
  // in (--param shards over --churn, --param noise over --shards 2).
  error = shard_gate_error(config);
  return error.empty();
}

std::optional<std::vector<double>> parse_value_list(const std::string& text,
                                                    std::string& error) {
  std::vector<double> values;
  std::string token;
  std::istringstream stream(text);
  while (std::getline(stream, token, ',')) {
    const std::optional<double> v = text::parse_double(token);
    if (!v) {
      error = "not a number in value list: " + token;
      return std::nullopt;
    }
    values.push_back(*v);
  }
  if (values.empty()) {
    error = "empty value list";
    return std::nullopt;
  }
  return values;
}

std::string format_result_kv(const ExperimentResult& result) {
  std::ostringstream os;
  os << "mean_latency_ms=" << result.mean_latency_ms << "\n"
     << "latency_ci95_ms=" << result.latency_ci95_ms << "\n"
     << "p50_latency_ms=" << result.p50_latency_ms << "\n"
     << "p95_latency_ms=" << result.p95_latency_ms << "\n"
     << "payload_per_delivery=" << result.payload_per_delivery << "\n"
     << "payload_per_msg_all=" << result.load_all.payload_per_msg << "\n"
     << "payload_per_msg_low=" << result.load_low.payload_per_msg << "\n"
     << "payload_per_msg_best=" << result.load_best.payload_per_msg << "\n"
     << "mean_delivery_fraction=" << result.mean_delivery_fraction << "\n"
     << "atomic_delivery_fraction=" << result.atomic_delivery_fraction << "\n"
     << "top5_connection_share=" << result.top5_connection_share << "\n"
     << "payload_packets=" << result.payload_packets << "\n"
     << "control_packets=" << result.control_packets << "\n"
     << "total_bytes=" << result.total_bytes << "\n"
     << "duplicate_payloads=" << result.duplicate_payloads << "\n"
     << "requests_sent=" << result.requests_sent << "\n"
     << "iwant_retries=" << result.iwant_retries << "\n"
     << "recovery_gave_up=" << result.recovery_gave_up << "\n"
     << "recovery_stalled=" << result.recovery_stalled << "\n"
     << "packets_lost=" << result.packets_lost << "\n"
     << "buffer_drops=" << result.buffer_drops << "\n"
     << "live_nodes=" << result.live_nodes << "\n"
     << "events_executed=" << result.events_executed << "\n"
     << "path_model_bytes=" << result.path_model_bytes << "\n"
     << "path_rows_computed=" << result.path_rows_computed << "\n"
     << "path_row_evictions=" << result.path_row_evictions << "\n"
     << "offered_msgs=" << result.offered_msgs << "\n"
     << "offered_msgs_per_s=" << result.offered_msgs_per_s << "\n"
     << "goodput_msgs_per_s=" << result.goodput_msgs_per_s << "\n"
     << "redundancy_ratio=" << result.redundancy_ratio << "\n"
     << "knee_time_ms=" << result.knee_time_ms << "\n"
     << "offtopic_deliveries=" << result.offtopic_deliveries << "\n"
     << "egress_serialized_packets=" << result.egress_serialized_packets
     << "\n"
     << "egress_queue_delay_mean_ms=" << result.egress_queue_delay_mean_ms
     << "\n"
     << "egress_queue_delay_max_ms=" << result.egress_queue_delay_max_ms
     << "\n"
     << "egress_peak_depth=" << result.egress_peak_depth << "\n"
     << "egress_peak_queued_bytes=" << result.egress_peak_queued_bytes
     << "\n"
     << "eager_deferred=" << result.eager_deferred << "\n"
     << "replies_deferred=" << result.replies_deferred << "\n"
     << "drops_readvertised=" << result.drops_readvertised << "\n"
     << "iwants_purged=" << result.iwants_purged << "\n"
     << "watermark_episodes=" << result.watermark_episodes << "\n"
     << "watermark_residency_ms=" << result.watermark_residency_ms << "\n";
  if (result.shards_used >= 2) {
    // Conservative-window execution accounting. busy/barrier_wait are
    // wall-clock diagnostics (nondeterministic); the rest is exact.
    os << "sim_shard_count=" << result.shards_used << "\n"
       << "sim_shard_windows=" << result.shard_windows << "\n"
       << "sim_shard_lookahead_ms=" << result.shard_lookahead_ms << "\n"
       << "sim_shard_mailbox_packets=" << result.shard_mailbox_packets << "\n"
       << "sim_shard_mailbox_bytes=" << result.shard_mailbox_bytes << "\n"
       << "sim_shard_busy_ms=" << result.shard_busy_ms << "\n"
       << "sim_shard_barrier_wait_ms=" << result.shard_barrier_wait_ms
       << "\n";
  }
  if (result.tree_stats) os << format_tree_kv(*result.tree_stats);
  if (!result.phase_reports.empty()) {
    os << "faults_injected=" << result.faults_injected << "\n"
       << "phases=" << result.phase_reports.size() << "\n";
    for (std::size_t i = 0; i < result.phase_reports.size(); ++i) {
      const auto& p = result.phase_reports[i];
      const std::string prefix = "phase" + std::to_string(i) + "_";
      os << prefix << "label=" << p.label << "\n"
         << prefix << "start_ms=" << to_ms(p.start) << "\n"
         << prefix << "end_ms=" << to_ms(p.end) << "\n"
         << prefix << "messages=" << p.messages << "\n"
         << prefix << "reliability=" << p.reliability << "\n"
         << prefix << "atomic_fraction=" << p.atomic_fraction << "\n"
         << prefix << "mean_latency_ms=" << p.mean_latency_ms << "\n"
         << prefix << "p95_latency_ms=" << p.p95_latency_ms << "\n"
         << prefix << "payload_per_msg=" << p.payload_per_msg << "\n"
         << prefix << "top5_connection_share=" << p.top5_connection_share
         << "\n"
         << prefix << "offered_per_s=" << p.offered_per_s << "\n"
         << prefix << "goodput_per_s=" << p.goodput_per_s << "\n";
      if (result.tree_stats) {
        os << prefix << "tree_edges=" << p.tree_edges << "\n"
           << prefix << "tree_eager_hop_share=" << p.tree_eager_hop_share
           << "\n"
           << prefix << "tree_edge_latency_ms=" << p.tree_mean_edge_latency_ms
           << "\n";
      }
    }
  }
  return os.str();
}

std::string format_tree_kv(const obs::TreeStats& stats) {
  std::ostringstream os;
  os << "tree_messages=" << stats.messages << "\n"
     << "tree_edges=" << stats.edges << "\n"
     << "tree_eager_edges=" << stats.eager_edges << "\n"
     << "tree_orphan_deliveries=" << stats.orphan_deliveries << "\n"
     << "tree_eager_hop_share=" << stats.eager_hop_share() << "\n"
     << "tree_edge_latency_ms_mean=" << stats.mean_edge_latency_ms() << "\n"
     << "tree_edge_latency_ms_p95="
     << static_cast<double>(stats.edge_latency_us.quantile(0.95)) / 1000.0
     << "\n"
     << "tree_link_latency_ms_mean=" << stats.mean_link_latency_ms() << "\n"
     << "tree_overlay_latency_ms_mean=" << stats.overlay_mean_link_ms()
     << "\n"
     << "tree_mean_depth=" << stats.mean_depth() << "\n"
     << "tree_max_depth=" << stats.max_depth() << "\n"
     << "tree_mean_stretch_pct=" << stats.mean_stretch() << "\n"
     << "tree_mean_jaccard=" << stats.mean_jaccard() << "\n"
     << "tree_interior_top_share=" << stats.interior_top_share() << "\n"
     << "tree_eager_from_top_share=" << stats.eager_from_top_share() << "\n"
     << "tree_top_fraction=" << stats.top_fraction << "\n"
     << "tree_eager_child_top5_share="
     << stats.eager_child_concentration(0.05) << "\n";
  return os.str();
}

namespace {

// %.17g round-trips doubles exactly and is locale-independent for the
// values we emit, so the JSON is byte-stable across runs and platforms.
std::string json_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

}  // namespace

std::string format_metrics_json(
    const obs::RunMetrics& metrics,
    const std::vector<std::vector<stats::PhaseReport>>& phase_runs) {
  std::string out;
  out += "{\"schema\":\"esm-metrics-v1\",\"runs\":";
  out += std::to_string(metrics.runs);
  out += ",\"aggregate\":";
  metrics.aggregate.append_json(out);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < metrics.per_node.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"id\":";
    out += std::to_string(i);
    out += ",\"metrics\":";
    metrics.per_node[i].append_json(out);
    out += '}';
  }
  out += ']';

  std::size_t num_phases = 0;
  for (const auto& run : phase_runs) {
    num_phases = std::max(num_phases, run.size());
  }
  if (num_phases > 0) {
    out += ",\"phases\":[";
    for (std::size_t p = 0; p < num_phases; ++p) {
      if (p > 0) out += ',';
      std::string label;
      SimTime start = 0;
      SimTime end = 0;
      std::uint64_t messages = 0;
      std::uint64_t deliveries = 0;
      std::uint64_t payload_packets = 0;
      std::uint64_t tree_edges = 0;
      std::uint64_t tree_eager_edges = 0;
      bool first = true;
      for (const auto& run : phase_runs) {
        if (p >= run.size()) continue;
        const stats::PhaseReport& report = run[p];
        if (first) {
          label = report.label;
          start = report.start;
          first = false;
        }
        end = std::max(end, report.end);
        messages += report.messages;
        deliveries += report.deliveries;
        payload_packets += report.payload_packets;
        tree_edges += report.tree_edges;
        tree_eager_edges += report.tree_eager_edges;
      }
      out += "{\"label\":";
      append_json_string(out, label);
      out += ",\"start_ms\":";
      out += json_double(to_ms(start));
      out += ",\"end_ms\":";
      out += json_double(to_ms(end));
      out += ",\"messages\":";
      out += std::to_string(messages);
      out += ",\"deliveries\":";
      out += std::to_string(deliveries);
      out += ",\"payload_packets\":";
      out += std::to_string(payload_packets);
      out += ",\"tree_edges\":";
      out += std::to_string(tree_edges);
      out += ",\"tree_eager_edges\":";
      out += std::to_string(tree_eager_edges);
      out += '}';
    }
    out += ']';
  }
  out += "}\n";
  return out;
}

}  // namespace esm::harness
