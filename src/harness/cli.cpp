#include "harness/cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/text_input.hpp"
#include "harness/scenario_text.hpp"
#include "load/workload_text.hpp"

namespace esm::harness {

namespace {

/// The shortest decimal that reads back as `value`.
std::string shortest(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

/// What the rows write into: the options, plus the inline --senders
/// workload that finish() assembles into config.workload.
struct State {
  CliOptions options;
  std::uint64_t senders = 0;
  std::uint64_t topics = 0;
  double topic_fraction = 0.25;
  SimTime duration = load::WorkloadSpec{}.duration;
  load::PublisherSpec publisher;
  /// The first inline workload flag other than --senders, if any.
  const char* workload_flag = nullptr;
};

enum class Role {
  config,
  /// Shapes the inline workload, so it needs --senders.
  inline_workload,
  /// esm_run's replications and files: a sweep point is one run.
  run_only,
};

/// One flag. `set` parses a value into the bound field and returns the
/// error after "NAME: ", or "" on success; a switch ignores its value.
/// `get` renders the field the way --help prints its default.
struct Row {
  const char* name;
  const char* metavar;  // nullptr: a switch
  const char* section;
  std::string help;
  std::function<std::string(const std::string&)> set;
  std::function<std::string()> get;
  Role role = Role::config;
};

/// Builds rows in --help order; each typed binding writes one field.
class Table {
 public:
  void section(const char* title) { section_ = title; }

  /// A whole number in [lo, T's max / unit], stored times `unit`.
  template <typename T>
  Row& uint(const char* name, const char* metavar, std::string help,
            T& field, T lo = 0, T unit = 1) {
    Row& row = add(name, metavar, std::move(help));
    row.set = [&field, lo, unit](const std::string& v) -> std::string {
      const T hi = std::numeric_limits<T>::max() / unit;
      const std::optional<T> parsed = text::parse_uint<T>(v);
      if (!parsed || *parsed > hi) {
        return "must be " + text::integer_range<T>(lo, hi) + ", got '" + v +
               "'";
      }
      if (*parsed < lo) return "must be >= " + std::to_string(lo);
      field = *parsed * unit;
      return {};
    };
    row.get = [&field, unit] { return std::to_string(field / unit); };
    return row;
  }

  /// A decimal number; with a finite `lo`, one in (lo, hi].
  Row& real(const char* name, const char* metavar, std::string help,
            double& field, double lo = -kInf, double hi = kInf) {
    Row& row = add(name, metavar, std::move(help));
    row.set = [&field, lo, hi](const std::string& v) -> std::string {
      const std::optional<double> parsed = text::parse_double(v);
      if (!parsed) return "not a number: " + v;
      if (*parsed <= lo || *parsed > hi) {
        return hi < kInf ? "must be in (" + shortest(lo) + ", " +
                               shortest(hi) + "]"
                         : "must be > " + shortest(lo);
      }
      field = *parsed;
      return {};
    };
    row.get = [&field] { return shortest(field); };
    return row;
  }

  enum class Sign { any, non_negative, positive };

  /// Decimal milliseconds that fit SimTime. An integer is exact; a
  /// decimal truncates to whole microseconds.
  Row& ms(const char* name, std::string help, SimTime& field,
          Sign sign = Sign::non_negative) {
    Row& row = add(name, "MS", std::move(help));
    row.set = [&field, sign](const std::string& v) -> std::string {
      const std::optional<double> ms = text::parse_double(v);
      if (!ms) return "not a number: " + v;
      if (!(std::abs(*ms) * kMillisecond < 0x1p63)) {
        return "beyond the simulated time range, got '" + v + "'";
      }
      const auto whole = text::parse_uint<std::uint64_t>(v);
      const SimTime us = whole ? static_cast<SimTime>(*whole) * kMillisecond
                               : static_cast<SimTime>(*ms * kMillisecond);
      if (sign == Sign::positive && us <= 0) return "must be > 0";
      if (sign == Sign::non_negative && *ms < 0.0) return "must be >= 0";
      field = us;
      return {};
    };
    row.get = [&field] {
      return shortest(static_cast<double>(field) / kMillisecond);
    };
    return row;
  }

  /// One of `names`, which the help lists.
  template <typename E>
  Row& choice(const char* name, const char* metavar, const std::string& help,
              E& field, std::vector<std::pair<const char*, E>> names) {
    std::string list;
    for (const auto& [word, value] : names) {
      list += (list.empty() ? "" : " | ") + std::string(word);
    }
    Row& row = add(name, metavar, help.empty() ? list : list + ": " + help);
    std::string noun = metavar;
    for (char& ch : noun) ch = static_cast<char>(std::tolower(ch));
    row.set = [&field, names, noun](const std::string& v) -> std::string {
      for (const auto& [word, value] : names) {
        if (v == word) {
          field = value;
          return {};
        }
      }
      return "unknown " + noun + ": " + v;
    };
    row.get = [&field, names] {
      for (const auto& [word, value] : names) {
        if (value == field) return std::string(word);
      }
      return std::string();
    };
    return row;
  }

  /// A switch: takes no value.
  Row& flag(const char* name, std::string help, std::function<void()> set) {
    Row& row = add(name, nullptr, std::move(help));
    row.set = [set = std::move(set)](const std::string&) {
      set();
      return std::string();
    };
    return row;
  }

  Row& flag(const char* name, std::string help, bool& field) {
    return flag(name, std::move(help), [&field] { field = true; });
  }

  /// A file name; repeatable when bound to a vector.
  template <typename T>
  Row& path(const char* name, std::string help, T& field) {
    Row& row = add(name, "FILE", std::move(help));
    row.set = [&field](const std::string& v) {
      if constexpr (std::is_same_v<T, std::string>) {
        field = v;
      } else {
        field.push_back(v);
      }
      return std::string();
    };
    return row;
  }

  std::vector<Row> rows;

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  Row& add(const char* name, const char* metavar, std::string help) {
    return rows.emplace_back(
        Row{name, metavar, section_, std::move(help), {}, {}});
  }

  const char* section_ = "";
};

/// The flag table over `s`: one row per esm_run flag, in --help order.
std::vector<Row> flag_table(State& s) {
  CliOptions& o = s.options;
  ExperimentConfig& c = o.config;
  StrategySpec& st = c.strategy;
  Table t;
  using Sign = Table::Sign;
  constexpr Role kInline = Role::inline_workload;
  constexpr Role kRunOnly = Role::run_only;

  t.section("Strategy selection");
  t.choice("--strategy", "NAME", "", st.kind,
           {{"flat", StrategyKind::flat}, {"ttl", StrategyKind::ttl},
            {"radius", StrategyKind::radius}, {"ranked", StrategyKind::ranked},
            {"hybrid", StrategyKind::hybrid},
            {"adaptive", StrategyKind::adaptive}});
  t.real("--pi", "P", "flat: eager probability", st.pi);
  t.uint("--u", "N", "ttl/hybrid: eager while round < N", st.u);
  Row& rho = t.real("--rho", "MS|qP",
                    "radius/hybrid: metric radius (ms, or coordinate units "
                    "with --monitor distance); qP is that metric's "
                    "P-quantile over the run's client pairs",
                    st.rho);
  rho.set = [&st, number = std::move(rho.set)](const std::string& v) {
    st.rho_quantile.reset();
    if (v.empty() || v[0] != 'q') return number(v);
    st.rho_quantile = text::parse_double(std::string_view(v).substr(1));
    return st.rho_quantile ? std::string() : "not a quantile qP: " + v;
  };
  t.real("--best", "F", "ranked/hybrid: best-node fraction",
         st.best_fraction);
  t.real("--report-best", "F",
         "node split of the best/low payload-per-message rows, 0 = --best",
         c.report_best_fraction);
  t.flag("--gossip-rank",
         "estimate the best set epidemically instead of oracle",
         st.use_gossip_rank);
  t.choice("--monitor", "NAME", "", st.monitor,
           {{"oracle", MonitorKind::oracle_latency},
            {"distance", MonitorKind::distance}, {"ping", MonitorKind::ping},
            {"piggyback", MonitorKind::piggyback}});
  t.real("--noise", "O", "noise ratio of Eager? decisions, 0..1", st.noise);
  t.ms("--t0",
       "radius/hybrid first-request delay, 0 = 2 * rho (adaptive: 0 = "
       "100 ms)",
       st.t0, Sign::any);

  t.section("Workload and network");
  t.uint("--nodes", "N", "virtual nodes", c.num_nodes);
  t.uint("--messages", "N", "multicasts", c.num_messages);
  t.uint("--payload", "BYTES", "application payload per message",
         c.payload_bytes);
  t.ms("--interval-ms", "mean multicast spacing", c.mean_interval);
  t.uint("--seed", "S", "experiment seed", c.seed);
  t.choice("--path-model", "MODEL",
           "pairwise path-metric storage. dense keeps the N^2 latency/hop "
           "matrix; ondemand computes path rows lazily under an LRU byte "
           "budget (same values, bounded memory; required for large "
           "--nodes); auto = dense up to 2048 nodes",
           c.path_model,
           {{"dense", net::PathModelKind::dense},
            {"ondemand", net::PathModelKind::ondemand},
            {"auto", net::PathModelKind::automatic}});
  t.uint<std::size_t>("--path-cache-mb", "MB",
                      "on-demand row-cache budget, 0 = 256",
                      c.path_cache_bytes, 0, std::size_t{1} << 20);
  t.uint("--sender", "N",
         "single-source mode: node N sends everything (absent: round-robin "
         "senders)",
         c.single_sender)
      .get = nullptr;
  t.real("--loss", "P", "packet loss probability", c.loss_rate);
  t.uint("--bandwidth", "BPS", "per-node egress bandwidth, bits/s",
         c.bandwidth_bps);
  t.uint("--buffer", "BYTES", "egress buffer bound, 0 = unbounded",
         c.egress_buffer_bytes);
  t.choice("--purge", "POLICY", "what to drop when full", c.purge_policy,
           {{"newest", net::TransportOptions::PurgePolicy::drop_newest},
            {"oldest", net::TransportOptions::PurgePolicy::drop_oldest}});
  t.choice("--backpressure", "MODE",
           "egress watermark backpressure into the scheduler: defer eager "
           "pushes to IHAVE above the high watermark, cap IWANT replies per "
           "destination, re-advertise purged payloads. Needs --buffer > 0",
           c.backpressure, {{"on", true}, {"off", false}});
  t.real("--bp-high", "F", "high watermark, fraction of --buffer",
         c.bp_high_watermark);
  t.real("--bp-low", "F", "low watermark, fraction of --buffer",
         c.bp_low_watermark);
  t.uint("--bp-replies", "N", "IWANT replies per destination while congested",
         c.bp_max_replies_per_dst);
  t.choice("--pull-sched", "POLICY", "pull-request scheduling", c.pull_sched,
           {{"random", core::PullOrder::random},
            {"rarest", core::PullOrder::rarest}});
  t.real("--slow", "F", "fraction of nodes provisioned slow",
         c.slow_fraction);
  t.uint("--slow-bandwidth", "BPS", "bandwidth of slow nodes",
         c.slow_bandwidth_bps);
  t.flag("--adaptive-fanout", "scale fanout by node bandwidth",
         c.adaptive_fanout);

  t.section(
      "Heavy-traffic workload (replaces --messages/--interval-ms when "
      "present)");
  t.path("--workload",
         "workload spec file: topics + publishers with their own arrival "
         "processes (grammar in src/load/workload_text.hpp)",
         o.workload_path);
  t.uint("--senders", "K", "K concurrent publishers, round-robin origins",
         s.senders, std::uint64_t{1})
      .get = nullptr;
  t.choice("--arrival", "KIND", "arrival process", s.publisher.arrival,
           {{"poisson", load::ArrivalKind::poisson},
            {"fixed", load::ArrivalKind::fixed_rate},
            {"burst", load::ArrivalKind::burst}})
      .role = kInline;
  t.real("--rate", "R", "per-publisher rate, messages/s", s.publisher.rate, 0)
      .role = kInline;
  t.ms("--duration-ms", "workload length after warm-up", s.duration,
       Sign::positive)
      .role = kInline;
  t.ms("--burst-on-ms", "burst arrivals: on-window length",
       s.publisher.burst_on, Sign::positive)
      .role = kInline;
  t.ms("--burst-off-ms", "burst arrivals: off-window length",
       s.publisher.burst_off)
      .role = kInline;
  Row& topics = t.uint("--topics", "N",
                       "N topics; publisher p publishes to topic p mod N "
                       "(absent: every node subscribes)",
                       s.topics, std::uint64_t{1});
  topics.get = nullptr;
  topics.role = kInline;
  t.real("--topic-fraction", "F", "fraction of nodes subscribed per topic",
         s.topic_fraction, 0, 1)
      .role = kInline;

  t.section("Protocol parameters");
  t.uint("--fanout", "F", "gossip fanout", c.gossip.fanout);
  t.uint("--rounds", "T", "max relay rounds", c.gossip.max_rounds);
  t.uint("--degree", "D", "overlay view size", c.overlay.view_size);
  t.ms("--period-ms", "retransmission period T", c.retransmission_period);
  t.uint("--retry-rounds", "N",
         "max full passes over a message's advertisers before its lazy "
         "recovery is abandoned; passes after the first re-ask "
         "already-asked sources",
         c.max_request_rounds);
  t.ms("--batch-ms", "IHAVE aggregation window", c.ihave_batch_window);
  t.choice("--overlay", "NAME", "", c.overlay_kind,
           {{"cyclon", OverlayKind::cyclon},
            {"static", OverlayKind::static_random},
            {"hyparview", OverlayKind::hyparview}, {"neem", OverlayKind::neem},
            {"oracle", OverlayKind::oracle}});
  t.flag("--oracle-sampler", "alias for --overlay oracle",
         [&c] { c.overlay_kind = OverlayKind::oracle; });
  t.flag("--static-overlay", "alias for --overlay static",
         [&c] { c.overlay_kind = OverlayKind::static_random; });
  t.flag("--exclude-sender",
         "never relay a message back to the peer it came from",
         c.gossip.exclude_sender);
  t.flag("--wire", "serialize every packet through the real wire codec",
         c.use_wire_codec);

  t.section("Failures");
  t.real("--kill", "F", "fraction of nodes silenced after warm-up",
         c.kill_fraction);
  t.choice("--kill-mode", "MODE",
           "which nodes --kill silences (absent: random)", c.kill_mode,
           {{"random", KillMode::random}, {"best", KillMode::best_ranked}});
  t.real("--churn", "RATE",
         "continuous churn: RATE membership events per second",
         c.churn_rate);
  t.path("--scenario",
         "scripted fault timeline (crashes, partitions, loss bursts, churn, "
         "noise ramps, phase markers); see docs/PROTOCOL.md for the grammar. "
         "Event times are relative to the end of warm-up. Adds per-phase "
         "windowed metrics to the output.",
         o.scenario_path);

  t.section("Execution");
  t.uint("--reps", "N", "replications with seeds seed..seed+N-1", o.reps,
         std::uint64_t{1})
      .role = kRunOnly;
  t.uint("--jobs", "N",
         "worker threads for --reps and sweeps; 0 = hardware concurrency. "
         "Results are bit-for-bit identical at every job count.",
         o.jobs);
  t.uint("--shards", "N",
         "partition the nodes of EACH run across N worker threads advancing "
         "through conservative time windows (1 = the single-threaded "
         "engine). Results are bit-for-bit identical at every shard count "
         ">= 2; composes with --jobs. Incompatible with --scenario, "
         "--churn, --noise, --trace* and --tree-stats (also as sweep "
         "points). Adds sim_shard_* output lines; --metrics-out adds the "
         "sim.shard.* execution block to the full document.",
         c.shards, 1u);

  t.section("Output");
  t.flag("--kv", "print key=value lines instead of the table", o.json);
  t.flag("--tree-stats",
         "reconstruct per-message first-delivery dissemination trees from "
         "the run's trace and report their structure metrics (eager-hop "
         "share, tree-edge latency vs the overlay baseline, interior-node "
         "concentration on top-ranked nodes, depth, stretch, "
         "consecutive-tree Jaccard overlap); adds tree_* output lines, "
         "tree.* metrics JSON keys and per-phase tree columns",
         c.collect_tree_stats);
  t.path("--metrics-out",
         "write per-node + aggregated metrics and recovery lifecycle "
         "accounting as JSON (schema esm-metrics-v1; merged across --reps, "
         "bit-for-bit identical at every --jobs count). FILE may be - for "
         "stdout (the summary is suppressed there).",
         o.metrics_path)
      .role = kRunOnly;
  t.path("--trace",
         "buffer the run's event trace and write it as CSV at the end "
         "(single run only); feed it to esm_trace for offline analysis",
         o.trace_path)
      .role = kRunOnly;
  t.path("--trace-stream",
         "stream trace rows to FILE while the run executes; memory stays "
         "bounded at large N (single run only, incompatible with --trace "
         "and --tree-stats). FILE may be - for stdout (the summary is "
         "suppressed there).",
         o.trace_stream_path)
      .role = kRunOnly;
  t.path("--expect",
         "evaluate the declarative expectations in FILE (.exp, PROTOCOL.md "
         "section 7c) against the finished run: per-phase delivery/latency "
         "bounds, recovery bounds, structure assertions, tree-shape "
         "recognizers, scalar metric bounds. Repeatable (files compose); "
         "prints a per-expectation pass/fail report, adds expect.* "
         "counters to --metrics-out JSON, exits 3 on violation. Trace "
         "predicates imply buffered trace collection and need --shards 1; "
         "metric/recovery counter bounds work at any shard count. Single "
         "run only.",
         o.expect_paths)
      .role = kRunOnly;
  t.flag("--help", "this text", o.help);
  return std::move(t.rows);
}

const Row* find_row(const std::vector<Row>& rows, const std::string& name) {
  const auto row = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
    return name == r.name;
  });
  return row == rows.end() ? nullptr : &*row;
}

/// `head` padded to the help column, then `help` and the default
/// word-wrapped at 79.
std::string help_entry(std::string head, const std::string& help,
                       const std::string& value) {
  constexpr std::size_t kColumn = 22;
  constexpr std::size_t kWidth = 79;
  head.resize(std::max(head.size() + 1, kColumn), ' ');
  std::vector<std::string> words;
  std::istringstream in(help);
  for (std::string word; in >> word;) words.push_back(word);
  if (!value.empty()) words.push_back("(default " + value + ")");
  // A line ending in a space holds no help word yet.
  std::string out;
  std::string line = head;
  for (const std::string& word : words) {
    if (line.back() != ' ' && line.size() + 1 + word.size() > kWidth) {
      out += line + "\n";
      line.assign(kColumn, ' ');
    }
    if (line.back() != ' ') line += ' ';
    line += word;
  }
  return out + line + "\n";
}

/// The cross-flag checks and the inline workload, once every flag is in.
std::optional<CliOptions> finish(State& s, std::string& error) {
  CliOptions& o = s.options;
  ExperimentConfig& c = o.config;
  const auto fail = [&error](std::string why) {
    error = std::move(why);
    return std::nullopt;
  };
  if (s.workload_flag && s.senders == 0 && o.workload_path.empty()) {
    return fail(
        std::string("--senders: required when other workload flags are "
                    "given (") +
        s.workload_flag + ")");
  }
  // The cross-flag rules: the first one broken is the error.
  const bool tracing = !o.trace_path.empty() || !o.trace_stream_path.empty();
  const bool stream_stdout = o.trace_stream_path == "-";
  const std::pair<bool, const char*> rules[] = {
      {(s.senders > 0 || s.workload_flag) && !o.workload_path.empty(),
       "--workload: cannot be combined with inline workload flags"},
      {c.backpressure && c.egress_buffer_bytes == 0,
       "--backpressure on: requires a bounded egress buffer (--buffer)"},
      {o.reps > 1 && tracing,
       "--trace/--trace-stream are single-run; drop --reps"},
      {o.reps > 1 && !o.expect_paths.empty(),
       "--expect evaluates a single run; drop --reps"},
      {!o.trace_path.empty() && !o.trace_stream_path.empty(),
       "pick one of --trace (buffered) or --trace-stream (streaming)"},
      {!o.trace_stream_path.empty() && c.collect_tree_stats,
       "--tree-stats needs the buffered trace; use --trace instead of "
       "--trace-stream"},
      {stream_stdout && o.metrics_path == "-",
       "--metrics-out - and --trace-stream - both write to stdout; pick "
       "one"},
      {stream_stdout && !o.expect_paths.empty(),
       "the --expect report and --trace-stream - share stdout; stream the "
       "trace to a file instead"},
  };
  for (const auto& [broken, why] : rules) {
    if (broken) return fail(why);
  }
  c.collect_trace = !o.trace_path.empty();
  c.collect_metrics = !o.metrics_path.empty();
  if (c.kill_fraction != 0.0 && c.kill_mode == KillMode::none) {
    c.kill_mode = KillMode::random;
  }
  if (s.senders > 0) {
    load::WorkloadSpec& wl = c.workload;
    wl.duration = s.duration;
    for (std::uint64_t t = 0; t < s.topics; ++t) {
      load::TopicSpec topic;
      topic.name = "t" + std::to_string(t);
      topic.fraction = s.topic_fraction;
      wl.topics.push_back(topic);
    }
    for (std::uint64_t p = 0; p < s.senders; ++p) {
      load::PublisherSpec pub = s.publisher;
      if (s.topics > 0) pub.topic = static_cast<std::uint32_t>(p % s.topics);
      wl.publishers.push_back(pub);
    }
    try {
      wl.validate(c.num_nodes);
    } catch (const std::exception& ex) {
      return fail(ex.what());
    }
  }
  // Files are read later; load_input_files checks the loaded config again.
  error = config_error(c, !o.scenario_path.empty(), !o.workload_path.empty());
  if (!error.empty()) return std::nullopt;
  return o;
}

/// parse_cli; a sweep point also rejects the run_only flags.
std::optional<CliOptions> parse(const std::vector<std::string>& args,
                                std::string& error, bool sweep_point) {
  State s;
  const std::vector<Row> rows = flag_table(s);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Row* row = find_row(rows, args[i]);
    if (row == nullptr) {
      error = "unknown flag: " + args[i];
      return std::nullopt;
    }
    if (sweep_point && row->role == Role::run_only) {
      error = args[i] + ": esm_run only; a sweep point is one run";
      return std::nullopt;
    }
    std::string value;
    if (row->metavar != nullptr) {
      if (i + 1 == args.size()) {
        error = args[i] + " requires a value";
        return std::nullopt;
      }
      value = args[++i];
    }
    if (const std::string why = row->set(value); !why.empty()) {
      error = std::string(row->name) + ": " + why;
      return std::nullopt;
    }
    if (row->role == Role::inline_workload && !s.workload_flag) {
      s.workload_flag = row->name;
    }
    if (s.options.help) return s.options;
  }
  return finish(s, error);
}

}  // namespace

std::string cli_help_text() {
  State defaults;
  std::string out =
      "esm_run — run one emergent-structure multicast experiment\n";
  const char* section = nullptr;
  for (const Row& row : flag_table(defaults)) {
    if (row.section != section) {
      section = row.section;
      out += "\n" + std::string(section) + ":\n";
    }
    std::string head = "  " + std::string(row.name);
    if (row.metavar != nullptr) head += " " + std::string(row.metavar);
    out += help_entry(head, row.help, row.get ? row.get() : "");
  }
  return out;
}

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error) {
  return parse(args, error, false);
}

bool load_input_files(CliOptions& options, std::string& error) {
  ExperimentConfig& c = options.config;
  try {
    if (!options.scenario_path.empty()) {
      c.scenario = load_scenario_file(options.scenario_path, c.num_nodes);
      c.scenario.validate(c.num_nodes);
    }
    if (!options.workload_path.empty()) {
      c.workload =
          load::load_workload_file(options.workload_path, c.num_nodes);
      c.workload.validate(c.num_nodes);
    }
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  error = config_error(c);
  return error.empty();
}

std::optional<ExperimentConfig> parse_point(
    const std::vector<std::string>& args, std::string& error) {
  std::optional<CliOptions> options = parse(args, error, true);
  if (!options || !load_input_files(*options, error)) return std::nullopt;
  return options->config;
}

std::optional<Sweep> parse_sweep(const std::vector<std::string>& base,
                                 const std::string& param,
                                 std::string_view values,
                                 std::string& error) {
  const std::optional<CliOptions> options = parse(base, error, true);
  if (!options) return std::nullopt;
  Sweep sweep{*options, {}, {}};
  State probe;
  const std::vector<Row> rows = flag_table(probe);
  const Row* row = find_row(rows, "--" + param);
  if (row == nullptr || row->metavar == nullptr) {
    error = "unknown sweep parameter: " + param +
            " (name an esm_run flag that takes a value)";
    return std::nullopt;
  }
  std::vector<std::string> args = base;
  args.push_back(row->name);
  args.emplace_back();
  for (const std::string_view token : text::split(values, ',')) {
    args.back() = token;
    std::optional<ExperimentConfig> point = parse_point(args, error);
    if (!point) return std::nullopt;
    sweep.values.emplace_back(token);
    sweep.points.push_back(std::move(*point));
  }
  return sweep;
}

}  // namespace esm::harness
