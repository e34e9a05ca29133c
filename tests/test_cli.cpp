#include "harness/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/check.hpp"
#include "harness/report.hpp"

namespace esm::harness {
namespace {

std::optional<CliOptions> parse(std::vector<std::string> args) {
  std::string error;
  auto result = parse_cli(args, error);
  EXPECT_TRUE(result.has_value()) << error;
  return result;
}

/// The one point of a sweep over `name` at `value`, from `base`.
std::optional<ExperimentConfig> point(const std::vector<std::string>& base,
                                      const std::string& name,
                                      const std::string& value,
                                      std::string& error) {
  const auto sweep = parse_sweep(base, name, value, error);
  if (!sweep) return std::nullopt;
  return sweep->points.at(0);
}

/// A field read back as text, so every case compares the same way.
template <typename T>
std::string text(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<int>(value));
  } else {
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
  }
}

/// One esm_run flag: `prefix` (flags it needs), the flag with its value
/// (none for a switch), the field it lands in, and that field's expected
/// value.
struct FlagCase {
  std::vector<std::string> prefix;
  std::string flag;
  std::string value;
  std::function<std::string(const CliOptions&)> field;
  std::string expected;
};

std::vector<FlagCase> flag_cases() {
  using O = const CliOptions&;
  const std::vector<std::string> none;
  const std::vector<std::string> senders = {"--senders", "1"};
  return {
      {none, "--strategy", "ttl", [](O o) { return text(o.config.strategy.kind); }, text(StrategyKind::ttl)},
      {none, "--pi", "0.3", [](O o) { return text(o.config.strategy.pi); }, "0.29999999999999999"},
      {none, "--u", "3", [](O o) { return text(o.config.strategy.u); }, "3"},
      {none, "--rho", "12.5", [](O o) { return text(o.config.strategy.rho); }, "12.5"},
      {none, "--best", "0.5", [](O o) { return text(o.config.strategy.best_fraction); }, "0.5"},
      {none, "--report-best", "0.25", [](O o) { return text(o.config.report_best_fraction); }, "0.25"},
      {none, "--gossip-rank", "", [](O o) { return text(o.config.strategy.use_gossip_rank); }, "1"},
      {none, "--monitor", "ping", [](O o) { return text(o.config.strategy.monitor); }, text(MonitorKind::ping)},
      {none, "--noise", "0.25", [](O o) { return text(o.config.strategy.noise); }, "0.25"},
      {none, "--t0", "50", [](O o) { return text(o.config.strategy.t0); }, "50000"},
      {none, "--nodes", "60", [](O o) { return text(o.config.num_nodes); }, "60"},
      {none, "--messages", "99", [](O o) { return text(o.config.num_messages); }, "99"},
      {none, "--payload", "1024", [](O o) { return text(o.config.payload_bytes); }, "1024"},
      {none, "--interval-ms", "250", [](O o) { return text(o.config.mean_interval); }, "250000"},
      {none, "--seed", "7", [](O o) { return text(o.config.seed); }, "7"},
      {none, "--path-model", "ondemand", [](O o) { return text(o.config.path_model); }, text(net::PathModelKind::ondemand)},
      {none, "--path-cache-mb", "64", [](O o) { return text(o.config.path_cache_bytes); }, "67108864"},
      {none, "--sender", "3", [](O o) { return text(o.config.single_sender); }, "3"},
      {none, "--loss", "0.25", [](O o) { return text(o.config.loss_rate); }, "0.25"},
      {none, "--bandwidth", "2000000", [](O o) { return text(o.config.bandwidth_bps); }, "2000000"},
      {none, "--buffer", "65536", [](O o) { return text(o.config.egress_buffer_bytes); }, "65536"},
      {none, "--purge", "oldest", [](O o) { return text(o.config.purge_policy); }, text(net::TransportOptions::PurgePolicy::drop_oldest)},
      {{"--buffer", "1"}, "--backpressure", "on", [](O o) { return text(o.config.backpressure); }, "1"},
      {none, "--bp-high", "0.875", [](O o) { return text(o.config.bp_high_watermark); }, "0.875"},
      {none, "--bp-low", "0.125", [](O o) { return text(o.config.bp_low_watermark); }, "0.125"},
      {none, "--bp-replies", "2", [](O o) { return text(o.config.bp_max_replies_per_dst); }, "2"},
      {none, "--pull-sched", "rarest", [](O o) { return text(o.config.pull_sched); }, text(core::PullOrder::rarest)},
      {none, "--slow", "0.25", [](O o) { return text(o.config.slow_fraction); }, "0.25"},
      {none, "--slow-bandwidth", "500000", [](O o) { return text(o.config.slow_bandwidth_bps); }, "500000"},
      {none, "--adaptive-fanout", "", [](O o) { return text(o.config.adaptive_fanout); }, "1"},
      {none, "--workload", "x.wl", [](O o) { return o.workload_path; }, "x.wl"},
      {none, "--senders", "4", [](O o) { return text(o.config.workload.publishers.size()); }, "4"},
      {senders, "--arrival", "burst", [](O o) { return text(o.config.workload.publishers.at(0).arrival); }, text(load::ArrivalKind::burst)},
      {senders, "--rate", "20", [](O o) { return text(o.config.workload.publishers.at(0).rate); }, "20"},
      {senders, "--duration-ms", "5000", [](O o) { return text(o.config.workload.duration); }, "5000000"},
      {senders, "--burst-on-ms", "250", [](O o) { return text(o.config.workload.publishers.at(0).burst_on); }, "250000"},
      {senders, "--burst-off-ms", "750", [](O o) { return text(o.config.workload.publishers.at(0).burst_off); }, "750000"},
      {senders, "--topics", "2", [](O o) { return text(o.config.workload.topics.size()); }, "2"},
      {{"--senders", "1", "--topics", "1"}, "--topic-fraction", "0.5", [](O o) { return text(o.config.workload.topics.at(0).fraction); }, "0.5"},
      {none, "--fanout", "9", [](O o) { return text(o.config.gossip.fanout); }, "9"},
      {none, "--rounds", "6", [](O o) { return text(o.config.gossip.max_rounds); }, "6"},
      {none, "--degree", "20", [](O o) { return text(o.config.overlay.view_size); }, "20"},
      {none, "--period-ms", "200", [](O o) { return text(o.config.retransmission_period); }, "200000"},
      {none, "--retry-rounds", "3", [](O o) { return text(o.config.max_request_rounds); }, "3"},
      {none, "--batch-ms", "25", [](O o) { return text(o.config.ihave_batch_window); }, "25000"},
      {none, "--overlay", "hyparview", [](O o) { return text(o.config.overlay_kind); }, text(OverlayKind::hyparview)},
      {none, "--oracle-sampler", "", [](O o) { return text(o.config.overlay_kind); }, text(OverlayKind::oracle)},
      {none, "--static-overlay", "", [](O o) { return text(o.config.overlay_kind); }, text(OverlayKind::static_random)},
      {none, "--exclude-sender", "", [](O o) { return text(o.config.gossip.exclude_sender); }, "1"},
      {none, "--wire", "", [](O o) { return text(o.config.use_wire_codec); }, "1"},
      {none, "--kill", "0.25", [](O o) { return text(o.config.kill_fraction) + " " + text(o.config.kill_mode); }, "0.25 " + text(KillMode::random)},
      {none, "--kill-mode", "best", [](O o) { return text(o.config.kill_mode); }, text(KillMode::best_ranked)},
      {none, "--churn", "1.5", [](O o) { return text(o.config.churn_rate); }, "1.5"},
      {none, "--scenario", "x.scn", [](O o) { return o.scenario_path; }, "x.scn"},
      {none, "--shards", "4", [](O o) { return text(o.config.shards); }, "4"},
      {none, "--kv", "", [](O o) { return text(o.json); }, "1"},
      {none, "--tree-stats", "", [](O o) { return text(o.config.collect_tree_stats); }, "1"},
      {none, "--help", "", [](O o) { return text(o.help); }, "1"},
      // esm_run's own flags land in CliOptions.
      {none, "--reps", "3", [](O o) { return text(o.reps); }, "3"},
      {none, "--jobs", "2", [](O o) { return text(o.jobs); }, "2"},
      {none, "--trace", "t.csv", [](O o) { return o.trace_path + " " + text(o.config.collect_trace); }, "t.csv 1"},
      {none, "--trace-stream", "t.csv", [](O o) { return o.trace_stream_path; }, "t.csv"},
      {none, "--metrics-out", "m.json", [](O o) { return o.metrics_path + " " + text(o.config.collect_metrics); }, "m.json 1"},
      {{"--expect", "a.exp"}, "--expect", "b.exp", [](O o) { return text(o.expect_paths.size()) + " " + o.expect_paths.back(); }, "2 b.exp"},
  };
}

TEST(Cli, EveryFlagLandsInConfig) {
  for (const FlagCase& fc : flag_cases()) {
    std::vector<std::string> args = fc.prefix;
    args.push_back(fc.flag);
    if (!fc.value.empty()) args.push_back(fc.value);
    const auto options = parse(args);
    ASSERT_TRUE(options) << fc.flag;
    EXPECT_EQ(fc.field(*options), fc.expected) << fc.flag;
    // The field is untouched without the flag.
    const auto without = parse(fc.prefix);
    ASSERT_TRUE(without) << fc.flag;
    EXPECT_NE(fc.field(*without), fc.expected) << fc.flag;
  }
}

TEST(Cli, HelpListsEveryFlagOnce) {
  // A flag's entry starts "  --name"; its continuation lines are indented
  // further.
  std::map<std::string, int> starts;
  std::map<std::string, std::string> entries;
  std::istringstream help(cli_help_text());
  std::string flag;
  for (std::string line; std::getline(help, line);) {
    std::istringstream words(line);
    if (line.rfind("  --", 0) == 0) {
      words >> flag;
      ++starts[flag];
    } else if (line.rfind("     ", 0) != 0) {
      flag.clear();
      continue;
    }
    for (std::string word; words >> word;) entries[flag] += word + " ";
  }
  const std::vector<FlagCase> cases = flag_cases();
  EXPECT_EQ(cases.size(), 64u);
  EXPECT_EQ(starts.size(), cases.size());
  int defaults = 0;
  for (const FlagCase& fc : cases) {
    EXPECT_EQ(starts[fc.flag], 1) << fc.flag;
    // A printed default, fed back to its flag, leaves the field as a
    // default-constructed config has it.
    const std::string& entry = entries[fc.flag];
    const std::size_t at = entry.rfind("(default ");
    if (at == std::string::npos) continue;
    ++defaults;
    const std::size_t from = at + 9;
    const std::string value = entry.substr(from, entry.find(')', from) - from);
    std::vector<std::string> args = fc.prefix;
    args.insert(args.end(), {fc.flag, value});
    const auto options = parse(args);
    ASSERT_TRUE(options) << fc.flag << " " << value;
    EXPECT_EQ(fc.field(*options), fc.field(*parse(fc.prefix)))
        << fc.flag << " " << value;
  }
  EXPECT_GE(defaults, 40);
}

TEST(Cli, SweepRejectsBeforeAnyRun) {
  // Values a module would abort the run on exit 2 with one line, from
  // esm_run's flags and from every sweep point, before any point runs.
  const std::vector<std::string> small = {"--nodes", "20", "--messages", "5"};
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"--kill", "1"}, "--kill: must be in [0, 1), got 1"},
      {{"--kill", "0.99"},
       "--kill: must leave a live node of --nodes 20, got 0.99"},
      {{"--messages", "0"}, "--messages: must be >= 1, got 0"},
      {{"--pi", "2"}, "--pi: must be in [0, 1], got 2"},
      {{"--loss", "1.5"}, "--loss: must be in [0, 1), got 1.5"},
      {{"--noise", "2"}, "--noise: must be in [0, 1], got 2"},
      {{"--fanout", "0"}, "--fanout: must be >= 1, got 0"},
      {{"--rounds", "0"}, "--rounds: must be >= 1, got 0"},
      {{"--degree", "0"}, "--degree: must be >= 1, got 0"},
      {{"--nodes", "1"}, "--nodes: must be >= 2, got 1"},
      {{"--sender", "500"}, "--sender: must be a node below --nodes 20, got 500"},
      {{"--buffer", "1000", "--backpressure", "on", "--bp-low", "0.9",
        "--bp-high", "0.2"},
       "--bp-high: must be in [--bp-low, 1] with --bp-low 0.9, got 0.2"},
      {{"--strategy", "radius", "--rho", "-5"}, "--rho: must be >= 0, got -5"},
      {{"--strategy", "radius", "--monitor", "distance", "--rho", "-5"},
       "--rho: must be >= 0, got -5"},
      {{"--strategy", "hybrid", "--rho", "q1.5"},
       "--rho: quantile qP must have P in (0, 1), got 1.5"},
      {{"--strategy", "radius", "--rho", "q0"},
       "--rho: quantile qP must have P in (0, 1), got 0"},
      {{"--strategy", "ranked", "--best", "-0.5"},
       "--best: must be in [0, 1], got -0.5"},
      {{"--strategy", "hybrid", "--best", "1.5"},
       "--best: must be in [0, 1], got 1.5"},
      {{"--report-best", "2"}, "--report-best: must be in [0, 1], got 2"},
  };
  std::string error;
  for (const auto& [flags, message] : bad) {
    std::vector<std::string> args = small;
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_FALSE(parse_cli(args, error)) << message;
    EXPECT_EQ(error, message);
    // The same value as a sweep point. The watermark base is already
    // out of range at the default --bp-high, so compare up to ", got".
    const std::vector<std::string> base(args.begin(), args.end() - 2);
    EXPECT_FALSE(point(base, flags[flags.size() - 2].substr(2), flags.back(),
                       error));
    EXPECT_EQ(error.substr(0, error.find(", got")),
              message.substr(0, message.find(", got")));
  }
  // The first two points are fine; the third stops the sweep.
  EXPECT_FALSE(parse_sweep({"--nodes", "2000", "--messages", "20"}, "pi",
                           "0,0.5,2", error));
  EXPECT_EQ(error, "--pi: must be in [0, 1], got 2");
  EXPECT_FALSE(parse_sweep({"--strategy", "radius"}, "rho", "5,-5", error));
  EXPECT_EQ(error, "--rho: must be >= 0, got -5");
  // Above the dense cutover qP would need N^2 latencies.
  EXPECT_FALSE(parse_sweep({"--strategy", "radius", "--rho", "q0.15"}, "nodes",
                           "100,50000", error));
  EXPECT_EQ(error, "--rho: qP needs the dense path model (--nodes <= 2048)");
  EXPECT_FALSE(parse_cli({"--strategy", "hybrid", "--rho", "q0.15",
                          "--path-model", "ondemand"},
                         error));
  EXPECT_EQ(error, "--rho: qP needs the dense path model (--nodes <= 2048)");
  EXPECT_FALSE(parse_sweep(small, "kill", "0,0.99", error));
  EXPECT_EQ(error, "--kill: must leave a live node of --nodes 20, got 0.99");
  // 0.97 of 20 rounds to 19 nodes; a workload replaces --messages.
  EXPECT_TRUE(point(small, "kill", "0.97", error)) << error;
  EXPECT_TRUE(parse({"--senders", "2", "--messages", "0"}));
  // Only values the run would abort on: pi is unused by ttl.
  EXPECT_TRUE(parse({"--strategy", "ttl", "--pi", "2"}));
  EXPECT_TRUE(point({"--strategy", "ttl"}, "pi", "2", error)) << error;
  EXPECT_TRUE(point({"--overlay", "oracle"}, "degree", "0", error)) << error;
  EXPECT_TRUE(point({"--strategy", "ranked"}, "rho", "-5", error)) << error;
  EXPECT_TRUE(point({"--strategy", "radius"}, "best", "2", error)) << error;

  // Each point's input files are checked against its own --nodes.
  const std::string scn = ESM_SOURCE_DIR "/examples/partition_heal.scn";
  std::vector<std::string> args = small;
  args.insert(args.end(), {"--scenario", scn});
  EXPECT_FALSE(point(args, "pi", "1", error));
  EXPECT_NE(error.find("scenario"), std::string::npos) << error;
  EXPECT_TRUE(point({"--scenario", scn}, "pi", "1", error)) << error;
  const std::string wl = testing::TempDir() + "cli_node_50.wl";
  std::ofstream(wl) << "publisher poisson rate=5 node=50\n";
  EXPECT_TRUE(parse_sweep({"--workload", wl}, "nodes", "100", error))
      << error;
  EXPECT_FALSE(parse_sweep({"--workload", wl}, "nodes", "100,20", error));

  // Inline workload flags need --senders, and never shape a .wl file.
  EXPECT_FALSE(point({}, "duration-ms", "1000", error));
  EXPECT_EQ(error.rfind("--senders: required", 0), 0u) << error;
  EXPECT_FALSE(point({"--workload", wl}, "rate", "20", error));
  EXPECT_EQ(error, "--workload: cannot be combined with inline workload flags");
  // A sweep point is one run without output files.
  for (const char* flag :
       {"--reps", "--trace", "--trace-stream", "--metrics-out", "--expect"}) {
    EXPECT_FALSE(point({flag, "2"}, "pi", "1", error)) << flag;
    EXPECT_EQ(error.rfind(flag, 0), 0u) << error;
    EXPECT_FALSE(point({}, std::string(flag).substr(2), "2", error)) << flag;
  }
}

TEST(Cli, DefaultsMatchPaperConfiguration) {
  const auto options = parse({});
  ASSERT_TRUE(options);
  const ExperimentConfig& c = options->config;
  EXPECT_EQ(c.num_nodes, 100u);
  EXPECT_EQ(c.num_messages, 400u);
  EXPECT_EQ(c.gossip.fanout, 11u);
  EXPECT_EQ(c.overlay.view_size, 15u);
  EXPECT_EQ(c.retransmission_period, 400 * kMillisecond);
  EXPECT_EQ(c.payload_bytes, 256u);
  EXPECT_EQ(c.strategy.kind, StrategyKind::flat);
  EXPECT_FALSE(options->json);
  EXPECT_FALSE(options->help);
}

TEST(Cli, ParsesStrategySelection) {
  const auto options = parse({"--strategy", "hybrid", "--rho", "12.5", "--u",
                              "3", "--best", "0.05", "--noise", "0.4",
                              "--monitor", "ping", "--gossip-rank"});
  ASSERT_TRUE(options);
  const StrategySpec& s = options->config.strategy;
  EXPECT_EQ(s.kind, StrategyKind::hybrid);
  EXPECT_DOUBLE_EQ(s.rho, 12.5);
  EXPECT_EQ(s.u, 3u);
  EXPECT_DOUBLE_EQ(s.best_fraction, 0.05);
  EXPECT_DOUBLE_EQ(s.noise, 0.4);
  EXPECT_EQ(s.monitor, MonitorKind::ping);
  EXPECT_TRUE(s.use_gossip_rank);
}

TEST(Cli, ParsesWorkloadAndNetwork) {
  const auto options = parse(
      {"--nodes", "60", "--messages", "99", "--payload", "1024",
       "--interval-ms", "250", "--seed", "7", "--loss", "0.02", "--bandwidth",
       "2000000", "--buffer", "65536", "--slow", "0.3", "--slow-bandwidth",
       "500000", "--adaptive-fanout", "--fanout", "9", "--rounds", "6",
       "--degree", "20", "--period-ms", "200", "--oracle-sampler"});
  ASSERT_TRUE(options);
  const ExperimentConfig& c = options->config;
  EXPECT_EQ(c.num_nodes, 60u);
  EXPECT_EQ(c.num_messages, 99u);
  EXPECT_EQ(c.payload_bytes, 1024u);
  EXPECT_EQ(c.mean_interval, 250 * kMillisecond);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.loss_rate, 0.02);
  EXPECT_EQ(c.bandwidth_bps, 2'000'000u);
  EXPECT_EQ(c.egress_buffer_bytes, 65536u);
  EXPECT_DOUBLE_EQ(c.slow_fraction, 0.3);
  EXPECT_EQ(c.slow_bandwidth_bps, 500'000u);
  EXPECT_TRUE(c.adaptive_fanout);
  EXPECT_EQ(c.gossip.fanout, 9u);
  EXPECT_EQ(c.gossip.max_rounds, 6u);
  EXPECT_EQ(c.overlay.view_size, 20u);
  EXPECT_EQ(c.retransmission_period, 200 * kMillisecond);
  EXPECT_EQ(c.overlay_kind, OverlayKind::oracle);
}

TEST(Cli, PurgePolicyAndChurn) {
  const auto options = parse({"--purge", "oldest", "--churn", "1.5"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->config.purge_policy,
            net::TransportOptions::PurgePolicy::drop_oldest);
  EXPECT_DOUBLE_EQ(options->config.churn_rate, 1.5);
  std::string error;
  EXPECT_FALSE(parse_cli({"--purge", "everything"}, error));
}

TEST(Cli, OverlaySelection) {
  EXPECT_EQ(parse({"--overlay", "hyparview"})->config.overlay_kind,
            OverlayKind::hyparview);
  EXPECT_EQ(parse({"--overlay", "static"})->config.overlay_kind,
            OverlayKind::static_random);
  EXPECT_EQ(parse({"--overlay", "cyclon"})->config.overlay_kind,
            OverlayKind::cyclon);
  EXPECT_EQ(parse({"--static-overlay"})->config.overlay_kind,
            OverlayKind::static_random);
  std::string error;
  EXPECT_FALSE(parse_cli({"--overlay", "mesh"}, error));
}

TEST(Cli, KillDefaultsToRandomMode) {
  const auto options = parse({"--kill", "0.3"});
  ASSERT_TRUE(options);
  EXPECT_DOUBLE_EQ(options->config.kill_fraction, 0.3);
  EXPECT_EQ(options->config.kill_mode, KillMode::random);
}

TEST(Cli, KillModeBest) {
  const auto options = parse({"--kill", "0.2", "--kill-mode", "best"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->config.kill_mode, KillMode::best_ranked);
}

TEST(Cli, HelpShortCircuits) {
  const auto options = parse({"--help", "--bogus-flag-after-help"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->help);
  EXPECT_FALSE(cli_help_text().empty());
}

TEST(Cli, KvFlag) {
  const auto options = parse({"--kv"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->json);
}

TEST(Cli, TreeStatsFlag) {
  EXPECT_FALSE(parse({})->config.collect_tree_stats);
  const auto options = parse({"--tree-stats"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->config.collect_tree_stats);
}

TEST(Cli, RejectsUnknownFlag) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--frobnicate"}, error));
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--nodes"}, error));
  EXPECT_NE(error.find("--nodes"), std::string::npos);
}

TEST(Cli, RejectsNonNumericValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--pi", "abc"}, error));
  EXPECT_NE(error.find("--pi"), std::string::npos);
  EXPECT_FALSE(parse_cli({"--nodes", "-5"}, error));
  EXPECT_FALSE(parse_cli({"--nodes", "5x"}, error));
  // Integers must fit their field: 4294967316 used to wrap to 20 nodes.
  EXPECT_FALSE(parse_cli({"--nodes", "4294967316"}, error));
  EXPECT_EQ(error,
            "--nodes: must be an integer in [0, 4294967295], got "
            "'4294967316'");
  EXPECT_FALSE(parse_cli({"--fanout", "-1"}, error));
  EXPECT_FALSE(parse_cli({"--seed", "18446744073709551616"}, error));
  // Numbers are plain decimal.
  EXPECT_FALSE(parse_cli({"--pi", "+0.5"}, error));
  EXPECT_FALSE(parse_cli({"--pi", "0x1p-1"}, error));
  EXPECT_FALSE(parse_cli({"--pi", "inf"}, error));
}

TEST(Cli, RejectsUnknownEnumValues) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--strategy", "magic"}, error));
  EXPECT_FALSE(parse_cli({"--monitor", "tea-leaves"}, error));
  EXPECT_FALSE(parse_cli({"--kill-mode", "all"}, error));
}

TEST(Cli, BackpressureFlagsParseAndValidate) {
  const auto options =
      parse({"--buffer", "32768", "--backpressure", "on", "--bp-high", "0.8",
             "--bp-low", "0.4", "--bp-replies", "2", "--pull-sched", "rarest"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->config.backpressure);
  EXPECT_DOUBLE_EQ(options->config.bp_high_watermark, 0.8);
  EXPECT_DOUBLE_EQ(options->config.bp_low_watermark, 0.4);
  EXPECT_EQ(options->config.bp_max_replies_per_dst, 2u);
  EXPECT_EQ(options->config.pull_sched, core::PullOrder::rarest);
  // Defaults: off, legacy pull order.
  EXPECT_FALSE(parse({})->config.backpressure);
  EXPECT_EQ(parse({})->config.pull_sched, core::PullOrder::random);

  std::string error;
  EXPECT_FALSE(parse_cli({"--backpressure", "maybe"}, error));
  EXPECT_FALSE(parse_cli({"--pull-sched", "newest"}, error));
  // Backpressure needs a bounded buffer to watch.
  EXPECT_FALSE(parse_cli({"--backpressure", "on"}, error));
  EXPECT_NE(error.find("--buffer"), std::string::npos);
  // Flag order must not matter for the cross-flag check.
  EXPECT_TRUE(parse({"--backpressure", "on", "--buffer", "16384"}));
}

TEST(Cli, ShardsFlagParsesAndGates) {
  EXPECT_EQ(parse({})->config.shards, 1u);
  EXPECT_EQ(parse({"--shards", "4"})->config.shards, 4u);
  // Composes with --scenario/--churn/--tree-stats only at shards == 1.
  EXPECT_TRUE(parse({"--shards", "1", "--churn", "2"}));

  std::string error;
  EXPECT_FALSE(parse_cli({"--shards", "0"}, error));
  EXPECT_FALSE(parse_cli({"--shards", "2", "--scenario", "x.scn"}, error));
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_FALSE(parse_cli({"--shards", "2", "--churn", "2"}, error));
  EXPECT_FALSE(parse_cli({"--shards", "2", "--tree-stats"}, error));
  // The shared noise calibration is order-dependent — single-threaded only.
  EXPECT_FALSE(parse_cli({"--shards", "2", "--noise", "0.5"}, error));
  EXPECT_NE(error.find("--noise"), std::string::npos);
  EXPECT_TRUE(parse({"--shards", "1", "--noise", "0.5"}));
  // Flag order must not matter for the cross-flag gates.
  EXPECT_FALSE(parse_cli({"--churn", "2", "--shards", "2"}, error));
  EXPECT_FALSE(parse_cli({"--noise", "0.5", "--shards", "2"}, error));
}

TEST(Cli, ShardsSweepParam) {
  std::string error;
  const auto config = point({}, "shards", "8", error);
  ASSERT_TRUE(config) << error;
  EXPECT_EQ(config->shards, 8u);
  EXPECT_FALSE(point({}, "shards", "0", error));
}

TEST(Cli, SweepPointsMeetShardGates) {
  // A sweep point can enter a gated combination its base flags were not
  // in. parse_sweep rejects it before any point runs, with the same line
  // parse_cli and run_experiment use.
  std::string error;
  EXPECT_TRUE(point({"--churn", "2"}, "shards", "1", error));
  EXPECT_FALSE(point({"--churn", "2"}, "shards", "2", error));
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_NE(error.find("--churn"), std::string::npos);
  ExperimentConfig c = parse({"--churn", "2"})->config;
  c.shards = 2;
  EXPECT_EQ(error, shard_gate_error(c));
  EXPECT_THROW(run_experiment(c), CheckFailure);

  EXPECT_TRUE(point({"--shards", "2"}, "noise", "0", error));
  EXPECT_FALSE(point({"--shards", "2"}, "noise", "0.5", error));
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_NE(error.find("--noise"), std::string::npos);
}

TEST(Cli, ScenarioFlagStoresPath) {
  const auto options = parse({"--scenario", "examples/kill_best_nodes.scn"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->scenario_path, "examples/kill_best_nodes.scn");
  // The parser is pure: no file IO, the scenario script stays empty.
  EXPECT_TRUE(options->config.scenario.empty());
}

TEST(Cli, ScenarioFlagRequiresValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--scenario"}, error));
  EXPECT_NE(error.find("--scenario"), std::string::npos);
}

TEST(Cli, FormatResultKvIncludesPhaseLines) {
  ExperimentResult r;
  r.faults_injected = 3;
  stats::PhaseReport p;
  p.label = "kill";
  p.start = 60 * kSecond;
  p.end = 120 * kSecond;
  p.messages = 10;
  p.reliability = 0.5;
  r.phase_reports.push_back(p);
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("faults_injected=3"), std::string::npos);
  EXPECT_NE(kv.find("phases=1"), std::string::npos);
  EXPECT_NE(kv.find("phase0_label=kill"), std::string::npos);
  EXPECT_NE(kv.find("phase0_start_ms=60000"), std::string::npos);
  EXPECT_NE(kv.find("phase0_reliability=0.5"), std::string::npos);
  // Still one key per line, every line contains '='.
  std::istringstream stream(kv);
  std::string line;
  while (std::getline(stream, line)) {
    EXPECT_NE(line.find('='), std::string::npos);
  }
}

TEST(Cli, FormatResultKvIsParseable) {
  ExperimentResult r;
  r.mean_latency_ms = 123.5;
  r.live_nodes = 80;
  r.payload_packets = 999;
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("mean_latency_ms=123.5"), std::string::npos);
  EXPECT_NE(kv.find("live_nodes=80"), std::string::npos);
  EXPECT_NE(kv.find("payload_packets=999"), std::string::npos);
  // One key per line, every line contains '='.
  std::istringstream stream(kv);
  std::string line;
  int lines = 0;
  while (std::getline(stream, line)) {
    EXPECT_NE(line.find('='), std::string::npos);
    ++lines;
  }
  EXPECT_GE(lines, 15);
}

TEST(Cli, ApplySweepParamCoversAllNames) {
  // Each step sweeps one more flag over the flags swept so far.
  std::vector<std::string> base;
  ExperimentConfig c;
  std::string error;
  const auto sweep = [&](const std::string& name, const std::string& value) {
    const auto p = point(base, name, value, error);
    if (!p) return false;
    c = *p;
    base.insert(base.end(), {"--" + name, value});
    return true;
  };
  EXPECT_TRUE(sweep("pi", "0.3"));
  EXPECT_DOUBLE_EQ(c.strategy.pi, 0.3);
  EXPECT_TRUE(sweep("u", "4"));
  EXPECT_EQ(c.strategy.u, 4u);
  EXPECT_TRUE(sweep("rho", "12.5"));
  EXPECT_DOUBLE_EQ(c.strategy.rho, 12.5);
  EXPECT_TRUE(sweep("best", "0.1"));
  EXPECT_TRUE(sweep("noise", "0.4"));
  EXPECT_TRUE(sweep("t0", "50"));
  EXPECT_EQ(c.strategy.t0, 50 * kMillisecond);
  EXPECT_TRUE(sweep("loss", "0.01"));
  EXPECT_TRUE(sweep("kill", "0.2"));
  EXPECT_EQ(c.kill_mode, KillMode::random);  // auto-defaulted
  EXPECT_TRUE(sweep("churn", "1.0"));
  EXPECT_TRUE(sweep("batch-ms", "25"));
  EXPECT_EQ(c.ihave_batch_window, 25 * kMillisecond);
  EXPECT_TRUE(sweep("interval-ms", "200"));
  EXPECT_TRUE(sweep("period-ms", "300"));
  EXPECT_TRUE(sweep("fanout", "7"));
  EXPECT_EQ(c.gossip.fanout, 7u);
  EXPECT_TRUE(sweep("nodes", "64"));
  EXPECT_TRUE(sweep("messages", "99"));
  EXPECT_TRUE(sweep("seed", "5"));
  EXPECT_FALSE(sweep("flux-capacitor", "1.21"));
  EXPECT_NE(error.find("flux-capacitor"), std::string::npos);

  // Sweep names are flag names: every flag that takes a value, listed
  // first the knobs the paper's figures sweep.
  std::vector<std::string> names = {
      "pi", "u", "rho", "best", "noise", "t0", "loss", "kill", "churn",
      "batch-ms", "interval-ms", "period-ms", "retry-rounds", "fanout",
      "nodes", "messages", "seed", "shards", "backpressure", "senders",
      "rate", "duration-ms", "burst-on-ms", "burst-off-ms"};
  for (const FlagCase& fc : flag_cases()) {
    if (!fc.value.empty()) names.push_back(fc.flag.substr(2));
  }
  for (const std::string& name : names) {
    error.clear();
    point({}, name, "1", error);
    EXPECT_EQ(error.find("unknown sweep parameter"), std::string::npos)
        << name;
  }
  // Integer flags take only whole values in their field's range: -5 nodes
  // used to abort, fanout -1 ran as 4294967295 and u 2.5 as 2.
  for (const char* name : {"u", "retry-rounds", "fanout", "nodes",
                           "messages", "seed", "shards", "senders"}) {
    for (const char* bad : {"-5", "-1", "2.5", "1e20"}) {
      EXPECT_FALSE(point({}, name, bad, error)) << name << " " << bad;
      EXPECT_EQ(
          error.rfind("--" + std::string(name) + ": must be an integer in [",
                      0),
          0u)
          << error;
    }
  }
  EXPECT_FALSE(point(base, "nodes", "4294967296", error));
  EXPECT_EQ(error, "--nodes: must be an integer in [0, 4294967295], got "
                   "'4294967296'");
}

TEST(Cli, WorkloadFlagsBuildSpec) {
  const auto options = parse({"--senders", "4", "--arrival", "burst",
                              "--rate", "20", "--duration-ms", "5000",
                              "--burst-on-ms", "250", "--burst-off-ms", "750",
                              "--topics", "2", "--topic-fraction", "0.5"});
  ASSERT_TRUE(options);
  const load::WorkloadSpec& wl = options->config.workload;
  ASSERT_EQ(wl.publishers.size(), 4u);
  EXPECT_EQ(wl.duration, 5 * kSecond);
  ASSERT_EQ(wl.topics.size(), 2u);
  EXPECT_DOUBLE_EQ(wl.topics[0].fraction, 0.5);
  for (std::size_t p = 0; p < wl.publishers.size(); ++p) {
    EXPECT_EQ(wl.publishers[p].arrival, load::ArrivalKind::burst);
    EXPECT_DOUBLE_EQ(wl.publishers[p].rate, 20.0);
    EXPECT_EQ(wl.publishers[p].burst_on, 250 * kMillisecond);
    EXPECT_EQ(wl.publishers[p].burst_off, 750 * kMillisecond);
    EXPECT_EQ(wl.publishers[p].topic, static_cast<std::uint32_t>(p % 2));
  }
}

TEST(Cli, NoWorkloadFlagsLeaveSpecEmpty) {
  // Legacy configurations must stay bit-for-bit unchanged: without any
  // workload flag, config.workload is empty and the light loop runs.
  EXPECT_TRUE(parse({})->config.workload.empty());
  EXPECT_TRUE(parse({"--messages", "50"})->config.workload.empty());
}

TEST(Cli, RejectsZeroSenders) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "0"}, error));
  EXPECT_EQ(error, "--senders: must be >= 1");
}

TEST(Cli, RejectsNonPositiveRate) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "0"}, error));
  EXPECT_EQ(error, "--rate: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "-3.5"}, error));
  EXPECT_EQ(error, "--rate: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "nan"}, error));
}

TEST(Cli, RejectsUnknownArrivalKind) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "2", "--arrival", "warp"}, error));
  EXPECT_EQ(error, "--arrival: unknown kind: warp");
}

TEST(Cli, RejectsBadWorkloadWindows) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "1", "--duration-ms", "0"}, error));
  EXPECT_EQ(error, "--duration-ms: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "1", "--burst-on-ms", "0"}, error));
  EXPECT_EQ(error, "--burst-on-ms: must be > 0");
}

TEST(Cli, RejectsEmptyTopicConfiguration) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "1", "--topics", "0"}, error));
  EXPECT_EQ(error, "--topics: must be >= 1");
  EXPECT_FALSE(
      parse_cli({"--senders", "1", "--topics", "2", "--topic-fraction", "0"},
                error));
  EXPECT_EQ(error, "--topic-fraction: must be in (0, 1]");
  EXPECT_FALSE(
      parse_cli({"--senders", "1", "--topics", "2", "--topic-fraction", "1.5"},
                error));
  EXPECT_EQ(error, "--topic-fraction: must be in (0, 1]");
}

TEST(Cli, WorkloadAuxFlagsRequireSenders) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--rate", "20"}, error));
  EXPECT_NE(error.find("--senders"), std::string::npos);
}

TEST(Cli, WorkloadFileExcludesInlineFlags) {
  const auto options = parse({"--workload", "examples/saturation.wl"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->workload_path, "examples/saturation.wl");
  // The parser is pure: no file IO, the spec stays empty.
  EXPECT_TRUE(options->config.workload.empty());
  std::string error;
  EXPECT_FALSE(
      parse_cli({"--workload", "x.wl", "--senders", "2"}, error));
  EXPECT_NE(error.find("--workload"), std::string::npos);
}

TEST(Cli, FormatResultKvIncludesGoodputLines) {
  ExperimentResult r;
  r.offered_msgs = 1234;
  r.goodput_msgs_per_s = 87.5;
  r.redundancy_ratio = 1.25;
  r.knee_time_ms = 4000;
  r.egress_peak_depth = 17;
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("offered_msgs=1234"), std::string::npos);
  EXPECT_NE(kv.find("goodput_msgs_per_s=87.5"), std::string::npos);
  EXPECT_NE(kv.find("redundancy_ratio=1.25"), std::string::npos);
  EXPECT_NE(kv.find("knee_time_ms=4000"), std::string::npos);
  EXPECT_NE(kv.find("egress_peak_depth=17"), std::string::npos);
  EXPECT_NE(kv.find("egress_queue_delay_mean_ms=0"), std::string::npos);
}

TEST(Cli, PhaseKvIncludesLoadRates) {
  ExperimentResult r;
  stats::PhaseReport p;
  p.label = "burst";
  p.offered_per_s = 42.5;
  p.goodput_per_s = 40.0;
  r.phase_reports.push_back(p);
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("phase0_offered_per_s=42.5"), std::string::npos);
  EXPECT_NE(kv.find("phase0_goodput_per_s=40"), std::string::npos);
}

TEST(Cli, RunScalarsNameEachNumberOnce) {
  // Every row has a name, no name repeats, a counter holds an integer,
  // and each conditional block keeps its prefix.
  std::set<std::string> kv, json;
  std::size_t twins = 0;
  for (const RunScalar& s : run_scalars(ExperimentResult{})) {
    ASSERT_TRUE(s.kv != nullptr || s.json != nullptr);
    const std::string name = s.kv != nullptr ? s.kv : s.json;
    if (s.kv != nullptr) {
      EXPECT_TRUE(kv.insert(s.kv).second) << name;
    }
    if (s.json != nullptr) {
      EXPECT_TRUE(json.insert(s.json).second) << name;
    }
    twins += s.kv != nullptr && s.json != nullptr;
    if (s.merge == RunScalar::Merge::counter) {
      EXPECT_TRUE(std::holds_alternative<std::uint64_t>(s.value)) << name;
    }
    const std::string key = s.json != nullptr ? s.json : "";
    if (s.when == RunScalar::When::sharded) {
      EXPECT_TRUE(name.starts_with("sim_shard_") ||
                  name.starts_with("sim.shard."))
          << name;
    }
    if (s.when == RunScalar::When::backpressure) {
      EXPECT_TRUE(key.starts_with("backpressure.")) << name;
    }
  }
  EXPECT_EQ(kv.size(), 50u);
  EXPECT_EQ(json.size(), 32u);
  EXPECT_EQ(twins, 25u);
}

TEST(Cli, RunScalarsLayoutIsPinned) {
  // A small backpressure-on workload with a bounded buffer, so every
  // goodput, egress and backpressure line carries a live number.
  auto options = parse({"--nodes", "24", "--senders", "3", "--rate", "40",
                        "--duration-ms", "1500", "--bandwidth", "400000",
                        "--buffer", "4096", "--backpressure", "on", "--purge",
                        "oldest", "--metrics-out", "m.json"});
  ASSERT_TRUE(options);
  const ExperimentResult r = run_experiment(options->config);
  const std::string kv = format_result_kv(r);
  EXPECT_EQ(kv, R"(mean_latency_ms=925.51
latency_ci95_ms=48.9949
p50_latency_ms=733.798
p95_latency_ms=2130.18
payload_per_delivery=1.39721
payload_per_msg_all=1.39721
payload_per_msg_low=1.39721
payload_per_msg_best=0
mean_delivery_fraction=1
atomic_delivery_fraction=1
top5_connection_share=0.09864
payload_packets=6103
control_packets=54075
total_bytes=3977382
duplicate_payloads=1917
requests_sent=8287
iwant_retries=895
recovery_gave_up=0
recovery_stalled=0
packets_lost=0
buffer_drops=21814
live_nodes=24
events_executed=132810
path_model_bytes=5760
path_rows_computed=24
path_row_evictions=0
offered_msgs=182
offered_msgs_per_s=19.1688
goodput_msgs_per_s=460.052
redundancy_ratio=1.89423
knee_time_ms=-1
offtopic_deliveries=0
egress_serialized_packets=60178
egress_queue_delay_mean_ms=52.4386
egress_queue_delay_max_ms=81.88
egress_peak_depth=98
egress_peak_queued_bytes=4096
eager_deferred=45637
replies_deferred=874
drops_readvertised=19352
iwants_purged=2418
watermark_episodes=486
watermark_residency_ms=71458.7
)");
  // The aggregate registry's scalars: the run's exported keys plus the
  // lifecycle tracker's counters.
  ASSERT_TRUE(r.metrics);
  std::string scalars;
  for (const auto& [name, value] : r.metrics->aggregate.counters()) {
    scalars += name + "=" + text(value) + "\n";
  }
  for (const auto& [name, value] : r.metrics->aggregate.gauges()) {
    scalars += name + "=" + text(value) + "\n";
  }
  EXPECT_EQ(scalars, R"(backpressure.drops_readvertised=19352
backpressure.eager_deferred=45637
backpressure.iwants_purged=2418
backpressure.replies_deferred=874
backpressure.watermark_episodes=486
deliveries=4368
drops_buffer=21814
drops_payload=2171
goodput.deliveries=4368
goodput.expected_deliveries=4368
goodput.offered_msgs=182
goodput.offtopic_deliveries=0
goodput.payload_sends=8274
iwant_retries=895
iwants_sent=8287
recovery_episodes=3907
recovery_gave_up=0
recovery_recovered=3907
recovery_stalled=0
relays=4368
transport.buffer_drops=21814
transport.egress_serialized_packets=60178
arena.bytes=19430
arena.messages=182
backpressure.watermark_residency_ms=71458.702999999994
goodput.goodput_msgs_per_s=460.05233305935224
goodput.knee_time_ms=-1
goodput.offered_msgs_per_s=19.168847210806344
goodput.redundancy_ratio=1.8942307692307692
path_model.bytes=5760
path_model.row_evictions=0
path_model.rows_computed=24
transport.egress_max_sojourn_us=81880
transport.egress_peak_depth=98
transport.egress_peak_queued_bytes=4096
)");

  // At two shards the kv keys are the same, plus sim_shard_* after
  // watermark_residency_ms.
  const auto keys = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      out.push_back(line.substr(0, line.find('=')));
    }
    return out;
  };
  options->config.shards = 2;
  std::vector<std::string> want = keys(kv);
  const auto at = std::find(want.begin(), want.end(), "watermark_residency_ms");
  ASSERT_NE(at, want.end());
  want.insert(at + 1, {"sim_shard_count", "sim_shard_windows",
                       "sim_shard_lookahead_ms", "sim_shard_mailbox_packets",
                       "sim_shard_mailbox_bytes", "sim_shard_busy_ms",
                       "sim_shard_barrier_wait_ms"});
  EXPECT_EQ(keys(format_result_kv(run_experiment(options->config))), want);
}

TEST(Cli, ApplySweepParamWorkloadNames) {
  std::string error;
  // rate/burst knobs need a workload to act on.
  EXPECT_FALSE(point({}, "rate", "20", error));
  EXPECT_NE(error.find("rate"), std::string::npos);
  auto c = point({}, "senders", "8", error);
  ASSERT_TRUE(c) << error;
  ASSERT_EQ(c->workload.publishers.size(), 8u);
  const std::vector<std::string> eight = {"--senders", "8"};
  c = point(eight, "rate", "20", error);
  ASSERT_TRUE(c) << error;
  for (const auto& pub : c->workload.publishers) {
    EXPECT_DOUBLE_EQ(pub.rate, 20.0);
  }
  c = point(eight, "duration-ms", "4000", error);
  ASSERT_TRUE(c) << error;
  EXPECT_EQ(c->workload.duration, 4 * kSecond);
  c = point(eight, "burst-on-ms", "250", error);
  ASSERT_TRUE(c) << error;
  EXPECT_EQ(c->workload.publishers[0].burst_on, 250 * kMillisecond);
  c = point(eight, "burst-off-ms", "750", error);
  ASSERT_TRUE(c) << error;
  EXPECT_EQ(c->workload.publishers[0].burst_off, 750 * kMillisecond);
  // Shrinking keeps a customized rate.
  c = point({"--senders", "8", "--rate", "99"}, "senders", "2", error);
  ASSERT_TRUE(c) << error;
  ASSERT_EQ(c->workload.publishers.size(), 2u);
  EXPECT_DOUBLE_EQ(c->workload.publishers[1].rate, 99.0);
  EXPECT_FALSE(point(eight, "senders", "0", error));
  EXPECT_FALSE(point(eight, "rate", "-1", error));
}

TEST(Cli, ParseValueList) {
  std::string error;
  const auto ok = parse_sweep({}, "rho", "0,0.5,1e2,-3", error);
  ASSERT_TRUE(ok) << error;
  std::vector<double> rho;
  for (const ExperimentConfig& c : ok->points) rho.push_back(c.strategy.rho);
  EXPECT_EQ(rho, (std::vector<double>{0, 0.5, 100, -3}));
  // Points are labelled by their tokens, as given.
  EXPECT_EQ(ok->values, (std::vector<std::string>{"0", "0.5", "1e2", "-3"}));
  EXPECT_FALSE(parse_sweep({}, "rho", "1,two,3", error));
  EXPECT_FALSE(parse_sweep({}, "rho", "", error));
}

TEST(Cli, EndToEndSmallRun) {
  const auto options =
      parse({"--nodes", "25", "--messages", "20", "--strategy", "ttl", "--u",
             "2", "--seed", "1"});
  ASSERT_TRUE(options);
  ExperimentConfig c = options->config;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  const ExperimentResult r = run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
}

}  // namespace
}  // namespace esm::harness
