#include "harness/cli.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace esm::harness {
namespace {

std::optional<CliOptions> parse(std::vector<std::string> args) {
  std::string error;
  auto result = parse_cli(args, error);
  EXPECT_TRUE(result.has_value()) << error;
  return result;
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
  ExperimentConfig config;
  std::string error;
  EXPECT_TRUE(apply_sweep_param(config, "shards", 8.0, error));
  EXPECT_EQ(config.shards, 8u);
  EXPECT_FALSE(apply_sweep_param(config, "shards", 0.0, error));
}

TEST(Cli, SweepPointsMeetShardGates) {
  // A sweep point can enter a gated combination its parsed base config was
  // not in. apply_sweep_param rejects it before any point runs, with the
  // same line parse_cli and run_experiment use.
  std::string error;
  const auto churn = parse({"--churn", "2"});
  ASSERT_TRUE(churn);
  ExperimentConfig c = churn->config;
  EXPECT_TRUE(apply_sweep_param(c, "shards", 1.0, error));
  EXPECT_FALSE(apply_sweep_param(c, "shards", 2.0, error));
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_NE(error.find("--churn"), std::string::npos);
  EXPECT_EQ(error, shard_gate_error(c));
  EXPECT_THROW(run_experiment(c), CheckFailure);

  const auto sharded = parse({"--shards", "2"});
  ASSERT_TRUE(sharded);
  c = sharded->config;
  EXPECT_TRUE(apply_sweep_param(c, "noise", 0.0, error));
  EXPECT_FALSE(apply_sweep_param(c, "noise", 0.5, error));
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
  ExperimentConfig c;
  std::string error;
  EXPECT_TRUE(apply_sweep_param(c, "pi", 0.3, error));
  EXPECT_DOUBLE_EQ(c.strategy.pi, 0.3);
  EXPECT_TRUE(apply_sweep_param(c, "u", 4, error));
  EXPECT_EQ(c.strategy.u, 4u);
  EXPECT_TRUE(apply_sweep_param(c, "rho", 12.5, error));
  EXPECT_DOUBLE_EQ(c.strategy.rho, 12.5);
  EXPECT_TRUE(apply_sweep_param(c, "best", 0.1, error));
  EXPECT_TRUE(apply_sweep_param(c, "noise", 0.4, error));
  EXPECT_TRUE(apply_sweep_param(c, "t0-ms", 50, error));
  EXPECT_EQ(c.strategy.t0, 50 * kMillisecond);
  EXPECT_TRUE(apply_sweep_param(c, "loss", 0.01, error));
  EXPECT_TRUE(apply_sweep_param(c, "kill", 0.2, error));
  EXPECT_EQ(c.kill_mode, KillMode::random);  // auto-defaulted
  EXPECT_TRUE(apply_sweep_param(c, "churn", 1.0, error));
  EXPECT_TRUE(apply_sweep_param(c, "batch-ms", 25, error));
  EXPECT_EQ(c.ihave_batch_window, 25 * kMillisecond);
  EXPECT_TRUE(apply_sweep_param(c, "interval-ms", 200, error));
  EXPECT_TRUE(apply_sweep_param(c, "period-ms", 300, error));
  EXPECT_TRUE(apply_sweep_param(c, "fanout", 7, error));
  EXPECT_EQ(c.gossip.fanout, 7u);
  EXPECT_TRUE(apply_sweep_param(c, "nodes", 64, error));
  EXPECT_TRUE(apply_sweep_param(c, "messages", 99, error));
  EXPECT_TRUE(apply_sweep_param(c, "seed", 5, error));
  EXPECT_FALSE(apply_sweep_param(c, "flux-capacitor", 1.21, error));
  EXPECT_NE(error.find("flux-capacitor"), std::string::npos);

  // Every name in the list esm_sweep prints is one apply_sweep_param knows.
  for (const char* name : kSweepParams) {
    ExperimentConfig fresh;
    error.clear();
    apply_sweep_param(fresh, name, 1.0, error);
    EXPECT_EQ(error.find("unknown sweep parameter"), std::string::npos)
        << name;
  }
  // Integer parameters take only whole values in their field's range:
  // -5 nodes used to abort, fanout -1 ran as 4294967295 and u 2.5 as 2.
  for (const char* name : {"u", "retry-rounds", "fanout", "nodes",
                           "messages", "seed", "shards", "senders"}) {
    for (const double bad : {-5.0, -1.0, 2.5, 1e20}) {
      ExperimentConfig fresh;
      EXPECT_FALSE(apply_sweep_param(fresh, name, bad, error))
          << name << " " << bad;
      EXPECT_EQ(error.rfind(std::string(name) + ": must be an integer in [", 0),
                0u)
          << error;
    }
  }
  EXPECT_FALSE(apply_sweep_param(c, "nodes", 4294967296.0, error));
  EXPECT_EQ(error, "nodes: must be an integer in [0, 4294967295], got "
                   "4294967296");
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

TEST(Cli, ApplySweepParamWorkloadNames) {
  ExperimentConfig c;
  std::string error;
  // rate/burst knobs need a workload to act on.
  EXPECT_FALSE(apply_sweep_param(c, "rate", 20, error));
  EXPECT_NE(error.find("rate"), std::string::npos);
  EXPECT_TRUE(apply_sweep_param(c, "senders", 8, error));
  ASSERT_EQ(c.workload.publishers.size(), 8u);
  EXPECT_TRUE(apply_sweep_param(c, "rate", 20, error));
  for (const auto& pub : c.workload.publishers) {
    EXPECT_DOUBLE_EQ(pub.rate, 20.0);
  }
  EXPECT_TRUE(apply_sweep_param(c, "duration-ms", 4000, error));
  EXPECT_EQ(c.workload.duration, 4 * kSecond);
  EXPECT_TRUE(apply_sweep_param(c, "burst-on-ms", 250, error));
  EXPECT_EQ(c.workload.publishers[0].burst_on, 250 * kMillisecond);
  EXPECT_TRUE(apply_sweep_param(c, "burst-off-ms", 750, error));
  EXPECT_EQ(c.workload.publishers[0].burst_off, 750 * kMillisecond);
  // Shrinking keeps the (possibly customized) first spec as the template.
  c.workload.publishers.front().rate = 99.0;
  EXPECT_TRUE(apply_sweep_param(c, "senders", 2, error));
  ASSERT_EQ(c.workload.publishers.size(), 2u);
  EXPECT_DOUBLE_EQ(c.workload.publishers[1].rate, 99.0);
  EXPECT_FALSE(apply_sweep_param(c, "senders", 0, error));
  EXPECT_FALSE(apply_sweep_param(c, "rate", -1, error));
}

TEST(Cli, ParseValueList) {
  std::string error;
  const auto ok = parse_value_list("0,0.5,1e2,-3", error);
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, (std::vector<double>{0, 0.5, 100, -3}));
  EXPECT_FALSE(parse_value_list("1,two,3", error));
  EXPECT_FALSE(parse_value_list("", error));
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
