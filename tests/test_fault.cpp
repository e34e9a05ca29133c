// Tests for the fault-injection subsystem: scenario model validation,
// the text parser, the injector mechanics, per-phase windowed metrics,
// and an end-to-end §6.3-style kill-and-recover experiment.
#include "fault/injector.hpp"
#include "fault/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario_text.hpp"
#include "load/workload.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "stats/phase_windows.hpp"

namespace esm::fault {
namespace {

// ---------------------------------------------------------------------
// Scenario text parser

harness::ExperimentConfig small_config(std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.seed = seed;
  c.num_nodes = 25;
  c.num_messages = 30;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

TEST(ScenarioText, ParsesFullGrammar) {
  const ScenarioScript script = harness::parse_scenario(
      "# a comment line\n"
      "0s    phase baseline   # trailing comment\n"
      "\n"
      "60s   crash best 5\n"
      "500ms crash nodes 0..2,7\n"
      "70s   recover all\n"
      "80s   recover random 3\n"
      "30s   partition 0..9 | 10,11\n"
      "35s   heal\n"
      "40s   loss rate=0.2 for=5s\n"
      "41s   loss rate=0.3 link=1-2\n"
      "42s   latency factor=2.5 for=1500ms\n"
      "43s   churn rate=1.5 for=10s\n"
      "44s   noise to=0.4 over=2s\n");
  ASSERT_EQ(script.events.size(), 12u);
  // Sorted by time: the 500ms crash comes right after the 0s phase.
  EXPECT_EQ(script.events[0].kind, FaultKind::phase);
  EXPECT_EQ(script.events[0].label, "baseline");
  EXPECT_EQ(script.events[1].at, 500 * kMillisecond);
  EXPECT_EQ(script.events[1].kind, FaultKind::crash);
  EXPECT_EQ(script.events[1].selector, SelectorKind::ids);
  EXPECT_EQ(script.events[1].ids, (std::vector<NodeId>{0, 1, 2, 7}));

  const FaultEvent& part = script.events[2];
  EXPECT_EQ(part.kind, FaultKind::partition);
  ASSERT_EQ(part.groups.size(), 2u);
  EXPECT_EQ(part.groups[0].size(), 10u);
  EXPECT_EQ(part.groups[1], (std::vector<NodeId>{10, 11}));
  EXPECT_EQ(script.events[3].kind, FaultKind::heal);

  const FaultEvent& loss = script.events[4];
  EXPECT_EQ(loss.kind, FaultKind::loss_burst);
  EXPECT_DOUBLE_EQ(loss.value, 0.2);
  EXPECT_EQ(loss.duration, 5 * kSecond);
  EXPECT_EQ(loss.link_a, kInvalidNode);

  const FaultEvent& link_loss = script.events[5];
  EXPECT_EQ(link_loss.link_a, 1u);
  EXPECT_EQ(link_loss.link_b, 2u);
  EXPECT_EQ(link_loss.duration, 0);

  const FaultEvent& spike = script.events[6];
  EXPECT_EQ(spike.kind, FaultKind::latency_spike);
  EXPECT_DOUBLE_EQ(spike.value, 2.5);
  EXPECT_EQ(spike.duration, 1500 * kMillisecond);

  EXPECT_EQ(script.events[7].kind, FaultKind::churn);
  EXPECT_DOUBLE_EQ(script.events[7].value, 1.5);

  const FaultEvent& noise = script.events[8];
  EXPECT_EQ(noise.kind, FaultKind::noise_ramp);
  EXPECT_DOUBLE_EQ(noise.value, 0.4);
  EXPECT_EQ(noise.duration, 2 * kSecond);
  EXPECT_TRUE(script.has_noise_events());

  const FaultEvent& best = script.events[9];
  EXPECT_EQ(best.kind, FaultKind::crash);
  EXPECT_EQ(best.selector, SelectorKind::best);
  EXPECT_EQ(best.count, 5u);
  EXPECT_EQ(script.events[10].selector, SelectorKind::all_crashed);
  EXPECT_EQ(script.events[11].selector, SelectorKind::random);
}

TEST(ScenarioText, MultiWordPhaseLabel) {
  const ScenarioScript s = harness::parse_scenario("5s phase after the kill\n");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].label, "after the kill");
  EXPECT_EQ(s.events[0].at, 5 * kSecond);
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    harness::parse_scenario(text);
    FAIL() << "expected parse error for: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioText, ErrorsCarryLineNumbers) {
  expect_parse_error("0s phase a\n1s bogus-command x\n", "scenario line 2");
  expect_parse_error("10 phase late\n", "needs a unit");
  expect_parse_error("1s crash\n", "crash needs a selector");
  expect_parse_error("1s crash everything 5\n", "unknown selector");
  expect_parse_error("1s crash best\n", "needs a count");
  expect_parse_error("1s crash best 0\n", "count must be > 0");
  expect_parse_error("1s crash nodes 5..2\n", "backwards range");
  expect_parse_error("1s phase\n", "phase needs a label");
  // Comma labels would land in a trace CSV field and fail to re-parse far
  // from the cause; rejected at scenario-parse time instead.
  expect_parse_error("1s phase warm,up\n", "must not contain commas");
  expect_parse_error("1s loss for=5s\n", "loss needs rate=");
  expect_parse_error("1s loss rate=abc\n", "bad number");
  expect_parse_error("1s latency rate=2\n", "latency needs factor=");
  expect_parse_error("1s loss rate=0.1 link=5\n", "link=A-B");
  expect_parse_error("1s partition\n", "at least one group");
  expect_parse_error("1s heal now\n", "heal takes no arguments");
  expect_parse_error("1s churn 2\n", "expected key=value");
  expect_parse_error("-1s phase x\n", "bad time");
  expect_parse_error("1s\n", "expected '<time> <command> ...'");
  // Each command has a key vocabulary, and a key may appear once.
  expect_parse_error("2s loss rate=0.5 fro=1s\n", "loss: unknown key 'fro='");
  expect_parse_error("1s loss rate=0.1 rate=0.2\n",
                     "loss: duplicate key 'rate='");
  expect_parse_error("1s latency factor=2 link=1-2 rate=3\n",
                     "latency: unknown key 'rate='");
  expect_parse_error("1s churn rate=1 over=5s\n", "churn: unknown key 'over='");
  expect_parse_error("1s noise to=0.5 for=2s\n", "noise: unknown key 'for='");
  // 4294967295 is the reserved "no node" id. A range ending there used to
  // wrap its loop counter and run until memory ran out.
  expect_parse_error("1s crash nodes 4294967294..4294967295\n",
                     "node id must be an integer in [0, 4294967294]");
  expect_parse_error("1s loss rate=0.1 link=1-4294967295\n", "node id");
  // Numbers are plain decimal.
  expect_parse_error("1s loss rate=+0.1\n", "bad number");
  expect_parse_error("1s loss rate=0x1p-3\n", "bad number");
  expect_parse_error("1s crash best +2\n", "count must be an integer");
  expect_parse_error("99999999999999s phase x\n", "out of range");
}

TEST(ScenarioText, RangeEndingAtLargestNodeIdTerminates) {
  const ScenarioScript s =
      harness::parse_scenario("1s crash nodes 4294967293..4294967294\n");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].ids, (std::vector<NodeId>{4294967293, 4294967294}));
}

TEST(ScenarioText, LoadScenarioFileErrors) {
  EXPECT_THROW(harness::load_scenario_file("/nonexistent/file.scn"),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Script validation

FaultEvent crash_ids(std::vector<NodeId> ids) {
  FaultEvent e;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::ids;
  e.ids = std::move(ids);
  return e;
}

TEST(ScenarioValidate, AcceptsInRangeScript) {
  ScenarioScript s;
  s.events.push_back(crash_ids({0, 9}));
  EXPECT_NO_THROW(s.validate(10));
}

TEST(ScenarioValidate, RejectsBadScripts) {
  {
    ScenarioScript s;
    s.events.push_back(crash_ids({10}));
    EXPECT_THROW(s.validate(10), CheckFailure);  // id out of range
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::crash;
    e.selector = SelectorKind::all_crashed;
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);  // recover-only selector
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::crash;
    e.selector = SelectorKind::random;
    e.count = 10;
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);  // count >= num_nodes
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::loss_burst;
    e.value = 1.0;
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);  // loss must be < 1
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::latency_spike;
    e.value = 0.0;
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);  // factor must be > 0
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::loss_burst;
    e.value = 0.1;
    e.link_a = 1;  // link_b missing
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::partition;
    e.groups = {{1, 2}, {2, 3}};  // node 2 in two groups
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::noise_ramp;
    e.value = 1.5;
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);
  }
  {
    ScenarioScript s;
    FaultEvent e;
    e.kind = FaultKind::phase;
    e.label = "a,b";  // commas break the CSV trace format
    s.events.push_back(e);
    EXPECT_THROW(s.validate(10), CheckFailure);
  }
}

TEST(ScenarioValidate, DescribeIsHumanReadable) {
  FaultEvent e;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::best;
  e.count = 5;
  EXPECT_EQ(describe(e), "crash best 5");
  FaultEvent p;
  p.kind = FaultKind::phase;
  p.label = "kill";
  EXPECT_EQ(describe(p), "phase \"kill\"");
}

// ---------------------------------------------------------------------
// FaultInjector

struct InjectorFixture {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{10 * kMillisecond};
  net::Transport transport;
  std::vector<NodeId> crashes, recoveries;
  std::vector<std::string> phases;
  std::vector<double> churn_rates, noise_levels;

  explicit InjectorFixture(std::uint32_t n = 10)
      : transport(sim, latency, n, {}, Rng(3)) {}

  InjectorHooks hooks() {
    InjectorHooks h;
    h.on_crash = [this](NodeId id) { crashes.push_back(id); };
    h.on_recover = [this](NodeId id) { recoveries.push_back(id); };
    h.on_phase = [this](const std::string& l) { phases.push_back(l); };
    h.on_churn_rate = [this](double r) { churn_rates.push_back(r); };
    h.on_noise = [this](double o) { noise_levels.push_back(o); };
    return h;
  }

  FaultInjector make(ScenarioScript script,
                     std::vector<NodeId> best_first = {}) {
    return FaultInjector(sim, transport, std::move(script),
                         std::move(best_first), Rng(99), hooks());
  }
};

TEST(FaultInjector, CrashBestUsesRankingAndSkipsDeadNodes) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.at = 1 * kSecond;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::best;
  e.count = 3;
  script.events.push_back(e);
  // Node 7 (the best) is already down: the selector must skip it and
  // take the next three in ranking order.
  f.transport.silence(7);
  FaultInjector inj = f.make(script, {7, 4, 1, 0, 2, 3, 5, 6, 8, 9});
  inj.arm(0);
  f.sim.run();
  EXPECT_EQ(f.crashes, (std::vector<NodeId>{4, 1, 0}));
  EXPECT_EQ(inj.crashed(), (std::vector<NodeId>{4, 1, 0}));
  EXPECT_TRUE(f.transport.is_silenced(4));
  EXPECT_EQ(inj.events_applied(), 3u);
}

TEST(FaultInjector, WorstSelectorTakesRankingTail) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::worst;
  e.count = 2;
  script.events.push_back(e);
  FaultInjector inj = f.make(script, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  inj.arm(0);
  f.sim.run();
  EXPECT_EQ(f.crashes, (std::vector<NodeId>{9, 8}));
}

TEST(FaultInjector, RecoverAllRevivesEveryCrashedNode) {
  InjectorFixture f;
  ScenarioScript script;
  script.events.push_back(crash_ids({2, 5, 8}));
  script.events.back().at = 1 * kSecond;
  FaultEvent rec;
  rec.at = 2 * kSecond;
  rec.kind = FaultKind::recover;
  rec.selector = SelectorKind::all_crashed;
  script.events.push_back(rec);
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run();
  EXPECT_EQ(f.crashes, (std::vector<NodeId>{2, 5, 8}));
  EXPECT_EQ(f.recoveries, (std::vector<NodeId>{2, 5, 8}));
  EXPECT_TRUE(inj.crashed().empty());
  EXPECT_FALSE(f.transport.is_silenced(5));
  EXPECT_EQ(inj.events_applied(), 6u);
}

TEST(FaultInjector, RandomSelectorDrawsRequestedCountOfLiveNodes) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::random;
  e.count = 4;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run();
  EXPECT_EQ(f.crashes.size(), 4u);
  for (const NodeId id : f.crashes) EXPECT_TRUE(f.transport.is_silenced(id));
}

TEST(FaultInjector, CrashIsIdempotentOnDeadNodes) {
  InjectorFixture f;
  ScenarioScript script;
  script.events.push_back(crash_ids({3}));
  script.events.push_back(crash_ids({3}));
  script.events.back().at = 1 * kSecond;
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run();
  // The second crash of an already-dead node is a no-op.
  EXPECT_EQ(f.crashes, (std::vector<NodeId>{3}));
  EXPECT_EQ(inj.events_applied(), 1u);
}

TEST(FaultInjector, PartitionAndHealDriveTransport) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent part;
  part.at = 1 * kSecond;
  part.kind = FaultKind::partition;
  part.groups = {{0, 1, 2}};
  script.events.push_back(part);
  FaultEvent heal;
  heal.at = 2 * kSecond;
  heal.kind = FaultKind::heal;
  script.events.push_back(heal);
  FaultInjector inj = f.make(script);
  inj.arm(0);

  int received = 0;
  f.transport.register_handler(
      5, [&](NodeId, const net::PacketPtr&) { ++received; });
  struct P final : public net::Packet {};
  // During the partition 0 -> 5 is cross-group and dropped; after the
  // heal it goes through.
  f.sim.schedule_at(1 * kSecond + 1, [&] {
    f.transport.send(0, 5, std::make_shared<P>(), 10, false);
  });
  f.sim.schedule_at(2 * kSecond + 1, [&] {
    f.transport.send(0, 5, std::make_shared<P>(), 10, false);
  });
  f.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(f.transport.partition_drops(), 1u);
  EXPECT_EQ(inj.events_applied(), 2u);
}

TEST(FaultInjector, LossBurstRestoresAfterDuration) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.at = 1 * kSecond;
  e.kind = FaultKind::loss_burst;
  e.value = 0.5;
  e.duration = 3 * kSecond;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run_until(1 * kSecond);
  EXPECT_DOUBLE_EQ(f.transport.extra_loss(), 0.5);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.transport.extra_loss(), 0.0);
  EXPECT_EQ(inj.events_applied(), 2u);  // burst + restore
}

TEST(FaultInjector, LinkLatencySpikeRestores) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.at = 1 * kSecond;
  e.kind = FaultKind::latency_spike;
  e.value = 4.0;
  e.duration = 2 * kSecond;
  e.link_a = 0;
  e.link_b = 1;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.arm(0);

  std::vector<SimTime> arrivals;
  f.transport.register_handler(1, [&](NodeId, const net::PacketPtr&) {
    arrivals.push_back(f.sim.now());
  });
  struct P final : public net::Packet {};
  f.sim.schedule_at(1 * kSecond + 1, [&] {
    f.transport.send(0, 1, std::make_shared<P>(), 10, false);  // spiked
  });
  f.sim.schedule_at(4 * kSecond, [&] {
    f.transport.send(0, 1, std::make_shared<P>(), 10, false);  // restored
  });
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1 * kSecond + 1 + 40 * kMillisecond);
  EXPECT_EQ(arrivals[1], 4 * kSecond + 10 * kMillisecond);
}

TEST(FaultInjector, ChurnIntervalCallsHookWithRateThenZero) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.at = 1 * kSecond;
  e.kind = FaultKind::churn;
  e.value = 2.5;
  e.duration = 5 * kSecond;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run();
  EXPECT_EQ(f.churn_rates, (std::vector<double>{2.5, 0.0}));
}

TEST(FaultInjector, NoiseRampStepsLinearlyToTarget) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.kind = FaultKind::noise_ramp;
  e.value = 0.5;
  e.duration = 10 * kSecond;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.arm(0);
  f.sim.run();
  ASSERT_EQ(f.noise_levels.size(), 10u);
  EXPECT_NEAR(f.noise_levels[0], 0.05, 1e-12);
  EXPECT_NEAR(f.noise_levels[4], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(f.noise_levels[9], 0.5);
}

TEST(FaultInjector, NoiseRampStartsFromInitialLevel) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.kind = FaultKind::noise_ramp;
  e.value = 0.0;  // ramp *down*
  e.duration = 2 * kSecond;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);
  inj.set_initial_noise(1.0);
  inj.arm(0);
  f.sim.run();
  ASSERT_EQ(f.noise_levels.size(), 10u);
  EXPECT_NEAR(f.noise_levels[0], 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(f.noise_levels[9], 0.0);
}

TEST(FaultInjector, ImmediateNoiseStepAndPhaseMarkers) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent phase;
  phase.kind = FaultKind::phase;
  phase.label = "baseline";
  script.events.push_back(phase);
  FaultEvent noise;
  noise.at = 1 * kSecond;
  noise.kind = FaultKind::noise_ramp;
  noise.value = 0.3;
  script.events.push_back(noise);
  FaultInjector inj = f.make(script);
  inj.arm(5 * kSecond);  // origin offset: events fire at origin + at
  f.sim.run_until(5 * kSecond);
  EXPECT_EQ(f.phases, (std::vector<std::string>{"baseline"}));
  EXPECT_TRUE(f.noise_levels.empty());
  f.sim.run();
  EXPECT_EQ(f.noise_levels, (std::vector<double>{0.3}));
}

TEST(FaultInjector, ArmTwiceIsAnError) {
  InjectorFixture f;
  ScenarioScript script;
  FaultInjector inj = f.make(script);
  inj.arm(0);
  EXPECT_THROW(inj.arm(0), CheckFailure);
}

TEST(FaultInjector, BestSelectorWithoutRankingIsAnError) {
  InjectorFixture f;
  ScenarioScript script;
  FaultEvent e;
  e.kind = FaultKind::crash;
  e.selector = SelectorKind::best;
  e.count = 1;
  script.events.push_back(e);
  FaultInjector inj = f.make(script);  // no best_first ranking
  inj.arm(0);
  EXPECT_THROW(f.sim.run(), CheckFailure);
}

// ---------------------------------------------------------------------
// PhaseWindows

TEST(PhaseWindows, AttributesMessagesToSendPhaseAndPayloadToWallClock) {
  stats::PhaseWindows pw(0);
  pw.start_phase(0, "a");
  pw.on_multicast(0, 2);
  pw.on_payload(0, 1);
  pw.on_delivery(0, 10.0, false);
  pw.start_phase(100, "b");
  // Late delivery of the phase-a message: counts toward phase a.
  pw.on_delivery(0, 30.0, false);
  // Payload sent now belongs to phase b.
  pw.on_payload(1, 2);
  pw.on_multicast(1, 2);
  pw.on_delivery(1, 5.0, false);
  pw.on_delivery(1, 7.0, false);
  const auto reports = pw.finalize(200);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].label, "a");
  EXPECT_EQ(reports[0].messages, 1u);
  EXPECT_EQ(reports[0].deliveries, 2u);
  EXPECT_DOUBLE_EQ(reports[0].reliability, 1.0);
  EXPECT_DOUBLE_EQ(reports[0].atomic_fraction, 1.0);
  EXPECT_DOUBLE_EQ(reports[0].mean_latency_ms, 20.0);
  EXPECT_EQ(reports[0].payload_packets, 1u);
  EXPECT_EQ(reports[0].end, 100);
  EXPECT_EQ(reports[1].label, "b");
  EXPECT_EQ(reports[1].messages, 1u);
  EXPECT_EQ(reports[1].payload_packets, 1u);
  EXPECT_DOUBLE_EQ(reports[1].mean_latency_ms, 6.0);
  EXPECT_EQ(reports[1].end, 200);
}

TEST(PhaseWindows, PartialDeliveryReliability) {
  stats::PhaseWindows pw(0);
  pw.start_phase(0, "kill");
  pw.on_multicast(0, 4);
  pw.on_delivery(0, 1.0, false);
  pw.on_delivery(0, 1.0, false);  // 2 of 4 delivered
  pw.on_multicast(1, 4);          // 0 of 4 delivered
  const auto reports = pw.finalize(10);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].reliability, 0.25);  // (0.5 + 0) / 2
  EXPECT_DOUBLE_EQ(reports[0].atomic_fraction, 0.0);
}

TEST(PhaseWindows, OriginDeliveryCountsForReliabilityNotLatency) {
  stats::PhaseWindows pw(0);
  pw.start_phase(0, "p");
  pw.on_multicast(0, 1);
  pw.on_delivery(0, 0.0, true);  // origin's own delivery
  const auto reports = pw.finalize(10);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].reliability, 1.0);
  EXPECT_DOUBLE_EQ(reports[0].mean_latency_ms, 0.0);
}

TEST(PhaseWindows, PreWindowKeptOnlyWhenUsed) {
  {
    // Activity before the first phase marker: "(pre)" survives.
    stats::PhaseWindows pw(0);
    pw.on_multicast(0, 1);
    pw.start_phase(50, "late");
    const auto reports = pw.finalize(100);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].label, "(pre)");
    EXPECT_EQ(reports[0].messages, 1u);
  }
  {
    // Phase starts immediately: the empty zero-width "(pre)" is dropped.
    stats::PhaseWindows pw(0);
    pw.start_phase(0, "baseline");
    pw.on_multicast(0, 1);
    const auto reports = pw.finalize(100);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].label, "baseline");
  }
}

TEST(PhaseWindows, UnknownSeqAndReliabilityCap) {
  stats::PhaseWindows pw(0);
  pw.start_phase(0, "p");
  pw.on_delivery(42, 1.0, false);  // warm-up message: ignored
  pw.on_multicast(0, 1);
  pw.on_delivery(0, 1.0, false);
  pw.on_delivery(0, 1.0, false);  // revived node: 2 of 1 "expected"
  const auto reports = pw.finalize(10);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].reliability, 1.0);  // capped
}

TEST(PhaseWindows, TopShareDetectsConcentrationPerPhase) {
  stats::PhaseWindows pw(0);
  pw.start_phase(0, "uniform");
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = a + 1; b < 21; ++b) pw.on_payload(a, b);
  }
  pw.start_phase(100, "hot");
  for (int i = 0; i < 200; ++i) pw.on_payload(0, 1);
  for (NodeId a = 2; a < 20; ++a) {
    for (NodeId b = a + 1; b < 21; ++b) pw.on_payload(a, b);
  }
  const auto reports = pw.finalize(200);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_NEAR(reports[0].top5_connection_share, 0.05, 0.02);
  EXPECT_GT(reports[1].top5_connection_share, 0.4);
}

// ---------------------------------------------------------------------
// End-to-end: §6.3 kill-and-recover through the experiment harness

TEST(FaultExperiment, KillBestAndRecoverKeepsReliability) {
  harness::ExperimentConfig c = small_config(11);
  c.num_messages = 60;
  c.strategy = harness::StrategySpec::make_ttl(2);
  c.scenario = harness::parse_scenario(
      "0s  phase baseline\n"
      "5s  phase kill\n"
      "5s  crash best 3\n"
      "12s phase recovered\n"
      "12s recover all\n");
  const harness::ExperimentResult r = harness::run_experiment(c);
  ASSERT_EQ(r.phase_reports.size(), 3u);
  EXPECT_EQ(r.phase_reports[0].label, "baseline");
  EXPECT_EQ(r.phase_reports[1].label, "kill");
  EXPECT_EQ(r.phase_reports[2].label, "recovered");
  // 3 phase markers + 3 crashes + 3 recoveries.
  EXPECT_EQ(r.faults_injected, 9u);
  // The epidemic tolerates the kill: every phase stays highly reliable
  // (expected counts are relative to the live set at send time).
  for (const auto& p : r.phase_reports) {
    EXPECT_GT(p.reliability, 0.9) << p.label;
    EXPECT_GT(p.messages, 0u) << p.label;
  }
  // Phase windows tile the measurement interval.
  EXPECT_EQ(r.phase_reports[0].end, r.phase_reports[1].start);
  EXPECT_EQ(r.phase_reports[1].end, r.phase_reports[2].start);
}

TEST(FaultExperiment, ScenarioNoiseRampWrapsStrategy) {
  harness::ExperimentConfig c = small_config(13);
  c.num_messages = 20;
  c.scenario = harness::parse_scenario(
      "0s phase clean\n"
      "2s noise to=0.8\n"
      "2s phase noisy\n");
  const harness::ExperimentResult r = harness::run_experiment(c);
  ASSERT_EQ(r.phase_reports.size(), 2u);
  // Flat pi=1.0 with heavy Eager?-noise still delivers (pull recovery),
  // so this mainly asserts the ramp plumbing doesn't break the run.
  EXPECT_GT(r.mean_delivery_fraction, 0.95);
}

TEST(FaultExperiment, LossBurstDuringSaturationComposesDeterministically) {
  // Satellite regression: the bandwidth queue and scenario fault
  // modifiers compose. A k-publisher workload saturates the bounded
  // egress while a scripted loss burst fires mid-run; the whole thing
  // must replay bit-identically (kv text equality) and both fault paths
  // must actually trigger.
  harness::ExperimentConfig c = small_config(23);
  c.strategy = harness::StrategySpec::make_ttl(2);
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 32 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  load::WorkloadSpec wl;
  wl.duration = 8 * kSecond;
  for (int p = 0; p < 4; ++p) {
    load::PublisherSpec pub;
    pub.rate = 20.0;
    wl.publishers.push_back(pub);
  }
  c.workload = wl;
  c.scenario = harness::parse_scenario(
      "0s phase ramp\n"
      "3s phase lossy\n"
      "3s loss rate=0.3 for=2s\n"
      "5s phase recovered\n");
  const harness::ExperimentResult a = harness::run_experiment(c);
  const harness::ExperimentResult b = harness::run_experiment(c);
  EXPECT_EQ(harness::format_result_kv(a), harness::format_result_kv(b));
  // The loss burst fired (apply + restore) alongside the phase markers.
  EXPECT_GT(a.faults_injected, 3u);
  EXPECT_GT(a.packets_lost, 0u);
  // The workload really drove the run into serialization.
  EXPECT_GT(a.offered_msgs, 200u);
  EXPECT_GT(a.egress_serialized_packets, 0u);
  EXPECT_GT(a.egress_queue_delay_mean_ms, 0.0);
  ASSERT_EQ(a.phase_reports.size(), 3u);
  for (const auto& p : a.phase_reports) {
    EXPECT_GT(p.offered_per_s, 0.0) << p.label;
    EXPECT_GT(p.goodput_per_s, 0.0) << p.label;
  }
}

TEST(FaultExperiment, ScenarioValidatedAgainstNodeCount) {
  harness::ExperimentConfig c = small_config(7);
  c.scenario.events.push_back(crash_ids({999}));
  EXPECT_THROW(harness::run_experiment(c), CheckFailure);
}

TEST(FaultExperiment, PartitionScenarioReducesCrossGroupReliability) {
  harness::ExperimentConfig c = small_config(17);
  c.num_messages = 40;
  c.scenario = harness::parse_scenario(
      "0s phase baseline\n"
      "4s phase split\n"
      "4s partition 0..11\n"
      "10s phase healed\n"
      "10s heal\n");
  const harness::ExperimentResult r = harness::run_experiment(c);
  ASSERT_EQ(r.phase_reports.size(), 3u);
  // Messages sent during the split cannot cross it: reliability dips
  // well below the surrounding phases, then recovers after the heal.
  EXPECT_GT(r.phase_reports[0].reliability, 0.95);
  EXPECT_LT(r.phase_reports[1].reliability,
            r.phase_reports[0].reliability - 0.2);
  EXPECT_GT(r.phase_reports[2].reliability, 0.9);
}

}  // namespace
}  // namespace esm::fault
