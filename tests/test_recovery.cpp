// Regression tests for the lazy-path recovery stall fix.
//
// Pre-fix, the retransmission timer died whenever the advertiser queue
// drained: if every queued IWANT (or its DATA reply) was lost, the message
// stalled at that node forever even though live advertisers held the
// payload. The fix keeps the timer armed and cycles over already-asked
// sources, bounded by RequestPolicy::max_rounds. These tests pin the
// before/after behavior under a burst-loss scenario and prove the
// --metrics-out export is byte-identical at any --jobs count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenario_text.hpp"
#include "obs/metrics.hpp"

namespace esm::harness {
namespace {

/// Small pure-lazy swarm hit by a heavy loss burst mid-measurement (the
/// burst_degrade.scn shape). Pure lazy (pi = 0) routes every payload
/// through IHAVE/IWANT, so lost control or data packets exercise exactly
/// the recovery path under test.
ExperimentConfig burst_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.seed = seed;
  c.num_nodes = 30;
  c.num_messages = 40;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  c.strategy = StrategySpec::make_flat(0.0);
  c.scenario = parse_scenario(
      "0s   phase baseline\n"
      "4s   phase burst\n"
      "4s   loss rate=0.35 for=10s\n"
      "14s  phase recovered\n");
  return c;
}

TEST(RecoveryRegression, OldDisciplineStallsUnderBurstLoss) {
  // max_rounds = 1 restores the pre-fix ask-each-source-once discipline;
  // under the burst some recoveries run out of advertisers and stall.
  ExperimentConfig c = burst_config(1);
  c.max_request_rounds = 1;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.recovery_stalled, 0u);
  EXPECT_LT(r.mean_delivery_fraction, 1.0);
}

TEST(RecoveryRegression, RetryCyclingDeliversEverythingUnderBurstLoss) {
  // Same swarm, same burst, default retry discipline: every payload is
  // eventually recovered (reliability 1.0), the stall counter is zero,
  // and the nonzero retry counter proves the retry passes actually fired.
  const ExperimentResult r = run_experiment(burst_config(1));
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_EQ(r.recovery_stalled, 0u);
  EXPECT_GT(r.iwant_retries, 0u);
}

TEST(RecoveryRegression, MetricsExportMirrorsRecoveryOutcome) {
  ExperimentConfig c = burst_config(1);
  c.collect_metrics = true;
  const ExperimentResult r = run_experiment(c);
  ASSERT_NE(r.metrics, nullptr);
  const obs::MetricsRegistry& agg = r.metrics->aggregate;
  EXPECT_EQ(agg.counter("recovery_stalled"), 0u);
  EXPECT_GT(agg.counter("iwant_retries"), 0u);
  EXPECT_GT(agg.counter("recovery_episodes"), 0u);
  EXPECT_EQ(agg.counter("recovery_recovered"),
            agg.counter("recovery_episodes"));
  // Scheduler-level and tracker-level retry counts agree.
  EXPECT_EQ(agg.counter("iwant_retries"), r.iwant_retries);
  // The burst dropped packets, and the tracker saw them.
  EXPECT_GT(agg.counter("drops_fault"), 0u);
  // Episode latency histogram exists and covers every episode.
  const auto* rec = agg.find_histogram("recovery_ms");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), agg.counter("recovery_recovered"));
  EXPECT_EQ(r.metrics->per_node.size(), c.num_nodes);
}

TEST(MetricsDeterminism, JsonIdenticalAcrossJobCounts) {
  // The golden-file property behind esm_run --metrics-out: replications
  // merged in input order produce byte-identical JSON however many worker
  // threads ran them.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    ExperimentConfig c = burst_config(90 + rep);
    c.collect_metrics = true;
    configs.push_back(c);
  }
  const auto render = [&configs](unsigned jobs) {
    const auto results = run_experiments(configs, jobs);
    obs::RunMetrics merged;
    std::vector<std::vector<stats::PhaseReport>> phases;
    bool first = true;
    for (const auto& r : results) {
      phases.push_back(r.phase_reports);
      if (!r.metrics) continue;
      if (first) {
        merged = *r.metrics;
        first = false;
      } else {
        merged.merge(*r.metrics);
      }
    }
    return format_metrics_json(merged, phases);
  };
  const std::string serial = render(1);
  const std::string parallel = render(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"schema\":\"esm-metrics-v1\""), std::string::npos);
  EXPECT_NE(serial.find("\"runs\":4"), std::string::npos);
  EXPECT_NE(serial.find("\"phases\":["), std::string::npos);
}

// --- saturation-induced delivery loss (egress backpressure fix) ----------

/// Small swarm pushed past its serialization limit: four burst publishers
/// into a tight drop-oldest egress buffer. Without backpressure the purge
/// silently destroys payloads (and the IHAVEs that would advertise them),
/// so deliveries are lost without any recovery machinery noticing.
ExperimentConfig saturated_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.seed = seed;
  c.num_nodes = 30;
  c.num_messages = 0;  // workload replaces the legacy source loop
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 32 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  load::WorkloadSpec wl;
  wl.duration = 4 * kSecond;
  for (int p = 0; p < 4; ++p) {
    load::PublisherSpec pub;
    pub.arrival = load::ArrivalKind::burst;
    pub.rate = 40.0;
    wl.publishers.push_back(pub);
  }
  c.workload = wl;
  return c;
}

TEST(SaturationRegression, DropOldestSaturationLosesDeliveries) {
  // Pre-fix behavior (--backpressure off): the purge bites and delivery
  // falls short of 1.0 — lost payloads whose advertisements were also
  // purged are unrecoverable. None of the backpressure machinery runs.
  const ExperimentResult r = run_experiment(saturated_config(1));
  EXPECT_GT(r.buffer_drops, 0u);
  EXPECT_LT(r.mean_delivery_fraction, 1.0);
  EXPECT_EQ(r.eager_deferred, 0u);
  EXPECT_EQ(r.drops_readvertised, 0u);
  EXPECT_EQ(r.watermark_episodes, 0u);
}

TEST(SaturationRegression, BackpressureRestoresFullDelivery) {
  // Same swarm, same burst, --backpressure on: eager pushes degrade to
  // IHAVE above the high watermark, so the egress queue never overflows
  // and every live node delivers everything.
  ExperimentConfig c = saturated_config(1);
  c.backpressure = true;
  const ExperimentResult r = run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.atomic_delivery_fraction, 1.0);
  EXPECT_EQ(r.buffer_drops, 0u);
  EXPECT_EQ(r.recovery_stalled, 0u);
  EXPECT_GT(r.eager_deferred, 0u);
  EXPECT_GT(r.watermark_episodes, 0u);
  EXPECT_GT(r.watermark_residency_ms, 0.0);
}

TEST(SaturationRegression, DropAwareRecoveryReadvertisesPurgedPayloads) {
  // A buffer so tight that drops still happen despite the deferral: the
  // purge listener feeds the destroyed payload/IHAVE keys back into the
  // scheduler, which re-advertises them once the queue drains — delivery
  // still reaches 1.0 because recovery is re-armed instead of silent.
  ExperimentConfig c = saturated_config(1);
  c.backpressure = true;
  c.egress_buffer_bytes = 8 * 1024;
  c.bp_high_watermark = 0.9;
  c.bp_low_watermark = 0.6;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.buffer_drops, 0u);
  EXPECT_GT(r.drops_readvertised, 0u);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_EQ(r.recovery_stalled, 0u);
}

TEST(RecoveryRegression, ShardedMetricsRunChecksRecoveryBounds) {
  // A lossy one-round recovery run on the sharded engine with metrics
  // collected: the recovery bounds read the lifecycle registry, so it
  // must carry the episodes; an empty registry reads 0 stalls and passes.
  std::string error;
  const auto options =
      parse_cli({"--nodes", "100", "--messages", "40", "--loss", "0.3",
                 "--retry-rounds", "1", "--pi", "0", "--shards", "2"},
                error);
  ASSERT_TRUE(options) << error;
  ExperimentConfig c = options->config;
  c.collect_metrics = true;
  const ExperimentResult r = run_experiment(c);
  ASSERT_NE(r.metrics, nullptr);
  const obs::MetricsRegistry& agg = r.metrics->aggregate;
  EXPECT_GT(agg.counter("recovery_stalled"), 0u);

  expect::EvalInput in;
  in.metrics = r.metrics.get();
  in.scalars = expect::parse_scalars(format_result_kv(r));
  const expect::Report report = expect::evaluate(
      expect::parse_expectations(
          std::string("recovery max_stalled=0 max_ms=100s\n")),
      in);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].status, expect::Status::fail);
  EXPECT_EQ(report.outcomes[0].observed,
            static_cast<double>(agg.counter("recovery_stalled")));
  EXPECT_EQ(report.outcomes[1].status, expect::Status::pass);
  const stats::LogHistogram* ms = agg.find_histogram("recovery_ms");
  ASSERT_NE(ms, nullptr);
  ASSERT_GT(ms->count(), 0u);
  EXPECT_EQ(report.outcomes[1].observed, static_cast<double>(ms->max()));
}

TEST(RecoveryRegression, ShardedDropsAtSilencedReceiversMergeExactly) {
  // Warm-up kills leave silenced nodes in every view, so packets to them
  // drop on arrival, on the receiver's shard, while the drop counts
  // against the sender. Each shard's tracker takes the drops its shard
  // executes, and the merged document does not depend on the split.
  std::vector<ExperimentResult> runs;
  for (const char* shards : {"2", "4"}) {
    std::string error;
    const auto options =
        parse_cli({"--nodes", "60", "--messages", "30", "--kill", "0.2",
                   "--shards", shards},
                  error);
    ASSERT_TRUE(options) << error;
    ExperimentConfig c = options->config;
    c.collect_metrics = true;
    runs.push_back(run_experiment(c));
  }
  const obs::RunMetrics& a = *runs[0].metrics;
  const obs::RunMetrics& b = *runs[1].metrics;
  EXPECT_GT(a.aggregate.counter("drops_silenced"), 0u);
  EXPECT_EQ(a.aggregate.counter("drops_silenced"),
            b.aggregate.counter("drops_silenced"));
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t id = 0; id < a.per_node.size(); ++id) {
    EXPECT_EQ(a.per_node[id].to_json(), b.per_node[id].to_json()) << id;
  }
}

}  // namespace
}  // namespace esm::harness
