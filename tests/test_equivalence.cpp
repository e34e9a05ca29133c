// Old-vs-compact node-core equivalence goldens.
//
// These fingerprints were captured from the pre-compaction node core (the
// per-node unordered_map/deque layout) and pin the *entire* observable
// output of representative runs: every scalar metric at full precision
// plus an FNV-1a digest over the per-node and per-message payload vectors
// and the esm-metrics-v1 JSON document. The slab/SoA/interned node core
// must reproduce them bit-for-bit — any drift means the compaction changed
// protocol behavior, not just its memory layout.
//
// Coverage: flat and oracle-ranked strategies, IHAVE batching, all four
// canned fault scenarios (examples/*.scn, inlined below), the adaptive
// strategy over HyParView, and N=2048 over the CSR static overlay — the
// scales and paths the goldens requirement names. Gossip-rank runs are
// deliberately *not* pinned across the refactor: the rank sample store's
// iteration order (previously unordered_map bucket order) is part of its
// sampling behavior and changed with the compact insertion-ordered store;
// those runs are covered by the determinism (run-to-run and cross-jobs)
// tests instead. The wire pins, captured after that change, do pin
// gossip-rank runs: they send every packet type through the codec and the
// per-node packet mux.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenario_text.hpp"

namespace esm::harness {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(14695981039346656037ULL, s.data(), s.size());
}

void add(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g\n", key, v);
  out += buf;
}

void add(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Canonical full-precision rendering of everything a run reports.
std::string render(const ExperimentResult& r) {
  std::string out;
  add(out, "mean_latency_ms", r.mean_latency_ms);
  add(out, "latency_ci95_ms", r.latency_ci95_ms);
  add(out, "p50_latency_ms", r.p50_latency_ms);
  add(out, "p95_latency_ms", r.p95_latency_ms);
  add(out, "payload_per_delivery", r.payload_per_delivery);
  add(out, "load_all", r.load_all.payload_per_msg);
  add(out, "load_low", r.load_low.payload_per_msg);
  add(out, "load_best", r.load_best.payload_per_msg);
  add(out, "mean_delivery_fraction", r.mean_delivery_fraction);
  add(out, "atomic_delivery_fraction", r.atomic_delivery_fraction);
  add(out, "delivery_ci95", r.delivery_ci95);
  add(out, "top5_connection_share", r.top5_connection_share);
  add(out, "payload_packets", r.payload_packets);
  add(out, "control_packets", r.control_packets);
  add(out, "total_bytes", r.total_bytes);
  add(out, "duplicate_payloads", r.duplicate_payloads);
  add(out, "requests_sent", r.requests_sent);
  add(out, "iwant_retries", r.iwant_retries);
  add(out, "recovery_gave_up", r.recovery_gave_up);
  add(out, "recovery_stalled", r.recovery_stalled);
  add(out, "packets_lost", r.packets_lost);
  add(out, "buffer_drops", r.buffer_drops);
  add(out, "prunes_sent", r.prunes_sent);
  add(out, "faults_injected", r.faults_injected);
  add(out, "events_executed", r.events_executed);
  add(out, "live_nodes", static_cast<std::uint64_t>(r.live_nodes));
  add(out, "max_known_messages",
      static_cast<std::uint64_t>(r.max_known_messages));
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(h, r.node_payloads.data(),
            r.node_payloads.size() * sizeof(std::uint64_t));
  add(out, "node_payloads_fnv", h);
  h = 14695981039346656037ULL;
  h = fnv1a(h, r.payload_tx_per_message.data(),
            r.payload_tx_per_message.size() * sizeof(std::uint32_t));
  add(out, "payload_tx_fnv", h);
  h = 14695981039346656037ULL;
  for (const auto& [link, count] : r.connection_payloads) {
    h = fnv1a(h, &link.first, sizeof link.first);
    h = fnv1a(h, &link.second, sizeof link.second);
    h = fnv1a(h, &count, sizeof count);
  }
  add(out, "connection_payloads_fnv", h);
  for (const auto& p : r.phase_reports) {
    out += "phase " + p.label + " ";
    add(out, "messages", p.messages);
    add(out, "deliveries", p.deliveries);
    add(out, "reliability", p.reliability);
    add(out, "atomic_fraction", p.atomic_fraction);
    add(out, "mean_latency_ms", p.mean_latency_ms);
    add(out, "p95_latency_ms", p.p95_latency_ms);
    add(out, "payload_per_msg", p.payload_per_msg);
    add(out, "top5_connection_share", p.top5_connection_share);
  }
  if (r.tree_stats) {
    const obs::TreeStats& t = *r.tree_stats;
    add(out, "tree_messages", t.messages);
    add(out, "tree_edges", t.edges);
    add(out, "tree_eager_edges", t.eager_edges);
    add(out, "tree_interior_nodes", t.interior_nodes);
    add(out, "tree_interior_top_ranked", t.interior_top_ranked);
    add(out, "tree_eager_hop_share", t.eager_hop_share());
    add(out, "tree_mean_edge_latency_ms", t.mean_edge_latency_ms());
  }
  return out;
}

/// FNV-1a of the rendering — the pinned quantity. On mismatch the test
/// prints the full rendering so the drift is inspectable.
std::uint64_t fingerprint(const ExperimentResult& r) {
  return fnv1a(render(r));
}

/// The goodput/egress block the heavy-workload golden appends to the base
/// rendering. Kept out of render() so the pre-compaction legacy
/// fingerprints above stay byte-identical to their original capture.
std::string render_goodput(const ExperimentResult& r) {
  std::string out;
  add(out, "offered_msgs", r.offered_msgs);
  add(out, "offered_msgs_per_s", r.offered_msgs_per_s);
  add(out, "goodput_msgs_per_s", r.goodput_msgs_per_s);
  add(out, "redundancy_ratio", r.redundancy_ratio);
  add(out, "knee_time_ms", r.knee_time_ms);
  add(out, "offtopic_deliveries", r.offtopic_deliveries);
  add(out, "egress_serialized_packets", r.egress_serialized_packets);
  add(out, "egress_queue_delay_mean_ms", r.egress_queue_delay_mean_ms);
  add(out, "egress_queue_delay_max_ms", r.egress_queue_delay_max_ms);
  add(out, "egress_peak_depth", r.egress_peak_depth);
  add(out, "egress_peak_queued_bytes", r.egress_peak_queued_bytes);
  return out;
}

/// The backpressure block appended by the backpressure-on goldens. Kept
/// out of render()/render_goodput() so every pre-backpressure fingerprint
/// stays byte-identical to its original capture.
std::string render_backpressure(const ExperimentResult& r) {
  std::string out;
  add(out, "eager_deferred", r.eager_deferred);
  add(out, "replies_deferred", r.replies_deferred);
  add(out, "drops_readvertised", r.drops_readvertised);
  add(out, "iwants_purged", r.iwants_purged);
  add(out, "watermark_episodes", r.watermark_episodes);
  add(out, "watermark_residency_ms", r.watermark_residency_ms);
  return out;
}

ExperimentConfig base100() {
  ExperimentConfig c;
  c.seed = 4242;
  c.num_nodes = 100;
  c.num_messages = 120;
  c.warmup = 15 * kSecond;
  c.topology.num_underlay_vertices = 800;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

void expect_fingerprint(const ExperimentConfig& c, std::uint64_t want,
                        const char* label) {
  const ExperimentResult r = run_experiment(c);
  const std::uint64_t got = fingerprint(r);
  EXPECT_EQ(got, want) << label << " drifted; new rendering:\n" << render(r);
}

TEST(Equivalence, FlatWithBatching) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.2);
  c.ihave_batch_window = 20 * kMillisecond;
  expect_fingerprint(c, 16375138207662801473ULL, "flat pi=0.2 batched");
}

TEST(Equivalence, RankedOracleStaticOverlay) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_ranked(0.2);
  c.overlay_kind = OverlayKind::static_random;
  c.collect_tree_stats = true;
  expect_fingerprint(c, 13359896267698936417ULL, "ranked static+tree");
}

TEST(Equivalence, AdaptiveHyParView) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_adaptive();
  c.overlay_kind = OverlayKind::hyparview;
  c.num_messages = 80;
  expect_fingerprint(c, 3814070407888660252ULL, "adaptive hyparview");
}

TEST(Equivalence, LossyWithGc) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.0);
  c.loss_rate = 0.15;
  c.message_lifetime = 20 * kSecond;
  expect_fingerprint(c, 16973191000109404136ULL, "lossy gc flat");
}

// --- the four canned scenarios (examples/*.scn, inlined) -----------------

ExperimentConfig scenario_config(const char* script) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_ranked(0.2);
  c.num_messages = 300;
  c.scenario = parse_scenario(std::string(script));
  return c;
}

TEST(Equivalence, ScenarioBurstDegrade) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "40s   phase lossy\n"
      "40s   loss rate=0.10 for=30s\n"
      "70s   phase slow\n"
      "70s   latency factor=4 for=30s\n"
      "100s  phase noisy\n"
      "100s  loss rate=0.05 for=40s\n"
      "100s  latency factor=2 for=40s\n"
      "100s  noise to=0.5 over=20s\n"
      "140s  phase recovered\n");
  expect_fingerprint(c, 2798792596775614741ULL, "burst_degrade.scn");
}

TEST(Equivalence, ScenarioChurnFlux) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "45s   phase churn\n"
      "45s   churn rate=2 for=60s\n"
      "105s  phase settled\n");
  expect_fingerprint(c, 10013326134724673829ULL, "churn_flux.scn");
}

TEST(Equivalence, ScenarioKillBest) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "60s   phase kill\n"
      "60s   crash best 5\n"
      "120s  phase recovered\n");
  expect_fingerprint(c, 3746080100577579667ULL, "kill_best_nodes.scn");
}

TEST(Equivalence, ScenarioPartitionHeal) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "45s   phase split\n"
      "45s   partition 0..24\n"
      "105s  phase healed\n"
      "105s  heal\n");
  expect_fingerprint(c, 11348456874638963812ULL, "partition_heal.scn");
}

// --- N=2048 over the shared CSR static overlay ---------------------------

TEST(Equivalence, N2048StaticLazy) {
  ExperimentConfig c;
  c.seed = 2007;
  c.num_nodes = 2048;
  c.num_messages = 10;
  c.mean_interval = 100 * kMillisecond;
  c.overlay_kind = OverlayKind::static_random;
  c.strategy = StrategySpec::make_flat(0.0);
  expect_fingerprint(c, 6413417638893343736ULL, "2048-node static lazy");
}

// --- every packet type through the wire codec ----------------------------

/// The config esm_run builds from `flags`.
ExperimentConfig config_from_flags(const std::vector<std::string>& flags) {
  std::string error;
  const std::optional<ExperimentConfig> c = parse_point(flags, error);
  EXPECT_TRUE(c.has_value()) << error;
  return c.value_or(ExperimentConfig{});
}

/// 100 nodes and 100 messages with rank gossip and ping probes, every
/// packet encoded at the sender and decoded at the receiver: pins each
/// overlay's packets, PING, RANK_GOSSIP, MSG, IHAVE and IWANT through the
/// per-node packet mux and the codec.
ExperimentConfig wire_config(const char* overlay) {
  return config_from_flags({"--nodes", "100", "--messages", "100",
                            "--strategy", "hybrid", "--gossip-rank",
                            "--monitor", "ping", "--wire", "--overlay",
                            overlay});
}

TEST(Equivalence, WireHybridGossipRankCyclon) {
  expect_fingerprint(wire_config("cyclon"), 17255154444888426206ULL,
                     "wire hybrid cyclon");
}

TEST(Equivalence, WireHybridGossipRankHyParView) {
  expect_fingerprint(wire_config("hyparview"), 5548072172696530788ULL,
                     "wire hybrid hyparview");
}

TEST(Equivalence, WireHybridGossipRankNeem) {
  expect_fingerprint(wire_config("neem"), 3930817930766667868ULL,
                     "wire hybrid neem");
}

TEST(Equivalence, WireAdaptiveNeemPrunes) {
  const ExperimentConfig c =
      config_from_flags({"--nodes", "100", "--messages", "100", "--overlay",
                         "neem", "--strategy", "adaptive", "--wire"});
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.prunes_sent, 0u);
  EXPECT_EQ(fingerprint(r), 18286767356600929458ULL)
      << "wire adaptive neem drifted; new rendering:\n" << render(r);
}

// --- heavy-traffic workload golden ---------------------------------------

ExperimentConfig heavy_config() {
  ExperimentConfig c = base100();
  c.num_messages = 0;  // workload replaces the legacy source loop
  c.bandwidth_bps = 4'000'000;
  c.egress_buffer_bytes = 48 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  load::WorkloadSpec wl;
  wl.duration = 6 * kSecond;
  load::TopicSpec topic;
  topic.name = "hot";
  topic.fraction = 0.3;
  wl.topics.push_back(topic);
  for (int p = 0; p < 4; ++p) {
    load::PublisherSpec pub;
    pub.arrival = (p == 3)   ? load::ArrivalKind::burst
                  : (p == 2) ? load::ArrivalKind::fixed_rate
                             : load::ArrivalKind::poisson;
    pub.rate = 25.0;
    if (p == 0) pub.topic = 0;
    wl.publishers.push_back(pub);
  }
  c.workload = wl;
  return c;
}

TEST(Equivalence, HeavyWorkloadSaturated) {
  // Canned heavy-load run: four publishers (poisson/fixed/burst mix, one
  // pinned into a fraction topic) pushing through a tight serialized
  // egress with a drop-oldest buffer. Pins the full rendering including
  // the goodput/egress block — covers the workload generator, bandwidth
  // serialization and goodput tracker end to end.
  const ExperimentResult r = run_experiment(heavy_config());
  const std::string rendering = render(r) + render_goodput(r);
  EXPECT_EQ(fnv1a(rendering), 10260051092629557157ULL)
      << "heavy 4-publisher saturated workload drifted; new rendering:\n"
      << rendering;
}

/// heavy_config() pushed past its knee: half the bandwidth, half the
/// buffer. The legacy golden's egress peaks at ~26 KB of its 48 KB bound
/// (a near miss, no purges), so the backpressure goldens tighten both to
/// make watermark crossings and purges actually happen.
ExperimentConfig saturated_heavy_config() {
  ExperimentConfig c = heavy_config();
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 24 * 1024;
  return c;
}

TEST(Equivalence, HeavyWorkloadSaturatedBackpressure) {
  // Backpressure-on twin of HeavyWorkloadSaturated: same publisher mix
  // over a genuinely saturated egress, with the watermark loop closed.
  // Pins the full rendering plus the backpressure block.
  ExperimentConfig c = saturated_heavy_config();
  c.backpressure = true;
  const ExperimentResult r = run_experiment(c);
  const std::string rendering =
      render(r) + render_goodput(r) + render_backpressure(r);
  EXPECT_EQ(fnv1a(rendering), 8385663769898990067ULL)
      << "backpressure-on heavy workload drifted; new rendering:\n"
      << rendering;
  // The twin must actually exercise the fix, not coast under the knee.
  EXPECT_GT(r.eager_deferred, 0u);
  EXPECT_GT(r.watermark_episodes, 0u);
}

// --- metrics JSON byte-identity ------------------------------------------

TEST(Equivalence, MetricsJsonScenario) {
  ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "60s   phase kill\n"
      "60s   crash best 5\n"
      "120s  phase recovered\n");
  c.collect_metrics = true;
  const ExperimentResult r = run_experiment(c);
  ASSERT_NE(r.metrics, nullptr);
  const std::string json =
      format_metrics_json(*r.metrics, {r.phase_reports});
  EXPECT_EQ(fnv1a(json), 13068026143548039115ULL)
      << "metrics JSON drifted (" << json.size() << " bytes)";
}

// --- determinism: cross-jobs and run-to-run ------------------------------

TEST(Equivalence, JobsInvariance) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    ExperimentConfig c = base100();
    c.seed = seed;
    c.num_messages = 60;
    c.strategy = StrategySpec::make_flat(0.1);
    configs.push_back(c);
  }
  const auto serial = run_experiments(configs, 1);
  const auto parallel = run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
        << "run " << i << " differs across --jobs";
  }
}

TEST(Equivalence, JobsInvarianceBackpressureModes) {
  // Every --backpressure × --pull-sched combination is bit-for-bit
  // identical at any --jobs count, and turning the pull-sched knob with
  // backpressure OFF changes nothing at all (rarest-first only reorders
  // congestion-deferred work, which cannot exist without backpressure).
  std::vector<ExperimentConfig> configs;
  for (const bool bp : {false, true}) {
    for (const core::PullOrder order :
         {core::PullOrder::random, core::PullOrder::rarest}) {
      ExperimentConfig c = saturated_heavy_config();
      c.backpressure = bp;
      c.pull_sched = order;
      configs.push_back(c);
    }
  }
  const auto full_print = [](const ExperimentResult& r) {
    return fnv1a(render(r) + render_goodput(r) + render_backpressure(r));
  };
  const auto serial = run_experiments(configs, 1);
  const auto parallel = run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(full_print(serial[i]), full_print(parallel[i]))
        << "combination " << i << " differs across --jobs";
  }
  // off/random == off/rarest: the knob is inert without backpressure.
  EXPECT_EQ(full_print(serial[0]), full_print(serial[1]));
  // on-runs really diverge from off-runs (the fix engages).
  EXPECT_NE(full_print(serial[0]), full_print(serial[2]));
}

// --- sharded engine: shard-count × jobs invariance matrix -----------------

/// The deterministic part of a sharded run's aggregate metrics: every
/// counter and gauge except the two wall-clock gauges (busy/barrier-wait
/// time vary run to run), plus the per-node registry count. A key that
/// appears, disappears or changes value changes the pinned value.
std::string render_shard_metrics(const ExperimentResult& r) {
  std::string out;
  if (!r.metrics) return out;
  const obs::MetricsRegistry& agg = r.metrics->aggregate;
  for (const auto& [name, value] : agg.counters()) {
    add(out, name.c_str(), value);
  }
  for (const auto& [name, value] : agg.gauges()) {
    if (name == "sim.shard.busy_ms" || name == "sim.shard.barrier_wait_ms") {
      continue;
    }
    add(out, name.c_str(), value);
  }
  add(out, "per_node", static_cast<std::uint64_t>(r.metrics->per_node.size()));
  return out;
}

/// Aggregate keys whose values depend on where the shard boundaries fall:
/// the sim.shard.* execution block, and the footprint of per-shard copies
/// (each shard interns the messages its nodes see into its own arena, and
/// on-demand path models are replicated per shard).
bool depends_on_partition(const std::string& name) {
  return name.rfind("sim.shard.", 0) == 0 || name.rfind("arena.", 0) == 0 ||
         name.rfind("path_model.", 0) == 0;
}

/// The whole metrics document — every aggregate counter, gauge and
/// histogram and every per-node registry — minus the partition-dependent
/// keys.
std::string render_document(const obs::RunMetrics& m) {
  obs::MetricsRegistry agg;
  for (const auto& [name, value] : m.aggregate.counters()) {
    if (!depends_on_partition(name)) agg.add_counter(name, value);
  }
  for (const auto& [name, value] : m.aggregate.gauges()) {
    if (!depends_on_partition(name)) agg.gauge_max(name, value);
  }
  for (const auto& [name, hist] : m.aggregate.histograms()) {
    if (!depends_on_partition(name)) agg.histogram(name).merge(hist);
  }
  std::string out = agg.to_json();
  for (const obs::MetricsRegistry& node : m.per_node) {
    out += '\n' + node.to_json();
  }
  return out;
}

/// Every aggregate key of a metrics document.
std::vector<std::string> key_set(const obs::MetricsRegistry& agg) {
  std::vector<std::string> keys;
  for (const auto& entry : agg.counters()) keys.push_back(entry.first);
  for (const auto& entry : agg.gauges()) keys.push_back(entry.first);
  for (const auto& entry : agg.histograms()) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// One row of the shard-count matrix: `config` at --shards {1, 2, 4, 8} ×
/// --jobs {1, 4}. The pinned contract:
///   * the sharded engine (shards >= 2) is bit-identical at EVERY shard
///     count and EVERY jobs count — one absolute fingerprint per
///     scenario pins its canonical event order;
///   * shards == 1 is the single-threaded engine, pinned by its own
///     fingerprint; it may differ from the sharded engine only in
///     same-microsecond arrival tie ordering, so no cross-engine
///     equality is asserted here;
///   * every shard count exports the whole metrics document: the
///     shards == 2 key set is the shards == 1 key set plus sim.shard.*,
///     with one per-node registry per node; the document is identical at
///     shards 2, 4 and 8 apart from the partition-dependent keys; the
///     counters with a kv twin equal it at every shard count; and the
///     shards == 2 aggregate carries the pinned deterministic values.
/// Each row is its own test case, so ctest runs the rows in parallel.
void expect_shard_count_invariance(const char* label,
                                   const ExperimentConfig& config,
                                   std::uint64_t single_fp,
                                   std::uint64_t sharded_fp,
                                   std::uint64_t shard_metrics_fp) {
  const auto full_print = [](const ExperimentResult& r) {
    return fnv1a(render(r) + render_goodput(r) + render_backpressure(r) +
                 render_shard_metrics(r));
  };
  const std::uint32_t shard_counts[] = {1, 2, 4, 8};
  std::vector<ExperimentConfig> configs;
  for (const std::uint32_t shards : shard_counts) {
    ExperimentConfig c = config;
    c.shards = shards;
    c.collect_metrics = true;
    configs.push_back(c);
  }
  // jobs=4 over sharded runs is the composition case: worker threads of
  // concurrent runs and shard workers within each run coexist.
  const auto serial = run_experiments(configs, 1);
  const auto parallel = run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(full_print(serial[i]), full_print(parallel[i]))
        << label << ": shards=" << shard_counts[i]
        << " differs across --jobs";
  }
  // Mailbox traffic depends on where the shard boundaries fall, so the
  // cross-count comparison leaves the metrics block out.
  const auto result_print = [](const ExperimentResult& r) {
    return fnv1a(render(r) + render_goodput(r) + render_backpressure(r));
  };
  for (std::size_t i = 2; i < serial.size(); ++i) {
    EXPECT_EQ(result_print(serial[i]), result_print(serial[1]))
        << label << ": sharded engine differs between shards="
        << shard_counts[1] << " and shards=" << shard_counts[i];
  }
  EXPECT_EQ(result_print(serial[0]), single_fp)
      << label << " (single-threaded engine) drifted; new rendering:\n"
      << render(serial[0]) + render_goodput(serial[0]) +
             render_backpressure(serial[0]);
  EXPECT_EQ(result_print(serial[1]), sharded_fp)
      << label << " (sharded engine) drifted; new rendering:\n"
      << render(serial[1]) + render_goodput(serial[1]) +
             render_backpressure(serial[1]);
  EXPECT_EQ(fnv1a(render_shard_metrics(serial[1])), shard_metrics_fp)
      << label << " (shards=2 metrics) drifted; new rendering:\n"
      << render_shard_metrics(serial[1]);

  // One metrics path at every shard count.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ExperimentResult& r = serial[i];
    ASSERT_NE(r.metrics, nullptr) << label;
    EXPECT_EQ(r.metrics->per_node.size(), config.num_nodes) << label;
    const obs::MetricsRegistry& agg = r.metrics->aggregate;
    const std::string where =
        std::string(label) + ": shards=" + std::to_string(shard_counts[i]);
    EXPECT_EQ(agg.counter("goodput.offered_msgs"), r.offered_msgs) << where;
    EXPECT_EQ(agg.counter("transport.buffer_drops"), r.buffer_drops) << where;
    EXPECT_EQ(agg.counter("transport.egress_serialized_packets"),
              r.egress_serialized_packets)
        << where;
    EXPECT_EQ(agg.counter("recovery_gave_up"), r.recovery_gave_up) << where;
    EXPECT_EQ(agg.counter("iwant_retries"), r.iwant_retries) << where;
    if (i >= 2) {
      EXPECT_EQ(render_document(*r.metrics),
                render_document(*serial[1].metrics))
          << where << ": metrics document differs from shards=2";
    }
  }
  std::vector<std::string> want = key_set(serial[0].metrics->aggregate);
  for (const std::string& key : key_set(serial[1].metrics->aggregate)) {
    if (key.rfind("sim.shard.", 0) == 0) want.push_back(key);
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(key_set(serial[1].metrics->aggregate), want)
      << label << ": shards=2 keys are not shards=1 keys + sim.shard.*";
}

// Beyond the batching golden and both heavy workloads, the rows cover the
// per-shard pieces of the assembly: the static best set over the CSR
// overlay, per-shard path replicas and oracle monitors (on-demand paths),
// HyParView joins scheduled on shard simulators, and the
// control-simulator GC sweep.

TEST(Equivalence, ShardCountInvarianceFlatBatched) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.2);
  c.ihave_batch_window = 20 * kMillisecond;
  expect_shard_count_invariance("flat batched", c, 13594102927201393101ULL,
                                9375248610818417151ULL,
                                6905396730814000469ULL);
}

TEST(Equivalence, ShardCountInvarianceHeavySaturated) {
  expect_shard_count_invariance("heavy saturated", heavy_config(),
                                274683939965400477ULL, 7599652059359661393ULL,
                                11539751588960963977ULL);
}

TEST(Equivalence, ShardCountInvarianceHeavySaturatedBackpressure) {
  ExperimentConfig c = saturated_heavy_config();
  c.backpressure = true;
  expect_shard_count_invariance("heavy saturated backpressure", c,
                                8385663769898990067ULL, 571881640632054520ULL,
                                7516944883419954984ULL);
}

TEST(Equivalence, ShardCountInvarianceRankedOracleStatic) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_ranked(0.2);
  c.overlay_kind = OverlayKind::static_random;
  expect_shard_count_invariance("ranked oracle static", c,
                                1604900674428018904ULL, 9268551740128528663ULL,
                                13889045929669456421ULL);
}

TEST(Equivalence, ShardCountInvarianceHybridOracleLatencyOndemand) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_hybrid(40.0, 2, 0.2);
  c.strategy.monitor = MonitorKind::oracle_latency;
  c.path_model = net::PathModelKind::ondemand;
  expect_shard_count_invariance("hybrid oracle-latency ondemand", c,
                                12159288510190596882ULL,
                                11655525612097669028ULL,
                                1222815069517399547ULL);
}

TEST(Equivalence, ShardCountInvarianceAdaptiveHyParView) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_adaptive();
  c.overlay_kind = OverlayKind::hyparview;
  c.num_messages = 80;
  expect_shard_count_invariance("adaptive hyparview", c,
                                7881414475447806568ULL, 8178467499354249240ULL,
                                2210064359665294691ULL);
}

TEST(Equivalence, ShardCountInvarianceLossyGc) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.0);
  c.loss_rate = 0.15;
  c.message_lifetime = 20 * kSecond;
  expect_shard_count_invariance("lossy gc", c, 17866614813319905191ULL,
                                15975168835108458281ULL,
                                18082783299800216517ULL);
}

TEST(Equivalence, GossipRankDeterminism) {
  // Gossip-rank runs are not pinned across the layout change (see header
  // comment) but must stay deterministic: identical runs, identical
  // results, at any job count.
  ExperimentConfig c = base100();
  c.num_messages = 60;
  c.strategy = StrategySpec::make_ranked(0.2);
  c.strategy.use_gossip_rank = true;
  const auto a = run_experiments({c, c}, 2);
  const ExperimentResult b = run_experiment(c);
  EXPECT_EQ(fingerprint(a[0]), fingerprint(a[1]));
  EXPECT_EQ(fingerprint(a[0]), fingerprint(b));
}

}  // namespace
}  // namespace esm::harness
