// Tests for the declarative trace-expectation engine (src/expect): the
// `.exp` parser's grammar and line-numbered diagnostics, the evaluator's
// predicate semantics over synthetic traces, v1-trace compatibility
// defaults, and the kv report rendering.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "trace/trace_log.hpp"

namespace esm {
namespace {

using expect::Cmp;
using expect::EvalInput;
using expect::ExpectationSet;
using expect::Kind;
using expect::RankSource;
using expect::RecoveryStat;
using expect::Report;
using expect::Status;

ExpectationSet parse(const std::string& text) {
  return expect::parse_expectations(text);
}

/// Expects parsing `text` to throw, and the message to mention the given
/// 1-based line number and contain `needle`.
void expect_parse_error(const std::string& text, std::size_t line,
                        const std::string& needle) {
  try {
    expect::parse_expectations(text);
    FAIL() << "no error for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::string prefix = "expectation line " + std::to_string(line);
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Parser

TEST(ExpectParse, AllPredicateKinds) {
  const ExpectationSet set = parse(R"(# comment
deliver phase=baseline min=0.95 within=2s

latency p=99 max=500ms
latency p=mean max=120ms
recovery max_stalled=3 max_gave_up=0
structure phase=steady min_share=0.2 top=0.1 rank=oracle
jaccard min=0.05
tree complete unique relay_within=2r max_depth=8
metric mean_delivery_fraction >= 0.99
)");
  ASSERT_EQ(set.items.size(), 9u);  // recovery expands to two entries

  const auto& del = set.items[0];
  EXPECT_EQ(del.kind, Kind::deliver);
  EXPECT_EQ(del.line, 2u);
  EXPECT_EQ(del.phase, "baseline");
  EXPECT_DOUBLE_EQ(del.min_fraction, 0.95);
  EXPECT_EQ(del.within, 2 * kSecond);

  EXPECT_EQ(set.items[1].kind, Kind::latency);
  EXPECT_DOUBLE_EQ(set.items[1].percentile, 99.0);
  EXPECT_DOUBLE_EQ(set.items[1].max_ms, 500.0);
  EXPECT_TRUE(set.items[2].use_mean);

  EXPECT_EQ(set.items[3].kind, Kind::recovery);
  EXPECT_EQ(set.items[3].recovery_stat, RecoveryStat::stalled);
  EXPECT_DOUBLE_EQ(set.items[3].recovery_bound, 3.0);
  EXPECT_EQ(set.items[4].recovery_stat, RecoveryStat::gave_up);
  EXPECT_EQ(set.items[4].line, set.items[3].line);

  const auto& st = set.items[5];
  EXPECT_EQ(st.kind, Kind::structure);
  EXPECT_DOUBLE_EQ(st.min_share, 0.2);
  EXPECT_DOUBLE_EQ(st.top_fraction, 0.1);
  EXPECT_EQ(st.rank, RankSource::oracle);

  EXPECT_EQ(set.items[6].kind, Kind::jaccard);

  const auto& tr = set.items[7];
  EXPECT_EQ(tr.kind, Kind::tree);
  EXPECT_TRUE(tr.check_complete);
  EXPECT_TRUE(tr.check_unique);
  EXPECT_DOUBLE_EQ(tr.relay_within_rounds, 2.0);
  EXPECT_EQ(tr.max_depth, 8u);

  const auto& m = set.items[8];
  EXPECT_EQ(m.kind, Kind::metric);
  EXPECT_EQ(m.metric_name, "mean_delivery_fraction");
  EXPECT_EQ(m.cmp, Cmp::ge);
  EXPECT_DOUBLE_EQ(m.metric_value, 0.99);
}

TEST(ExpectParse, NeedsTraceDistinguishesScalarOnlyFiles) {
  EXPECT_TRUE(parse("deliver min=0.9\n").needs_trace());
  EXPECT_TRUE(parse("tree unique\n").needs_trace());
  EXPECT_FALSE(parse("metric p95_latency_ms <= 200\n"
                     "recovery max_gave_up=0\n")
                   .needs_trace());
}

TEST(ExpectParse, MalformedLinesReportLineNumbers) {
  expect_parse_error("frobnicate min=1\n", 1, "unknown predicate");
  expect_parse_error("\n\ndeliver min=2\n", 3, "fraction");
  expect_parse_error("deliver min=0.9 bogus=1\n", 1, "unknown key 'bogus='");
  expect_parse_error("deliver min=0.9 bare\n", 1, "bare");
  expect_parse_error("latency max=100\n", 1, "unit");
  expect_parse_error("latency p=0 max=1s\n", 1, "percentile");
  expect_parse_error("recovery\n", 1, "recovery");
  expect_parse_error("recovery max_ms=5\n", 1, "unit");
  expect_parse_error("tree\n", 1, "tree");
  expect_parse_error("tree relay_within=2x\n", 1, "unit");
  expect_parse_error("structure min_share=0.2 rank=psychic\n", 1,
                     "rank must be");
  expect_parse_error("metric foo >= \n", 1, "metric");
  expect_parse_error("metric foo ~= 1\n", 1, "unknown comparison");
  expect_parse_error("deliver phase=a,b min=1\n", 1, "comma");
  // A key may appear once; before, the first one silently won.
  expect_parse_error("deliver min=0.5 min=0.99\n", 1,
                     "deliver: duplicate key 'min='");
  expect_parse_error("recovery max_stalled=1 max_stalled=2\n", 1,
                     "recovery: duplicate key 'max_stalled='");
  expect_parse_error("tree unique unique\n", 1, "duplicate flag 'unique'");
  // Counts are whole numbers; all numbers are plain decimal.
  expect_parse_error("tree max_depth=1.5\n", 1, "max_depth must be an integer");
  expect_parse_error("recovery max_gave_up=-1\n", 1, "max_gave_up must be");
  expect_parse_error("metric x <= 0x10\n", 1, "bad number");
}

TEST(ExpectParse, MergeComposesFiles) {
  ExpectationSet a = parse("deliver min=0.9\n");
  a.merge(parse("metric goodput_msgs_per_s >= 10\n"));
  ASSERT_EQ(a.items.size(), 2u);
  EXPECT_EQ(a.items[1].kind, Kind::metric);
}

// ---------------------------------------------------------------------------
// Evaluator over a synthetic trace
//
// One message (origin 0, seq 7) reaching nodes 0..3 along the tree
// 0 -> {1, 2}, 2 -> 3, plus a later duplicate delivery at node 3.

trace::TraceLog make_trace() {
  trace::TraceLog t;
  t.record_phase({0, "steady"});
  auto deliver = [&](SimTime time, NodeId node, NodeId from, SimTime latency,
                     bool eager) {
    t.record_delivery({time, node, 0, 7, latency, from, eager});
  };
  deliver(1000, 0, 0, 0, true);        // origin
  deliver(1400, 1, 0, 400, true);
  deliver(1500, 2, 0, 500, true);
  deliver(2600, 3, 2, 1600, false);    // recovered, depth 2
  deliver(9000, 3, 1, 8000, false);    // duplicate
  return t;
}

EvalInput make_input(const trace::TraceLog& t) {
  EvalInput in;
  in.trace = &t;
  in.default_expected = 4;
  in.round = 1000;  // 1 ms rounds keep the arithmetic readable
  return in;
}

Report eval_one(const std::string& line, const EvalInput& in) {
  return expect::evaluate(parse(line), in);
}

TEST(ExpectEval, DeliverFractionAgainstExpectedAudience) {
  const trace::TraceLog t = make_trace();
  EvalInput in = make_input(t);

  EXPECT_EQ(eval_one("deliver min=1.0\n", in).outcomes[0].status,
            Status::pass);

  in.default_expected = 5;  // one node never delivered
  const Report r = eval_one("deliver min=1.0\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 0.8);
  EXPECT_NE(r.outcomes[0].detail.find("seq=7"), std::string::npos);

  // Per-seq audience overrides the default.
  in.expected_deliveries.assign(8, 0);
  in.expected_deliveries[7] = 4;
  EXPECT_EQ(eval_one("deliver min=1.0\n", in).outcomes[0].status,
            Status::pass);
}

TEST(ExpectEval, DeliverWithinCountsOnlyFastDeliveries) {
  const trace::TraceLog t = make_trace();
  const EvalInput in = make_input(t);
  // Node 3's first delivery took 1600us; a 1ms window drops it.
  const Report r = eval_one("deliver min=1.0 within=1ms\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 0.75);
}

TEST(ExpectEval, LatencyPercentileAndMean) {
  const trace::TraceLog t = make_trace();
  const EvalInput in = make_input(t);
  // Non-origin first-delivery latencies: 400, 500, 1600 us.
  Report r = eval_one("latency p=50 max=1ms\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::pass);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 0.5);  // ms

  r = eval_one("latency p=100 max=1ms\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 1.6);

  r = eval_one("latency p=mean max=1ms\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::pass);
  EXPECT_NEAR(r.outcomes[0].observed, 2.5 / 3.0, 1e-9);
}

TEST(ExpectEval, TreeUniqueFlagsDuplicateDeliveries) {
  const trace::TraceLog t = make_trace();
  const EvalInput in = make_input(t);
  const Report r = eval_one("tree unique\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 1.0);
  EXPECT_NE(r.outcomes[0].detail.find("duplicate"), std::string::npos);
}

TEST(ExpectEval, TreeCompleteDepthAndRelayGap) {
  const trace::TraceLog t = make_trace();
  EvalInput in = make_input(t);

  EXPECT_EQ(eval_one("tree complete\n", in).outcomes[0].status, Status::pass);
  in.default_expected = 5;
  EXPECT_EQ(eval_one("tree complete\n", in).outcomes[0].status, Status::fail);
  in.default_expected = 4;

  EXPECT_EQ(eval_one("tree max_depth=2\n", in).outcomes[0].status,
            Status::pass);
  const Report deep = eval_one("tree max_depth=1\n", in);
  EXPECT_EQ(deep.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(deep.outcomes[0].observed, 2.0);

  // Largest parent->child first-delivery gap: node 3 at 2600 after its
  // parent (node 2) at 1500 = 1100us = 1.1 rounds.
  EXPECT_EQ(eval_one("tree relay_within=2r\n", in).outcomes[0].status,
            Status::pass);
  EXPECT_EQ(eval_one("tree relay_within=1r\n", in).outcomes[0].status,
            Status::fail);
  EXPECT_EQ(eval_one("tree relay_within=1200us\n", in).outcomes[0].status,
            Status::pass);
}

TEST(ExpectEval, PhaseWindowsFromTraceRows) {
  const trace::TraceLog t = make_trace();
  const EvalInput in = make_input(t);
  EXPECT_EQ(eval_one("deliver phase=steady min=1.0\n", in).outcomes[0].status,
            Status::pass);
  const Report r = eval_one("deliver phase=missing min=1.0\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_NE(r.outcomes[0].detail.find("not found"), std::string::npos);
}

TEST(ExpectEval, MetricPredicatesAgainstScalars) {
  const trace::TraceLog t = make_trace();
  EvalInput in = make_input(t);

  // No scalars at all (offline evaluation) -> skip, not fail.
  EXPECT_EQ(eval_one("metric goodput_msgs_per_s >= 1\n", in)
                .outcomes[0]
                .status,
            Status::skip);

  in.scalars = expect::parse_scalars(
      "mean_latency_ms=82.5\nlive_nodes=100\nlabel=steady\n");
  EXPECT_EQ(in.scalars.count("label"), 0u);  // non-numeric lines skipped
  EXPECT_EQ(eval_one("metric mean_latency_ms <= 100\n", in)
                .outcomes[0]
                .status,
            Status::pass);
  EXPECT_EQ(eval_one("metric live_nodes == 99\n", in).outcomes[0].status,
            Status::fail);
  const Report unknown = eval_one("metric nonesuch >= 1\n", in);
  EXPECT_EQ(unknown.outcomes[0].status, Status::fail);
  EXPECT_NE(unknown.outcomes[0].detail.find("unknown metric"),
            std::string::npos);
}

TEST(ExpectEval, RecoveryFallsBackToScalars) {
  const trace::TraceLog t = make_trace();
  EvalInput in = make_input(t);
  in.scalars["recovery_stalled"] = 2;
  const Report r = eval_one("recovery max_stalled=1\n", in);
  EXPECT_EQ(r.outcomes[0].status, Status::fail);
  EXPECT_DOUBLE_EQ(r.outcomes[0].observed, 2.0);
  // Histogram-backed stats have no scalar fallback -> skip offline.
  EXPECT_EQ(eval_one("recovery max_iwants=5\n", in).outcomes[0].status,
            Status::skip);
}

// ---------------------------------------------------------------------------
// v1 trace compatibility: 7-column rows carry no parent attribution, so
// structure/jaccard/relay checks skip while deliver/latency evaluate.

TEST(ExpectEval, V1TraceEvaluatesWithDocumentedDefaults) {
  std::istringstream csv(
      "kind,time_us,node,peer,seq,latency_us,eager\n"
      "phase,0,,,,,steady\n"
      "delivery,1000,0,0,7,0,1\n"
      "delivery,1400,1,0,7,400,1\n"
      "delivery,1500,2,0,7,500,1\n"
      "delivery,2600,3,0,7,1600,0\n");
  const trace::TraceLog t = trace::TraceLog::read_csv(csv);
  ASSERT_EQ(t.deliveries().size(), 4u);
  EXPECT_EQ(t.deliveries()[1].from, kInvalidNode);

  EvalInput in = make_input(t);
  EXPECT_EQ(eval_one("deliver min=1.0\n", in).outcomes[0].status,
            Status::pass);
  EXPECT_EQ(eval_one("latency p=95 max=2ms\n", in).outcomes[0].status,
            Status::pass);
  // No parent edges: relay/depth recognizers skip rather than fail...
  const Report relay = eval_one("tree relay_within=1r\n", in);
  EXPECT_EQ(relay.outcomes[0].status, Status::skip);
  // ...and so do the structure assertions (no eager tree edges).
  EXPECT_EQ(eval_one("structure min_share=0.1\n", in).outcomes[0].status,
            Status::skip);
  EXPECT_EQ(eval_one("jaccard min=0.1\n", in).outcomes[0].status,
            Status::skip);
  // Completeness needs only first deliveries, which v1 rows do carry.
  EXPECT_EQ(eval_one("tree complete\n", in).outcomes[0].status, Status::pass);
}

// ---------------------------------------------------------------------------
// Report rendering

TEST(ExpectReport, KvRenderingIsStable) {
  const trace::TraceLog t = make_trace();
  EvalInput in = make_input(t);
  in.default_expected = 5;
  const Report r =
      expect::evaluate(parse("deliver min=1.0\nlatency p=50 max=1ms\n"), in);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.passed, 1u);
  EXPECT_FALSE(r.ok());

  const std::string kv = expect::format_report_kv(r);
  EXPECT_NE(kv.find("expect_checked=2\n"), std::string::npos);
  EXPECT_NE(kv.find("expect_failed=1\n"), std::string::npos);
  EXPECT_NE(kv.find("expect1_status=fail\n"), std::string::npos);
  EXPECT_NE(kv.find("expect1_text=deliver min=1.0\n"), std::string::npos);
  EXPECT_NE(kv.find("expect2_status=pass\n"), std::string::npos);

  obs::MetricsRegistry agg;
  expect::add_report_counters(r, agg);
  EXPECT_EQ(agg.counter("expect.checked"), 2u);
  EXPECT_EQ(agg.counter("expect.failed"), 1u);
  EXPECT_EQ(agg.counter("expect.passed"), 1u);
}

}  // namespace
}  // namespace esm
