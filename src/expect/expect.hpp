// Declarative trace expectations — the checking layer of the
// observability subsystem.
//
// Hand-written per-scenario assertions do not scale to dozens of fault
// scripts. An expectation file (`.exp`, grammar in expect_text.hpp and
// docs/PROTOCOL.md §7c) states what a correct run looks like — per-phase
// delivery and latency bounds, recovery-episode bounds, emergent-structure
// assertions, and tree-shape recognizers — and this module checks it
// mechanically against the recorded observability data: the v2 event
// trace (per-message first-delivery trees via obs::analyze_trees), the
// lifecycle metrics of src/obs, phase windows, and the scalar result
// metrics the harness reports as key=value lines.
//
// Evaluation is pure and deterministic: the same inputs produce the same
// Report byte-for-byte, at any --jobs or --shards value, because every
// data source consumed here is itself deterministic and every iteration
// order is fixed (trace order, ascending seq, sorted scalar names).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "stats/phase_windows.hpp"
#include "trace/trace_log.hpp"

namespace esm::expect {

/// Predicate families the DSL can express.
enum class Kind {
  deliver,    // per-message delivery fraction (optional latency window)
  latency,    // delivery-latency mean / percentile bound
  recovery,   // lifecycle recovery-episode bound
  structure,  // eager-hop concentration on top nodes
  jaccard,    // consecutive-tree edge overlap
  tree,       // tree-shape recognizer (complete / relay gap / depth)
  metric,     // scalar bound on a named result metric (kv name)
};

enum class Cmp { le, ge, lt, gt, eq, ne };

/// Which ranking grounds a `structure` assertion: `self` ranks nodes by
/// their own eager child counts (works on offline traces); `oracle` uses
/// the harness's capacity ranking (online runs with a ranked strategy).
enum class RankSource { self, oracle };

/// Which recovery quantity a `recovery` expectation bounds. Counters fall
/// back to the scalar result metrics when no lifecycle registry is
/// present; the per-episode quantities need --metrics-out collection.
enum class RecoveryStat {
  stalled,       // episodes whose payload never arrived (counter)
  gave_up,       // recoveries abandoned after max rounds (counter)
  episodes,      // recovery episodes opened (counter)
  max_iwants,    // largest per-episode IWANT count (histogram max)
  max_ms,        // longest first-IHAVE-to-payload time (histogram max)
};

/// One parsed expectation. A `.exp` line maps to exactly one Expectation
/// except `recovery`, where each bound key expands to its own entry (so
/// every bound gets its own pass/fail row).
struct Expectation {
  Kind kind = Kind::metric;
  std::size_t line = 0;  // 1-based .exp source line
  std::string file;      // source file (set by load_expectation_file)
  std::string text;      // normalized source text, for reports
  std::string phase;     // phase label scope; empty = whole run

  // deliver
  double min_fraction = 1.0;
  SimTime within = 0;  // latency window; 0 = unbounded

  // latency
  bool use_mean = false;  // mean instead of a percentile
  double percentile = 95.0;
  double max_ms = 0.0;

  // recovery
  RecoveryStat recovery_stat = RecoveryStat::stalled;
  double recovery_bound = 0.0;

  // structure
  double top_fraction = 0.05;
  double min_share = 0.0;
  RankSource rank = RankSource::self;

  // jaccard
  double min_jaccard = 0.0;

  // tree
  bool check_complete = false;       // every correct node exactly once
  bool check_unique = false;         // no node delivers twice
  SimTime relay_within = 0;          // absolute relay gap bound; 0 = off
  double relay_within_rounds = 0.0;  // bound in rounds ('Nr'); 0 = off
  std::uint64_t max_depth = 0;       // tree depth bound; 0 = off

  // metric
  std::string metric_name;
  Cmp cmp = Cmp::ge;
  double metric_value = 0.0;
};

struct ExpectationSet {
  std::vector<Expectation> items;

  bool empty() const { return items.empty(); }
  /// True when any expectation evaluates trace rows (deliver, latency,
  /// structure, jaccard, tree) — those need a buffered v2 trace.
  bool needs_trace() const;

  /// Appends another set (multiple --expect files compose).
  void merge(ExpectationSet other);
};

/// Everything evaluation can draw on. Online runs fill all of it from an
/// ExperimentResult; offline `esm_trace expect` has only the trace (the
/// rest stays empty and the expectations that need it report `skip`).
struct EvalInput {
  /// Buffered event trace (nullptr = no trace data).
  const trace::TraceLog* trace = nullptr;
  /// Authoritative phase windows; when absent, windows are derived from
  /// the trace's phase rows.
  const std::vector<stats::PhaseReport>* phases = nullptr;
  /// Lifecycle metrics (recovery episodes); nullptr offline.
  const obs::RunMetrics* metrics = nullptr;
  /// Scalar result metrics by kv name (see parse_scalars); empty offline.
  std::map<std::string, double> scalars;
  /// Capacity ranking, best first (for rank=oracle structure assertions).
  std::vector<NodeId> ranked;
  /// Live audience per message seq — the delivery-fraction denominator.
  std::vector<std::uint32_t> expected_deliveries;
  /// Fallback denominator when expected_deliveries has no entry; 0 means
  /// derive it from the trace (max per-message delivery count).
  std::uint32_t default_expected = 0;
  /// One gossip round (the retransmission period), for bounds in rounds.
  SimTime round = 400 * kMillisecond;
};

enum class Status { pass, fail, skip };

/// Result of one expectation. `skip` means the data the predicate needs
/// is absent (no trace, v1 rows without parent attribution, no lifecycle
/// registry, empty phase) — visible in the report, never a failure.
struct Outcome {
  Status status = Status::pass;
  std::size_t line = 0;
  std::string file;
  std::string text;
  double observed = 0.0;
  double bound = 0.0;
  std::string detail;  // deterministic note (worst offender / skip reason)
};

struct Report {
  std::vector<Outcome> outcomes;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;

  std::size_t checked() const { return outcomes.size(); }
  bool ok() const { return failed == 0; }
};

/// Evaluates every expectation against the input. Deterministic:
/// outcomes appear in expectation order and all derived quantities use
/// fixed iteration orders.
Report evaluate(const ExpectationSet& set, const EvalInput& input);

/// Renders the report as key=value lines (expect_checked/passed/failed/
/// skipped, then expectN_* per outcome) — byte-stable for CI diffing.
std::string format_report_kv(const Report& report);

/// Extracts every numeric `key=value` line into a name->value map (the
/// bridge from harness::format_result_kv to `metric` expectations).
std::map<std::string, double> parse_scalars(const std::string& kv_text);

/// Adds the summary counters (expect.checked/passed/failed/skipped) to a
/// metrics registry — the `expect.*` block of the esm-metrics-v1 JSON.
void add_report_counters(const Report& report, obs::MetricsRegistry& agg);

const char* to_string(Status status);
const char* to_string(Cmp cmp);

}  // namespace esm::expect
