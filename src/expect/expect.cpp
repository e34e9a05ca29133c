#include "expect/expect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "obs/tree_stats.hpp"

namespace esm::expect {
namespace {

/// A resolved evaluation window over message *send* times (matching
/// stats::PhaseWindows and obs::TreeStatsOptions attribution).
struct Window {
  SimTime start = 0;
  SimTime end = 0;  // 0 = unbounded
  bool found = true;
};

Window resolve_window(const std::string& phase, const EvalInput& in) {
  Window w;
  if (phase.empty()) return w;  // whole run
  if (in.phases != nullptr) {
    for (const stats::PhaseReport& p : *in.phases) {
      if (p.label == phase) {
        w.start = p.start;
        w.end = p.end;
        return w;
      }
    }
    w.found = false;
    return w;
  }
  if (in.trace != nullptr) {
    const auto& rows = in.trace->phases();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].label == phase) {
        w.start = rows[i].time;
        w.end = i + 1 < rows.size() ? rows[i + 1].time : 0;
        return w;
      }
    }
  }
  w.found = false;
  return w;
}

bool in_window(SimTime send_time, const Window& w) {
  if (send_time < w.start) return false;
  return w.end <= 0 || send_time < w.end;
}

/// First delivery of one message at one node.
struct FirstDelivery {
  SimTime time = 0;
  SimTime latency = 0;
  NodeId from = kInvalidNode;
};

/// Per-message view of the trace: send time, origin, first delivery per
/// node, duplicate-delivery count. std::map keys give the deterministic
/// ascending iteration order the evaluators rely on.
struct MsgView {
  SimTime send_time = 0;
  NodeId origin = 0;
  std::map<NodeId, FirstDelivery> first;
  std::uint64_t duplicates = 0;
};

using MsgIndex = std::map<std::uint32_t, MsgView>;

MsgIndex index_messages(const trace::TraceLog& trace) {
  MsgIndex index;
  for (const trace::DeliveryEvent& d : trace.deliveries()) {
    MsgView& msg = index[d.seq];
    if (msg.first.empty()) {
      // latency = time - multicast time on every row, so any row recovers
      // the send time exactly.
      msg.send_time = d.time - d.latency;
      msg.origin = d.origin;
    }
    auto [it, inserted] =
        msg.first.emplace(d.node, FirstDelivery{d.time, d.latency, d.from});
    if (!inserted) ++msg.duplicates;
  }
  return index;
}

/// Delivery-fraction denominator for one message.
std::uint32_t expected_for(std::uint32_t seq, const EvalInput& in,
                           std::uint32_t derived_default) {
  if (seq < in.expected_deliveries.size() && in.expected_deliveries[seq] > 0) {
    return in.expected_deliveries[seq];
  }
  if (in.default_expected > 0) return in.default_expected;
  return derived_default;
}

/// Offline fallback denominator: the largest per-message audience actually
/// observed anywhere in the trace.
std::uint32_t derive_default_expected(const MsgIndex& index) {
  std::size_t best = 0;
  for (const auto& [seq, msg] : index) best = std::max(best, msg.first.size());
  return static_cast<std::uint32_t>(best);
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Outcome make_outcome(const Expectation& e) {
  Outcome out;
  out.line = e.line;
  out.file = e.file;
  out.text = e.text;
  return out;
}

Outcome skip(const Expectation& e, const std::string& why) {
  Outcome out = make_outcome(e);
  out.status = Status::skip;
  out.detail = why;
  return out;
}

Outcome phase_not_found(const Expectation& e) {
  Outcome out = make_outcome(e);
  out.status = Status::fail;
  out.detail = "phase '" + e.phase + "' not found";
  return out;
}

Outcome eval_deliver(const Expectation& e, const EvalInput& in,
                     const MsgIndex& index, std::uint32_t derived_default) {
  if (in.trace == nullptr) return skip(e, "no trace data");
  const Window w = resolve_window(e.phase, in);
  if (!w.found) return phase_not_found(e);

  Outcome out = make_outcome(e);
  out.bound = e.min_fraction;
  double worst = 1.0;
  std::uint32_t worst_seq = 0;
  std::uint32_t worst_got = 0;
  std::uint32_t worst_expected = 0;
  bool any = false;
  for (const auto& [seq, msg] : index) {
    if (!in_window(msg.send_time, w)) continue;
    const std::uint32_t expected = expected_for(seq, in, derived_default);
    if (expected == 0) continue;
    std::uint32_t got = 0;
    for (const auto& [node, fd] : msg.first) {
      if (e.within > 0 && fd.latency > e.within) continue;
      ++got;
    }
    const double fraction =
        std::min(1.0, static_cast<double>(got) / expected);
    if (!any || fraction < worst) {
      worst = fraction;
      worst_seq = seq;
      worst_got = got;
      worst_expected = expected;
    }
    any = true;
  }
  if (!any) return skip(e, "no messages in window");
  out.observed = worst;
  if (worst < e.min_fraction) {
    out.status = Status::fail;
    out.detail = "seq=" + std::to_string(worst_seq) + " reached " +
                 std::to_string(worst_got) + "/" +
                 std::to_string(worst_expected) + " nodes";
  }
  return out;
}

Outcome eval_latency(const Expectation& e, const EvalInput& in,
                     const MsgIndex& index) {
  if (in.trace == nullptr) return skip(e, "no trace data");
  const Window w = resolve_window(e.phase, in);
  if (!w.found) return phase_not_found(e);

  std::vector<double> latencies_ms;
  for (const auto& [seq, msg] : index) {
    if (!in_window(msg.send_time, w)) continue;
    for (const auto& [node, fd] : msg.first) {
      if (node == msg.origin) continue;  // origin latency is 0 by definition
      latencies_ms.push_back(to_ms(fd.latency));
    }
  }
  if (latencies_ms.empty()) return skip(e, "no deliveries in window");
  std::sort(latencies_ms.begin(), latencies_ms.end());

  Outcome out = make_outcome(e);
  out.bound = e.max_ms;
  if (e.use_mean) {
    double sum = 0.0;
    for (double v : latencies_ms) sum += v;
    out.observed = sum / static_cast<double>(latencies_ms.size());
  } else {
    // Nearest-rank percentile over the sorted sample.
    const std::size_t n = latencies_ms.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(e.percentile / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    out.observed = latencies_ms[rank - 1];
  }
  if (out.observed > e.max_ms) {
    out.status = Status::fail;
    out.detail = std::to_string(latencies_ms.size()) + " samples";
  }
  return out;
}

const char* recovery_counter_name(RecoveryStat stat) {
  switch (stat) {
    case RecoveryStat::stalled: return "recovery_stalled";
    case RecoveryStat::gave_up: return "recovery_gave_up";
    case RecoveryStat::episodes: return "recovery_episodes";
    default: return nullptr;
  }
}

/// Counters read the lifecycle registry when metrics were collected, and
/// the kv scalar of the same name otherwise. The two `recovery_stalled`
/// differ: the registry counts episodes never closed by a delivery, the
/// kv figure counts scheduler give-ups plus requests still pending at the
/// end, which includes abandoned recoveries a later delivery completed.
Outcome eval_recovery(const Expectation& e, const EvalInput& in) {
  Outcome out = make_outcome(e);
  out.bound = e.recovery_bound;
  if (e.recovery_stat == RecoveryStat::max_iwants ||
      e.recovery_stat == RecoveryStat::max_ms) {
    if (in.metrics == nullptr) return skip(e, "no lifecycle metrics");
    const char* hist_name =
        e.recovery_stat == RecoveryStat::max_iwants ? "recovery_iwants"
                                                    : "recovery_ms";
    const stats::LogHistogram* h =
        in.metrics->aggregate.find_histogram(hist_name);
    // No histogram / empty histogram = no recovery episodes: the max is
    // trivially within any bound.
    out.observed = (h != nullptr && h->count() > 0) ? h->max() : 0.0;
  } else {
    const char* name = recovery_counter_name(e.recovery_stat);
    if (in.metrics != nullptr) {
      out.observed = static_cast<double>(in.metrics->aggregate.counter(name));
    } else {
      const auto it = in.scalars.find(name);
      if (it == in.scalars.end()) {
        return skip(e, std::string("no lifecycle metrics and no '") + name +
                           "' scalar");
      }
      out.observed = it->second;
    }
  }
  if (out.observed > e.recovery_bound) out.status = Status::fail;
  return out;
}

obs::TreeStats analyze_window(const Expectation& e, const EvalInput& in,
                              const Window& w, bool with_rank) {
  obs::TreeStatsOptions options;
  options.window_start = w.start;
  options.window_end = w.end;
  options.top_fraction = e.top_fraction;
  if (with_rank) options.ranked = in.ranked;
  return obs::analyze_trees(*in.trace, options);
}

Outcome eval_structure(const Expectation& e, const EvalInput& in) {
  if (in.trace == nullptr) return skip(e, "no trace data");
  const Window w = resolve_window(e.phase, in);
  if (!w.found) return phase_not_found(e);
  if (e.rank == RankSource::oracle && in.ranked.empty()) {
    return skip(e, "no capacity ranking (rank=oracle needs an online run)");
  }
  const obs::TreeStats stats =
      analyze_window(e, in, w, e.rank == RankSource::oracle);
  if (stats.eager_edges == 0) {
    return skip(e, "no eager tree edges (v1 trace or empty window)");
  }
  Outcome out = make_outcome(e);
  out.bound = e.min_share;
  out.observed = e.rank == RankSource::oracle
                     ? stats.eager_from_top_share()
                     : stats.eager_child_concentration(e.top_fraction);
  if (out.observed < e.min_share) {
    out.status = Status::fail;
    out.detail = std::to_string(stats.eager_edges) + " eager edges";
  }
  return out;
}

Outcome eval_jaccard(const Expectation& e, const EvalInput& in) {
  if (in.trace == nullptr) return skip(e, "no trace data");
  const Window w = resolve_window(e.phase, in);
  if (!w.found) return phase_not_found(e);
  const obs::TreeStats stats = analyze_window(e, in, w, false);
  if (stats.jaccard_pairs == 0) {
    return skip(e, "no consecutive tree pairs (v1 trace or <2 messages)");
  }
  Outcome out = make_outcome(e);
  out.bound = e.min_jaccard;
  out.observed = stats.mean_jaccard();
  if (out.observed < e.min_jaccard) {
    out.status = Status::fail;
    out.detail = std::to_string(stats.jaccard_pairs) + " tree pairs";
  }
  return out;
}

/// Depth of `node` in one message's first-delivery tree via parent chase;
/// -1 = unknown (orphan ancestry or cycle).
int depth_of(const MsgView& msg, NodeId node,
             std::map<NodeId, int>& memo) {
  std::vector<NodeId> chain;
  int base = -1;
  NodeId cur = node;
  while (true) {
    if (cur == msg.origin) {
      base = 0;
      break;
    }
    const auto m = memo.find(cur);
    if (m != memo.end()) {
      base = m->second;
      break;
    }
    const auto it = msg.first.find(cur);
    if (it == msg.first.end() || it->second.from == kInvalidNode) break;
    // Cycle guard: a chain longer than the audience repeats a node.
    if (chain.size() > msg.first.size()) break;
    chain.push_back(cur);
    cur = it->second.from;
  }
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (base >= 0) ++base;
    memo[*rit] = base;
  }
  return chain.empty() ? base : memo[node];
}

Outcome eval_tree(const Expectation& e, const EvalInput& in,
                  const MsgIndex& index, std::uint32_t derived_default) {
  if (in.trace == nullptr) return skip(e, "no trace data");
  const Window w = resolve_window(e.phase, in);
  if (!w.found) return phase_not_found(e);

  Outcome out = make_outcome(e);
  bool any_msg = false;
  bool any_edge = false;
  std::uint64_t duplicates = 0;
  std::uint64_t incomplete = 0;
  std::uint32_t incomplete_seq = 0;
  std::size_t incomplete_got = 0;
  std::uint32_t incomplete_expected = 0;
  SimTime worst_gap = 0;
  std::uint64_t gap_violations = 0;
  std::uint64_t max_depth_seen = 0;

  const SimTime relay_bound =
      e.relay_within > 0
          ? e.relay_within
          : static_cast<SimTime>(e.relay_within_rounds *
                                 static_cast<double>(in.round));

  for (const auto& [seq, msg] : index) {
    if (!in_window(msg.send_time, w)) continue;
    any_msg = true;
    duplicates += msg.duplicates;
    if (e.check_complete) {
      const std::uint32_t expected = expected_for(seq, in, derived_default);
      if (expected > 0 && msg.first.size() != expected) {
        ++incomplete;
        if (incomplete == 1) {
          incomplete_seq = seq;
          incomplete_got = msg.first.size();
          incomplete_expected = expected;
        }
      }
    }
    std::map<NodeId, int> depth_memo;
    for (const auto& [node, fd] : msg.first) {
      if (node == msg.origin) continue;
      if (fd.from == kInvalidNode) continue;  // orphan: v1 row or pull path
      const auto parent = msg.first.find(fd.from);
      if (parent == msg.first.end()) continue;
      any_edge = true;
      if (relay_bound > 0) {
        const SimTime gap = fd.time - parent->second.time;
        worst_gap = std::max(worst_gap, gap);
        if (gap > relay_bound) ++gap_violations;
      }
      if (e.max_depth > 0) {
        const int d = depth_of(msg, node, depth_memo);
        if (d > 0) {
          max_depth_seen = std::max(max_depth_seen,
                                    static_cast<std::uint64_t>(d));
        }
      }
    }
  }

  if (!any_msg) return skip(e, "no messages in window");
  const bool needs_edges =
      e.relay_within > 0 || e.relay_within_rounds > 0.0 || e.max_depth > 0;
  if (needs_edges && !any_edge && !e.check_complete && !e.check_unique) {
    return skip(e, "no parent attribution (v1 trace)");
  }

  // All requested checks must hold; the first violated one (in the fixed
  // order unique, complete, relay gap, depth) names the failure.
  if (e.check_unique && duplicates > 0) {
    out.status = Status::fail;
    out.observed = static_cast<double>(duplicates);
    out.detail = "duplicate deliveries";
    return out;
  }
  if (e.check_complete && incomplete > 0) {
    out.status = Status::fail;
    out.observed = static_cast<double>(incomplete);
    out.detail = "seq=" + std::to_string(incomplete_seq) + " delivered to " +
                 std::to_string(incomplete_got) + "/" +
                 std::to_string(incomplete_expected) + " nodes";
    return out;
  }
  if (relay_bound > 0) {
    out.observed = to_ms(worst_gap);
    out.bound = to_ms(relay_bound);
    if (gap_violations > 0) {
      out.status = Status::fail;
      out.detail = std::to_string(gap_violations) + " relay gaps over bound";
      return out;
    }
  }
  if (e.max_depth > 0) {
    out.observed = static_cast<double>(max_depth_seen);
    out.bound = static_cast<double>(e.max_depth);
    if (max_depth_seen > e.max_depth) {
      out.status = Status::fail;
      out.detail = "tree depth over bound";
      return out;
    }
  }
  return out;
}

Outcome eval_metric(const Expectation& e, const EvalInput& in) {
  if (in.scalars.empty()) {
    return skip(e, "no scalar metrics (offline trace evaluation)");
  }
  Outcome out = make_outcome(e);
  out.bound = e.metric_value;
  const auto it = in.scalars.find(e.metric_name);
  if (it == in.scalars.end()) {
    out.status = Status::fail;
    out.detail = "unknown metric '" + e.metric_name + "'";
    return out;
  }
  out.observed = it->second;
  bool ok = false;
  switch (e.cmp) {
    case Cmp::le: ok = out.observed <= e.metric_value; break;
    case Cmp::ge: ok = out.observed >= e.metric_value; break;
    case Cmp::lt: ok = out.observed < e.metric_value; break;
    case Cmp::gt: ok = out.observed > e.metric_value; break;
    case Cmp::eq: ok = out.observed == e.metric_value; break;
    case Cmp::ne: ok = out.observed != e.metric_value; break;
  }
  if (!ok) out.status = Status::fail;
  return out;
}

}  // namespace

bool ExpectationSet::needs_trace() const {
  for (const Expectation& e : items) {
    switch (e.kind) {
      case Kind::deliver:
      case Kind::latency:
      case Kind::structure:
      case Kind::jaccard:
      case Kind::tree:
        return true;
      default:
        break;
    }
  }
  return false;
}

void ExpectationSet::merge(ExpectationSet other) {
  for (Expectation& e : other.items) items.push_back(std::move(e));
}

Report evaluate(const ExpectationSet& set, const EvalInput& input) {
  Report report;
  MsgIndex index;
  std::uint32_t derived_default = 0;
  if (input.trace != nullptr && set.needs_trace()) {
    index = index_messages(*input.trace);
    derived_default = derive_default_expected(index);
  }
  for (const Expectation& e : set.items) {
    Outcome out;
    switch (e.kind) {
      case Kind::deliver:
        out = eval_deliver(e, input, index, derived_default);
        break;
      case Kind::latency:
        out = eval_latency(e, input, index);
        break;
      case Kind::recovery:
        out = eval_recovery(e, input);
        break;
      case Kind::structure:
        out = eval_structure(e, input);
        break;
      case Kind::jaccard:
        out = eval_jaccard(e, input);
        break;
      case Kind::tree:
        out = eval_tree(e, input, index, derived_default);
        break;
      case Kind::metric:
        out = eval_metric(e, input);
        break;
    }
    switch (out.status) {
      case Status::pass: ++report.passed; break;
      case Status::fail: ++report.failed; break;
      case Status::skip: ++report.skipped; break;
    }
    report.outcomes.push_back(std::move(out));
  }
  return report;
}

std::string format_report_kv(const Report& report) {
  std::ostringstream os;
  os << "expect_checked=" << report.checked() << '\n';
  os << "expect_passed=" << report.passed << '\n';
  os << "expect_failed=" << report.failed << '\n';
  os << "expect_skipped=" << report.skipped << '\n';
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const Outcome& out = report.outcomes[i];
    const std::string prefix = "expect" + std::to_string(i + 1);
    os << prefix << "_status=" << to_string(out.status) << '\n';
    os << prefix << "_where="
       << (out.file.empty() ? std::string() : out.file + ":")
       << out.line << '\n';
    os << prefix << "_text=" << out.text << '\n';
    os << prefix << "_observed=" << format_value(out.observed) << '\n';
    os << prefix << "_bound=" << format_value(out.bound) << '\n';
    if (!out.detail.empty()) {
      os << prefix << "_detail=" << out.detail << '\n';
    }
  }
  return os.str();
}

std::map<std::string, double> parse_scalars(const std::string& kv_text) {
  std::map<std::string, double> scalars;
  std::istringstream stream(kv_text);
  std::string line;
  while (std::getline(stream, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    const std::string value = line.substr(eq + 1);
    if (value.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size()) continue;  // non-numeric value
    scalars[line.substr(0, eq)] = v;
  }
  return scalars;
}

void add_report_counters(const Report& report, obs::MetricsRegistry& agg) {
  agg.add_counter("expect.checked", report.checked());
  agg.add_counter("expect.passed", report.passed);
  agg.add_counter("expect.failed", report.failed);
  agg.add_counter("expect.skipped", report.skipped);
}

const char* to_string(Status status) {
  switch (status) {
    case Status::pass: return "pass";
    case Status::fail: return "fail";
    case Status::skip: return "skip";
  }
  return "?";
}

const char* to_string(Cmp cmp) {
  switch (cmp) {
    case Cmp::le: return "<=";
    case Cmp::ge: return ">=";
    case Cmp::lt: return "<";
    case Cmp::gt: return ">";
    case Cmp::eq: return "==";
    case Cmp::ne: return "!=";
  }
  return "?";
}

}  // namespace esm::expect
