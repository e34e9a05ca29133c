// esm_trace: offline analysis of a saved trace CSV (the paper's §5.3
// workflow — "All messages multicast and delivered are logged for later
// processing").
//   esm_trace summary run.csv     # deliveries, latency, payload economy
//   esm_trace trees --kv -        # dissemination-tree structure, from stdin
//   esm_trace expect --expect steady.exp run.csv   # esm_run --expect offline
// Without topology or run context, `trees` leaves out esm_run --tree-stats'
// overlay baseline and rank columns; EXPERIMENTS.md lists `expect`'s skips.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/text_input.hpp"
#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "obs/tree_stats.hpp"
#include "stats/running.hpp"
#include "trace/trace_log.hpp"

namespace {

using namespace esm;
using harness::Table;
using std::to_string;
std::string fixed(double v, int prec) { return Table::num(v, prec); }

struct Options {
  std::string sub, path;  // summary, trees or expect; TRACE
  bool kv = false;
  bool no_phases = false;
  double window_start_s = 0.0;
  double window_end_s = 0.0;
  double top = 0.05;
  std::size_t expect_files = 0;
  expect::ExpectationSet expectations;
  std::uint32_t nodes = 0;
  double round_ms = 400.0;
};

/// Parses a value into `Options`; returns the error after "NAME ", or "".
using Setter = std::function<std::string(Options&, const std::string&)>;

/// One option of the table that drives parsing and --help.
struct Row {
  const char* name;
  const char* metavar;  // nullptr: a switch
  const char* help;
  std::string subcommands;  // the ones that take it
  Setter set;
};

Setter on(bool Options::*field) {  // a switch: no value
  return [=](Options& o, const std::string&) { o.*field = true; return ""; };
}

/// A number in (0, hi], or in [0, hi] when `zero_ok`; whole if T is.
template <typename T>
Setter number(T Options::*field, bool zero_ok, double hi = 1e300) {
  return [=](Options& o, const std::string& v) -> std::string {
    std::optional<double> x = text::parse_double(v);
    if (std::is_integral_v<T> && !text::parse_uint<std::uint32_t>(v)) x = {};
    if (!x || *x < 0.0 || (*x == 0.0 && !zero_ok) || *x > hi) {
      return std::string("must be ") + (zero_ok ? ">= 0" : "> 0") +
             (hi < 1e300 ? " and <= 1" : "") + ", got '" + v + "'";
    }
    o.*field = static_cast<T>(*x);
    return {};
  };
}

const std::vector<Row> kRows = {
    {"--kv", nullptr, "key=value output", "trees expect", on(&Options::kv)},
    {"--window-start", "S", "analyze messages multicast from S seconds",
     "trees", number(&Options::window_start_s, true)},
    {"--window-end", "S", "...and before S seconds", "trees",
     number(&Options::window_end_s, true)},
    {"--top", "F", "fraction for eager-fanout concentration (0.05)", "trees",
     number(&Options::top, false, 1.0)},
    {"--no-phases", nullptr, "skip the per-phase table", "trees",
     on(&Options::no_phases)},
    {"--expect", "FILE", "expectation file (required; files compose)",
     "expect",
     [](Options& o, const std::string& v) -> std::string {
       try {
         o.expectations.merge(expect::load_expectation_file(v));
       } catch (const std::exception& e) {
         return e.what();
       }
       ++o.expect_files;
       return {};
     }},
    {"--nodes", "N", "delivery denominator (largest audience in the trace)",
     "expect", number(&Options::nodes, false)},
    {"--round-ms", "MS", "gossip round for bounds in rounds (400)", "expect",
     number(&Options::round_ms, false)},
};

int help() {
  std::puts("usage: esm_trace summary|trees|expect [options] TRACE|-\n\n"
            "Analyzes a trace CSV from esm_run --trace or --trace-stream (-\n"
            "reads stdin). Options, with the subcommands that take them:");
  for (const Row& row : kRows) {
    const std::string flag =
        row.name + (row.metavar ? std::string(" ") + row.metavar : "");
    std::printf("  %-17s %s [%s]\n", flag.c_str(), row.help,
                row.subcommands.c_str());
  }
  std::puts("  --help            this text\n\nExit codes: 0 ok, 1 unreadable "
            "trace (trees: nothing in the\nwindow), 2 usage, 3 violated "
            "expectations.");
  return 0;
}

int summary(const trace::TraceLog& log, const Options& o) {
  std::map<std::uint32_t, std::uint32_t> by_seq;  // deliveries per message
  stats::Samples ms;
  stats::RunningStat ms_stat;
  for (const auto& d : log.deliveries()) {
    ++by_seq[d.seq];
    if (d.node == d.origin) continue;
    ms.add(to_ms(d.latency));
    ms_stat.add(to_ms(d.latency));
  }
  stats::RunningStat per_msg;  // reads 0 / 0 without deliveries
  for (const auto& [seq, count] : by_seq) per_msg.add(count);
  std::map<NodeId, std::uint64_t> by_node;  // payload sends per node
  std::uint64_t eager = 0;
  for (const auto& p : log.payloads()) {
    ++by_node[p.src];
    eager += p.eager ? 1 : 0;
  }
  stats::RunningStat per_node;
  for (const auto& [node, count] : by_node) per_node.add(count);
  const std::size_t payloads = log.payloads().size();
  const std::size_t deliveries = log.deliveries().size();
  Table("trace replay: " + o.path)
      .header({"statistic", "value"})
      .row({"messages", to_string(by_seq.size())})
      .row({"deliveries", to_string(deliveries)})
      .row({"deliveries per message (min / max)",
            fixed(per_msg.min(), 0) + " / " + fixed(per_msg.max(), 0)})
      .row({"mean latency (ms)", fixed(ms_stat.mean(), 1) + " ± " +
                                     fixed(ms_stat.ci95_half_width(), 1)})
      .row({"latency p50 / p95 / p99 (ms)",
            fixed(ms.quantile(0.5), 1) + " / " + fixed(ms.quantile(0.95), 1) +
                " / " + fixed(ms.quantile(0.99), 1)})
      .row({"payload transmissions", to_string(payloads)})
      .row({"  eager / requested",
            to_string(eager) + " / " + to_string(payloads - eager)})
      .row({"payload per delivery",
            fixed(deliveries ? double(payloads) / double(deliveries) : 0, 3)})
      .row({"sending nodes", to_string(by_node.size())})
      .row({"payload sent per node (mean / max)",
            fixed(per_node.mean(), 1) + " / " + fixed(per_node.max(), 0)})
      .print();
  return 0;
}

int trees(const trace::TraceLog& trace, const Options& o) {
  obs::TreeStatsOptions window;
  window.window_start = static_cast<SimTime>(o.window_start_s * kSecond);
  window.window_end = static_cast<SimTime>(o.window_end_s * kSecond);
  const obs::TreeStats t = obs::analyze_trees(trace, window);
  if (t.messages == 0) {
    std::fprintf(stderr, "esm_trace: no deliveries in the analysis window "
                 "(%llu deliveries, %llu payload rows in the trace)\n",
                 static_cast<unsigned long long>(trace.delivery_count()),
                 static_cast<unsigned long long>(trace.payload_count()));
    return 1;
  }
  if (o.kv) {
    std::fputs(harness::format_tree_kv(t).c_str(), stdout);
    std::printf("tree_eager_child_top_share=%g\ntree_eager_child_top=%g\n",
                t.eager_child_concentration(o.top), o.top);
    return 0;
  }
  Table("emergent structure: " + o.path)
      .header({"metric", "value"})
      .row({"messages / tree edges",
            to_string(t.messages) + " / " + to_string(t.edges)})
      .row({"orphan deliveries (no parent)", to_string(t.orphan_deliveries)})
      .row({"eager hop share (%)", fixed(100.0 * t.eager_hop_share(), 2)})
      .row({"tree-edge latency mean (ms)", fixed(t.mean_edge_latency_ms(), 2)})
      .row({"all-link latency mean (ms)", fixed(t.mean_link_latency_ms(), 2)})
      .row({"tree depth mean / max",
            fixed(t.mean_depth(), 2) + " / " + to_string(t.max_depth())})
      .row({"edge overlap (Jaccard)", fixed(t.mean_jaccard(), 3)})
      .row({"eager fanout: top-" + fixed(100.0 * o.top, 0) + "% node share (%)",
            fixed(100.0 * t.eager_child_concentration(o.top), 1)})
      .print();
  // Phase rows (scenario runs) partition the trace timeline, so the
  // analyzer re-runs per window [phase i, phase i+1), the last unbounded.
  const auto& phases = trace.phases();
  if (o.no_phases || phases.empty()) return 0;
  Table per_phase("per-phase structure");
  per_phase.header(
      {"phase", "from s", "msgs", "edges", "eager %", "edge ms", "jaccard"});
  for (std::size_t i = 0; i < phases.size(); ++i) {
    window.window_start = phases[i].time;
    window.window_end = i + 1 < phases.size() ? phases[i + 1].time : 0;
    const obs::TreeStats p = obs::analyze_trees(trace, window);
    const double from_s = static_cast<double>(phases[i].time) / kSecond;
    per_phase.row({phases[i].label, fixed(from_s, 1), to_string(p.messages),
                   to_string(p.edges), fixed(100.0 * p.eager_hop_share(), 2),
                   fixed(p.mean_edge_latency_ms(), 2),
                   fixed(p.mean_jaccard(), 3)});
  }
  per_phase.print();
  return 0;
}

int expect_bounds(const trace::TraceLog& trace, const Options& o) {
  expect::EvalInput in;
  in.trace = &trace;
  in.default_expected = o.nodes;
  in.round = static_cast<SimTime>(o.round_ms * kMillisecond);
  const expect::Report report = expect::evaluate(o.expectations, in);
  if (o.kv) {
    std::fputs(expect::format_report_kv(report).c_str(), stdout);
    return report.ok() ? 0 : 3;
  }
  for (const expect::Outcome& out : report.outcomes) {
    std::printf("%-4s %s:%zu  %s  (observed %g, bound %g)%s%s\n",
                expect::to_string(out.status),
                out.file.empty() ? "<expect>" : out.file.c_str(), out.line,
                out.text.c_str(), out.observed, out.bound,
                out.detail.empty() ? "" : "  -- ", out.detail.c_str());
  }
  std::printf("expectations: %zu checked, %zu passed, %zu failed, %zu "
              "skipped\n",
              report.checked(), report.passed, report.failed, report.skipped);
  return report.ok() ? 0 : 3;
}

/// Fills `o` from the arguments; returns the usage error, or "".
std::string parse(const std::vector<std::string>& args, Options& o) {
  o.sub = args.empty() ? "" : args[0];
  if (o.sub != "summary" && o.sub != "trees" && o.sub != "expect") {
    return o.sub.empty() ? "missing subcommand"
                         : "unknown subcommand '" + o.sub + "'";
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-' || arg == "-") {
      if (!o.path.empty()) return "more than one trace path";
      o.path = arg;
      continue;
    }
    const auto row = std::find_if(kRows.begin(), kRows.end(),
                                  [&](const Row& r) { return arg == r.name; });
    if (row == kRows.end()) return "unknown flag '" + arg + "'";
    if (row->subcommands.find(o.sub) == std::string::npos) {
      return arg + " does not apply to " + o.sub;
    }
    if (row->metavar && i + 1 >= args.size()) return arg + " requires a value";
    const std::string error = row->set(o, row->metavar ? args[++i] : "");
    if (!error.empty()) return arg + " " + error;
  }
  if (o.path.empty()) return "missing TRACE";
  if (o.sub == "expect" && o.expect_files == 0) return "expect needs --expect";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (std::ranges::find(args, "--help") != args.end()) return help();
  Options o;
  const std::string usage = parse(args, o);
  if (!usage.empty()) {
    std::fprintf(stderr, "esm_trace: %s (see esm_trace --help)\n",
                 usage.c_str());
    return 2;
  }
  trace::TraceLog trace;  // the one loader
  std::ifstream file(o.path);
  if (o.path != "-" && !file) {
    std::fprintf(stderr, "esm_trace: cannot open %s\n", o.path.c_str());
    return 1;
  }
  try {
    trace = trace::TraceLog::read_csv(o.path == "-" ? std::cin : file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_trace: %s: %s\n", o.path.c_str(), e.what());
    return 1;
  }
  if (o.sub == "summary") return summary(trace, o);
  if (o.sub == "trees") return trees(trace, o);
  return expect_bounds(trace, o);
}
