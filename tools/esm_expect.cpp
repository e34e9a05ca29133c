// esm_expect: offline expectation checker over saved trace CSVs.
//
//   esm_run --trace run.csv ... && esm_expect --expect steady.exp run.csv
//   esm_run --trace-stream - ... | esm_expect --expect steady.exp -
//
// Replays a trace written by esm_run --trace/--trace-stream (schema v2, or
// v1 with documented defaults) through the same expectation engine as
// `esm_run --expect`. Offline evaluation has no run context, so:
//   * the delivery-fraction denominator defaults to the largest audience
//     observed for any message in the trace (override with --nodes N);
//   * one gossip round defaults to 400 ms (override with --round-ms);
//   * `metric` bounds, histogram recovery bounds (max_iwants/max_ms) and
//     rank=oracle structure assertions report `skip` — they need the
//     online run's scalars, lifecycle registry or capacity ranking;
//   * v1 traces carry no parent attribution: structure/jaccard/tree-shape
//     checks report `skip`, delivery/latency bounds still evaluate.
//
// Exit codes: 0 all pass, 1 runtime error, 2 usage, 3 violations.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/text_input.hpp"
#include "expect/expect.hpp"
#include "expect/expect_text.hpp"
#include "trace/trace_log.hpp"

namespace {

void usage() {
  std::fputs(
      R"(usage: esm_expect --expect FILE [options] TRACE
Evaluate declarative expectations (.exp) against a saved trace CSV.

  TRACE               trace CSV from esm_run --trace/--trace-stream; - = stdin
  --expect FILE       expectation file (repeatable; files compose)
  --nodes N           delivery-fraction denominator (default: largest
                      per-message audience observed in the trace)
  --round-ms MS       gossip round length for bounds in rounds (default 400)
  --kv                key=value report instead of readable lines

Exit codes: 0 = all pass, 1 = runtime error, 2 = usage, 3 = violations.
)",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esm;
  std::vector<std::string> expect_paths;
  std::string trace_path;
  std::uint32_t nodes = 0;
  double round_ms = 400.0;
  bool kv = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--expect" || arg == "--nodes" || arg == "--round-ms") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "esm_expect: %s requires a value\n", arg.c_str());
        return 2;
      }
      const std::string& value = args[++i];
      if (arg == "--expect") {
        expect_paths.push_back(value);
      } else if (arg == "--nodes") {
        const auto v = text::parse_uint<std::uint32_t>(value);
        if (!v || *v == 0) {
          std::fprintf(stderr, "esm_expect: bad --nodes '%s'\n", value.c_str());
          return 2;
        }
        nodes = *v;
      } else {
        const auto v = text::parse_double(value);
        if (!v || *v <= 0.0) {
          std::fprintf(stderr, "esm_expect: bad --round-ms '%s'\n",
                       value.c_str());
          return 2;
        }
        round_ms = *v;
      }
    } else if (arg == "--kv") {
      kv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "esm_expect: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      std::fprintf(stderr, "esm_expect: more than one trace path\n");
      return 2;
    }
  }
  if (expect_paths.empty() || trace_path.empty()) {
    usage();
    return 2;
  }

  expect::ExpectationSet expectations;
  for (const std::string& path : expect_paths) {
    try {
      expectations.merge(expect::load_expectation_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esm_expect: %s\n", e.what());
      return 2;
    }
  }

  trace::TraceLog trace;
  try {
    if (trace_path == "-") {
      trace = trace::TraceLog::read_csv(std::cin);
    } else {
      std::ifstream file(trace_path);
      if (!file) {
        std::fprintf(stderr, "esm_expect: cannot open %s\n",
                     trace_path.c_str());
        return 1;
      }
      trace = trace::TraceLog::read_csv(file);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_expect: %s: %s\n", trace_path.c_str(), e.what());
    return 1;
  }

  expect::EvalInput in;
  in.trace = &trace;
  in.default_expected = nodes;
  in.round = static_cast<SimTime>(round_ms * static_cast<double>(kMillisecond));
  const expect::Report report = expect::evaluate(expectations, in);

  if (kv) {
    std::fputs(expect::format_report_kv(report).c_str(), stdout);
  } else {
    for (const expect::Outcome& out : report.outcomes) {
      std::printf("%-4s %s:%zu  %s  (observed %g, bound %g)%s%s\n",
                  expect::to_string(out.status),
                  out.file.empty() ? "<expect>" : out.file.c_str(), out.line,
                  out.text.c_str(), out.observed, out.bound,
                  out.detail.empty() ? "" : "  -- ",
                  out.detail.c_str());
    }
    std::printf("expectations: %zu checked, %zu passed, %zu failed, %zu "
                "skipped\n",
                report.checked(), report.passed, report.failed,
                report.skipped);
  }
  return report.ok() ? 0 : 3;
}
