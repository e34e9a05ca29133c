// esm_replay: offline analysis of an experiment trace (the paper's §5.3
// workflow — "All messages multicast and delivered are logged for later
// processing").
//
//   esm_run --strategy ttl --u 3 --trace run.csv
//   esm_replay run.csv
//
// Recomputes the headline statistics from the raw event log: per-message
// delivery counts, the latency distribution, per-node payload
// contributions and the eager/requested split — so external tooling (or a
// skeptical reviewer) can verify the harness's aggregates independently.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "stats/running.hpp"
#include "trace/trace_log.hpp"

int main(int argc, char** argv) {
  using namespace esm;
  if (argc != 2) {
    std::fprintf(stderr, "usage: esm_replay TRACE.csv\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "esm_replay: cannot read %s\n", argv[1]);
    return 1;
  }
  trace::TraceLog log;
  try {
    log = trace::TraceLog::read_csv(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_replay: %s\n", e.what());
    return 1;
  }

  // --- per-message deliveries & latency --------------------------------------
  std::map<std::uint32_t, std::uint32_t> deliveries_by_seq;
  stats::Samples latency_ms;
  stats::RunningStat latency_stat;
  for (const auto& d : log.deliveries()) {
    ++deliveries_by_seq[d.seq];
    if (d.node != d.origin) {
      latency_ms.add(to_ms(d.latency));
      latency_stat.add(to_ms(d.latency));
    }
  }
  // A trace without deliveries reads 0 / 0.
  std::uint32_t min_deliveries = deliveries_by_seq.empty() ? 0 : 0xffffffffu;
  std::uint32_t max_deliveries = 0;
  for (const auto& [seq, count] : deliveries_by_seq) {
    min_deliveries = std::min(min_deliveries, count);
    max_deliveries = std::max(max_deliveries, count);
  }

  // --- payload economy --------------------------------------------------------
  std::map<NodeId, std::uint64_t> payload_by_node;
  std::uint64_t eager = 0, requested = 0;
  for (const auto& p : log.payloads()) {
    ++payload_by_node[p.src];
    if (p.eager) {
      ++eager;
    } else {
      ++requested;
    }
  }
  stats::RunningStat per_node;
  for (const auto& [node, count] : payload_by_node) {
    per_node.add(static_cast<double>(count));
  }

  harness::Table table(std::string("trace replay: ") + argv[1]);
  table.header({"statistic", "value"});
  table.row({"messages", std::to_string(deliveries_by_seq.size())});
  table.row({"deliveries", std::to_string(log.deliveries().size())});
  table.row({"deliveries per message (min / max)",
             std::to_string(min_deliveries) + " / " +
                 std::to_string(max_deliveries)});
  table.row({"mean latency (ms)", harness::Table::num(latency_stat.mean(), 1) +
                                      " ± " +
                                      harness::Table::num(
                                          latency_stat.ci95_half_width(), 1)});
  table.row({"latency p50 / p95 / p99 (ms)",
             harness::Table::num(latency_ms.quantile(0.5), 1) + " / " +
                 harness::Table::num(latency_ms.quantile(0.95), 1) + " / " +
                 harness::Table::num(latency_ms.quantile(0.99), 1)});
  table.row({"payload transmissions", std::to_string(log.payloads().size())});
  table.row({"  eager / requested", std::to_string(eager) + " / " +
                                        std::to_string(requested)});
  table.row({"payload per delivery",
             harness::Table::num(log.deliveries().empty()
                                     ? 0.0
                                     : static_cast<double>(
                                           log.payloads().size()) /
                                           static_cast<double>(
                                               log.deliveries().size()),
                                 3)});
  table.row({"sending nodes", std::to_string(payload_by_node.size())});
  table.row({"payload sent per node (mean / max)",
             harness::Table::num(per_node.mean(), 1) + " / " +
                 harness::Table::num(per_node.max(), 0)});
  table.print();
  return 0;
}
