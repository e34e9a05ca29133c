// Ablation A3: sensitivity to the request timers.
//
// The paper sets the retransmission period T = 400 ms ("the minimal that
// results in approximately 1 payload received by each destination when
// using a fully lazy push strategy") and claims T "has no practical impact
// in the final average latency, and can be set only approximately" in the
// no-loss case; bench/figures/ablation_timers.fig sweeps T. T0 (Radius)
// trades first-request delay against duplicate suppression: this program
// sweeps T0 as a multiple of rho, which no flag can express, and the IHAVE
// batching window, whose control-byte column is not a --kv number.
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

int main() {
  using namespace esm;
  using harness::ExperimentConfig;
  using harness::StrategySpec;
  using harness::Table;

  ExperimentConfig base;
  base.seed = 2007;
  base.num_nodes = 100;
  base.num_messages = 300;

  // --- T0 sweep: Radius first-request delay --------------------------------
  net::TopologyParams topo_params = base.topology;
  topo_params.num_clients = base.num_nodes;
  const net::Topology topo = net::generate_topology(topo_params, base.seed);
  const net::ClientMetrics metrics = net::compute_client_metrics(topo);
  const double rho = to_ms(metrics.latency_quantile(0.25));

  Table t0_table("Ablation A3b: Radius first-request delay T0 (rho = q25)");
  t0_table.header({"T0 (x rho)", "latency ms", "payload/delivery",
                   "duplicates", "deliveries %"});
  for (const double mult : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    ExperimentConfig config = base;
    config.strategy = StrategySpec::make_radius(rho);
    config.strategy.t0 = static_cast<SimTime>(mult * rho * kMillisecond);
    if (mult == 0.0) config.strategy.t0 = 1;  // effectively immediate
    const auto r = harness::run_experiment(config);
    t0_table.row({Table::num(mult, 0), Table::num(r.mean_latency_ms, 0),
                  Table::num(r.payload_per_delivery, 3),
                  std::to_string(r.duplicate_payloads),
                  Table::num(100.0 * r.mean_delivery_fraction, 2)});
  }
  t0_table.print();

  // --- IHAVE batching window --------------------------------------------------
  // Batching only pays off when several messages are in flight per window,
  // so this ablation uses a 50 msg/s stream (the paper's 2 msg/s workload
  // rarely has two advertisements for the same destination in flight).
  Table batch_table(
      "Ablation A3c: IHAVE aggregation window (lazy push, 50 msg/s)");
  batch_table.header({"window ms", "latency ms", "control pkts",
                      "control bytes (KiB)", "deliveries %"});
  for (const SimTime w : {0, 10, 25, 50, 100}) {
    ExperimentConfig config = base;
    config.strategy = StrategySpec::make_flat(0.0);
    config.mean_interval = 20 * kMillisecond;
    config.ihave_batch_window = w * kMillisecond;
    const auto r = harness::run_experiment(config);
    const std::uint64_t control_bytes =
        r.total_bytes - static_cast<std::uint64_t>(r.payload_packets) * 280;
    batch_table.row({std::to_string(w), Table::num(r.mean_latency_ms, 0),
                     std::to_string(r.control_packets),
                     Table::num(static_cast<double>(control_bytes) / 1024.0, 0),
                     Table::num(100.0 * r.mean_delivery_fraction, 2)});
  }
  batch_table.print();

  std::puts(
      "\nClaim checks: small T0 requests\n"
      "payloads that are already in flight (more duplicates); large T0\n"
      "delays delivery for payloads no eager path will bring. Batching\n"
      "IHAVEs cuts control packets almost linearly with the window at the\n"
      "price of that much added advertisement (and thus delivery) delay.");
  return 0;
}
