// Ablation A3b: sensitivity to Radius's first-request delay T0.
//
// bench/figures/ablation_timers.fig sweeps the retransmission period T
// (A3a) and the IHAVE batching window (A3c). T0 trades first-request delay
// against duplicate suppression: this program sweeps T0 as a multiple of
// rho, which no flag can express.
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

  std::puts(
      "\nClaim check: small T0 requests payloads that are already in\n"
      "flight (more duplicates); large T0 delays delivery for payloads no\n"
      "eager path will bring.");
  return 0;
}
