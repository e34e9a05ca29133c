// Micro-benchmarks (google-benchmark) for the hot paths that bound
// experiment throughput: the event queue, the RNG, Cyclon shuffles, the
// wire codec and underlay routing. The packet-path microbenchmarks of
// record (event queue hold model, transport send -> deliver, eager and
// lazy scheduler messages) live in esmbench/esm_benchmark.cpp as the
// sim.drv_*, net.drv_* and core.drv_* metrics.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "core/message.hpp"
#include "overlay/cyclon.hpp"
#include "wire/codec.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace esm;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(100));
  }
}
BENCHMARK(BM_RngBelow);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(i, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

void BM_PeriodicTimerRestartStorm(benchmark::State& state) {
  // Timer churn: a bank of periodic timers that is restarted far more
  // often than it ticks — the overlay-shuffle/monitor pattern under churn.
  constexpr int kTimers = 32;
  for (auto _ : state) {
    sim::Simulator sim;
    int ticks = 0;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
    timers.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<sim::PeriodicTimer>(
          sim, [&ticks] { ++ticks; }));
    }
    for (int round = 0; round < 100; ++round) {
      for (auto& t : timers) t->start(500, 1000);
      sim.run_until(sim.now() + 100);  // restart long before any tick
    }
    for (auto& t : timers) t->stop();
    sim.run();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 100 * kTimers);
}
BENCHMARK(BM_PeriodicTimerRestartStorm);

void BM_CyclonShuffleRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1000);
  net::Transport transport(sim, latency, n, {}, Rng(1));
  std::vector<std::unique_ptr<overlay::CyclonNode>> nodes;
  Rng boot(7);
  for (NodeId id = 0; id < n; ++id) {
    nodes.push_back(std::make_unique<overlay::CyclonNode>(
        sim, transport, id, overlay::OverlayParams{}, Rng(100 + id)));
    std::vector<NodeId> contacts;
    for (int k = 0; k < 15; ++k) {
      const NodeId c = static_cast<NodeId>(boot.below(n));
      if (c != id) contacts.push_back(c);
    }
    nodes[id]->bootstrap(contacts);
    transport.register_handler(
        id, [&nodes, id](NodeId src, const net::PacketPtr& p) {
          nodes[id]->handle_packet(
              src, static_cast<const overlay::ShufflePacket&>(*p));
        });
  }
  for (auto& node : nodes) node->start();
  for (auto _ : state) {
    sim.run_until(sim.now() + 1 * kSecond);  // one shuffle round per node
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CyclonShuffleRound)->Arg(100)->Arg(400);

void BM_WireEncodeDecodeData(benchmark::State& state) {
  core::DataPacket packet;
  packet.msg.id = MsgId{7, 8};
  packet.msg.payload_bytes = 256;
  packet.round = 3;
  for (auto _ : state) {
    const auto bytes = wire::encode_packet(packet, 0, 1);
    benchmark::DoNotOptimize(wire::decode_packet(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeDecodeData);

void BM_TopologyGenerate(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::generate_topology(params, 42));
  }
}
BENCHMARK(BM_TopologyGenerate)->Unit(benchmark::kMillisecond);

void BM_ClientRouting(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 100;
  const net::Topology topo = net::generate_topology(params, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::compute_client_metrics(topo));
  }
  state.SetItemsProcessed(state.iterations() * params.num_clients);
}
BENCHMARK(BM_ClientRouting)->Unit(benchmark::kMillisecond);

}  // namespace
