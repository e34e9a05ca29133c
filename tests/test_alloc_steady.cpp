// Steady-state allocation checks for the packet path. After a warm-up that
// sizes every container, each operation below must perform ZERO operator
// new calls: a transport send -> deliver (unbounded and bounded drop-oldest
// egress), an eager PayloadScheduler message, a lazy IHAVE -> IWANT -> MSG
// exchange, and a GossipNode forward over a StaticNeighborSampler.
//
// The counts come from the counting allocator (common/alloc_counter),
// which this binary links by calling it. They are exact for a given build:
// the tests are single-threaded.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.hpp"
#include "core/gossip.hpp"
#include "core/msg_arena.hpp"
#include "core/scheduler.hpp"
#include "core/strategies.hpp"
#include "net/transport.hpp"
#include "overlay/static_overlay.hpp"
#include "sim/simulator.hpp"

namespace esm {
namespace {

/// operator new calls made while `body` runs.
template <typename F>
std::uint64_t allocations_during(F&& body) {
  const std::uint64_t before = alloc::allocation_count();
  body();
  return alloc::allocation_count() - before;
}

struct ProbePacket final : net::Packet {};

/// Sends bursts of 64 packets from node 0 to node 1 through a serialized
/// egress and runs the simulator dry after each burst.
struct TransportLoop {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{kMillisecond};
  net::Transport transport;
  net::PacketPtr packet = std::make_shared<ProbePacket>();
  std::uint64_t delivered = 0;

  explicit TransportLoop(net::TransportOptions options)
      : transport(sim, latency, 2, options, Rng(11)) {
    transport.register_handler(
        1, [this](NodeId, const net::PacketPtr&) { ++delivered; });
  }

  void bursts(int n) {
    for (int b = 0; b < n; ++b) {
      for (int i = 0; i < 64; ++i) {
        transport.send(0, 1, packet, 280, /*is_payload=*/true);
      }
      sim.run();
    }
  }
};

TEST(AllocSteady, TransportSendDeliverUnboundedEgress) {
  net::TransportOptions options;
  options.bandwidth_bps = 100'000'000;
  TransportLoop loop(options);
  loop.bursts(4);
  EXPECT_EQ(allocations_during([&] { loop.bursts(64); }), 0u);
  EXPECT_EQ(loop.delivered, 68u * 64u);
}

TEST(AllocSteady, TransportSendDeliverBoundedDropOldestEgress) {
  net::TransportOptions options;
  options.bandwidth_bps = 100'000'000;
  options.egress_buffer_bytes = 8 * 1024;  // a 64-packet burst overflows it
  options.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  TransportLoop loop(options);
  loop.bursts(4);
  const std::uint64_t drops_before = loop.transport.buffer_drops();
  EXPECT_EQ(allocations_during([&] { loop.bursts(64); }), 0u);
  EXPECT_GT(loop.transport.buffer_drops(), drops_before);  // purge ran
  EXPECT_TRUE(loop.transport.egress_accounting_consistent(0));
}

/// A PayloadScheduler pair on a shared, pre-sized arena: pi = 1 pushes
/// every payload eagerly, pi = 0 takes IHAVE -> IWANT -> MSG.
struct SchedulerPair {
  static constexpr std::uint64_t kMessages = 4096;

  sim::Simulator sim;
  net::ConstantLatencyModel latency{kMillisecond};
  net::Transport transport{sim, latency, 2, {}, Rng(5)};
  core::MessageArena arena;
  core::FlatStrategy strategy;
  std::uint64_t delivered = 0;
  core::PayloadScheduler sender;
  core::PayloadScheduler receiver;
  core::AppMessage msg;
  std::uint64_t next = 0;

  explicit SchedulerPair(double pi)
      : strategy(pi, {}, Rng(6)),
        sender(sim, transport, 0, strategy,
               [](const core::AppMessage&, Round, NodeId) {}, &arena),
        receiver(sim, transport, 1, strategy,
                 [this](const core::AppMessage&, Round, NodeId) {
                   ++delivered;
                 },
                 &arena) {
    arena.reserve(kMessages);
    sender.reserve(kMessages);
    receiver.reserve(kMessages);
    transport.register_handler(0, [this](NodeId src, const net::PacketPtr& p) {
      sender.handle_packet(src, p);
    });
    transport.register_handler(1, [this](NodeId src, const net::PacketPtr& p) {
      receiver.handle_packet(src, p);
    });
    msg.origin = 0;
    msg.payload_bytes = 256;
  }

  void messages(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++next) {
      msg.id = MsgId{7, next + 1};
      msg.seq = static_cast<std::uint32_t>(next);
      sender.l_send(msg, 1, 1);
      sim.run();
    }
  }
};

TEST(AllocSteady, EagerSchedulerMessages) {
  SchedulerPair pair(1.0);
  pair.messages(64);
  EXPECT_EQ(allocations_during([&] { pair.messages(2048); }), 0u);
  EXPECT_EQ(pair.delivered, 64u + 2048u);
  EXPECT_EQ(pair.sender.stats().eager_payloads_sent, 64u + 2048u);
}

TEST(AllocSteady, LazyIHaveIWantMsgExchanges) {
  SchedulerPair pair(0.0);
  pair.messages(64);
  EXPECT_EQ(allocations_during([&] { pair.messages(2048); }), 0u);
  EXPECT_EQ(pair.delivered, 64u + 2048u);
  EXPECT_EQ(pair.receiver.stats().requests_sent, 64u + 2048u);
}

TEST(AllocSteady, GossipForwardOverStaticNeighbors) {
  // Node 0 relays to 4 of its 8 static neighbors, lazily (IHAVEs) for
  // half the draws. The neighbors only count arrivals.
  constexpr std::uint32_t kNodes = 9;
  constexpr std::uint64_t kIds = 1024;
  sim::Simulator sim;
  net::ConstantLatencyModel latency{kMillisecond};
  net::Transport transport(sim, latency, kNodes, {}, Rng(3));
  std::uint64_t arrivals = 0;
  for (NodeId n = 1; n < kNodes; ++n) {
    transport.register_handler(
        n, [&arrivals](NodeId, const net::PacketPtr&) { ++arrivals; });
  }
  overlay::StaticNeighborSampler sampler({1, 2, 3, 4, 5, 6, 7, 8}, Rng(4));
  core::FlatStrategy strategy(0.5, {}, Rng(8));
  core::PayloadScheduler scheduler(
      sim, transport, 0, strategy,
      [](const core::AppMessage&, Round, NodeId) {});
  scheduler.reserve(kIds);
  std::uint64_t delivered = 0;
  core::GossipNode gossip(0, core::GossipParams{4, 8}, sampler, scheduler,
                          [&delivered](const core::AppMessage&) {
                            ++delivered;
                          },
                          Rng(9));
  std::vector<core::AppMessage> msgs(kIds);
  std::vector<MsgId> ids(kIds);
  for (std::uint64_t i = 0; i < kIds; ++i) {
    msgs[i].id = ids[i] = MsgId{9, i + 1};
    msgs[i].origin = 1;
    msgs[i].payload_bytes = 256;
  }
  const auto forward_all = [&] {
    for (const core::AppMessage& m : msgs) {
      gossip.l_receive(m, 1, 1);
      sim.run();
    }
  };
  forward_all();  // warm-up: sizes K, the arena and the scheduler tables
  gossip.garbage_collect(ids);
  EXPECT_EQ(allocations_during(forward_all), 0u);
  EXPECT_EQ(delivered, 2 * kIds);
  EXPECT_EQ(arrivals, 2 * kIds * 4);
}

}  // namespace
}  // namespace esm
