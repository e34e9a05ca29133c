#include "core/monitor.hpp"

#include "core/scheduler.hpp"
#include "core/strategies.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "net/transport.hpp"
#include "overlay/cyclon.hpp"
#include "sim/simulator.hpp"

namespace esm::core {
namespace {

TEST(OracleLatencyMonitor, ReadsModelInMilliseconds) {
  net::ConstantLatencyModel latency(25 * kMillisecond);
  OracleLatencyMonitor monitor(latency);
  EXPECT_DOUBLE_EQ(monitor.metric(0, 1), 25.0);
}

TEST(OracleLatencyMonitor, TracksPerPairValues) {
  net::RandomLatencyModel latency(5, 1000, 90000, 3);
  OracleLatencyMonitor monitor(latency);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = 0; b < 5; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(monitor.metric(a, b), to_ms(latency.one_way(a, b)));
    }
  }
}

TEST(DistanceMonitor, EuclideanDistance) {
  DistanceMonitor monitor({{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}});
  EXPECT_DOUBLE_EQ(monitor.metric(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(monitor.metric(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(monitor.metric(1, 1), 0.0);
}

struct PingFixture {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{20 * kMillisecond};
  net::Transport transport;
  std::vector<std::unique_ptr<overlay::FullMembershipSampler>> samplers;
  std::vector<std::unique_ptr<PingMonitor>> monitors;

  explicit PingFixture(std::uint32_t n, PingMonitor::Params params = {})
      : transport(sim, latency, n, {}, Rng(5)) {
    for (NodeId id = 0; id < n; ++id) {
      samplers.push_back(std::make_unique<overlay::FullMembershipSampler>(
          transport, id, Rng(100 + id)));
      monitors.push_back(std::make_unique<PingMonitor>(
          sim, transport, id, *samplers[id], params, Rng(200 + id)));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        monitors[id]->handle_packet(src, static_cast<const PingPacket&>(*p));
      });
    }
  }
};

TEST(PingMonitor, UnknownPeerIsInfinite) {
  PingFixture f(3);
  EXPECT_TRUE(std::isinf(f.monitors[0]->metric(0, 1)));
}

TEST(PingMonitor, RejectsWrongSelf) {
  PingFixture f(3);
  EXPECT_THROW(f.monitors[0]->metric(1, 2), CheckFailure);
}

TEST(PingMonitor, ConvergesToOneWayLatency) {
  PingFixture f(4);
  for (auto& m : f.monitors) m->start();
  f.sim.run_until(30 * kSecond);
  // RTT = 40 ms; the metric is SRTT/2 = 20 ms = the one-way delay.
  for (NodeId a = 0; a < 4; ++a) {
    EXPECT_GE(f.monitors[a]->peers_known(), 3u);
    for (NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_NEAR(f.monitors[a]->metric(a, b), 20.0, 0.5);
    }
  }
}

TEST(PingMonitor, EwmaSmoothsJitter) {
  PingMonitor::Params params;
  params.fanout = 3;
  sim::Simulator sim;
  net::ConstantLatencyModel latency(10 * kMillisecond);
  net::TransportOptions opts;
  opts.jitter = 0.3;
  net::Transport transport(sim, latency, 2, opts, Rng(9));
  overlay::FullMembershipSampler s0(transport, 0, Rng(1));
  overlay::FullMembershipSampler s1(transport, 1, Rng(2));
  PingMonitor m0(sim, transport, 0, s0, params, Rng(3));
  PingMonitor m1(sim, transport, 1, s1, params, Rng(4));
  transport.register_handler(0, [&](NodeId src, const net::PacketPtr& p) {
    m0.handle_packet(src, static_cast<const PingPacket&>(*p));
  });
  transport.register_handler(1, [&](NodeId src, const net::PacketPtr& p) {
    m1.handle_packet(src, static_cast<const PingPacket&>(*p));
  });
  m0.start();
  sim.run_until(120 * kSecond);
  // Mean one-way is 10 ms; the smoothed estimate should sit near it even
  // though individual samples vary by +-30%.
  EXPECT_NEAR(m0.metric(0, 1), 10.0, 2.0);
}

TEST(PiggybackMonitor, SmoothsObservedRtts) {
  PiggybackMonitor m(0);
  EXPECT_TRUE(std::isinf(m.metric(0, 5)));
  m.observe(5, 40 * kMillisecond);
  EXPECT_DOUBLE_EQ(m.metric(0, 5), 20.0);  // SRTT/2 in ms
  // New samples move the estimate by alpha = 1/8.
  m.observe(5, 80 * kMillisecond);
  EXPECT_NEAR(m.metric(0, 5), 22.5, 1e-9);
  EXPECT_EQ(m.peers_known(), 1u);
  EXPECT_THROW(m.metric(1, 5), CheckFailure);
}

TEST(PiggybackMonitor, FedByScheduler) {
  // A lazy exchange produces an RTT observation with no extra packets.
  sim::Simulator sim;
  net::ConstantLatencyModel latency(15 * kMillisecond);
  net::Transport transport(sim, latency, 2, {}, Rng(3));
  core::FlatStrategy lazy(0.0, {}, Rng(4));
  PiggybackMonitor monitor(1);
  std::vector<std::unique_ptr<PayloadScheduler>> scheds;
  for (NodeId id = 0; id < 2; ++id) {
    scheds.push_back(std::make_unique<PayloadScheduler>(
        sim, transport, id, lazy,
        [](const AppMessage&, Round, NodeId) {}));
    transport.register_handler(id, [&scheds, id](NodeId src,
                                                 const net::PacketPtr& p) {
      scheds[id]->handle_packet(src, p);
    });
  }
  scheds[1]->set_rtt_observer(
      [&monitor](NodeId peer, SimTime rtt) { monitor.observe(peer, rtt); });
  AppMessage m;
  m.id = MsgId{1, 2};
  m.payload_bytes = 64;
  scheds[0]->l_send(m, 1, 1);  // IHAVE -> IWANT -> MSG
  sim.run();
  // IWANT + MSG = one round trip of 30 ms; metric = one-way 15 ms.
  EXPECT_NEAR(monitor.metric(1, 0), 15.0, 0.1);
}

TEST(PingMonitor, DeadPeerKeepsLastEstimate) {
  PingFixture f(3);
  for (auto& m : f.monitors) m->start();
  f.sim.run_until(10 * kSecond);
  const double before = f.monitors[0]->metric(0, 1);
  f.transport.silence(1);
  f.sim.run_until(30 * kSecond);
  EXPECT_DOUBLE_EQ(f.monitors[0]->metric(0, 1), before);
}

}  // namespace
}  // namespace esm::core
