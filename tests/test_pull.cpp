#include "pull/pull_gossip.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "overlay/cyclon.hpp"
#include "sim/simulator.hpp"

namespace esm::pull {
namespace {

struct Swarm {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{10 * kMillisecond};
  net::Transport transport;
  std::vector<std::unique_ptr<overlay::FullMembershipSampler>> samplers;
  std::vector<std::unique_ptr<PullNode>> nodes;
  std::vector<std::vector<core::AppMessage>> delivered;

  Swarm(std::uint32_t n, PullParams params, net::TransportOptions options = {})
      : transport(sim, latency, n, options, Rng(41)), delivered(n) {
    for (NodeId id = 0; id < n; ++id) {
      samplers.push_back(std::make_unique<overlay::FullMembershipSampler>(
          transport, id, Rng(900 + id)));
      nodes.push_back(std::make_unique<PullNode>(
          sim, transport, id, params, *samplers[id],
          [this, id](const core::AppMessage& m) { delivered[id].push_back(m); },
          Rng(1000 + id)));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        nodes[id]->handle_packet(src, p);
      });
    }
    for (auto& node : nodes) node->start();
  }

  std::size_t total_delivered() const {
    std::size_t total = 0;
    for (const auto& d : delivered) total += d.size();
    return total;
  }
};

PullParams eager_params() {
  PullParams p;
  p.period = 100 * kMillisecond;
  p.fanout = 2;
  p.lazy_reply = false;
  return p;
}

PullParams lazy_params() {
  PullParams p = eager_params();
  p.lazy_reply = true;
  return p;
}

TEST(PullGossip, EagerPullEventuallyDeliversToAll) {
  Swarm swarm(20, eager_params());
  swarm.nodes[0]->multicast(256, 0, 0);
  swarm.sim.run_until(20 * kSecond);
  EXPECT_EQ(swarm.total_delivered(), 20u);
}

TEST(PullGossip, LazyPullEventuallyDeliversToAll) {
  Swarm swarm(20, lazy_params());
  swarm.nodes[0]->multicast(256, 0, 0);
  swarm.sim.run_until(20 * kSecond);
  EXPECT_EQ(swarm.total_delivered(), 20u);
}

TEST(PullGossip, NoDuplicateDeliveries) {
  Swarm swarm(15, eager_params());
  for (int i = 0; i < 5; ++i) {
    swarm.nodes[static_cast<NodeId>(i)]->multicast(
        64, static_cast<std::uint32_t>(i), swarm.sim.now());
  }
  swarm.sim.run_until(20 * kSecond);
  for (const auto& d : swarm.delivered) {
    EXPECT_EQ(d.size(), 5u);
  }
}

TEST(PullGossip, EagerPullWastesPayloadLazyDoesNot) {
  // The paper's §7 point: non-lazy pull transmits redundant payloads
  // (concurrent polls to different holders each ship the payload); lazy
  // pull fetches each payload once.
  Swarm eager(25, eager_params());
  eager.nodes[0]->multicast(256, 0, 0);
  eager.sim.run_until(30 * kSecond);
  std::uint64_t eager_dups = 0;
  for (const auto& n : eager.nodes) eager_dups += n->duplicate_payloads();

  Swarm lazy(25, lazy_params());
  lazy.nodes[0]->multicast(256, 0, 0);
  lazy.sim.run_until(30 * kSecond);
  std::uint64_t lazy_dups = 0;
  for (const auto& n : lazy.nodes) lazy_dups += n->duplicate_payloads();

  EXPECT_EQ(lazy_dups, 0u);
  EXPECT_GT(eager_dups, 0u);
  EXPECT_GE(eager.transport.stats().total_payload_packets(),
            lazy.transport.stats().total_payload_packets());
}

TEST(PullGossip, PullLatencyScalesWithPeriod) {
  auto run = [](SimTime period) {
    PullParams p;
    p.period = period;
    p.fanout = 2;
    Swarm swarm(20, p);
    swarm.nodes[0]->multicast(64, 0, 0);
    SimTime last = 0;
    // Run until everyone has it, recording the last delivery time.
    while (swarm.total_delivered() < 20 &&
           swarm.sim.now() < 300 * kSecond) {
      swarm.sim.run_until(swarm.sim.now() + 100 * kMillisecond);
      last = swarm.sim.now();
    }
    return last;
  };
  EXPECT_LT(run(50 * kMillisecond), run(800 * kMillisecond));
}

TEST(PullGossip, DigestCapKeepsRequestsBounded) {
  PullParams p = eager_params();
  p.max_digest = 4;
  Swarm swarm(5, p);
  for (int i = 0; i < 20; ++i) {
    swarm.nodes[0]->multicast(16, static_cast<std::uint32_t>(i),
                              swarm.sim.now());
  }
  // Intercept one poll: request digest must respect the cap.
  bool saw_request = false;
  swarm.transport.register_handler(
      1, [&](NodeId src, const net::PacketPtr& packet) {
        if (packet->type == net::PacketType::pull_request) {
          EXPECT_LE(static_cast<const PullRequestPacket&>(*packet).known.size(),
                    4u);
          saw_request = true;
        }
        swarm.nodes[1]->handle_packet(src, packet);
      });
  swarm.sim.run_until(5 * kSecond);
  EXPECT_TRUE(saw_request);
}

TEST(PullGossip, GarbageCollectRemovesState) {
  Swarm swarm(5, eager_params());
  const auto m = swarm.nodes[0]->multicast(16, 0, 0);
  EXPECT_TRUE(swarm.nodes[0]->knows(m.id));
  swarm.nodes[0]->garbage_collect({m.id});
  EXPECT_FALSE(swarm.nodes[0]->knows(m.id));
  EXPECT_EQ(swarm.nodes[0]->known_count(), 0u);
}

TEST(PullGossip, SurvivesFailures) {
  Swarm swarm(20, eager_params());
  swarm.nodes[0]->multicast(64, 0, 0);
  for (NodeId id = 15; id < 20; ++id) swarm.transport.silence(id);
  swarm.sim.run_until(30 * kSecond);
  std::size_t live_delivered = 0;
  for (NodeId id = 0; id < 15; ++id) live_delivered += swarm.delivered[id].size();
  EXPECT_EQ(live_delivered, 15u);
}

TEST(PullGossip, RefetchAfterTimeoutRecoversLostFetch) {
  // A PullFetch whose request or reply is lost must only suppress
  // re-fetching of the same id for refetch_timeout (default: one poll
  // period), not forever.
  Swarm swarm(2, lazy_params());
  for (auto& node : swarm.nodes) node->stop();  // no background polling
  const MsgId id{7, 7};
  std::vector<bool> fetches;  // value = was it a refetch
  swarm.nodes[1]->set_fetch_listener(
      [&](const MsgId&, bool refetch) { fetches.push_back(refetch); });
  auto advertise = std::make_shared<PullAdvertisePacket>();
  advertise->ids.push_back(id);
  // First advertisement fetches; node 0 does not hold the payload, so the
  // fetch is never answered (equivalent to a lost reply).
  swarm.nodes[1]->handle_packet(0, advertise);
  ASSERT_EQ(fetches.size(), 1u);
  EXPECT_FALSE(fetches[0]);
  // Within the timeout the in-flight fetch suppresses duplicates.
  swarm.sim.run_until(50 * kMillisecond);
  swarm.nodes[1]->handle_packet(0, advertise);
  EXPECT_EQ(fetches.size(), 1u);
  EXPECT_EQ(swarm.nodes[1]->refetches(), 0u);
  // Past the timeout the id is fetched again.
  swarm.sim.run_until(150 * kMillisecond);
  swarm.nodes[1]->handle_packet(0, advertise);
  ASSERT_EQ(fetches.size(), 2u);
  EXPECT_TRUE(fetches[1]);
  EXPECT_EQ(swarm.nodes[1]->refetches(), 1u);
}

TEST(PullGossip, LazyPullSurvivesLossViaRefetch) {
  // Pre-fix, a lost fetch (or its reply) suppressed that id at that node
  // permanently; under sustained loss some nodes never converged. With
  // the re-fetch timeout, lazy pull eventually delivers everywhere.
  net::TransportOptions options;
  options.loss_rate = 0.25;
  Swarm swarm(15, lazy_params(), options);
  swarm.nodes[0]->multicast(64, 0, 0);
  swarm.sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.total_delivered(), 15u);
}

TEST(PullGossip, RarestFirstFetchesLeastAdvertisedFirst) {
  // Sanghavi-style rarest-first (--pull-sched rarest): when one advertise
  // offers several unknown ids, the node fetches the id it has seen
  // advertised fewest times first — the rarest payload is the one most at
  // risk of disappearing past the saturation knee.
  PullParams p = lazy_params();
  p.order = core::PullOrder::rarest;
  Swarm swarm(3, p);
  for (auto& node : swarm.nodes) node->stop();
  std::vector<std::uint64_t> fetched;
  swarm.nodes[2]->set_fetch_listener(
      [&](const MsgId& id, bool) { fetched.push_back(id.lo); });
  const MsgId a{1, 1};
  const MsgId b{2, 2};
  auto adv_a = std::make_shared<PullAdvertisePacket>();
  adv_a->ids.push_back(a);
  // Two peers advertise `a`: its observed-advertisement count reaches 2
  // (the in-flight fetch suppresses the duplicate request).
  swarm.nodes[2]->handle_packet(0, adv_a);
  swarm.nodes[2]->handle_packet(1, adv_a);
  ASSERT_EQ(fetched, (std::vector<std::uint64_t>{1}));
  // Past the re-fetch timeout, a single advertise offers both: `b` has
  // been seen once vs `a` three times, so `b` is fetched first.
  swarm.sim.run_until(150 * kMillisecond);
  auto adv_ab = std::make_shared<PullAdvertisePacket>();
  adv_ab->ids.push_back(a);
  adv_ab->ids.push_back(b);
  swarm.nodes[2]->handle_packet(0, adv_ab);
  EXPECT_EQ(fetched, (std::vector<std::uint64_t>{1, 2, 1}));
}

TEST(PullGossip, RandomOrderKeepsAdvertiseOrder) {
  // Default policy (--pull-sched random): candidates are requested in
  // advertise order, exactly as before the scheduling knob existed.
  Swarm swarm(3, lazy_params());
  for (auto& node : swarm.nodes) node->stop();
  std::vector<std::uint64_t> fetched;
  swarm.nodes[2]->set_fetch_listener(
      [&](const MsgId& id, bool) { fetched.push_back(id.lo); });
  const MsgId a{1, 1};
  const MsgId b{2, 2};
  auto adv_a = std::make_shared<PullAdvertisePacket>();
  adv_a->ids.push_back(a);
  swarm.nodes[2]->handle_packet(0, adv_a);
  swarm.nodes[2]->handle_packet(1, adv_a);
  swarm.sim.run_until(150 * kMillisecond);
  auto adv_ab = std::make_shared<PullAdvertisePacket>();
  adv_ab->ids.push_back(a);
  adv_ab->ids.push_back(b);
  swarm.nodes[2]->handle_packet(0, adv_ab);
  EXPECT_EQ(fetched, (std::vector<std::uint64_t>{1, 1, 2}));
}

TEST(PullGossip, RarestFirstStillDeliversEverywhere) {
  PullParams p = lazy_params();
  p.order = core::PullOrder::rarest;
  Swarm swarm(20, p);
  for (int i = 0; i < 5; ++i) {
    swarm.nodes[static_cast<NodeId>(i)]->multicast(
        64, static_cast<std::uint32_t>(i), swarm.sim.now());
  }
  swarm.sim.run_until(30 * kSecond);
  for (const auto& d : swarm.delivered) EXPECT_EQ(d.size(), 5u);
}

TEST(PullGossip, RejectsBadParams) {
  Swarm swarm(3, eager_params());
  PullParams bad;
  bad.period = 0;
  EXPECT_THROW(PullNode(swarm.sim, swarm.transport, 0, bad, *swarm.samplers[0],
                        [](const core::AppMessage&) {}, Rng(1)),
               CheckFailure);
}

}  // namespace
}  // namespace esm::pull
