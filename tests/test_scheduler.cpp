#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/strategies.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace esm::core {
namespace {

/// Strategy driven by a lambda, for scripting protocol scenarios.
class FnStrategy final : public TransmissionStrategy {
 public:
  using Fn = std::function<bool(const MsgId&, Round, NodeId)>;
  FnStrategy(Fn fn, RequestPolicy policy)
      : fn_(std::move(fn)), policy_(policy) {}

  bool eager(const MsgId& id, Round round, NodeId peer) override {
    return fn_(id, round, peer);
  }
  RequestPolicy request_policy() const override { return policy_; }

 private:
  Fn fn_;
  RequestPolicy policy_;
};

struct Received {
  AppMessage msg;
  Round round;
  NodeId src;
  SimTime at;
};

constexpr SimTime kDelay = 10 * kMillisecond;
constexpr SimTime kPeriod = 400 * kMillisecond;

struct Fixture {
  sim::Simulator sim;
  net::ConstantLatencyModel latency{kDelay};
  net::Transport transport;
  std::vector<std::unique_ptr<TransmissionStrategy>> strategies;
  std::vector<std::unique_ptr<PayloadScheduler>> schedulers;
  std::vector<std::vector<Received>> received;

  Fixture(std::uint32_t n, FnStrategy::Fn fn, RequestPolicy policy = [] {
    RequestPolicy p;
    p.first_request_delay = 0;
    p.retransmission_period = kPeriod;
    return p;
  }())
      : transport(sim, latency, n, {}, Rng(3)), received(n) {
    for (NodeId id = 0; id < n; ++id) {
      strategies.push_back(std::make_unique<FnStrategy>(fn, policy));
      schedulers.push_back(std::make_unique<PayloadScheduler>(
          sim, transport, id, *strategies[id],
          [this, id](const AppMessage& msg, Round r, NodeId src) {
            received[id].push_back({msg, r, src, sim.now()});
          }));
      transport.register_handler(id, [this, id](NodeId src,
                                                const net::PacketPtr& p) {
        ASSERT_TRUE(schedulers[id]->handle_packet(src, p));
      });
    }
  }

  AppMessage msg(std::uint64_t n) {
    AppMessage m;
    m.id = MsgId{n, n};
    m.origin = 0;
    m.payload_bytes = 256;
    m.multicast_time = sim.now();
    return m;
  }
};

TEST(Scheduler, EagerPathDeliversDirectly) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return true; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 1);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].msg.id, m.id);
  EXPECT_EQ(f.received[1][0].round, 1u);
  EXPECT_EQ(f.received[1][0].src, 0u);
  EXPECT_EQ(f.received[1][0].at, kDelay);
  EXPECT_EQ(f.schedulers[0]->stats().eager_payloads_sent, 1u);
  EXPECT_EQ(f.schedulers[1]->stats().requests_sent, 0u);
}

TEST(Scheduler, LazyPathRoundTrips) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 2, 1);
  f.sim.run();
  // IHAVE (10ms) + immediate IWANT (10ms) + MSG (10ms).
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].at, 3 * kDelay);
  EXPECT_EQ(f.received[1][0].round, 2u);  // round echoed from the cache
  EXPECT_EQ(f.schedulers[0]->stats().advertisements_sent, 1u);
  EXPECT_EQ(f.schedulers[0]->stats().requested_payloads_sent, 1u);
  EXPECT_EQ(f.schedulers[1]->stats().requests_sent, 1u);
}

TEST(Scheduler, FirstRequestHonorsDelay) {
  RequestPolicy policy;
  policy.first_request_delay = 50 * kMillisecond;
  policy.retransmission_period = kPeriod;
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; }, policy);
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  // IHAVE (10) + T0 (50) + IWANT (10) + MSG (10).
  EXPECT_EQ(f.received[1][0].at, 80 * kMillisecond);
}

TEST(Scheduler, DuplicateEagerPayloadSuppressed) {
  Fixture f(3, [](const MsgId&, Round, NodeId) { return true; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);
  f.schedulers[1]->l_send(m, 1, 2);
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.schedulers[2]->stats().duplicate_payloads, 1u);
}

TEST(Scheduler, LazyThenEagerRace) {
  // IHAVE from 0 at t=10 schedules IWANT at t=110; eager copy from 1
  // arrives at t=60 and must cancel it.
  RequestPolicy policy;
  policy.first_request_delay = 100 * kMillisecond;
  policy.retransmission_period = kPeriod;
  bool eager_from_1 = false;
  Fixture f(3,
            [&](const MsgId&, Round, NodeId) { return eager_from_1; },
            policy);
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);  // lazy: IHAVE
  eager_from_1 = true;
  f.sim.schedule_at(50 * kMillisecond,
                    [&] { f.schedulers[1]->l_send(m, 1, 2); });
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.received[2][0].src, 1u);
  EXPECT_EQ(f.schedulers[2]->stats().requests_sent, 0u);
  EXPECT_EQ(f.schedulers[2]->pending_requests(), 0u);
}

TEST(Scheduler, RetriesNextSourceAfterPeriod) {
  // First advertiser is silenced before it can answer; the request must
  // fall back to the second advertiser one period later.
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);
  f.sim.run_until(5 * kMillisecond);
  f.schedulers[1]->l_send(m, 1, 2);  // second IHAVE arrives at 15 ms
  f.sim.run_until(9 * kMillisecond);
  f.transport.silence(0);  // advertiser 0 will swallow the IWANT
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.received[2][0].src, 1u);
  // IWANT to 0 fires at 10 ms (swallowed) and arms the timer; the second
  // IHAVE lands at 15 ms while it is armed. One period after the first
  // request the timer fires and falls back to node 1.
  EXPECT_EQ(f.received[2][0].at, 10 * kMillisecond + kPeriod + 2 * kDelay);
  EXPECT_EQ(f.schedulers[2]->stats().requests_sent, 2u);
  EXPECT_EQ(f.schedulers[2]->stats().iwant_retries, 0u);
}

TEST(Scheduler, DuplicateAdvertisementFromSameSourceIgnored) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 1);
  f.schedulers[0]->l_send(m, 1, 1);  // re-advertised (paper never does; safe)
  f.sim.run();
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.schedulers[1]->stats().requests_sent, 1u);
}

TEST(Scheduler, IHaveForReceivedPayloadIgnored) {
  // Node 1 already holds the payload (eager copy from 0); a later IHAVE
  // from node 2 must not trigger any request.
  bool eager = true;
  Fixture f(3, [&](const MsgId&, Round, NodeId) { return eager; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 1);  // eager to 1
  f.sim.run();
  eager = false;
  f.schedulers[2]->l_send(m, 2, 1);  // IHAVE to 1 (2 holds it via l_send)
  f.sim.run();
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.schedulers[1]->stats().requests_sent, 0u);
  EXPECT_EQ(f.schedulers[1]->pending_requests(), 0u);
}

TEST(Scheduler, AnswersRequestsFromCacheAfterLazySend) {
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 3, 1);
  f.schedulers[0]->l_send(m, 3, 2);
  f.sim.run();
  // Both receivers pulled the payload from node 0's cache with its round.
  ASSERT_EQ(f.received[1].size(), 1u);
  ASSERT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.received[1][0].round, 3u);
  EXPECT_EQ(f.received[2][0].round, 3u);
  EXPECT_EQ(f.schedulers[0]->stats().requested_payloads_sent, 2u);
}

TEST(Scheduler, GarbageCollectedCacheYieldsUnservedRequest) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 1);
  f.sim.run_until(12 * kMillisecond);  // IHAVE delivered, IWANT in flight
  f.schedulers[0]->garbage_collect({m.id});
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  // The requester cycles its only advertiser once per period until the
  // max_rounds passes are spent, so node 0 sees one unserved IWANT per
  // pass (default RequestPolicy::max_rounds = 5).
  EXPECT_EQ(f.schedulers[0]->stats().requests_unserved, 5u);
  EXPECT_EQ(f.schedulers[1]->stats().iwant_retries, 4u);
  EXPECT_EQ(f.schedulers[1]->stats().recovery_gave_up, 1u);
  EXPECT_EQ(f.schedulers[1]->pending_requests(), 0u);
}

TEST(Scheduler, RetryRecoversAfterTransientCacheMiss) {
  // The only advertiser fails to serve the first IWANT (its cache was
  // garbage-collected), then regains the payload. The retry pass must
  // re-ask the already-asked source instead of stalling forever.
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);
  f.sim.run_until(12 * kMillisecond);  // IHAVE delivered, IWANT in flight
  f.schedulers[0]->garbage_collect({m.id});
  f.sim.run_until(100 * kMillisecond);
  EXPECT_TRUE(f.received[2].empty());
  f.schedulers[0]->l_send(m, 1, 1);  // cache repopulated
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);
  // The 10 ms IWANT went unserved; the retry fires one period after it
  // and the payload arrives an RTT later.
  EXPECT_EQ(f.received[2][0].at, 10 * kMillisecond + kPeriod + 2 * kDelay);
  EXPECT_EQ(f.schedulers[2]->stats().iwant_retries, 1u);
  EXPECT_EQ(f.schedulers[2]->stats().recovery_gave_up, 0u);
  EXPECT_EQ(f.schedulers[2]->pending_requests(), 0u);
}

TEST(Scheduler, HasPayloadTracksSenderAndReceiver) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return true; });
  const AppMessage m = f.msg(1);
  EXPECT_FALSE(f.schedulers[0]->has_payload(m.id));
  f.schedulers[0]->l_send(m, 1, 1);
  EXPECT_TRUE(f.schedulers[0]->has_payload(m.id));
  f.sim.run();
  EXPECT_TRUE(f.schedulers[1]->has_payload(m.id));
}

TEST(Scheduler, QueueDrainsAndKeepsCyclingUntilMaxRounds) {
  // Single advertiser that never answers. Draining the advertiser queue
  // must NOT kill the retransmission timer (the pre-fix stall): the timer
  // keeps cycling over the already-asked source once per period, and the
  // recovery is abandoned only after max_rounds full passes.
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; });
  const AppMessage m = f.msg(1);
  f.schedulers[1]->l_send(m, 1, 2);
  f.sim.run_until(9 * kMillisecond);
  f.transport.silence(1);  // advertiser swallows every IWANT
  f.sim.run();
  EXPECT_TRUE(f.received[2].empty());
  // Default max_rounds = 5: the first ask plus four retry passes.
  EXPECT_EQ(f.schedulers[2]->stats().requests_sent, 5u);
  EXPECT_EQ(f.schedulers[2]->stats().iwant_retries, 4u);
  EXPECT_EQ(f.schedulers[2]->stats().recovery_gave_up, 1u);
  EXPECT_EQ(f.schedulers[2]->pending_requests(), 0u);
}

TEST(Scheduler, MaxRoundsOneRestoresAskEachSourceOnce) {
  RequestPolicy policy;
  policy.first_request_delay = 0;
  policy.retransmission_period = kPeriod;
  policy.max_rounds = 1;
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; }, policy);
  const AppMessage m = f.msg(1);
  f.schedulers[1]->l_send(m, 1, 2);
  f.sim.run_until(9 * kMillisecond);
  f.transport.silence(1);
  f.sim.run();
  EXPECT_TRUE(f.received[2].empty());
  // The old discipline: one ask per advertiser, then give up.
  EXPECT_EQ(f.schedulers[2]->stats().requests_sent, 1u);
  EXPECT_EQ(f.schedulers[2]->stats().iwant_retries, 0u);
  EXPECT_EQ(f.schedulers[2]->stats().recovery_gave_up, 1u);
  EXPECT_EQ(f.schedulers[2]->pending_requests(), 0u);
}

TEST(Scheduler, IHaveBatchingAggregatesPerDestination) {
  Fixture f(3, [](const MsgId&, Round, NodeId) { return false; });
  f.schedulers[0]->set_ihave_batch_window(30 * kMillisecond);
  const AppMessage m1 = f.msg(1);
  const AppMessage m2 = f.msg(2);
  const AppMessage m3 = f.msg(3);
  f.schedulers[0]->l_send(m1, 1, 1);  // same destination: batched together
  f.schedulers[0]->l_send(m2, 1, 1);
  f.schedulers[0]->l_send(m3, 1, 2);  // different destination: own batch
  f.sim.run();
  // One IHAVE packet per destination, not per message.
  EXPECT_EQ(f.schedulers[0]->stats().advertisements_sent, 2u);
  // All three payloads still delivered via requests.
  EXPECT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[2].size(), 1u);
}

TEST(Scheduler, IHaveBatchingDelaysByWindow) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  f.schedulers[0]->set_ihave_batch_window(30 * kMillisecond);
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  // flush (30) + IHAVE (10) + IWANT (10) + MSG (10).
  EXPECT_EQ(f.received[1][0].at, 30 * kMillisecond + 3 * kDelay);
}

TEST(Scheduler, ZeroWindowAdvertisesImmediately) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  f.schedulers[0]->set_ihave_batch_window(0);
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].at, 3 * kDelay);
}

TEST(Scheduler, BatchOverflowFlushesAndSplitsAtWireCap) {
  // The wire codec's id count is a u16, so a batch window long enough to
  // accumulate more than kMaxIHaveIds ids used to make encode throw.
  // Pin the fix: the batch flushes eagerly at the cap and any flush
  // splits into <= kMaxIHaveIds chunks, each billed as its own packet.
  sim::Simulator sim;
  net::ConstantLatencyModel latency{kDelay};
  net::Transport transport(sim, latency, 2, {}, Rng(3));
  RequestPolicy policy;
  policy.first_request_delay = 0;
  policy.retransmission_period = kPeriod;
  FnStrategy strategy([](const MsgId&, Round, NodeId) { return false; },
                      policy);
  PayloadScheduler sched(sim, transport, 0, strategy,
                         [](const AppMessage&, Round, NodeId) {});
  // Record advertisement packets raw instead of wiring up a receiving
  // scheduler: 65k+ IWANT/DATA round trips are beside the point here.
  std::vector<std::size_t> ihave_sizes;
  transport.register_handler(1, [&](NodeId, const net::PacketPtr& p) {
    ASSERT_EQ(p->type, net::PacketType::ihave);
    ihave_sizes.push_back(static_cast<const IHavePacket&>(*p).ids.size());
  });
  sched.set_ihave_batch_window(30 * kMillisecond);
  const std::size_t total = kMaxIHaveIds + 5;
  for (std::uint64_t i = 0; i < total; ++i) {
    AppMessage m;
    m.id = MsgId{i, i};
    m.origin = 0;
    m.payload_bytes = 16;
    m.multicast_time = sim.now();
    sched.l_send(m, 1, 1);
  }
  sim.run();
  ASSERT_EQ(ihave_sizes.size(), 2u);
  EXPECT_EQ(ihave_sizes[0], kMaxIHaveIds);  // eager flush at the cap
  EXPECT_EQ(ihave_sizes[1], 5u);            // window flush of the rest
  EXPECT_EQ(sched.stats().advertisements_sent, 2u);
  // Byte accounting matches what the codec puts on the wire per chunk.
  EXPECT_EQ(transport.stats().link(0, 1).bytes,
            ihave_bytes(kMaxIHaveIds) + ihave_bytes(5));
}

TEST(Scheduler, BatchWindowRejectsNegative) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  EXPECT_THROW(f.schedulers[0]->set_ihave_batch_window(-1), CheckFailure);
}

TEST(Scheduler, UnknownPacketTypesAreRejected) {
  struct Alien final : net::Packet {};
  Fixture f(2, [](const MsgId&, Round, NodeId) { return true; });
  EXPECT_FALSE(f.schedulers[0]->handle_packet(1, std::make_shared<Alien>()));
}

// --- egress backpressure into the scheduler ------------------------------

PayloadScheduler::BackpressureConfig bp_config() {
  PayloadScheduler::BackpressureConfig bp;
  bp.enabled = true;
  bp.readvertise_delay = 100 * kMillisecond;
  return bp;
}

TEST(Scheduler, CongestionDegradesEagerToLazy) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return true; });
  f.schedulers[0]->set_backpressure(bp_config());
  f.schedulers[0]->set_congested(true);
  EXPECT_TRUE(f.schedulers[0]->congested());
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.sim.run();
  // The verdict was eager, but the congested node advertised instead:
  // delivery goes the lazy IHAVE -> IWANT -> MSG round trip.
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].at, 3 * kDelay);
  EXPECT_EQ(f.schedulers[0]->stats().eager_deferred, 1u);
  EXPECT_EQ(f.schedulers[0]->stats().eager_payloads_sent, 0u);
  EXPECT_EQ(f.schedulers[0]->stats().advertisements_sent, 1u);
  // Once decongested, eager pushes go direct again.
  f.schedulers[0]->set_congested(false);
  f.schedulers[0]->l_send(f.msg(2), 1, 1);
  const SimTime sent_at = f.sim.now();
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[1][1].at, sent_at + kDelay);
  EXPECT_EQ(f.schedulers[0]->stats().eager_payloads_sent, 1u);
}

TEST(Scheduler, CongestionCapsRepliesPerDestinationUntilDrain) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  PayloadScheduler::BackpressureConfig bp = bp_config();
  bp.max_replies_per_dst = 1;
  f.schedulers[0]->set_backpressure(bp);
  // Two advertised messages; node 1's IWANTs arrive at t=20ms. Congest
  // the sender just before: only one reply fits the per-dst budget.
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.schedulers[0]->l_send(f.msg(2), 1, 1);
  f.sim.schedule_at(15 * kMillisecond,
                    [&] { f.schedulers[0]->set_congested(true); });
  f.sim.run_until(50 * kMillisecond);
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.schedulers[0]->stats().replies_deferred, 1u);
  // Draining to the low watermark releases the deferred reply.
  f.schedulers[0]->set_congested(false);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.schedulers[0]->stats().requested_payloads_sent, 2u);
  EXPECT_EQ(f.schedulers[1]->stats().requests_unserved, 0u);
}

TEST(Scheduler, PurgedPayloadIsReadvertisedAndRecovered) {
  // Node 0 multicasts: the copy to node 2 goes eager, the copy to node 1
  // is (by fiat of this test) purged by the egress buffer — the transport
  // reports the purge, and after readvertise_delay the scheduler offers
  // the key to node 1 again via IHAVE, so node 1 still delivers.
  Fixture f(3, [](const MsgId&, Round, NodeId peer) { return peer == 2; });
  f.schedulers[0]->set_backpressure(bp_config());
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);  // eager; also seeds node 0's cache
  auto purged = std::make_shared<DataPacket>();
  purged->msg = m;
  purged->round = 1;
  f.schedulers[0]->on_egress_purge(1, *purged);
  f.sim.run();
  ASSERT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.received[2][0].at, kDelay);
  // Node 1 recovered through the re-advertise path: IHAVE at 100ms
  // (readvertise_delay) + IWANT + MSG.
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].at, 100 * kMillisecond + 3 * kDelay);
  EXPECT_EQ(f.schedulers[0]->stats().drops_readvertised, 1u);
}

TEST(Scheduler, PurgedIWantIsCountedNotRearmed) {
  // A purged IWANT is self-healing (the requester's pending timer
  // re-fires), so the scheduler only counts it.
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; });
  f.schedulers[0]->set_backpressure(bp_config());
  auto iwant = std::make_shared<IWantPacket>();
  iwant->id = MsgId{9, 9};
  f.schedulers[0]->on_egress_purge(1, *iwant);
  EXPECT_EQ(f.schedulers[0]->stats().iwants_purged, 1u);
  EXPECT_EQ(f.schedulers[0]->stats().drops_readvertised, 0u);
}

TEST(Scheduler, PurgedIWantRefundsRetryBudget) {
  // Regression for the stall PR 8 left open: with the pull layer off, a
  // requester whose IWANTs were purged at its own egress burned its retry
  // budget on requests that never left the node, then gave up with no
  // other mechanism to refetch. The purge credit refunds those passes;
  // the control arm below pins the honest-budget give-up shape (which was
  // the outcome of BOTH arms before the fix).
  RequestPolicy policy;
  policy.first_request_delay = 0;
  policy.retransmission_period = kPeriod;
  policy.max_rounds = 2;
  auto lazy = [](const MsgId&, Round, NodeId) { return false; };
  {
    Fixture f(2, lazy, policy);
    f.schedulers[1]->set_backpressure(bp_config());
    const AppMessage m = f.msg(1);
    f.schedulers[0]->l_send(m, 1, 1);
    // The advertiser goes dark after its IHAVE is out: both budgeted
    // IWANTs (sent t=10ms and t=410ms) are dropped on arrival.
    f.sim.schedule_at(15 * kMillisecond, [&] { f.transport.silence(0); });
    // The second (budget-exhausting) IWANT is purged at node 1's egress.
    f.sim.schedule_at(500 * kMillisecond, [&] {
      auto iwant = std::make_shared<IWantPacket>();
      iwant->id = m.id;
      f.schedulers[1]->on_egress_purge(0, *iwant);
    });
    f.sim.schedule_at(600 * kMillisecond, [&] { f.transport.revive(0); });
    f.sim.run();
    // The refunded pass at t=810ms reaches the revived advertiser:
    // IWANT (10ms) + MSG (10ms) completes the recovery.
    ASSERT_EQ(f.received[1].size(), 1u);
    EXPECT_EQ(f.received[1][0].at, 830 * kMillisecond);
    EXPECT_EQ(f.schedulers[1]->stats().requests_sent, 3u);
    EXPECT_EQ(f.schedulers[1]->stats().iwant_retries, 2u);
    EXPECT_EQ(f.schedulers[1]->stats().iwants_purged, 1u);
    EXPECT_EQ(f.schedulers[1]->stats().recovery_gave_up, 0u);
    EXPECT_EQ(f.schedulers[1]->pending_requests(), 0u);
  }
  {
    // Control: no purge means the budget was genuinely spent on requests
    // that reached the network, so the recovery is abandoned on schedule.
    Fixture f(2, lazy, policy);
    f.schedulers[1]->set_backpressure(bp_config());
    f.schedulers[0]->l_send(f.msg(1), 1, 1);
    f.sim.schedule_at(15 * kMillisecond, [&] { f.transport.silence(0); });
    f.sim.schedule_at(600 * kMillisecond, [&] { f.transport.revive(0); });
    f.sim.run();
    EXPECT_TRUE(f.received[1].empty());
    EXPECT_EQ(f.schedulers[1]->stats().recovery_gave_up, 1u);
    EXPECT_EQ(f.schedulers[1]->pending_requests(), 0u);
  }
}

TEST(Scheduler, PurgeCreditRequiresBackpressureEnabled) {
  // Without set_backpressure the purge notification is inert (PR 8
  // contract): no credit accrues and the give-up schedule is unchanged.
  RequestPolicy policy;
  policy.first_request_delay = 0;
  policy.retransmission_period = kPeriod;
  policy.max_rounds = 2;
  Fixture f(2, [](const MsgId&, Round, NodeId) { return false; }, policy);
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 1);
  f.sim.schedule_at(15 * kMillisecond, [&] { f.transport.silence(0); });
  f.sim.schedule_at(500 * kMillisecond, [&] {
    auto iwant = std::make_shared<IWantPacket>();
    iwant->id = m.id;
    f.schedulers[1]->on_egress_purge(0, *iwant);
  });
  f.sim.schedule_at(600 * kMillisecond, [&] { f.transport.revive(0); });
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  EXPECT_EQ(f.schedulers[1]->stats().iwants_purged, 0u);
  EXPECT_EQ(f.schedulers[1]->stats().recovery_gave_up, 1u);
}

TEST(Scheduler, ReadvertiseTimerNoopsAfterEarlyFlush) {
  // The fallback readvertise timer is NOT cancelled when decongestion
  // flushes the backlog first — it fires later into an empty backlog as a
  // counted no-op event (cancelling would change fingerprinted event
  // totals). Pin that a stale fire neither duplicates the advertisement
  // nor re-arms anything.
  Fixture f(3, [](const MsgId&, Round, NodeId peer) { return peer == 2; });
  f.schedulers[0]->set_backpressure(bp_config());
  const AppMessage m = f.msg(1);
  f.schedulers[0]->l_send(m, 1, 2);  // eager; seeds node 0's cache
  auto purged = std::make_shared<DataPacket>();
  purged->msg = m;
  purged->round = 1;
  f.schedulers[0]->on_egress_purge(1, *purged);  // backlog + fallback timer
  // Decongestion flushes the backlog ahead of the 100ms fallback ...
  f.schedulers[0]->set_congested(true);
  f.schedulers[0]->set_congested(false);
  EXPECT_EQ(f.schedulers[0]->stats().drops_readvertised, 1u);
  // ... and the still-armed timer's later fire is a pure no-op.
  f.sim.run();
  EXPECT_EQ(f.schedulers[0]->stats().drops_readvertised, 1u);
  EXPECT_EQ(f.schedulers[0]->stats().advertisements_sent, 1u);
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.schedulers[0]->pending_requests(), 0u);
}

TEST(Scheduler, DestructorCancelsArmedTimers) {
  // A scheduler destroyed while its simulator still holds events must
  // disarm every timer it owns (pending-request, IHAVE batch,
  // readvertise fallback): a later fire into the destroyed object would
  // be use-after-free.
  sim::Simulator sim;
  net::ConstantLatencyModel latency{kDelay};
  net::Transport transport(sim, latency, 3, {}, Rng(3));
  RequestPolicy policy;
  policy.first_request_delay = kPeriod;
  policy.retransmission_period = kPeriod;
  FnStrategy strategy([](const MsgId&, Round, NodeId) { return false; },
                      policy);
  auto sched = std::make_unique<PayloadScheduler>(
      sim, transport, 0, strategy, [](const AppMessage&, Round, NodeId) {});
  sched->set_backpressure(bp_config());
  sched->set_ihave_batch_window(50 * kMillisecond);
  AppMessage m;
  m.id = MsgId{7, 7};
  m.origin = 0;
  m.payload_bytes = 64;
  m.multicast_time = 0;
  sched->l_send(m, 1, 1);  // lazy + batch window: arms the batch timer
  auto ihave = std::make_shared<IHavePacket>();
  ihave->ids.push_back(MsgId{8, 8});
  EXPECT_TRUE(sched->handle_packet(2, ihave));  // arms a pending timer
  auto purged = std::make_shared<DataPacket>();
  purged->msg = m;
  purged->round = 1;
  sched->on_egress_purge(2, *purged);  // arms the readvertise fallback
  EXPECT_EQ(sched->pending_requests(), 1u);
  EXPECT_EQ(sim.events_pending(), 3u);
  sched.reset();
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.run();  // nothing left to fire
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Scheduler, BackpressureDisabledIgnoresCongestionSignals) {
  Fixture f(2, [](const MsgId&, Round, NodeId) { return true; });
  // No set_backpressure call: signals must be inert.
  f.schedulers[0]->set_congested(true);
  EXPECT_FALSE(f.schedulers[0]->congested());
  f.schedulers[0]->l_send(f.msg(1), 1, 1);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].at, kDelay);  // still direct eager
  EXPECT_EQ(f.schedulers[0]->stats().eager_deferred, 0u);
}

}  // namespace
}  // namespace esm::core
