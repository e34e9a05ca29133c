#include "load/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "load/workload_text.hpp"

namespace esm::load {
namespace {

WorkloadSpec one_publisher(ArrivalKind kind, double rate,
                           SimTime duration = 10 * kSecond) {
  WorkloadSpec spec;
  spec.duration = duration;
  PublisherSpec pub;
  pub.arrival = kind;
  pub.rate = rate;
  spec.publishers.push_back(pub);
  return spec;
}

TEST(Workload, FixedRateEmitsExactSpacing) {
  const auto spec = one_publisher(ArrivalKind::fixed_rate, 10.0);
  const WorkloadPlan plan = build_plan(spec, 8, Rng(1));
  // 10 msg/s over 10 s at 100 ms spacing: arrivals at 100ms, 200ms, ...,
  // strictly before duration.
  ASSERT_EQ(plan.size(), 99u);
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    EXPECT_EQ(plan.arrivals[i].at,
              static_cast<SimTime>(i + 1) * 100 * kMillisecond);
  }
}

TEST(Workload, FixedRateUsesNoRandomness) {
  const auto spec = one_publisher(ArrivalKind::fixed_rate, 25.0);
  const WorkloadPlan a = build_plan(spec, 8, Rng(1));
  const WorkloadPlan b = build_plan(spec, 8, Rng(999));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b.arrivals[i].at);
  }
}

TEST(Workload, PoissonIsDeterministicAndRoughlyCalibrated) {
  const auto spec = one_publisher(ArrivalKind::poisson, 50.0, 20 * kSecond);
  const WorkloadPlan a = build_plan(spec, 8, Rng(7));
  const WorkloadPlan b = build_plan(spec, 8, Rng(7));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b.arrivals[i].at);
    EXPECT_EQ(a.arrivals[i].origin, b.arrivals[i].origin);
  }
  // Mean 1000 arrivals; a 25% band is ~8 sigma.
  EXPECT_GT(a.size(), 750u);
  EXPECT_LT(a.size(), 1250u);
  // Strictly increasing per publisher (single publisher here).
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a.arrivals[i].at, a.arrivals[i - 1].at);
  }
}

TEST(Workload, BurstConfinesArrivalsToOnWindows) {
  WorkloadSpec spec = one_publisher(ArrivalKind::burst, 200.0, 10 * kSecond);
  spec.publishers[0].burst_on = 500 * kMillisecond;
  spec.publishers[0].burst_off = 1500 * kMillisecond;
  const WorkloadPlan plan = build_plan(spec, 8, Rng(3));
  ASSERT_GT(plan.size(), 0u);
  const SimTime cycle = 2 * kSecond;
  for (const Arrival& a : plan.arrivals) {
    const SimTime in_cycle = a.at % cycle;
    EXPECT_LE(in_cycle, 500 * kMillisecond) << "arrival in OFF gap at "
                                            << a.at;
  }
}

TEST(Workload, AddingPublisherDoesNotShiftOthersArrivals) {
  // Publisher streams are independent splits: adding publisher 1 must not
  // change publisher 0's arrival times or origins.
  WorkloadSpec small = one_publisher(ArrivalKind::poisson, 20.0);
  WorkloadSpec big = small;
  PublisherSpec second;
  second.arrival = ArrivalKind::poisson;
  second.rate = 80.0;
  big.publishers.push_back(second);

  const WorkloadPlan a = build_plan(small, 16, Rng(11));
  const WorkloadPlan b = build_plan(big, 16, Rng(11));
  std::vector<Arrival> b0;
  for (const Arrival& arr : b.arrivals) {
    if (arr.publisher == 0) b0.push_back(arr);
  }
  ASSERT_EQ(a.size(), b0.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].at, b0[i].at);
    EXPECT_EQ(a.arrivals[i].origin, b0[i].origin);
  }
}

TEST(Workload, RoundRobinOriginsCoverThePool) {
  const auto spec = one_publisher(ArrivalKind::fixed_rate, 10.0);
  const WorkloadPlan plan = build_plan(spec, 5, Rng(1));
  ASSERT_GE(plan.size(), 10u);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_EQ(plan.arrivals[i].origin,
              (plan.arrivals[i - 1].origin + 1) % 5);
  }
}

TEST(Workload, FixedNodePinsOrigin) {
  WorkloadSpec spec = one_publisher(ArrivalKind::fixed_rate, 10.0);
  spec.publishers[0].node = 3;
  const WorkloadPlan plan = build_plan(spec, 8, Rng(1));
  for (const Arrival& a : plan.arrivals) EXPECT_EQ(a.origin, 3u);
}

TEST(Workload, FractionTopicResolvesDeterministicSortedMembers) {
  WorkloadSpec spec = one_publisher(ArrivalKind::fixed_rate, 10.0);
  TopicSpec topic;
  topic.name = "feeds";
  topic.fraction = 0.25;
  spec.topics.push_back(topic);
  spec.publishers[0].topic = 0;
  const WorkloadPlan a = build_plan(spec, 100, Rng(5));
  const WorkloadPlan b = build_plan(spec, 100, Rng(5));
  ASSERT_EQ(a.topic_members.size(), 1u);
  EXPECT_EQ(a.topic_members[0], b.topic_members[0]);
  EXPECT_EQ(a.topic_members[0].size(), 25u);
  EXPECT_TRUE(std::is_sorted(a.topic_members[0].begin(),
                             a.topic_members[0].end()));
  // Every arrival originates inside the topic.
  for (const Arrival& arr : a.arrivals) {
    EXPECT_TRUE(std::binary_search(a.topic_members[0].begin(),
                                   a.topic_members[0].end(), arr.origin));
    EXPECT_EQ(a.topic_members[0][arr.origin_index], arr.origin);
  }
}

TEST(Workload, PinnedPublisherIsForcedIntoItsTopic) {
  WorkloadSpec spec = one_publisher(ArrivalKind::fixed_rate, 10.0);
  TopicSpec topic;
  topic.name = "ops";
  topic.members = {1, 2};
  spec.topics.push_back(topic);
  spec.publishers[0].topic = 0;
  spec.publishers[0].node = 7;
  const WorkloadPlan plan = build_plan(spec, 8, Rng(1));
  EXPECT_EQ(plan.topic_members[0], (std::vector<NodeId>{1, 2, 7}));
}

TEST(Workload, MaxMessagesTruncatesAfterGlobalSort) {
  WorkloadSpec spec = one_publisher(ArrivalKind::fixed_rate, 100.0);
  spec.max_messages = 10;
  const WorkloadPlan plan = build_plan(spec, 8, Rng(1));
  ASSERT_EQ(plan.size(), 10u);
  EXPECT_TRUE(std::is_sorted(plan.arrivals.begin(), plan.arrivals.end(),
                             [](const Arrival& a, const Arrival& b) {
                               return a.at < b.at;
                             }));
}

TEST(Workload, ValidateRejectsBadSpecs) {
  auto expect_invalid = [](WorkloadSpec spec, const char* needle) {
    try {
      spec.validate(8);
      FAIL() << "expected rejection containing: " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  {
    auto spec = one_publisher(ArrivalKind::poisson, 0.0);
    expect_invalid(spec, "rate");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, -3.0);
    expect_invalid(spec, "rate");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    spec.duration = 0;
    expect_invalid(spec, "duration");
  }
  {
    auto spec = one_publisher(ArrivalKind::burst, 10.0);
    spec.publishers[0].burst_on = 0;
    expect_invalid(spec, "on-window");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    spec.publishers[0].node = 8;  // >= num_nodes
    expect_invalid(spec, "node 8");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    spec.publishers[0].topic = 0;  // no topics declared
    expect_invalid(spec, "topic index");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    TopicSpec t;
    t.name = "empty";
    spec.topics.push_back(t);  // no members, no fraction
    expect_invalid(spec, "empty member set");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    TopicSpec t;
    t.name = "oob";
    t.members = {42};
    spec.topics.push_back(t);
    expect_invalid(spec, "member 42");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    spec.publishers[0].start = spec.duration;
    expect_invalid(spec, "start");
  }
  {
    auto spec = one_publisher(ArrivalKind::poisson, 10.0);
    spec.publishers[0].start = 2 * kSecond;
    spec.publishers[0].stop = 1 * kSecond;
    expect_invalid(spec, "stop");
  }
}

TEST(Workload, RunawayRateFailsFast) {
  auto spec = one_publisher(ArrivalKind::fixed_rate, 1e9, 100 * kSecond);
  EXPECT_THROW(build_plan(spec, 8, Rng(1)), std::runtime_error);
}

TEST(WorkloadText, ParsesFullGrammar) {
  const std::string text = R"(
# heavy mixed workload
duration 12s
limit 5000
topic feeds fraction=0.25
topic ops nodes=0..3,6
publisher poisson rate=40 topic=feeds
publisher fixed rate=10 node=3 payload=512
publisher burst rate=200 on=250ms off=750ms start=2s stop=10s topic=ops
)";
  const WorkloadSpec spec = parse_workload(text);
  EXPECT_EQ(spec.duration, 12 * kSecond);
  EXPECT_EQ(spec.max_messages, 5000u);
  ASSERT_EQ(spec.topics.size(), 2u);
  EXPECT_EQ(spec.topics[0].name, "feeds");
  EXPECT_DOUBLE_EQ(spec.topics[0].fraction, 0.25);
  EXPECT_EQ(spec.topics[1].members, (std::vector<NodeId>{0, 1, 2, 3, 6}));
  ASSERT_EQ(spec.publishers.size(), 3u);
  EXPECT_EQ(spec.publishers[0].arrival, ArrivalKind::poisson);
  EXPECT_DOUBLE_EQ(spec.publishers[0].rate, 40.0);
  EXPECT_EQ(spec.publishers[0].topic, 0u);
  EXPECT_EQ(spec.publishers[1].arrival, ArrivalKind::fixed_rate);
  EXPECT_EQ(spec.publishers[1].node, 3u);
  EXPECT_EQ(spec.publishers[1].payload_bytes, 512u);
  EXPECT_EQ(spec.publishers[2].arrival, ArrivalKind::burst);
  EXPECT_EQ(spec.publishers[2].burst_on, 250 * kMillisecond);
  EXPECT_EQ(spec.publishers[2].burst_off, 750 * kMillisecond);
  EXPECT_EQ(spec.publishers[2].start, 2 * kSecond);
  EXPECT_EQ(spec.publishers[2].stop, 10 * kSecond);
  EXPECT_EQ(spec.publishers[2].topic, 1u);
  spec.validate(16);  // sane against a small cluster
}

TEST(WorkloadText, RejectionsNameTheLine) {
  auto expect_reject = [](const std::string& text, const char* needle) {
    try {
      parse_workload(text);
      FAIL() << "expected rejection containing: " << needle;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("workload line"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  expect_reject("publisher warp rate=10\n", "warp");
  expect_reject("publisher poisson\n", "rate");
  expect_reject("duration 10\npublisher poisson rate=1\n", "unit");
  expect_reject("topic a\npublisher poisson rate=1\n", "nodes=");
  expect_reject("topic a fraction=0.5 nodes=1\npublisher poisson rate=1\n",
                "one of");
  expect_reject("topic a fraction=0.5\ntopic a fraction=0.5\n"
                "publisher poisson rate=1\n",
                "duplicate");
  expect_reject("publisher poisson rate=1 topic=ghost\n", "ghost");
  expect_reject("publisher poisson rate=1 on=10ms\n", "on=");
  // Each directive has a key vocabulary, and a key may appear once.
  expect_reject("publisher poisson rate=5 paylod=9000\n",
                "publisher: unknown key 'paylod='");
  expect_reject("publisher poisson rate=5 rate=6\n",
                "publisher: duplicate key 'rate='");
  expect_reject("topic t fractoin=0.5\npublisher poisson rate=1\n",
                "topic: unknown key 'fractoin='");
  // 4294967295 is the reserved "no node" id (a range ending there used to
  // wrap), and numbers are plain decimal.
  expect_reject("topic t nodes=4294967295..4294967295\n"
                "publisher poisson rate=1\n",
                "node id must be an integer in [0, 4294967294]");
  expect_reject("publisher poisson rate=1 node=4294967295\n", "node id");
  expect_reject("publisher poisson rate=+5\n", "bad number");
  expect_reject("limit 0x10\npublisher poisson rate=1\n",
                "limit must be an integer");
  // A script with no publishers is rejected at end of parse (no line).
  EXPECT_THROW(parse_workload(std::string("duration 5s\n")),
               std::runtime_error);
}

TEST(WorkloadText, DescribeSummarizes) {
  const WorkloadSpec spec = parse_workload(
      "duration 8s\ntopic t fraction=0.5\npublisher poisson rate=5 topic=t\n");
  const std::string text = spec.describe();
  EXPECT_NE(text.find("1 publisher"), std::string::npos);
  EXPECT_NE(text.find("1 topic"), std::string::npos);
  EXPECT_NE(text.find("8s"), std::string::npos);
}

}  // namespace
}  // namespace esm::load
