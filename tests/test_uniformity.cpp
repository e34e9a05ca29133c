// Statistical quality of the peer sampling substrates.
//
// The paper's load-balance claim (§1: "as neighbors are uniform randomly
// chosen, the load is balanced among all nodes") rests on PeerSample(f)
// being approximately uniform. These tests draw many samples and apply a
// chi-square goodness-of-fit check against the uniform distribution —
// loose thresholds, since partial-view protocols are only *approximately*
// uniform over time.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "overlay/cyclon.hpp"
#include "overlay/neem.hpp"
#include "sim/simulator.hpp"

namespace esm::overlay {
namespace {

/// Chi-square statistic of observed counts against a uniform expectation.
double chi_square_uniform(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double chi = 0.0;
  for (const auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi += d * d / expected;
  }
  return chi;
}

TEST(Uniformity, OracleSamplerIsUniform) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1);
  constexpr std::uint32_t kN = 50;
  net::Transport transport(sim, latency, kN, {}, Rng(1));
  FullMembershipSampler sampler(transport, 0, Rng(2));
  std::vector<std::uint64_t> counts(kN, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    for (const NodeId n : sampler.sample(5)) ++counts[n];
  }
  counts.erase(counts.begin());  // self is never sampled
  // df = 48; the 99.9% chi-square critical value is ~85. Allow slack.
  EXPECT_LT(chi_square_uniform(counts), 100.0);
}

TEST(Uniformity, CyclonSamplingIsNearUniformOverTime) {
  // Sampling through a mixing partial view: aggregate over many rounds,
  // every node should be selected roughly equally often by node 0.
  sim::Simulator sim;
  net::ConstantLatencyModel latency(5 * kMillisecond);
  constexpr std::uint32_t kN = 40;
  net::Transport transport(sim, latency, kN, {}, Rng(3));
  std::vector<std::unique_ptr<CyclonNode>> nodes;
  Rng boot(17);
  for (NodeId id = 0; id < kN; ++id) {
    nodes.push_back(std::make_unique<CyclonNode>(
        sim, transport, id, OverlayParams{}, Rng(100 + id)));
    std::vector<NodeId> contacts;
    while (contacts.size() < 15 && contacts.size() + 1 < kN) {
      const NodeId c = static_cast<NodeId>(boot.below(kN));
      if (c != id &&
          std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
        contacts.push_back(c);
      }
    }
    nodes[id]->bootstrap(contacts);
    transport.register_handler(id, [&nodes, id](NodeId src,
                                                const net::PacketPtr& p) {
      nodes[id]->handle_packet(src, static_cast<const ShufflePacket&>(*p));
    });
  }
  for (auto& n : nodes) n->start();

  std::vector<std::uint64_t> counts(kN, 0);
  for (int round = 0; round < 3000; ++round) {
    sim.run_until(sim.now() + 100 * kMillisecond);
    for (const NodeId n : nodes[0]->sample(5)) ++counts[n];
  }
  counts.erase(counts.begin());
  const double expected = 3000.0 * 5.0 / (kN - 1);
  // Every peer selected within a factor ~2 of the uniform expectation.
  for (const auto c : counts) {
    EXPECT_GT(static_cast<double>(c), expected * 0.45);
    EXPECT_LT(static_cast<double>(c), expected * 2.0);
  }
}

TEST(Uniformity, NeemSamplingIsNearUniformOverTime) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(5 * kMillisecond);
  constexpr std::uint32_t kN = 40;
  net::Transport transport(sim, latency, kN, {}, Rng(5));
  std::vector<std::unique_ptr<NeemNode>> nodes;
  Rng boot(23);
  for (NodeId id = 0; id < kN; ++id) {
    nodes.push_back(std::make_unique<NeemNode>(sim, transport, id,
                                               NeemParams{}, Rng(300 + id)));
    transport.register_handler(id, [&nodes, id](NodeId src,
                                                const net::PacketPtr& p) {
      nodes[id]->handle_packet(src, static_cast<const NeemPacket&>(*p));
    });
  }
  for (NodeId id = 0; id < kN; ++id) {
    std::vector<NodeId> contacts;
    while (contacts.size() < 5) {
      const NodeId c = static_cast<NodeId>(boot.below(kN));
      if (c != id &&
          std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
        contacts.push_back(c);
      }
    }
    nodes[id]->bootstrap(contacts);
    nodes[id]->start();
  }

  std::vector<std::uint64_t> counts(kN, 0);
  sim.run_until(10 * kSecond);  // let the overlay form
  for (int round = 0; round < 3000; ++round) {
    sim.run_until(sim.now() + 100 * kMillisecond);
    for (const NodeId n : nodes[0]->sample(5)) ++counts[n];
  }
  counts.erase(counts.begin());
  const double expected = 3000.0 * 5.0 / (kN - 1);
  // Connection replacement mixes more slowly than Cyclon's descriptor
  // swaps: allow a wider band, but no peer may be starved or dominate.
  for (const auto c : counts) {
    EXPECT_GT(static_cast<double>(c), expected * 0.2);
    EXPECT_LT(static_cast<double>(c), expected * 3.0);
  }
}

TEST(Uniformity, GossipTargetsBalanceLoad) {
  // End-to-end version of §1's claim: under eager gossip every node
  // transmits approximately the same number of payloads.
  sim::Simulator sim;
  net::ConstantLatencyModel latency(5 * kMillisecond);
  constexpr std::uint32_t kN = 40;
  net::Transport transport(sim, latency, kN, {}, Rng(7));
  std::vector<std::unique_ptr<FullMembershipSampler>> samplers;
  for (NodeId id = 0; id < kN; ++id) {
    samplers.push_back(
        std::make_unique<FullMembershipSampler>(transport, id, Rng(400 + id)));
  }
  std::vector<std::uint64_t> received(kN, 0);
  for (int round = 0; round < 20000; ++round) {
    const NodeId src = static_cast<NodeId>(round % kN);
    for (const NodeId dst : samplers[src]->sample(5)) ++received[dst];
  }
  std::uint64_t total = 0;
  for (const auto r : received) total += r;
  const double expected = static_cast<double>(total) / kN;
  for (const auto r : received) {
    EXPECT_NEAR(static_cast<double>(r), expected, 0.10 * expected);
  }
}

}  // namespace
}  // namespace esm::overlay
