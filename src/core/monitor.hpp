// Performance Monitor component of the Payload Scheduler (paper §3, §4.2).
//
// A monitor "measures relevant performance metrics of the participant nodes
// and makes this information available to the strategy in an abstract
// manner" through a single primitive, Metric(p). Lower values mean closer /
// better.
//
// Following §4.3, the evaluation-grade monitors are oracles that read the
// network model directly ("extracted directly from the model file") so that
// strategy performance can be separated from monitor performance; the
// runtime `PingMonitor` measures RTTs in-band, as a TCP stack would.
#pragma once

#include <memory>
#include <vector>

#include "common/compact.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/latency_model.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "overlay/peer_sampler.hpp"
#include "sim/simulator.hpp"

namespace esm::core {

/// Abstract peer metric. Shared oracle instances serve all nodes; per-node
/// monitors check `self` against their owner.
class PerformanceMonitor {
 public:
  virtual ~PerformanceMonitor() = default;

  /// Current metric for peer `p` as seen from `self`; lower is closer.
  /// Returns +infinity when nothing is known about the peer yet.
  virtual double metric(NodeId self, NodeId peer) const = 0;
};

/// Oracle: one-way network latency in milliseconds, read from the model.
class OracleLatencyMonitor final : public PerformanceMonitor {
 public:
  explicit OracleLatencyMonitor(const net::LatencyModel& latency)
      : latency_(latency) {}

  double metric(NodeId self, NodeId peer) const override {
    return to_ms(latency_.one_way(self, peer));
  }

 private:
  const net::LatencyModel& latency_;
};

/// Oracle: pseudo-geographic distance between client coordinates (paper
/// §4.2 Distance Monitor — "useful mostly for demonstration purposes",
/// it makes the Fig. 4 structure plots interpretable).
class DistanceMonitor final : public PerformanceMonitor {
 public:
  explicit DistanceMonitor(std::vector<net::Point> coords)
      : coords_(std::move(coords)) {}

  double metric(NodeId self, NodeId peer) const override {
    return net::distance(coords_.at(self), coords_.at(peer));
  }

 private:
  std::vector<net::Point> coords_;
};

/// Ping/pong packets of the runtime latency monitor.
struct PingPacket final : net::PacketOf<net::PacketType::ping> {
  SimTime sent_at = 0;
  bool is_pong = false;
};

/// Runtime latency monitor: periodically pings peers drawn from the peer
/// sampling service and keeps a smoothed RTT per peer (SRTT with gain 1/8,
/// as in TCP's RTT estimation, which the paper points to in §4.2). The
/// metric is the one-way estimate SRTT/2 in milliseconds.
class PingMonitor final : public PerformanceMonitor {
 public:
  struct Params {
    /// Interval between ping batches.
    SimTime period = 1 * kSecond;
    /// Peers pinged per batch.
    std::size_t fanout = 4;
    /// EWMA gain for new samples.
    double alpha = 0.125;
  };

  PingMonitor(sim::Simulator& sim, net::Transport& transport, NodeId self,
              overlay::PeerSampler& sampler, Params params, Rng rng);

  void start();
  void stop();

  /// Consumes a ping or pong packet addressed to this node.
  void handle_packet(NodeId src, const PingPacket& ping);

  /// SRTT/2 estimate in ms; +infinity for never-measured peers.
  double metric(NodeId self, NodeId peer) const override;

  /// Number of peers with an RTT estimate (test/diagnostic helper).
  std::size_t peers_known() const { return srtt_us_.size(); }

 private:
  void tick();

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  overlay::PeerSampler& sampler_;
  Params params_;
  Rng rng_;
  compact::FlatMap<NodeId, double> srtt_us_;
  std::vector<NodeId> peers_scratch_;  // ping targets, reused per tick
  sim::PeriodicTimer timer_;
};

/// Passive latency monitor: consumes the RTT samples the Payload Scheduler
/// observes on its own IWANT -> MSG exchanges (hook it up with
/// `PayloadScheduler::set_rtt_observer`). Costs zero extra packets; its
/// coverage grows exactly where lazy traffic flows, which is where the
/// metric is consulted. SRTT smoothing as in PingMonitor.
class PiggybackMonitor final : public PerformanceMonitor {
 public:
  /// `alpha` is the EWMA gain for new samples.
  PiggybackMonitor(NodeId self, double alpha = 0.125)
      : self_(self), alpha_(alpha) {
    ESM_CHECK(alpha > 0.0 && alpha <= 1.0, "EWMA gain must be in (0, 1]");
  }

  /// Feed one observed round trip to `peer`.
  void observe(NodeId peer, SimTime rtt);

  /// SRTT/2 estimate in ms; +infinity for never-observed peers.
  double metric(NodeId self, NodeId peer) const override;

  std::size_t peers_known() const { return srtt_us_.size(); }

 private:
  NodeId self_;
  double alpha_;
  compact::FlatMap<NodeId, double> srtt_us_;
};

}  // namespace esm::core
