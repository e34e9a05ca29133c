// Structured multicast baseline.
//
// The paper's motivation (§1, §2) contrasts gossip with protocols that
// "explicitly build a dissemination structure according to predefined
// efficiency criteria" and must rebuild it on failure. This module
// implements that comparator so ablation benches can quantify both sides
// of the tradeoff on the same simulated network:
//
//   * a degree-constrained low-latency spanning tree built greedily over
//     the client latency matrix (Prim-style: attach the node whose best
//     link into the tree is shortest, respecting a degree cap);
//   * flood dissemination over the shared bidirectional tree (exactly-once
//     payload per link, no redundancy);
//   * heartbeat-based failure detection and subtree reattachment — the
//     repair cost that gossip never pays.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/message.hpp"
#include "net/routing.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace esm::tree {

/// Builds a degree-constrained spanning tree over the latency metric.
/// Returns parent[] with parent[root] == root. Throws if the degree cap
/// makes the tree infeasible (cap < 2 with more than 2 nodes).
std::vector<NodeId> build_spanning_tree(const net::PathModel& metrics,
                                        NodeId root, std::uint32_t max_degree);

/// Sum of tree-path latencies from `from` to every other node (diagnostic).
std::vector<SimTime> tree_path_latencies(const std::vector<NodeId>& parents,
                                         const net::PathModel& metrics,
                                         NodeId from);

struct TreeParams {
  std::uint32_t max_degree = 11;
  /// Heartbeat period between tree neighbors.
  SimTime heartbeat_period = 500 * kMillisecond;
  /// Heartbeats missed before a neighbor is declared failed.
  std::uint32_t heartbeat_loss_threshold = 3;
};

/// Heartbeat between tree neighbors.
struct HeartbeatPacket final : net::PacketOf<net::PacketType::heartbeat> {};

/// Reattachment request from an orphaned node to a prospective new parent.
struct AttachRequestPacket final
    : net::PacketOf<net::PacketType::attach_request> {};
struct AttachAcceptPacket final
    : net::PacketOf<net::PacketType::attach_accept> {
  bool accepted = false;
};

/// One node of the tree-multicast protocol. Neighbor links are symmetric;
/// dissemination floods to all tree neighbors except the one the packet
/// came from.
class TreeNode {
 public:
  using DeliverFn = std::function<void(const core::AppMessage&)>;

  TreeNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
           TreeParams params, DeliverFn deliver, Rng rng);

  /// Installs the initial neighbor set (from build_spanning_tree).
  void set_neighbors(std::vector<NodeId> neighbors);

  /// Starts heartbeating.
  void start();
  void stop();

  /// Multicasts a message into the tree.
  core::AppMessage multicast(std::uint32_t payload_bytes, std::uint32_t seq,
                             SimTime now);

  bool handle_packet(NodeId src, const net::PacketPtr& packet);

  const std::vector<NodeId>& neighbors() const { return neighbors_; }
  std::uint64_t repairs_initiated() const { return repairs_; }

  /// Candidate pool for reattachment after losing a neighbor (set by the
  /// harness; in a deployment this would come from a membership service).
  void set_reattach_candidates(std::vector<NodeId> candidates) {
    candidates_ = std::move(candidates);
  }

 private:
  void heartbeat_tick();
  void forward(const core::AppMessage& msg, NodeId except);
  void drop_neighbor(NodeId neighbor);
  void try_reattach();

  sim::Simulator& sim_;
  net::Transport& transport_;
  NodeId self_;
  TreeParams params_;
  DeliverFn deliver_;
  Rng rng_;
  std::vector<NodeId> neighbors_;
  /// Missed-heartbeat counters, same order as neighbors_.
  std::vector<std::uint32_t> missed_;
  std::vector<NodeId> candidates_;
  std::unordered_set<MsgId, MsgIdHash> known_;
  sim::PeriodicTimer timer_;
  std::uint64_t repairs_ = 0;
};

}  // namespace esm::tree
