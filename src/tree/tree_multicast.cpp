#include "tree/tree_multicast.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace esm::tree {

std::vector<NodeId> build_spanning_tree(const net::PathModel& metrics,
                                        NodeId root, std::uint32_t max_degree) {
  const std::uint32_t n = metrics.num_clients();
  ESM_CHECK(root < n, "root out of range");
  ESM_CHECK(n <= 2 || max_degree >= 2,
            "degree cap below 2 cannot span more than 2 nodes");
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<bool> in_tree(n, false);
  parent[root] = root;
  in_tree[root] = true;

  for (std::uint32_t added = 1; added < n; ++added) {
    // Attach the outside node whose cheapest link to a degree-feasible
    // tree node is minimal (Prim with a degree constraint). O(n^2) per
    // step is fine at client scale (n <= a few hundred).
    NodeId best_node = kInvalidNode;
    NodeId best_attach = kInvalidNode;
    SimTime best_cost = kTimeInfinity;
    for (NodeId v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      for (NodeId u = 0; u < n; ++u) {
        if (!in_tree[u] || degree[u] >= max_degree) continue;
        const SimTime c = metrics.latency(u, v);
        if (c < best_cost) {
          best_cost = c;
          best_node = v;
          best_attach = u;
        }
      }
    }
    ESM_CHECK(best_node != kInvalidNode,
              "degree constraint made the tree infeasible");
    parent[best_node] = best_attach;
    in_tree[best_node] = true;
    ++degree[best_attach];
    ++degree[best_node];
  }
  return parent;
}

std::vector<SimTime> tree_path_latencies(const std::vector<NodeId>& parents,
                                         const net::PathModel& metrics,
                                         NodeId from) {
  const auto n = static_cast<std::uint32_t>(parents.size());
  // Build adjacency and BFS-accumulate path latency from `from`.
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId v = 0; v < n; ++v) {
    if (parents[v] != v && parents[v] != kInvalidNode) {
      adj[v].push_back(parents[v]);
      adj[parents[v]].push_back(v);
    }
  }
  std::vector<SimTime> lat(n, kTimeInfinity);
  std::vector<NodeId> stack{from};
  lat[from] = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId v : adj[u]) {
      if (lat[v] != kTimeInfinity) continue;
      lat[v] = lat[u] + metrics.latency(u, v);
      stack.push_back(v);
    }
  }
  return lat;
}

TreeNode::TreeNode(sim::Simulator& sim, net::Transport& transport, NodeId self,
                   TreeParams params, DeliverFn deliver, Rng rng)
    : sim_(sim),
      transport_(transport),
      self_(self),
      params_(params),
      deliver_(std::move(deliver)),
      rng_(rng),
      timer_(sim, [this] { heartbeat_tick(); }) {
  ESM_CHECK(static_cast<bool>(deliver_), "deliver up-call must be callable");
}

void TreeNode::set_neighbors(std::vector<NodeId> neighbors) {
  neighbors_ = std::move(neighbors);
  missed_.assign(neighbors_.size(), 0);
}

void TreeNode::start() {
  timer_.start(rng_.range(0, params_.heartbeat_period - 1),
               params_.heartbeat_period);
}

void TreeNode::stop() { timer_.stop(); }

core::AppMessage TreeNode::multicast(std::uint32_t payload_bytes,
                                     std::uint32_t seq, SimTime now) {
  core::AppMessage msg;
  msg.id = rng_.next_msg_id();
  msg.origin = self_;
  msg.seq = seq;
  msg.payload_bytes = payload_bytes;
  msg.multicast_time = now;
  known_.insert(msg.id);
  deliver_(msg);
  forward(msg, self_);
  return msg;
}

void TreeNode::forward(const core::AppMessage& msg, NodeId except) {
  auto packet = net::make_packet<core::DataPacket>();
  packet->msg = msg;
  for (const NodeId neighbor : neighbors_) {
    if (neighbor == except) continue;
    transport_.send(self_, neighbor, packet, core::wire_bytes(msg),
                    /*is_payload=*/true);
  }
}

void TreeNode::heartbeat_tick() {
  // A neighbor that stays silent for `threshold` periods is declared dead.
  for (std::size_t i = 0; i < neighbors_.size();) {
    if (++missed_[i] > params_.heartbeat_loss_threshold) {
      drop_neighbor(neighbors_[i]);  // erases index i
      continue;
    }
    ++i;
  }
  auto hb = net::make_packet<HeartbeatPacket>();
  for (const NodeId neighbor : neighbors_) {
    transport_.send(self_, neighbor, hb, core::kControlBytes,
                    /*is_payload=*/false);
  }
  if (neighbors_.empty() && !candidates_.empty()) try_reattach();
}

void TreeNode::drop_neighbor(NodeId neighbor) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == neighbor) {
      neighbors_.erase(neighbors_.begin() + static_cast<std::ptrdiff_t>(i));
      missed_.erase(missed_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  try_reattach();
}

void TreeNode::try_reattach() {
  if (candidates_.empty()) return;
  ++repairs_;
  // Ask a random membership candidate to adopt us. The candidate may be
  // dead or full; the next heartbeat tick retries if we remain orphaned.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const NodeId candidate = candidates_[rng_.below(candidates_.size())];
    if (candidate == self_ ||
        std::find(neighbors_.begin(), neighbors_.end(), candidate) !=
            neighbors_.end()) {
      continue;
    }
    transport_.send(self_, candidate, net::make_packet<AttachRequestPacket>(),
                    core::kControlBytes, /*is_payload=*/false);
    return;
  }
}

bool TreeNode::handle_packet(NodeId src, const net::PacketPtr& packet) {
  switch (packet->type) {
    case net::PacketType::heartbeat:
      for (std::size_t i = 0; i < neighbors_.size(); ++i) {
        if (neighbors_[i] == src) {
          missed_[i] = 0;
          return true;
        }
      }
      return true;  // heartbeat from a dropped neighbor; ignore
    case net::PacketType::attach_request: {
      auto reply = net::make_packet<AttachAcceptPacket>();
      const bool has_room = neighbors_.size() < params_.max_degree;
      const bool already = std::find(neighbors_.begin(), neighbors_.end(),
                                     src) != neighbors_.end();
      reply->accepted = has_room && !already;
      if (reply->accepted) {
        neighbors_.push_back(src);
        missed_.push_back(0);
      }
      transport_.send(self_, src, std::move(reply), core::kControlBytes,
                      /*is_payload=*/false);
      return true;
    }
    case net::PacketType::attach_accept:
      if (static_cast<const AttachAcceptPacket&>(*packet).accepted &&
          std::find(neighbors_.begin(), neighbors_.end(), src) ==
              neighbors_.end()) {
        neighbors_.push_back(src);
        missed_.push_back(0);
      }
      return true;
    case net::PacketType::data: {
      const auto& data = static_cast<const core::DataPacket&>(*packet);
      if (!known_.insert(data.msg.id).second) return true;  // repair loop dup
      deliver_(data.msg);
      forward(data.msg, src);
      return true;
    }
    default:
      return false;  // another protocol's packet
  }
}

}  // namespace esm::tree
