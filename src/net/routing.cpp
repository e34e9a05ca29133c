#include "net/routing.hpp"

#include <algorithm>
#include <cmath>

namespace esm::net {

namespace {

/// Edge latency in microseconds at `scale`: the fixed part plus the
/// rounded scaled length, never below 1 µs.
SimTime edge_weight(const Edge& e, double scale) {
  const SimTime w = e.fixed_latency +
                    static_cast<SimTime>(std::llround(e.length * scale));
  return std::max<SimTime>(w, 1);
}

}  // namespace

ClientAccess client_access(const Topology& topo, NodeId c, double scale) {
  const auto& access = topo.graph.neighbors(topo.client_leaf[c]);
  ESM_CHECK(access.size() == 1, "client leaf must have exactly one link");
  ESM_CHECK(access[0].to < topo.params.num_underlay_vertices,
            "client must attach to a router vertex");
  return ClientAccess{access[0].to, edge_weight(access[0], scale)};
}

RouterPaths::RouterPaths(const Topology& topo, double scale) {
  // Client leaves have degree 1, so no router-to-router path detours
  // through one; leaving them out keeps a solve independent of the client
  // count.
  const VertexId routers = topo.params.num_underlay_vertices;
  offset_.reserve(routers + 1);
  offset_.push_back(0);
  for (VertexId u = 0; u < routers; ++u) {
    for (const Edge& e : topo.graph.neighbors(u)) {
      if (e.to >= routers) continue;
      to_.push_back(e.to);
      weight_.push_back(edge_weight(e, scale));
    }
    offset_.push_back(static_cast<std::uint32_t>(to_.size()));
  }
  hops_.resize(routers);
  latency_.resize(routers);
}

void RouterPaths::solve(VertexId origin) {
  ESM_CHECK(origin < hops_.size(), "routing origin must be a router vertex");
  std::fill(hops_.begin(), hops_.end(), kUnreached);
  hops_[origin] = 0;
  latency_[origin] = 0;
  frontier_.assign(1, origin);
  for (std::uint32_t level = 1; !frontier_.empty(); ++level) {
    next_.clear();
    for (const VertexId u : frontier_) {
      const SimTime base = latency_[u];
      for (std::uint32_t i = offset_[u]; i < offset_[u + 1]; ++i) {
        const VertexId v = to_[i];
        const SimTime lat = base + weight_[i];
        if (hops_[v] == kUnreached) {
          hops_[v] = level;
          latency_[v] = lat;
          next_.push_back(v);
        } else if (hops_[v] == level && lat < latency_[v]) {
          latency_[v] = lat;
        }
      }
    }
    frontier_.swap(next_);
  }
}

ClientMetrics compute_client_metrics(const Topology& topo) {
  return compute_client_metrics(topo, topo.latency_scale);
}

ClientMetrics compute_client_metrics(const Topology& topo, double scale) {
  const auto n = static_cast<std::uint32_t>(topo.client_leaf.size());
  ClientMetrics metrics(n);
  std::vector<ClientAccess> access(n);
  for (NodeId c = 0; c < n; ++c) access[c] = client_access(topo, c, scale);

  RouterPaths paths(topo, scale);
  for (NodeId src = 0; src < n; ++src) {
    paths.solve(access[src].attach);
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      const VertexId attach = access[dst].attach;
      metrics.set(src, dst,
                  access[src].weight + paths.latency(attach) +
                      access[dst].weight,
                  static_cast<std::uint16_t>(paths.hops(attach) + 2));
    }
  }
  return metrics;
}

}  // namespace esm::net
