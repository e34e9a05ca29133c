// Shortest-path routing over the underlay.
//
// The simulated transport does not route packets hop-by-hop; instead the
// one-way delay between clients is precomputed from router-level paths,
// exactly as ModelNet pre-computes paths through its emulator core.
// Routing is hop-shortest with latency as tie-breaker, matching how static
// shortest-path routing treats the Inet graph; minimizing raw latency
// instead would thread paths through many cheap geometric micro-hops and
// inflate hop counts far beyond the paper's §5.1 statistics.
//
// Every client leaf hangs off one router by a single access link, so a
// client pair's cost is the router-path cost between their attach routers
// plus the two access links (see net/path_model.hpp). `RouterPaths` solves
// the router part: every edge adds exactly one hop, so a breadth-first
// sweep by hop level that keeps each vertex's smallest latency over its
// previous-level predecessors yields the lexicographic (hops, latency)
// minimum a heap Dijkstra would — integer sums and min do not depend on
// visit order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"

namespace esm::net {

/// A client's access link: the router it attaches to and the link weight.
struct ClientAccess {
  VertexId attach = 0;
  SimTime weight = 0;
};

/// Reads client `c`'s access link; throws CheckFailure unless the client
/// leaf has exactly one link and it leads to a router vertex.
ClientAccess client_access(const Topology& topo, NodeId c, double scale);

/// Lexicographic (hops, latency) shortest paths from one router to every
/// router, over a compact router-only adjacency whose edge weights are
/// fixed at construction. Scratch is reused between solves.
class RouterPaths {
 public:
  RouterPaths(const Topology& topo, double scale);

  /// Replaces the current answers with paths from router `origin`.
  void solve(VertexId origin);

  /// Hop count / latency from the last origin to router `v`; throws
  /// CheckFailure if `v` is unreachable.
  std::uint32_t hops(VertexId v) const {
    ESM_CHECK(hops_[v] != kUnreached, "underlay graph is disconnected");
    return hops_[v];
  }
  SimTime latency(VertexId v) const {
    ESM_CHECK(hops_[v] != kUnreached, "underlay graph is disconnected");
    return latency_[v];
  }

 private:
  static constexpr std::uint32_t kUnreached = 0xffffffffu;

  // Edges of router u are [offset_[u], offset_[u + 1]) in to_/weight_.
  std::vector<std::uint32_t> offset_;
  std::vector<VertexId> to_;
  std::vector<SimTime> weight_;

  std::vector<std::uint32_t> hops_;
  std::vector<SimTime> latency_;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
};

/// Dense client-to-client one-way latency and hop-count matrices — the
/// PathModel used for small N (O(N²) memory, O(1) query). Large-N runs use
/// OnDemandPathModel instead; see net/path_model.hpp.
class ClientMetrics final : public PathModel {
 public:
  ClientMetrics(std::uint32_t n)
      : n_(n), latency_(std::size_t(n) * n, 0), hops_(std::size_t(n) * n, 0) {}

  std::uint32_t num_clients() const override { return n_; }

  SimTime latency(NodeId a, NodeId b) const override {
    return latency_[idx(a, b)];
  }
  std::uint16_t hops(NodeId a, NodeId b) const override {
    return hops_[idx(a, b)];
  }

  void set(NodeId a, NodeId b, SimTime lat, std::uint16_t h) {
    latency_[idx(a, b)] = lat;
    hops_[idx(a, b)] = h;
  }

  std::size_t memory_bytes() const override {
    return latency_.size() * sizeof(SimTime) +
           hops_.size() * sizeof(std::uint16_t);
  }
  std::uint64_t rows_computed() const override { return n_; }

 private:
  std::size_t idx(NodeId a, NodeId b) const {
    ESM_CHECK(a < n_ && b < n_, "client id out of range");
    return std::size_t(a) * n_ + b;
  }

  std::uint32_t n_;
  std::vector<SimTime> latency_;
  std::vector<std::uint16_t> hops_;
};

/// Fills the client matrices from one router solve per client, using
/// `topo.latency_scale` to convert edge lengths to microseconds.
ClientMetrics compute_client_metrics(const Topology& topo);

/// Same, with an explicit scale (used by calibration).
ClientMetrics compute_client_metrics(const Topology& topo, double scale);

}  // namespace esm::net
