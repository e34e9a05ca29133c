// Pluggable client-pair path metrics (the PathModel abstraction).
//
// Every experiment needs the one-way latency and hop count between pairs
// of clients routed over the underlay. Historically that was a mandatory
// dense N×N matrix (`ClientMetrics`) — ~1 GB at 10k clients — which capped
// experiments near the paper's 200-node validation scale. This header
// splits the *query surface* (PathModel) from the *storage strategy*:
//
//   * `ClientMetrics` (net/routing.hpp) keeps the dense all-pairs matrix,
//     filled through the same decomposition as below; results are
//     bit-for-bit what they always were, so small-N goldens are untouched.
//   * `OnDemandPathModel` (below) computes per-attach-router rows lazily
//     with the router path solver (net/routing.hpp) and keeps them in an
//     LRU cache bounded by a byte budget. It exploits the underlay's
//     structure for exactness AND compactness: every client leaf hangs
//     off exactly one stub router by a single access edge, so
//
//       cost(a, b) = (2, w_a + w_b) + min lexicographic (hops, latency)
//                    router-path cost between their attach routers.
//
//     The decomposition is exact (leaf degree is 1 and all edge weights
//     are >= 1 µs, so no shorter path can bypass the access links), which
//     means rows are cached per *attach router*, not per client. With the
//     default underlay (~3k stub routers) memory is O(routers²) no matter
//     how many clients share them — 50k clients fit in the same ~90 MB of
//     rows a 3k-client run needs.
//
// `make_path_model` picks between the two automatically by client count
// (`PathModelKind::automatic`), or explicitly via config/CLI
// (`--path-model dense|ondemand`).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/topology.hpp"

namespace esm::net {

class RouterPaths;

/// Storage strategy for pairwise client path metrics.
enum class PathModelKind : std::uint8_t {
  /// dense for N <= kDensePathMaxClients, ondemand above.
  automatic,
  /// Dense all-pairs matrix (O(N²) memory, O(1) query).
  dense,
  /// Lazy per-attach-router path rows with an LRU byte budget.
  ondemand,
};

const char* to_string(PathModelKind kind);

/// Largest client count for which `automatic` stays on the dense matrix
/// (64 MB of rows). Also the cutover for topology latency calibration.
inline constexpr std::uint32_t kDensePathMaxClients = 2048;

/// Resolves `automatic` against a client count; dense/ondemand pass through.
PathModelKind resolve_path_model(PathModelKind requested,
                                 std::uint32_t num_clients);

/// Query surface for routed client-pair metrics. Point queries are pure
/// and identical across implementations; the aggregate statistics default
/// to Θ(N²) point-query loops whose accumulation order matches the
/// historical dense code exactly (a ascending, b ascending, doubles).
class PathModel {
 public:
  virtual ~PathModel() = default;

  virtual std::uint32_t num_clients() const = 0;
  /// One-way routed latency in microseconds (0 when a == b).
  virtual SimTime latency(NodeId a, NodeId b) const = 0;
  /// Hop count along the latency-tie-broken hop-shortest path.
  virtual std::uint16_t hops(NodeId a, NodeId b) const = 0;

  /// Approximate resident bytes of path state (matrix or cached rows).
  virtual std::size_t memory_bytes() const = 0;
  /// Path rows solved so far (attach-router rows for ondemand, N for the
  /// dense matrix).
  virtual std::uint64_t rows_computed() const = 0;
  /// Cached rows discarded to stay under the byte budget (0 for dense).
  virtual std::uint64_t row_evictions() const { return 0; }

  // Aggregate statistics over ordered pairs (a != b). Θ(N²) queries —
  // meant for topology validation and calibration, not hot paths.
  virtual double mean_latency_us() const;
  virtual double mean_hops() const;
  /// Fraction of ordered pairs whose hop count is in [lo, hi].
  virtual double hop_fraction(std::uint16_t lo, std::uint16_t hi) const;
  /// Fraction of ordered pairs whose latency is in [lo, hi] microseconds.
  virtual double latency_fraction(SimTime lo, SimTime hi) const;
  /// p-quantile (0..1) of the pairwise one-way latency distribution.
  virtual SimTime latency_quantile(double p) const;

  /// Lower bound on latency(a, b) over all ordered pairs a != b — the
  /// sharded engine derives its conservative window width (lookahead)
  /// from this. Need not be tight, but must never exceed the true
  /// minimum. The default scans all pairs (Θ(N²) point queries — fine at
  /// dense scale); structured models override with a cheap bound.
  /// Returns 0 for fewer than two clients.
  virtual SimTime min_latency_lower_bound() const;

  /// Per-node closeness sums: sums[a] = Σ_b latency(a, b) over b != a,
  /// accumulated in ascending-b order. rank_by_closeness and the gossip
  /// rank oracle divide/negate these, so the accumulation order is part
  /// of the determinism contract.
  std::vector<double> closeness_sums() const;
};

/// Memory-bounded path model: exact lazy rows keyed by attach router.
class OnDemandPathModel final : public PathModel {
 public:
  /// Default LRU budget for cached rows when the caller passes 0.
  static constexpr std::size_t kDefaultCacheBytes = 256ull << 20;

  /// `cache_bytes` == 0 selects kDefaultCacheBytes. At least one row is
  /// always retained, so a tiny budget degrades to recompute-per-query
  /// but never fails.
  OnDemandPathModel(const Topology& topo, double scale,
                    std::size_t cache_bytes = 0);
  explicit OnDemandPathModel(const Topology& topo)
      : OnDemandPathModel(topo, topo.latency_scale) {}
  ~OnDemandPathModel() override;

  std::uint32_t num_clients() const override { return n_; }
  SimTime latency(NodeId a, NodeId b) const override;
  std::uint16_t hops(NodeId a, NodeId b) const override;

  std::size_t memory_bytes() const override;
  std::uint64_t rows_computed() const override { return rows_computed_; }
  std::uint64_t row_evictions() const override { return row_evictions_; }

  /// Exact-decomposition bound: latency(a, b) = w_a + router_path + w_b
  /// with router_path >= 0, so the sum of the two smallest client access
  /// weights bounds every pair from below. O(N), touches no rows.
  SimTime min_latency_lower_bound() const override;

  /// Distinct stub routers clients attach to (the row-cache key space).
  std::uint32_t num_attach_vertices() const {
    return static_cast<std::uint32_t>(attach_vertices_.size());
  }

 private:
  struct Row {
    bool present = false;
    std::vector<SimTime> lat;          // indexed by attach index
    std::vector<std::uint16_t> hops;   // indexed by attach index
    std::list<std::uint32_t>::iterator lru;  // position in lru_ when present
  };

  const Row& row(std::uint32_t attach_index) const;
  void compute_row(std::uint32_t attach_index) const;
  void evict_to_budget(std::uint32_t keep) const;

  std::uint32_t n_ = 0;
  std::size_t cache_budget_ = 0;
  std::size_t row_bytes_ = 0;  // payload bytes per cached row

  std::vector<VertexId> attach_vertices_;        // attach index -> vertex
  std::vector<std::uint32_t> attach_of_vertex_;  // vertex -> attach index
  std::vector<std::uint32_t> attach_of_client_;  // client -> attach index
  std::vector<SimTime> access_weight_;           // client -> leaf edge weight

  // Query-path state is mutable: the model is logically const (answers
  // never change) while the cache warms. Each experiment run owns its
  // model exclusively, so no synchronization is needed.
  mutable std::vector<Row> rows_;
  mutable std::list<std::uint32_t> lru_;  // front = most recent
  mutable std::size_t cached_rows_ = 0;
  mutable std::uint64_t rows_computed_ = 0;
  mutable std::uint64_t row_evictions_ = 0;

  // Solver for compute_row; its scratch is reused across rows.
  std::unique_ptr<RouterPaths> paths_;
};

/// Builds the path model for a topology: dense matrix or on-demand rows
/// per `resolve_path_model(kind, num_clients)`. `cache_bytes` bounds the
/// on-demand row cache (0 = default) and is ignored by the dense model.
std::unique_ptr<PathModel> make_path_model(const Topology& topo,
                                           PathModelKind kind,
                                           std::size_t cache_bytes = 0);

/// Exact mean one-way client-pair latency without materialising any rows:
/// groups clients by attach router, so the cost is one router path solve
/// per distinct attach vertex. Equals PathModel::mean_latency_us() for the
/// same topology/scale; used to calibrate large-N topologies where the
/// dense probe would itself be O(N²).
double mean_client_latency_us(const Topology& topo, double scale);

}  // namespace esm::net
