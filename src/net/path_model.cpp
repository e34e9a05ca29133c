#include "net/path_model.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "net/routing.hpp"

namespace esm::net {

const char* to_string(PathModelKind kind) {
  switch (kind) {
    case PathModelKind::automatic:
      return "auto";
    case PathModelKind::dense:
      return "dense";
    case PathModelKind::ondemand:
      return "ondemand";
  }
  return "?";
}

PathModelKind resolve_path_model(PathModelKind requested,
                                 std::uint32_t num_clients) {
  if (requested != PathModelKind::automatic) return requested;
  return num_clients <= kDensePathMaxClients ? PathModelKind::dense
                                             : PathModelKind::ondemand;
}

// ---- PathModel default aggregates ------------------------------------------
// These loops mirror the historical dense-matrix implementations exactly
// (a ascending, b ascending, doubles accumulated in iteration order) so a
// model that answers point queries identically also reports identical
// aggregates.

double PathModel::mean_latency_us() const {
  const std::uint32_t n = num_clients();
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      sum += static_cast<double>(latency(a, b));
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double PathModel::mean_hops() const {
  const std::uint32_t n = num_clients();
  double sum = 0.0;
  std::size_t count = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      sum += hops(a, b);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double PathModel::hop_fraction(std::uint16_t lo, std::uint16_t hi) const {
  const std::uint32_t n = num_clients();
  std::size_t in = 0, count = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      ++count;
      const auto h = hops(a, b);
      if (h >= lo && h <= hi) ++in;
    }
  }
  return count == 0 ? 0.0 : static_cast<double>(in) / static_cast<double>(count);
}

double PathModel::latency_fraction(SimTime lo, SimTime hi) const {
  const std::uint32_t n = num_clients();
  std::size_t in = 0, count = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      ++count;
      const auto l = latency(a, b);
      if (l >= lo && l <= hi) ++in;
    }
  }
  return count == 0 ? 0.0 : static_cast<double>(in) / static_cast<double>(count);
}

SimTime PathModel::latency_quantile(double p) const {
  const std::uint32_t n = num_clients();
  std::vector<SimTime> values;
  values.reserve(std::size_t(n) * n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) values.push_back(latency(a, b));
    }
  }
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto pos = static_cast<std::size_t>(
      clamped * static_cast<double>(values.size() - 1));
  return values[pos];
}

SimTime PathModel::min_latency_lower_bound() const {
  const std::uint32_t n = num_clients();
  if (n < 2) return 0;
  SimTime best = std::numeric_limits<SimTime>::max();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) best = std::min(best, latency(a, b));
    }
  }
  return best;
}

std::vector<double> PathModel::closeness_sums() const {
  const std::uint32_t n = num_clients();
  std::vector<double> sums(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    double sum = 0.0;
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) sum += static_cast<double>(latency(a, b));
    }
    sums[a] = sum;
  }
  return sums;
}

// ---- OnDemandPathModel ------------------------------------------------------

OnDemandPathModel::OnDemandPathModel(const Topology& topo, double scale,
                                     std::size_t cache_bytes)
    : n_(static_cast<std::uint32_t>(topo.client_leaf.size())),
      cache_budget_(cache_bytes == 0 ? kDefaultCacheBytes : cache_bytes),
      paths_(std::make_unique<RouterPaths>(topo, scale)) {
  attach_of_vertex_.assign(topo.params.num_underlay_vertices, 0xffffffffu);
  attach_of_client_.resize(n_);
  access_weight_.resize(n_);
  for (NodeId c = 0; c < n_; ++c) {
    const ClientAccess access = client_access(topo, c, scale);
    if (attach_of_vertex_[access.attach] == 0xffffffffu) {
      attach_of_vertex_[access.attach] =
          static_cast<std::uint32_t>(attach_vertices_.size());
      attach_vertices_.push_back(access.attach);
    }
    attach_of_client_[c] = attach_of_vertex_[access.attach];
    access_weight_[c] = access.weight;
  }
  rows_.resize(attach_vertices_.size());
  row_bytes_ = attach_vertices_.size() *
               (sizeof(SimTime) + sizeof(std::uint16_t));
}

OnDemandPathModel::~OnDemandPathModel() = default;

SimTime OnDemandPathModel::latency(NodeId a, NodeId b) const {
  ESM_CHECK(a < n_ && b < n_, "client id out of range");
  if (a == b) return 0;
  const Row& r = row(attach_of_client_[a]);
  return access_weight_[a] + r.lat[attach_of_client_[b]] + access_weight_[b];
}

SimTime OnDemandPathModel::min_latency_lower_bound() const {
  if (n_ < 2) return 0;
  SimTime lo1 = std::numeric_limits<SimTime>::max();  // smallest
  SimTime lo2 = std::numeric_limits<SimTime>::max();  // second smallest
  for (const SimTime w : access_weight_) {
    if (w < lo1) {
      lo2 = lo1;
      lo1 = w;
    } else if (w < lo2) {
      lo2 = w;
    }
  }
  return lo1 + lo2;
}

std::uint16_t OnDemandPathModel::hops(NodeId a, NodeId b) const {
  ESM_CHECK(a < n_ && b < n_, "client id out of range");
  if (a == b) return 0;
  const Row& r = row(attach_of_client_[a]);
  return static_cast<std::uint16_t>(r.hops[attach_of_client_[b]] + 2);
}

std::size_t OnDemandPathModel::memory_bytes() const {
  const std::size_t fixed =
      attach_of_vertex_.size() * sizeof(std::uint32_t) +
      attach_vertices_.size() * sizeof(VertexId) +
      n_ * (sizeof(std::uint32_t) + sizeof(SimTime)) +
      rows_.size() * sizeof(Row);
  return fixed + cached_rows_ * row_bytes_;
}

const OnDemandPathModel::Row& OnDemandPathModel::row(
    std::uint32_t attach_index) const {
  Row& r = rows_[attach_index];
  if (r.present) {
    if (lru_.front() != attach_index) {
      lru_.splice(lru_.begin(), lru_, r.lru);
    }
    return r;
  }
  compute_row(attach_index);
  return r;
}

void OnDemandPathModel::compute_row(std::uint32_t attach_index) const {
  const std::size_t max_rows =
      std::max<std::size_t>(1, cache_budget_ / std::max<std::size_t>(
                                                   row_bytes_, 1));
  while (cached_rows_ >= max_rows) {
    const std::uint32_t victim = lru_.back();
    lru_.pop_back();
    Row& v = rows_[victim];
    v.present = false;
    v.lat.clear();
    v.lat.shrink_to_fit();
    v.hops.clear();
    v.hops.shrink_to_fit();
    --cached_rows_;
    ++row_evictions_;
  }

  paths_->solve(attach_vertices_[attach_index]);
  Row& r = rows_[attach_index];
  const std::size_t a_count = attach_vertices_.size();
  r.lat.resize(a_count);
  r.hops.resize(a_count);
  for (std::size_t j = 0; j < a_count; ++j) {
    r.lat[j] = paths_->latency(attach_vertices_[j]);
    r.hops[j] = static_cast<std::uint16_t>(paths_->hops(attach_vertices_[j]));
  }
  lru_.push_front(attach_index);
  r.lru = lru_.begin();
  r.present = true;
  ++cached_rows_;
  ++rows_computed_;
}

// ---- Factory + calibration helper ------------------------------------------

std::unique_ptr<PathModel> make_path_model(const Topology& topo,
                                           PathModelKind kind,
                                           std::size_t cache_bytes) {
  const auto n = static_cast<std::uint32_t>(topo.client_leaf.size());
  switch (resolve_path_model(kind, n)) {
    case PathModelKind::dense:
      return std::make_unique<ClientMetrics>(compute_client_metrics(topo));
    case PathModelKind::ondemand:
      return std::make_unique<OnDemandPathModel>(topo, topo.latency_scale,
                                                 cache_bytes);
    case PathModelKind::automatic:
      break;  // resolve_path_model never returns automatic
  }
  ESM_CHECK(false, "unresolved path model kind");
  return nullptr;
}

double mean_client_latency_us(const Topology& topo, double scale) {
  const auto n = static_cast<std::uint32_t>(topo.client_leaf.size());
  if (n < 2) return 0.0;
  const std::size_t routers = topo.params.num_underlay_vertices;

  // Group clients by attach router. Over ordered pairs (a != b):
  //   Σ latency = 2 (N-1) Σ_a w_a + Σ_u Σ_v cnt_u cnt_v latR(u, v)
  // (the router-path term may include u == v pairs: latR(u, u) == 0, so
  // same-stub client pairs contribute only their access weights).
  std::vector<std::uint64_t> attach_count(routers, 0);
  std::vector<VertexId> attach_vertices;
  double access_sum = 0.0;
  for (NodeId c = 0; c < n; ++c) {
    const ClientAccess access = client_access(topo, c, scale);
    if (attach_count[access.attach] == 0) {
      attach_vertices.push_back(access.attach);
    }
    ++attach_count[access.attach];
    access_sum += static_cast<double>(access.weight);
  }
  std::sort(attach_vertices.begin(), attach_vertices.end());

  double geo_sum = 0.0;
  RouterPaths paths(topo, scale);
  for (const VertexId u : attach_vertices) {
    paths.solve(u);
    double row_sum = 0.0;
    for (const VertexId v : attach_vertices) {
      row_sum += static_cast<double>(attach_count[v]) *
                 static_cast<double>(paths.latency(v));
    }
    geo_sum += static_cast<double>(attach_count[u]) * row_sum;
  }

  const double total =
      2.0 * static_cast<double>(n - 1) * access_sum + geo_sum;
  return total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace esm::net
