#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "net/path_model.hpp"
#include "net/routing.hpp"

namespace esm::net {

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

Point jitter_around(const Point& c, double spread, Rng& rng) {
  return Point{clamp01(c.x + rng.normal() * spread),
               clamp01(c.y + rng.normal() * spread)};
}

}  // namespace

Topology generate_topology(const TopologyParams& params, std::uint64_t seed) {
  const std::uint32_t num_transit =
      params.num_transit_domains * params.transit_per_domain;
  ESM_CHECK(params.num_transit_domains >= 1, "need at least one transit domain");
  ESM_CHECK(params.transit_per_domain >= 2,
            "need at least two transit routers per domain");
  ESM_CHECK(params.num_underlay_vertices > num_transit,
            "underlay must contain stub vertices");
  const std::uint32_t num_stub = params.num_underlay_vertices - num_transit;

  Rng rng = Rng(seed).split(0x70706F6C6F677901ULL);  // "topology"

  Topology topo;
  topo.params = params;
  const std::uint32_t total_vertices =
      params.num_underlay_vertices + params.num_clients;
  topo.graph = Graph(total_vertices);
  topo.coords.resize(total_vertices);
  topo.kind.resize(total_vertices, VertexKind::stub);

  // --- Transit domains -----------------------------------------------------
  // Domain centres are kept away from the unit-square border so the gaussian
  // scatter of their routers stays mostly inside.
  std::vector<Point> domain_centre(params.num_transit_domains);
  for (auto& c : domain_centre) {
    c = Point{rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)};
  }

  // Vertex layout: [0, num_transit) transit, [num_transit,
  // num_underlay) stub, then one leaf vertex per client.
  std::vector<std::vector<VertexId>> domain_members(params.num_transit_domains);
  for (std::uint32_t d = 0; d < params.num_transit_domains; ++d) {
    for (std::uint32_t k = 0; k < params.transit_per_domain; ++k) {
      const VertexId v = d * params.transit_per_domain + k;
      topo.kind[v] = VertexKind::transit;
      topo.coords[v] =
          jitter_around(domain_centre[d], params.transit_spread, rng);
      domain_members[d].push_back(v);
    }
  }

  auto add_geo_edge = [&](VertexId a, VertexId b) {
    if (a != b && !topo.graph.has_edge(a, b)) {
      topo.graph.add_edge(a, b, distance(topo.coords[a], topo.coords[b]));
    }
  };

  // Intra-domain backbone: a ring over a random permutation guarantees
  // connectivity; random chords shorten intra-domain paths.
  for (std::uint32_t d = 0; d < params.num_transit_domains; ++d) {
    std::vector<VertexId> order = rng.sample(domain_members[d],
                                             domain_members[d].size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      add_geo_edge(order[i], order[(i + 1) % order.size()]);
    }
    const auto num_chords = static_cast<std::size_t>(
        params.transit_chord_fraction * static_cast<double>(order.size()));
    for (std::size_t i = 0; i < num_chords; ++i) {
      add_geo_edge(order[rng.below(order.size())],
                   order[rng.below(order.size())]);
    }
  }

  // Inter-domain peering: every pair of transit domains gets several links
  // between random member routers, keeping the transit core's diameter
  // small (Inet-like dense core).
  for (std::uint32_t d1 = 0; d1 < params.num_transit_domains; ++d1) {
    for (std::uint32_t d2 = d1 + 1; d2 < params.num_transit_domains; ++d2) {
      const auto links = params.inter_domain_links + (rng.chance(0.5) ? 1 : 0);
      for (std::uint32_t l = 0; l < links; ++l) {
        add_geo_edge(domain_members[d1][rng.below(domain_members[d1].size())],
                     domain_members[d2][rng.below(domain_members[d2].size())]);
      }
    }
  }

  // --- Stub domains ---------------------------------------------------------
  // Every transit router hosts `stubs_per_transit` stub domains; the
  // num_stub stub routers are distributed round-robin across the domains so
  // the total vertex count matches exactly.
  const std::uint32_t num_stub_domains = num_transit * params.stubs_per_transit;
  std::vector<std::uint32_t> stub_domain_size(num_stub_domains, 0);
  for (std::uint32_t i = 0; i < num_stub; ++i) {
    ++stub_domain_size[i % num_stub_domains];
  }

  VertexId next_vertex = num_transit;
  for (std::uint32_t sd = 0; sd < num_stub_domains; ++sd) {
    const VertexId transit_router =
        static_cast<VertexId>(sd / params.stubs_per_transit);
    const Point centre =
        jitter_around(topo.coords[transit_router], params.stub_spread * 2, rng);
    std::vector<VertexId> members;
    for (std::uint32_t i = 0; i < stub_domain_size[sd]; ++i) {
      const VertexId v = next_vertex++;
      topo.kind[v] = VertexKind::stub;
      topo.coords[v] = jitter_around(centre, params.stub_spread, rng);
      // Shallow stub domains: every stub router connects straight to its
      // transit router, keeping client paths short (matches the paper's
      // mean hop distance of ~5.5).
      add_geo_edge(v, transit_router);
      members.push_back(v);
    }
    // Occasional intra-stub peer links add path diversity without
    // shortening the hierarchy.
    for (const VertexId v : members) {
      if (members.size() > 1 && rng.chance(params.stub_peer_link_prob)) {
        add_geo_edge(v, members[rng.below(members.size())]);
      }
    }
  }
  ESM_CHECK(next_vertex == params.num_underlay_vertices,
            "stub vertex accounting mismatch");

  // --- Client attachment ----------------------------------------------------
  // Clients go on *distinct* stub routers (§5.1), behind a fixed-latency
  // access link that does not scale with geometry. When there are more
  // clients than stub routers (large-N experiments beyond the paper's
  // scale), the random stub order is reused round-robin, so stubs fill
  // evenly; with num_clients <= num_stub the draw is unchanged.
  std::vector<VertexId> stub_vertices(num_stub);
  std::iota(stub_vertices.begin(), stub_vertices.end(), num_transit);
  const std::size_t distinct =
      std::min<std::size_t>(params.num_clients, num_stub);
  std::vector<VertexId> chosen = rng.sample(stub_vertices, distinct);
  chosen.resize(params.num_clients);
  for (std::size_t c = distinct; c < chosen.size(); ++c) {
    chosen[c] = chosen[c % distinct];
  }

  topo.client_vertex.resize(params.num_clients);
  topo.client_leaf.resize(params.num_clients);
  topo.client_coords.resize(params.num_clients);
  for (std::uint32_t c = 0; c < params.num_clients; ++c) {
    const VertexId attach = chosen[c];
    const VertexId leaf = params.num_underlay_vertices + c;
    topo.kind[leaf] = VertexKind::client_leaf;
    topo.coords[leaf] = jitter_around(topo.coords[attach], 0.002, rng);
    topo.graph.add_edge(leaf, attach, 0.0, params.client_access_latency);
    topo.client_vertex[c] = attach;
    topo.client_leaf[c] = leaf;
    topo.client_coords[c] = topo.coords[leaf];
  }

  // --- Latency calibration ----------------------------------------------------
  // Mean client latency decomposes (approximately) as
  //   mean(scale) = fixed_part + scale * geo_part,
  // where fixed_part is the two access links on every path. Edge weights
  // are quantized to integer microseconds, so the relation is only exact
  // for large scales; a few proportional iterations converge to the target
  // within a fraction of a percent.
  topo.latency_scale = 1.0;
  if (params.num_clients >= 2) {
    const double fixed_part =
        2.0 * static_cast<double>(params.client_access_latency);
    const double target = static_cast<double>(params.target_mean_latency);
    ESM_CHECK(target > fixed_part,
              "target mean latency below access-link latency");
    // Start well above the quantization floor: mean intra-domain edge
    // lengths are O(0.1) units, so 10^5 us/unit puts edges at ~10 ms.
    double scale = 1e5;
    // Small topologies keep the historical dense probe (bit-for-bit
    // identical scales, so pinned goldens hold); above the dense cutover
    // the attach-grouped closed form gives the same exact mean with one
    // router path solve per distinct stub instead of O(N²) pairs.
    const bool dense_probe = params.num_clients <= kDensePathMaxClients;
    for (int iter = 0; iter < 4; ++iter) {
      const double mean_us =
          dense_probe ? compute_client_metrics(topo, scale).mean_latency_us()
                      : mean_client_latency_us(topo, scale);
      const double geo_part = mean_us - fixed_part;
      ESM_CHECK(geo_part > 0.0, "degenerate topology: zero geometric paths");
      scale *= (target - fixed_part) / geo_part;
    }
    topo.latency_scale = scale;
  }
  return topo;
}

}  // namespace esm::net
