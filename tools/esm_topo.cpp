// esm_topo: generate and inspect the synthetic transit-stub internet.
//
//   esm_topo --clients 100 --seed 2007            # §5.1-style statistics
//   esm_topo --clients 100 --csv coords           # client coordinates
//   esm_topo --clients 100 --csv latency          # pairwise latency matrix
//   esm_topo --clients 100 --csv histogram        # latency distribution
//
// The CSV modes feed external plotting (the Fig. 4 style network renders).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/text_input.hpp"
#include "harness/table.hpp"
#include "net/path_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

int main(int argc, char** argv) {
  using namespace esm;

  std::uint32_t clients = 100;
  std::uint64_t seed = 2007;
  std::string csv;
  net::PathModelKind path_kind = net::PathModelKind::automatic;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The flag's value as a whole number that fits `out`.
    auto uint_value = [&]<typename T>(T& out) {
      const char* v = value();
      const auto parsed = v == nullptr ? std::nullopt : text::parse_uint<T>(v);
      if (!parsed) {
        std::fprintf(stderr, "esm_topo: %s needs %s\n", flag.c_str(),
                     text::integer_range<T>().c_str());
        return false;
      }
      out = *parsed;
      return true;
    };
    if (flag == "--clients") {
      if (!uint_value(clients)) return 2;
    } else if (flag == "--seed") {
      if (!uint_value(seed)) return 2;
    } else if (flag == "--csv") {
      const char* v = value();
      if (v == nullptr) {
        std::fprintf(stderr, "esm_topo: --csv needs a mode\n");
        return 2;
      }
      csv = v;
    } else if (flag == "--path-model") {
      const char* v = value();
      if (v == nullptr) {
        std::fprintf(stderr, "esm_topo: --path-model needs a value\n");
        return 2;
      }
      if (std::strcmp(v, "dense") == 0) {
        path_kind = net::PathModelKind::dense;
      } else if (std::strcmp(v, "ondemand") == 0) {
        path_kind = net::PathModelKind::ondemand;
      } else if (std::strcmp(v, "auto") == 0) {
        path_kind = net::PathModelKind::automatic;
      } else {
        std::fprintf(stderr, "esm_topo: unknown path model %s\n", v);
        return 2;
      }
    } else if (flag == "--help") {
      std::puts(
          "esm_topo --clients N --seed S [--csv coords|latency|histogram]"
          " [--path-model dense|ondemand|auto]");
      return 0;
    } else {
      std::fprintf(stderr, "esm_topo: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  net::TopologyParams params;
  params.num_clients = clients;
  const net::Topology topo = net::generate_topology(params, seed);
  const std::unique_ptr<net::PathModel> path_model =
      net::make_path_model(topo, path_kind);
  const net::PathModel& metrics = *path_model;

  if (csv == "coords") {
    std::puts("client,x,y");
    for (NodeId c = 0; c < clients; ++c) {
      std::printf("%u,%.5f,%.5f\n", c, topo.client_coords[c].x,
                  topo.client_coords[c].y);
    }
    return 0;
  }
  if (csv == "latency") {
    std::puts("src,dst,latency_us,hops");
    for (NodeId a = 0; a < clients; ++a) {
      for (NodeId b = 0; b < clients; ++b) {
        if (a == b) continue;
        std::printf("%u,%u,%lld,%u\n", a, b,
                    static_cast<long long>(metrics.latency(a, b)),
                    metrics.hops(a, b));
      }
    }
    return 0;
  }
  if (csv == "histogram") {
    std::puts("latency_ms_bucket,pairs");
    for (int bucket = 0; bucket < 30; ++bucket) {
      const SimTime lo = bucket * 5 * kMillisecond;
      const SimTime hi = lo + 5 * kMillisecond - 1;
      const double frac = metrics.latency_fraction(lo, hi);
      const auto pairs = static_cast<long long>(
          frac * static_cast<double>(clients) * (clients - 1));
      std::printf("%d-%d,%lld\n", bucket * 5, bucket * 5 + 5, pairs);
    }
    return 0;
  }
  if (!csv.empty()) {
    std::fprintf(stderr, "esm_topo: unknown csv mode %s\n", csv.c_str());
    return 2;
  }

  harness::Table table("topology: " + std::to_string(clients) + " clients, " +
                       std::to_string(params.num_underlay_vertices) +
                       " underlay vertices, seed " + std::to_string(seed));
  table.header({"metric", "value", "paper (§5.1)"});
  table.row({"mean hop distance", harness::Table::num(metrics.mean_hops(), 2),
             "5.54"});
  table.row({"pairs within 5-6 hops (%)",
             harness::Table::num(100.0 * metrics.hop_fraction(5, 6), 2),
             "74.28"});
  table.row({"mean end-to-end latency (ms)",
             harness::Table::num(metrics.mean_latency_us() / 1000.0, 2),
             "49.83"});
  table.row({"pairs within 39-60 ms (%)",
             harness::Table::num(100.0 * metrics.latency_fraction(
                                             39 * kMillisecond,
                                             60 * kMillisecond),
                                 2),
             "50.00"});
  table.row({"p10 / p50 / p90 latency (ms)",
             harness::Table::num(to_ms(metrics.latency_quantile(0.1)), 1) +
                 " / " +
                 harness::Table::num(to_ms(metrics.latency_quantile(0.5)), 1) +
                 " / " +
                 harness::Table::num(to_ms(metrics.latency_quantile(0.9)), 1),
             "-"});
  table.row({"underlay edges", std::to_string(topo.graph.num_edges()), "-"});
  table.print();
  return 0;
}
