#include "harness/figure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "net/path_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace esm::harness {
namespace {

FigureSpec spec_of(const std::string& text) {
  std::istringstream is(text);
  return parse_figure(is);
}

/// The error parse_figure throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    spec_of(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// One value per [series][point][column], as a single-seed figure.
FigureData data_of(
    const std::vector<std::vector<std::vector<double>>>& values) {
  FigureData data;
  for (const auto& series : values) {
    auto& points = data.emplace_back();
    for (const auto& point : series) {
      auto& columns = points.emplace_back();
      for (const double v : point) columns.emplace_back().add(v);
    }
  }
  return data;
}

const char* const kHead =
    "title synthetic\n"
    "columns payload_per_msg_all mean_latency_ms\n"
    "series lazy pi 0,0.5,1 --strategy flat\n"
    "series ttl u 0,1,2 --strategy ttl\n"
    "anchor eager lazy 1 mean_latency_ms 227\n";

TEST(Figure, MalformedSpecNamesItsLine) {
  const std::pair<std::string, std::string> bad[] = {
      {"title t\ncolumns no_such_kv\n", "figure line 2: unknown kv name"},
      {"title t\ncolumns mean_latency_ms\nseries a pi\n",
       "figure line 3: expected: series NAME PARAM"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0,,1\n",
       "figure line 3: empty value"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0,0\n",
       "figure line 3: duplicate value"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\nseries a pi 1\n",
       "figure line 4: duplicate series"},
      {"title t\nseries a pi 0\nmonotone a pi mean_latency_ms rises\n",
       "figure line 3: 'mean_latency_ms' is neither a column"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "monotone b pi mean_latency_ms rises\n",
       "figure line 4: unknown series 'b'"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "monotone a pi mean_latency_ms up\n",
       "figure line 4: expected rises or falls"},
      {"title t\ncolumns mean_latency_ms\nseries a strategy flat,ttl\n"
       "monotone a strategy mean_latency_ms rises\n",
       "figure line 4: series a value 'flat' is not a number"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "anchor x a 0.5 mean_latency_ms 1\n",
       "figure line 4: series a has no point '0.5'"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\nwithin x 1\n",
       "figure line 4: unknown anchor 'x'"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "anchor x a 0 mean_latency_ms 1\nwithin x -1\n",
       "figure line 5: tolerance must be >= 0"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "converges a a mean_latency_ms\n",
       "figure line 4: expected: converges A B Y TOL"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\n"
       "converges a a pi 1\n",
       "figure line 4: 'pi' is not a column"},
      {"title t\ncolumns mean_latency_ms\nseries a pi 0\nshape a\n",
       "figure line 4: unknown directive 'shape'"},
      {"title t\nseeds 1 x\n", "figure line 2: seed must be"},
      {"columns mean_latency_ms\nseries a pi 0\n", "figure: no title line"},
      {"title t\nseries a pi 0\n", "figure: no columns line"},
      {"title t\ncolumns mean_latency_ms\n", "figure: no series line"},
  };
  for (const auto& [text, want] : bad) {
    const std::string got = parse_error(text);
    EXPECT_EQ(got.rfind(want, 0), 0u) << "got: " << got << "\nwant: " << want;
  }
  EXPECT_EQ(parse_error(kHead), "");
}

TEST(Figure, PointsAreSweepPoints) {
  // base, then the series' flags, then --PARAM V, then --seed S.
  const FigureSpec spec = spec_of(
      "title t\nbase --nodes 20 --messages 5 --seed 1\nseeds 7 8\n"
      "columns mean_latency_ms\nseries r rho 3,q0.25 --strategy radius\n");
  std::string error;
  const auto configs = figure_configs(spec, error);
  ASSERT_TRUE(configs) << error;
  ASSERT_EQ(configs->size(), 4u);
  std::vector<ExperimentConfig> want;
  for (const char* v : {"3", "q0.25"}) {
    for (const char* seed : {"7", "8"}) {
      want.push_back(*parse_point({"--nodes", "20", "--messages", "5",
                                   "--seed", "1", "--strategy", "radius",
                                   "--rho", v, "--seed", seed},
                                  error));
    }
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*configs)[i].seed, want[i].seed);
    EXPECT_EQ((*configs)[i].num_nodes, 20u);
    EXPECT_EQ((*configs)[i].strategy.describe(), want[i].strategy.describe());
  }
  EXPECT_EQ((*configs)[2].strategy.describe(), "radius rho=q0.25");

  // A flag the point rejects names the series' line.
  const FigureSpec bad = spec_of(
      "title t\ncolumns mean_latency_ms\n\nseries p pi 0,2 --nodes 20\n");
  EXPECT_FALSE(figure_configs(bad, error));
  EXPECT_EQ(error, "figure line 4 (series p): --pi: must be in [0, 1], got 2");
}

TEST(Figure, EachPredicateKindPassesAndFails) {
  const FigureSpec spec = spec_of(std::string(kHead) +
                                  "monotone lazy pi mean_latency_ms falls\n"
                                  "dominates ttl lazy payload_per_msg_all "
                                  "mean_latency_ms\n"
                                  "converges ttl lazy mean_latency_ms 15\n"
                                  "within eager 5\n");
  // lazy: (payload, latency) per pi; ttl per u.
  const FigureData good = data_of({{{1, 480}, {6, 300}, {11, 227}},
                                   {{1.5, 400}, {3, 280}, {5, 240}}});
  const FigureData bad = data_of({{{1, 480}, {6, 300}, {11, 310}},
                                  {{1.5, 470}, {3, 280}, {5, 270}}});
  for (const FigureCheck& c : check_figure(spec, good)) {
    EXPECT_TRUE(c.ok) << c.predicate->text << ": " << c.detail;
  }
  for (const FigureCheck& c : check_figure(spec, bad)) {
    EXPECT_FALSE(c.ok) << c.predicate->text << ": " << c.detail;
  }
  // Interpolated lazy latency at payload 1.5 is 462, so 470 loses there.
  EXPECT_EQ(check_figure(spec, bad)[1].detail,
            "mean_latency_ms 470 at 1.5 > 462");
  // A point equal to B's counts only when another one is below.
  const FigureSpec self = spec_of(
      std::string(kHead) +
      "dominates lazy lazy payload_per_msg_all mean_latency_ms\n");
  EXPECT_EQ(check_figure(self, good)[0].detail, "no point below, 3 equal");

  // Dominance needs at least one point inside the other series' x range.
  const FigureSpec apart = spec_of(
      std::string(kHead) +
      "dominates ttl lazy payload_per_msg_all mean_latency_ms\n");
  EXPECT_FALSE(check_figure(apart, data_of({{{1, 480}, {2, 300}, {3, 227}},
                                            {{4, 1}, {5, 1}, {6, 1}}}))[0]
                   .ok);
  // Monotone reads x in order, not in the order the values are listed.
  const FigureSpec rises = spec_of(
      std::string(kHead) +
      "monotone lazy payload_per_msg_all mean_latency_ms rises\n");
  EXPECT_TRUE(check_figure(rises, data_of({{{3, 30}, {1, 10}, {2, 20}},
                                           {{0, 0}, {0, 0}, {0, 0}}}))[0]
                  .ok);
}

TEST(Figure, TableCellsAreKvValues) {
  const FigureSpec spec = spec_of(std::string(kHead) + "seeds 1 2\n");
  FigureData data = data_of({{{1, 480}, {6, 300}, {11, 227}},
                             {{1.5, 400}, {3, 280.25}, {5, 1234567}}});
  data[0][0][1].add(482);
  const std::string text = format_figure(spec, data);
  EXPECT_NE(text.find("synthetic (mean ± ci95 over 2 seeds)"),
            std::string::npos);
  EXPECT_NE(text.find("280.25"), std::string::npos) << text;
  EXPECT_NE(text.find("1234567"), std::string::npos) << text;
  EXPECT_NE(text.find("481 ± "), std::string::npos) << text;
  // Series varying different flags label each point.
  EXPECT_NE(text.find("pi=0.5"), std::string::npos) << text;
  EXPECT_NE(text.find("anchors: paper vs measured"), std::string::npos);
}

/// The removed figure programs' computation of rho for the distance
/// monitor: the q-quantile of the pairwise client distances.
double old_distance_quantile(const std::vector<net::Point>& coords,
                             double q) {
  std::vector<double> d;
  for (std::size_t a = 0; a < coords.size(); ++a) {
    for (std::size_t b = a + 1; b < coords.size(); ++b) {
      d.push_back(net::distance(coords[a], coords[b]));
    }
  }
  std::sort(d.begin(), d.end());
  return d[static_cast<std::size_t>(q * static_cast<double>(d.size() - 1))];
}

TEST(Figure, RhoQuantileIsTheProgramsRho) {
  // The removed programs regenerated the run's topology to turn a
  // quantile into rho; --rho q0.15 resolves it from the run's own world.
  ExperimentConfig base;
  base.seed = 2007;
  base.num_nodes = 100;
  net::TopologyParams params = base.topology;
  params.num_clients = base.num_nodes;
  const net::Topology topo = net::generate_topology(params, base.seed);
  const net::ClientMetrics metrics = net::compute_client_metrics(topo);
  const double latency_rho = to_ms(metrics.latency_quantile(0.15));
  const double distance_rho = old_distance_quantile(topo.client_coords, 0.15);

  std::string error;
  const auto paths = net::make_path_model(topo, base.path_model, 0);
  for (const auto& [monitor, want] : {std::pair{"oracle", latency_rho},
                                      std::pair{"distance", distance_rho}}) {
    const auto options = parse_cli(
        {"--strategy", "radius", "--monitor", monitor, "--rho", "q0.15"},
        error);
    ASSERT_TRUE(options) << error;
    EXPECT_EQ(resolved_rho(options->config.strategy, *paths,
                           topo.client_coords),
              want)
        << monitor;
    // A run at q0.15 is the run at the explicit value.
    ExperimentConfig quantile = options->config;
    quantile.seed = base.seed;
    quantile.num_nodes = base.num_nodes;
    quantile.num_messages = 20;
    ExperimentConfig explicit_rho = quantile;
    explicit_rho.strategy.rho_quantile.reset();
    explicit_rho.strategy.rho = want;
    EXPECT_EQ(format_result_kv(run_experiment(quantile)),
              format_result_kv(run_experiment(explicit_rho)))
        << monitor;
  }
  // Strategies without a radius ignore the quantile.
  StrategySpec flat = StrategySpec::make_flat(1.0);
  flat.rho_quantile = 0.5;
  EXPECT_EQ(resolved_rho(flat, *paths, topo.client_coords), 0.0);
}

TEST(Figure, NewRowsAreTheProgramsNumbers) {
  // The removed Fig. 4, §5.4 and A3c programs computed these numbers from
  // the result's fields; the specs read them as run_scalars rows. One
  // §5.4-style run (NeEM, so connections are counted) and one A3c point.
  std::string error;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--strategy", "flat", "--pi", "1",
                                 "--overlay", "neem"},
        std::vector<std::string>{"--strategy", "flat", "--pi", "0",
                                 "--interval-ms", "20", "--batch-ms",
                                 "100"}}) {
    auto options = parse_cli(args, error);
    ASSERT_TRUE(options) << error;
    options->config.seed = 2007;
    options->config.num_nodes = 100;
    options->config.num_messages = 60;
    const ExperimentResult r = run_experiment(options->config);
    const auto row = [&r](std::string_view kv) {
      for (const RunScalar& s : run_scalars(r)) {
        if (s.kv != nullptr && s.kv == kv) return s.value;
      }
      ADD_FAILURE() << kv;
      return std::variant<std::uint64_t, double>{};
    };
    // Fig. 4: the busiest node's payload sends over all payload sends.
    std::uint64_t total = 0, max_node = 0;
    for (const auto p : r.node_payloads) {
      total += p;
      max_node = std::max(max_node, p);
    }
    ASSERT_GT(total, 0u);
    EXPECT_EQ(std::get<double>(row("max_node_payload_share")),
              static_cast<double>(max_node) / static_cast<double>(total));
    // A3c: every payload packet is 280 bytes at the default payload size.
    EXPECT_EQ(std::get<std::uint64_t>(row("control_bytes")),
              r.total_bytes - r.payload_packets * 280);
    // §5.4 printed the two census fields.
    EXPECT_EQ(std::get<std::uint64_t>(row("peak_simultaneous_connections")),
              r.peak_simultaneous_connections);
    EXPECT_EQ(std::get<std::uint64_t>(row("connections_opened")),
              r.connections_opened);
  }
}

TEST(Figure, RhoGrammar) {
  std::string error;
  auto options = parse_cli({"--rho", "q0.25"}, error);
  ASSERT_TRUE(options) << error;
  EXPECT_EQ(options->config.strategy.rho_quantile, 0.25);
  // A later plain value replaces the quantile.
  options = parse_cli({"--rho", "q0.25", "--rho", "7"}, error);
  ASSERT_TRUE(options) << error;
  EXPECT_FALSE(options->config.strategy.rho_quantile);
  EXPECT_EQ(options->config.strategy.rho, 7.0);
  EXPECT_FALSE(parse_cli({"--rho", "qx"}, error));
  EXPECT_EQ(error, "--rho: not a quantile qP: qx");
  EXPECT_FALSE(parse_cli({"--rho", "x"}, error));
  EXPECT_EQ(error, "--rho: not a number: x");
}

TEST(Figure, EveryCommittedSpecBuilds) {
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           ESM_SOURCE_DIR "/bench/figures")) {
    if (entry.path().extension() != ".fig") continue;
    const FigureSpec spec = load_figure_file(entry.path().string());
    std::string error;
    EXPECT_TRUE(figure_configs(spec, error)) << entry.path() << ": " << error;
    EXPECT_FALSE(spec.predicates.empty()) << entry.path();
    ++specs;
  }
  EXPECT_EQ(specs, 14u);
}

}  // namespace
}  // namespace esm::harness
