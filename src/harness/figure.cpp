#include "harness/figure.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "common/text_input.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"

namespace esm::harness {

namespace {

/// The run_scalars row of a --kv name.
std::optional<std::size_t> scalar_index(const std::string& name) {
  const auto rows = run_scalars(ExperimentResult{});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].kv != nullptr && name == rows[i].kv) return i;
  }
  return std::nullopt;
}

/// Where `name` is among the items, or items.size().
template <typename T>
std::size_t index_of(const std::vector<T>& items, const std::string& name) {
  std::size_t i = 0;
  while (i < items.size() && items[i].name != name) ++i;
  return i;
}

struct Parser {
  FigureSpec spec;

  template <typename T>
  std::size_t find(const text::Line& line, const std::vector<T>& items,
                   const std::string& name, const std::string& what) const {
    const std::size_t i = index_of(items, name);
    if (i == items.size()) line.fail("unknown " + what + " '" + name + "'");
    return i;
  }

  std::size_t column(const text::Line& line, const std::string& name) const {
    const auto at = std::find(spec.columns.begin(), spec.columns.end(), name);
    if (at == spec.columns.end()) line.fail("'" + name + "' is not a column");
    return static_cast<std::size_t>(at - spec.columns.begin());
  }

  /// A column, or the PARAM of each of `series`, whose values must then
  /// be numbers.
  FigureAxis axis(const text::Line& line, const std::string& name,
                  std::initializer_list<std::size_t> series) const {
    if (std::count(spec.columns.begin(), spec.columns.end(), name) != 0) {
      return {name, column(line, name)};
    }
    for (const std::size_t s : series) {
      const FigureSeries& fs = spec.series[s];
      if (fs.param != name) {
        line.fail("'" + name + "' is neither a column nor the varied flag "
                  "of series " + fs.name);
      }
      for (const std::string& v : fs.values) {
        if (!text::parse_double(v)) {
          line.fail("series " + fs.name + " value '" + v + "' is not a number");
        }
      }
    }
    return {name, std::nullopt};
  }

  double tolerance(const text::Line& line, const std::string& token) const {
    const double t = line.real(token);
    if (t < 0.0) line.fail("tolerance must be >= 0, got '" + token + "'");
    return t;
  }

  /// Fails unless the line has a token for each word of `form` but its
  /// [optional] ones; more only when `form` holds "...".
  void shape(const text::Line& line, const std::string& form) const {
    std::istringstream words(form);
    std::size_t n = 0;
    for (std::string w; words >> w;) n += w[0] != '[';
    const bool more = form.find("...") != std::string::npos;
    if (more ? line.tokens.size() < n : line.tokens.size() != n) {
      line.fail("expected: " + form);
    }
  }

  void handle(const text::Line& line) {
    const auto& t = line.tokens;
    const std::string& d = t[0];
    FigurePredicate p;
    p.text = line.join(0);
    if (d == "title") {
      shape(line, "title TEXT...");
      spec.title = line.join(1);
    } else if (d == "base") {
      spec.base.insert(spec.base.end(), t.begin() + 1, t.end());
    } else if (d == "seeds") {
      shape(line, "seeds S...");
      for (std::size_t i = 1; i < t.size(); ++i) {
        spec.seeds.push_back(line.uint<std::uint64_t>(t[i], "seed"));
      }
    } else if (d == "columns") {
      shape(line, "columns KV...");
      for (std::size_t i = 1; i < t.size(); ++i) {
        if (!scalar_index(t[i])) line.fail("unknown kv name '" + t[i] + "'");
        spec.columns.push_back(t[i]);
      }
    } else if (d == "series") {
      shape(line, "series NAME PARAM V,V,... [FLAG...]");
      if (index_of(spec.series, t[1]) < spec.series.size()) {
        line.fail("duplicate series '" + t[1] + "'");
      }
      FigureSeries s{t[1], t[2], {}, {t.begin() + 4, t.end()}, line.number};
      for (const std::string_view v : text::split(t[3], ',')) {
        if (v.empty()) line.fail("empty value in '" + t[3] + "'");
        if (std::count(s.values.begin(), s.values.end(), v) != 0) {
          line.fail("duplicate value '" + std::string(v) + "'");
        }
        s.values.emplace_back(v);
      }
      spec.series.push_back(std::move(s));
    } else if (d == "anchor") {
      shape(line, "anchor NAME SERIES V COLUMN PAPER");
      if (index_of(spec.anchors, t[1]) < spec.anchors.size()) {
        line.fail("duplicate anchor '" + t[1] + "'");
      }
      FigureAnchor a{t[1], find(line, spec.series, t[2], "series"), 0,
                     column(line, t[4]), line.real(t[5])};
      const auto& values = spec.series[a.series].values;
      a.point = static_cast<std::size_t>(
          std::find(values.begin(), values.end(), t[3]) - values.begin());
      if (a.point == values.size()) {
        line.fail("series " + t[2] + " has no point '" + t[3] + "'");
      }
      spec.anchors.push_back(a);
    } else if (d == "monotone") {
      shape(line, "monotone SERIES X Y rises|falls");
      p.kind = FigurePredicate::Kind::monotone;
      p.a = find(line, spec.series, t[1], "series");
      p.x = axis(line, t[2], {p.a});
      p.y = axis(line, t[3], {p.a});
      if (t[4] != "rises" && t[4] != "falls") {
        line.fail("expected rises or falls, got '" + t[4] + "'");
      }
      p.rises = t[4] == "rises";
      spec.predicates.push_back(std::move(p));
    } else if (d == "dominates") {
      shape(line, "dominates A B X Y");
      p.kind = FigurePredicate::Kind::dominates;
      p.a = find(line, spec.series, t[1], "series");
      p.b = find(line, spec.series, t[2], "series");
      p.x = axis(line, t[3], {p.a, p.b});
      p.y = axis(line, t[4], {p.a, p.b});
      spec.predicates.push_back(std::move(p));
    } else if (d == "converges") {
      shape(line, "converges A B Y TOL");
      p.kind = FigurePredicate::Kind::converges;
      p.a = find(line, spec.series, t[1], "series");
      p.b = find(line, spec.series, t[2], "series");
      p.y = {t[3], column(line, t[3])};
      p.tolerance = tolerance(line, t[4]);
      spec.predicates.push_back(std::move(p));
    } else if (d == "within") {
      shape(line, "within ANCHOR TOL");
      p.kind = FigurePredicate::Kind::within;
      p.a = find(line, spec.anchors, t[1], "anchor");
      p.tolerance = tolerance(line, t[2]);
      spec.predicates.push_back(std::move(p));
    } else {
      line.fail("unknown directive '" + d +
                "' (expected title, base, seeds, columns, series, anchor, "
                "monotone, dominates, converges or within)");
    }
  }
};

/// A kv value as the table prints it: integers whole, others to six
/// significant digits, as --kv prints them.
std::string number(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 0x1p53) os.precision(17);
  os << v;
  return os.str();
}

std::string cell(const stats::RunningStat& s) {
  return s.count() > 1 ? number(s.mean()) + " ± " + number(s.ci95_half_width())
                       : number(s.mean());
}

/// The (x, y) means of series `s` along `p`'s axes, sorted by x.
std::vector<std::pair<double, double>> curve(const FigureSpec& spec,
                                            const FigureData& data,
                                            std::size_t s,
                                            const FigurePredicate& p) {
  const auto value = [&](const FigureAxis& axis, std::size_t point) {
    return axis.column ? data[s][point][*axis.column].mean()
                       : *text::parse_double(spec.series[s].values[point]);
  };
  std::vector<std::pair<double, double>> xy;
  for (std::size_t i = 0; i < spec.series[s].values.size(); ++i) {
    xy.emplace_back(value(p.x, i), value(p.y, i));
  }
  std::stable_sort(xy.begin(), xy.end(), [](const auto& l, const auto& r) {
    return l.first < r.first;
  });
  return xy;
}

/// `curve`'s y at `x`, linearly interpolated; nullopt outside its x range.
std::optional<double> interpolate(
    const std::vector<std::pair<double, double>>& curve, double x) {
  if (curve.empty() || x < curve.front().first || x > curve.back().first) {
    return std::nullopt;
  }
  std::size_t i = 0;
  while (i + 1 < curve.size() && curve[i + 1].first < x) ++i;
  if (i + 1 == curve.size() || curve[i + 1].first == curve[i].first) {
    return curve[i].second;
  }
  const auto& [x0, y0] = curve[i];
  const auto& [x1, y1] = curve[i + 1];
  return y0 + (x - x0) / (x1 - x0) * (y1 - y0);
}

std::string at(double x, double y) { return number(y) + " at " + number(x); }

}  // namespace

FigureSpec parse_figure(std::istream& is) {
  Parser parser;
  text::for_each_line(is, "figure", [&parser](const text::Line& line) {
    parser.handle(line);
  });
  const FigureSpec& spec = parser.spec;
  const char* missing = spec.title.empty()     ? "title"
                        : spec.columns.empty() ? "columns"
                        : spec.series.empty()  ? "series"
                                               : nullptr;
  if (missing != nullptr) {
    throw std::runtime_error("figure: no " + std::string(missing) + " line");
  }
  return std::move(parser.spec);
}

FigureSpec load_figure_file(const std::string& path) {
  return text::load_file(path, "figure",
                         [](std::istream& is) { return parse_figure(is); });
}

std::optional<std::vector<ExperimentConfig>> figure_configs(
    const FigureSpec& spec, std::string& error) {
  std::vector<ExperimentConfig> configs;
  const std::size_t runs = std::max<std::size_t>(spec.seeds.size(), 1);
  for (const FigureSeries& s : spec.series) {
    for (const std::string& v : s.values) {
      for (std::size_t k = 0; k < runs; ++k) {
        std::vector<std::string> args = spec.base;
        args.insert(args.end(), s.flags.begin(), s.flags.end());
        args.insert(args.end(), {"--" + s.param, v});
        if (!spec.seeds.empty()) {
          args.insert(args.end(), {"--seed", std::to_string(spec.seeds[k])});
        }
        std::optional<ExperimentConfig> config = parse_point(args, error);
        if (!config) {
          error = "figure line " + std::to_string(s.line) + " (series " +
                  s.name + "): " + error;
          return std::nullopt;
        }
        configs.push_back(std::move(*config));
      }
    }
  }
  return configs;
}

FigureData figure_data(const FigureSpec& spec,
                       const std::vector<ExperimentResult>& results) {
  const std::size_t runs = std::max<std::size_t>(spec.seeds.size(), 1);
  FigureData data;
  auto result = results.begin();
  for (const FigureSeries& s : spec.series) {
    auto& points = data.emplace_back(s.values.size());
    for (auto& columns : points) {
      columns.resize(spec.columns.size());
      for (std::size_t k = 0; k < runs; ++k, ++result) {
        const auto rows = run_scalars(*result);
        for (std::size_t c = 0; c < columns.size(); ++c) {
          columns[c].add(std::visit(
              [](auto v) { return static_cast<double>(v); },
              rows[*scalar_index(spec.columns[c])].value));
        }
      }
    }
  }
  return data;
}

std::string format_figure(const FigureSpec& spec, const FigureData& data) {
  const auto point = [&spec](std::size_t s, std::size_t i) {
    return spec.series[s].param + "=" + spec.series[s].values[i];
  };
  Table table(spec.seeds.size() > 1
                  ? spec.title + " (mean ± ci95 over " +
                        std::to_string(spec.seeds.size()) + " seeds)"
                  : spec.title);
  std::vector<std::string> header = {"series", "point"};
  header.insert(header.end(), spec.columns.begin(), spec.columns.end());
  table.header(header);
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    for (std::size_t i = 0; i < data[s].size(); ++i) {
      std::vector<std::string> row = {spec.series[s].name, point(s, i)};
      for (const stats::RunningStat& v : data[s][i]) row.push_back(cell(v));
      table.row(row);
    }
  }
  std::ostringstream os;
  table.print(os);
  if (!spec.anchors.empty()) {
    Table anchors("anchors: paper vs measured");
    anchors.header(
        {"anchor", "series", "point", "column", "paper", "measured"});
    for (const FigureAnchor& a : spec.anchors) {
      anchors.row({a.name, spec.series[a.series].name, point(a.series, a.point),
                   spec.columns[a.column], number(a.paper),
                   cell(data[a.series][a.point][a.column])});
    }
    anchors.print(os);
  }
  return os.str();
}

std::vector<FigureCheck> check_figure(const FigureSpec& spec,
                                      const FigureData& data) {
  std::vector<FigureCheck> checks;
  for (const FigurePredicate& p : spec.predicates) {
    FigureCheck& c = checks.emplace_back(FigureCheck{&p, true, {}});
    const std::string& y = p.y.name;
    switch (p.kind) {
      case FigurePredicate::Kind::monotone: {
        const auto xy = curve(spec, data, p.a, p);
        c.detail = std::to_string(xy.size()) + " points";
        for (std::size_t i = 1; i < xy.size() && c.ok; ++i) {
          const double step = xy[i].second - xy[i - 1].second;
          if (p.rises ? step < 0.0 : step > 0.0) {
            c.ok = false;
            c.detail = y + (p.rises ? " falls" : " rises") + " from " +
                       at(xy[i - 1].first, xy[i - 1].second) + " to " +
                       at(xy[i].first, xy[i].second);
          }
        }
        break;
      }
      case FigurePredicate::Kind::dominates: {
        const auto b = curve(spec, data, p.b, p);
        std::size_t compared = 0, below = 0;
        for (const auto& [x, ya] : curve(spec, data, p.a, p)) {
          const std::optional<double> yb = interpolate(b, x);
          if (!yb) continue;
          ++compared;
          below += ya < *yb;
          if (ya > *yb) {
            c.ok = false;
            c.detail += (c.detail.empty() ? "" : "; ") + y + " " + at(x, ya) +
                        " > " + number(*yb);
          }
        }
        if (c.ok) {
          c.ok = below > 0;
          const std::string n = std::to_string(compared);
          c.detail = compared == 0 ? "no point inside the other series' x range"
                     : below == 0  ? "no point below, " + n + " equal"
                                   : std::to_string(below) + " of " + n +
                                        " points below";
        }
        break;
      }
      case FigurePredicate::Kind::converges: {
        const double ya = data[p.a].back()[*p.y.column].mean();
        const double yb = data[p.b].back()[*p.y.column].mean();
        c.ok = std::abs(ya - yb) <= p.tolerance;
        c.detail = y + " " + number(ya) + " vs " + number(yb);
        break;
      }
      case FigurePredicate::Kind::within: {
        const FigureAnchor& a = spec.anchors[p.a];
        const double m = data[a.series][a.point][a.column].mean();
        c.ok = std::abs(m - a.paper) <= p.tolerance;
        c.detail = "measured " + number(m) + ", paper " + number(a.paper);
        break;
      }
    }
  }
  return checks;
}

std::string format_checks(const std::vector<FigureCheck>& checks) {
  const auto failed = std::count_if(checks.begin(), checks.end(),
                                    [](const FigureCheck& c) { return !c.ok; });
  std::string out = "\npredicates: " + std::to_string(checks.size()) +
                    " checked, " + std::to_string(failed) + " failed\n";
  for (const FigureCheck& c : checks) {
    out += std::string(c.ok ? "  ok    " : "  FAIL  ") + c.predicate->text +
           "  (" + c.detail + ")\n";
  }
  return out;
}

}  // namespace esm::harness
