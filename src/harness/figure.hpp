// Figure specs: a paper figure as data. A spec names the flags every
// point starts from, the series (each its own flags plus one varied flag
// and its values), the table columns by --kv name, the paper's anchor
// values and the shape predicates the figure must show. `esm_sweep
// --figure FILE` builds every point as a sweep point, runs them, prints
// one table and checks the predicates.
//
// Grammar, one directive per line (common/text_input: `#` comments,
// "figure line N: ..." errors). A directive may only name series,
// columns and anchors declared above it.
//
//   title TEXT...
//   base FLAG...                  esm_run flags of every point (repeatable)
//   seeds S...                    each point runs once per seed (optional)
//   columns KV...                 the table's columns: --kv names
//   series NAME PARAM V,V,... [FLAG...]
//       point V is base + FLAGs + --PARAM V (+ --seed S)
//   anchor NAME SERIES V COLUMN PAPER
//       prints the paper's value next to the measured one
//   monotone SERIES X Y rises|falls
//       as X grows, Y never falls (rises) or never rises (falls)
//   dominates A B X Y
//       at equal X, A's Y is never above B's and below it once at least;
//       B is linearly interpolated, and only A's points inside B's X
//       range count
//   converges A B Y TOL           |A's last Y - B's last Y| <= TOL
//   within ANCHOR TOL             |measured - paper| <= TOL
//
// X and Y name a column; monotone and dominates also take a series'
// PARAM when its values are numbers.
// With seeds, a cell is the mean over the seeds, which the predicates
// read, printed as "mean ± ci95".
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "stats/running.hpp"

namespace esm::harness {

struct FigureSeries {
  std::string name;
  /// The varied flag, without its dashes, and its values as written.
  std::string param;
  std::vector<std::string> values;
  std::vector<std::string> flags;
  std::size_t line = 0;
};

struct FigureAnchor {
  std::string name;
  std::size_t series = 0;
  std::size_t point = 0;
  std::size_t column = 0;
  double paper = 0.0;
};

/// An X or Y axis: a column, or (no column) the series' PARAM.
struct FigureAxis {
  std::string name;
  std::optional<std::size_t> column;
};

struct FigurePredicate {
  enum class Kind { monotone, dominates, converges, within };
  Kind kind = Kind::monotone;
  /// The line as written, for the report.
  std::string text;
  /// Series A and B; the anchor for `within`.
  std::size_t a = 0;
  std::size_t b = 0;
  FigureAxis x;
  FigureAxis y;
  bool rises = true;
  double tolerance = 0.0;
};

struct FigureSpec {
  std::string title;
  std::vector<std::string> base;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> columns;
  std::vector<FigureSeries> series;
  std::vector<FigureAnchor> anchors;
  std::vector<FigurePredicate> predicates;
};

/// Parses a spec; throws std::runtime_error("figure line N: ...").
FigureSpec parse_figure(std::istream& is);
FigureSpec load_figure_file(const std::string& path);

/// Every run of the figure, series by series, point by point, seed by
/// seed. On a flag error returns nullopt and sets `error` to one line
/// naming the series' line.
std::optional<std::vector<ExperimentConfig>> figure_configs(
    const FigureSpec& spec, std::string& error);

/// What a figure measured: [series][point][column], over the seeds.
using FigureData = std::vector<std::vector<std::vector<stats::RunningStat>>>;

/// Reads the columns from run_scalars of each result, given in
/// figure_configs order.
FigureData figure_data(const FigureSpec& spec,
                       const std::vector<ExperimentResult>& results);

/// The figure's table, then its anchors table when it has anchors.
std::string format_figure(const FigureSpec& spec, const FigureData& data);

struct FigureCheck {
  const FigurePredicate* predicate;
  bool ok;
  /// The numbers that decided it.
  std::string detail;
};

std::vector<FigureCheck> check_figure(const FigureSpec& spec,
                                      const FigureData& data);

/// One "ok"/"FAIL" line per check, after a count line.
std::string format_checks(const std::vector<FigureCheck>& checks);

}  // namespace esm::harness
