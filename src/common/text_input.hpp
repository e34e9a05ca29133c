// One reader for every text input: the number grammar shared by the CLI
// tools, and the line reader shared by the `.scn`, `.wl` and `.exp`
// grammars.
//
// Numbers are plain decimal, parsed whole with std::from_chars: no
// leading '+', no hex, no inf/nan, and no trailing characters. An
// integer must also fit its target type. Each line-oriented grammar
// strips `#` comments, splits on whitespace, skips blank lines, and
// reports errors as "<grammar> line N: ...".
#pragma once

#include <charconv>
#include <cstddef>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esm::text {

/// The whole of `token` as a finite decimal number, else nullopt.
std::optional<double> parse_double(std::string_view token);

/// The whole of `token` as a decimal integer that fits T, else nullopt.
template <typename T>
std::optional<T> parse_uint(std::string_view token) {
  static_assert(std::is_unsigned_v<T>);
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// "an integer in [lo, hi]": how every integer rejection names its range.
template <typename T>
std::string integer_range(T lo = 0, T hi = std::numeric_limits<T>::max()) {
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

/// `text` split at every `sep`; empty pieces are kept.
std::vector<std::string_view> split(std::string_view text, char sep);

/// The arguments of one directive, checked against its vocabulary.
struct KvArgs {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> flags;

  /// The value of `key`, or nullptr; never null for a required key.
  const std::string* find(std::string_view key) const;
  bool has_flag(std::string_view flag) const;
};

/// One non-blank line of a line-oriented input. The parse helpers throw
/// std::runtime_error("<grammar> line N: ...") on malformed tokens.
struct Line {
  const char* grammar = "";
  std::size_t number = 0;
  std::vector<std::string> tokens;
  /// Every node id must be below this (the run's node count, when known).
  NodeId num_nodes = kInvalidNode;

  [[noreturn]] void fail(const std::string& what) const;

  /// tokens[first..] joined with `sep`.
  std::string join(std::size_t first, const char* sep = " ") const;

  /// "30s" / "500ms" / "250us" / "2.5s". The unit is required: it keeps
  /// every input self-documenting.
  SimTime time(std::string_view token) const;

  double real(std::string_view token) const;

  /// A whole number in [0, hi]; `what` names it in the error.
  template <typename T>
  T uint(std::string_view token, const char* what,
         T hi = std::numeric_limits<T>::max()) const {
    const std::optional<T> v = parse_uint<T>(token);
    if (v && *v <= hi) return *v;
    fail(std::string(what) + " must be " + integer_range<T>(0, hi) +
         ", got '" + std::string(token) + "'");
  }

  /// A node id below num_nodes. kInvalidNode (4294967295) is reserved for
  /// "no node".
  NodeId node_id(std::string_view token) const {
    return uint<NodeId>(token, "node id", num_nodes - 1);
  }

  /// "0..4,9,12..13" -> {0,1,2,3,4,9,12,13}. A range is bounded by
  /// num_nodes before it expands.
  std::vector<NodeId> node_list(std::string_view text) const;

  /// The `key=value` arguments in tokens[first..]. Each key may appear
  /// once; every `required` key must, and any other key must be in
  /// `optional`. Bare tokens must be one of `flags`.
  KvArgs kv(std::size_t first, const char* directive,
            std::initializer_list<const char*> required,
            std::initializer_list<const char*> optional,
            std::initializer_list<const char*> flags = {}) const;
};

/// Calls `handle` for every non-blank line of `is`, numbered from 1; its
/// node ids must be below `num_nodes`.
void for_each_line(std::istream& is, const char* grammar,
                   const std::function<void(const Line&)>& handle,
                   NodeId num_nodes = kInvalidNode);

/// Opens `path` and returns parse(stream). Throws "cannot open <grammar>
/// file: PATH", and prefixes parse errors with "PATH: ".
template <typename Parse>
auto load_file(const std::string& path, const char* grammar, Parse parse) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open " + std::string(grammar) +
                             " file: " + path);
  }
  try {
    return parse(file);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace esm::text
