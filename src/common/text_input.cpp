#include "common/text_input.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <sstream>

namespace esm::text {

std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc() && ptr == end && std::isfinite(value)) return value;
  return std::nullopt;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  for (std::size_t start = 0;;) {
    const std::size_t at = text.find(sep, start);
    pieces.push_back(text.substr(start, at - start));
    if (at == std::string_view::npos) return pieces;
    start = at + 1;
  }
}

void Line::fail(const std::string& what) const {
  throw std::runtime_error(std::string(grammar) + " line " +
                           std::to_string(number) + ": " + what);
}

std::string Line::join(std::size_t first, const char* sep) const {
  std::string out;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    if (i > first) out += sep;
    out += tokens[i];
  }
  return out;
}

SimTime Line::time(std::string_view token) const {
  const std::size_t unit_pos =
      std::min(token.find_first_not_of("0123456789."), token.size());
  const std::string_view unit = token.substr(unit_pos);
  const SimTime scale = unit == "us"   ? kMicrosecond
                        : unit == "ms" ? kMillisecond
                        : unit == "s"  ? kSecond
                                       : 0;
  const std::optional<double> value = parse_double(token.substr(0, unit_pos));
  const std::string text(token);
  if (!value) fail("bad time '" + text + "'");
  if (scale == 0) fail("time '" + text + "' needs a unit (us, ms or s)");
  const double ticks = *value * static_cast<double>(scale);
  if (ticks >= static_cast<double>(kTimeInfinity)) {
    fail("time '" + text + "' is out of range");
  }
  return static_cast<SimTime>(ticks);
}

double Line::real(std::string_view token) const {
  if (const std::optional<double> value = parse_double(token)) return *value;
  fail("bad number '" + std::string(token) + "'");
}

std::vector<NodeId> Line::node_list(std::string_view text) const {
  std::vector<NodeId> out;
  for (const std::string_view item : split(text, ',')) {
    if (item.empty()) {
      fail("empty entry in node list '" + std::string(text) + "'");
    }
    const std::size_t dots = item.find("..");
    const NodeId lo = node_id(item.substr(0, dots));
    const NodeId hi =
        dots == std::string_view::npos ? lo : node_id(item.substr(dots + 2));
    if (lo > hi) fail("backwards range '" + std::string(item) + "'");
    // node_id() keeps hi below 4294967295, so ++id cannot wrap to 0.
    for (NodeId id = lo; id <= hi; ++id) out.push_back(id);
  }
  return out;
}

KvArgs Line::kv(std::size_t first, const char* directive,
                std::initializer_list<const char*> required,
                std::initializer_list<const char*> optional,
                std::initializer_list<const char*> flags) const {
  const auto known = [](std::initializer_list<const char*> names,
                        std::string_view word) {
    return std::find(names.begin(), names.end(), word) != names.end();
  };
  KvArgs args;
  const std::string name(directive);
  const std::string what = name + ": ";
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos && known(flags, token)) {
      if (args.has_flag(token)) fail(what + "duplicate flag '" + token + "'");
      args.flags.push_back(token);
    } else if (eq == std::string::npos || eq == 0) {
      fail(what + "expected key=value, got '" + token + "'");
    } else {
      const std::string key = token.substr(0, eq);
      if (args.find(key)) fail(what + "duplicate key '" + key + "='");
      args.pairs.emplace_back(key, token.substr(eq + 1));
    }
  }
  // A missing required key is reported before an unknown one: the
  // unknown key is often that required key, misspelled.
  for (const char* key : required) {
    if (!args.find(key)) fail(name + " needs " + key + "=...");
  }
  for (const auto& [key, value] : args.pairs) {
    if (!known(required, key) && !known(optional, key)) {
      fail(what + "unknown key '" + key + "='");
    }
  }
  return args;
}

const std::string* KvArgs::find(std::string_view key) const {
  for (const auto& [k, v] : pairs) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool KvArgs::has_flag(std::string_view flag) const {
  return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

void for_each_line(std::istream& is, const char* grammar,
                   const std::function<void(const Line&)>& handle,
                   NodeId num_nodes) {
  Line line{grammar, 0, {}, num_nodes};
  std::string text;
  while (std::getline(is, text)) {
    ++line.number;
    text.resize(std::min(text.find('#'), text.size()));
    line.tokens.clear();
    std::istringstream stream(text);
    for (std::string token; stream >> token;) line.tokens.push_back(token);
    if (!line.tokens.empty()) handle(line);
  }
}

}  // namespace esm::text
