#include "expect/expect_text.hpp"

#include <sstream>
#include <utility>

#include "common/text_input.hpp"

namespace esm::expect {
namespace {

double parse_fraction(const text::Line& line, const std::string& token,
                      const char* key) {
  const double v = line.real(token);
  if (v < 0.0 || v > 1.0) {
    line.fail(std::string(key) + " must be a fraction in [0, 1], got '" +
              token + "'");
  }
  return v;
}

std::string parse_phase(const text::Line& line, const text::KvArgs& args) {
  const std::string* v = args.find("phase");
  if (v == nullptr) return {};
  if (v->empty()) line.fail("phase label must not be empty");
  if (v->find(',') != std::string::npos) {
    line.fail("phase label must not contain commas: '" + *v + "'");
  }
  return *v;
}

Cmp parse_cmp(const text::Line& line, const std::string& token) {
  const std::pair<const char*, Cmp> cmps[] = {
      {"<=", Cmp::le}, {">=", Cmp::ge}, {"<", Cmp::lt},
      {">", Cmp::gt},  {"==", Cmp::eq}, {"!=", Cmp::ne}};
  for (const auto& [symbol, cmp] : cmps) {
    if (token == symbol) return cmp;
  }
  line.fail("metric: unknown comparison '" + token +
            "' (expected <=, >=, <, >, == or !=)");
}

void parse_line(const text::Line& line, ExpectationSet& set) {
  Expectation e;
  e.line = line.number;
  e.text = line.join(0);
  const std::string& predicate = line.tokens[0];

  if (predicate == "deliver") {
    const text::KvArgs args =
        line.kv(1, "deliver", {"min"}, {"phase", "within"});
    e.kind = Kind::deliver;
    e.phase = parse_phase(line, args);
    e.min_fraction = parse_fraction(line, *args.find("min"), "min");
    if (const std::string* w = args.find("within")) {
      e.within = line.time(*w);
      if (e.within <= 0) line.fail("within must be > 0");
    }
  } else if (predicate == "latency") {
    const text::KvArgs args = line.kv(1, "latency", {"max"}, {"phase", "p"});
    e.kind = Kind::latency;
    e.phase = parse_phase(line, args);
    if (const std::string* p = args.find("p")) {
      if (*p == "mean") {
        e.use_mean = true;
      } else {
        e.percentile = line.real(*p);
        if (e.percentile <= 0.0 || e.percentile > 100.0) {
          line.fail("percentile must be in (0, 100] or 'mean', got '" + *p +
                    "'");
        }
      }
    }
    e.max_ms = to_ms(line.time(*args.find("max")));
  } else if (predicate == "recovery") {
    const text::KvArgs args =
        line.kv(1, "recovery", {}, {"max_stalled", "max_gave_up",
                                    "max_episodes", "max_iwants", "max_ms"});
    if (args.pairs.empty()) {
      line.fail("recovery needs at least one bound (max_stalled=, "
                "max_gave_up=, max_episodes=, max_iwants= or max_ms=)");
    }
    // Each bound becomes its own expectation so every bound gets its own
    // pass/fail row in the report.
    for (const auto& [k, v] : args.pairs) {
      Expectation r = e;
      r.kind = Kind::recovery;
      r.text = "recovery " + k + "=" + v;
      if (k == "max_ms") {
        r.recovery_stat = RecoveryStat::max_ms;
        r.recovery_bound = to_ms(line.time(v));
      } else {
        r.recovery_stat = k == "max_stalled"   ? RecoveryStat::stalled
                          : k == "max_gave_up" ? RecoveryStat::gave_up
                          : k == "max_episodes" ? RecoveryStat::episodes
                                                : RecoveryStat::max_iwants;
        r.recovery_bound =
            static_cast<double>(line.uint<std::uint64_t>(v, k.c_str()));
      }
      set.items.push_back(std::move(r));
    }
    return;
  } else if (predicate == "structure") {
    const text::KvArgs args =
        line.kv(1, "structure", {"min_share"}, {"phase", "top", "rank"});
    e.kind = Kind::structure;
    e.phase = parse_phase(line, args);
    e.min_share = parse_fraction(line, *args.find("min_share"), "min_share");
    if (const std::string* t = args.find("top")) {
      e.top_fraction = parse_fraction(line, *t, "top");
      if (e.top_fraction <= 0.0) line.fail("top must be > 0");
    }
    if (const std::string* r = args.find("rank")) {
      if (*r == "self") {
        e.rank = RankSource::self;
      } else if (*r == "oracle") {
        e.rank = RankSource::oracle;
      } else {
        line.fail("structure: rank must be 'self' or 'oracle', got '" + *r +
                  "'");
      }
    }
  } else if (predicate == "jaccard") {
    const text::KvArgs args = line.kv(1, "jaccard", {"min"}, {"phase"});
    e.kind = Kind::jaccard;
    e.phase = parse_phase(line, args);
    e.min_jaccard = parse_fraction(line, *args.find("min"), "min");
  } else if (predicate == "tree") {
    const text::KvArgs args =
        line.kv(1, "tree", {}, {"phase", "relay_within", "max_depth"},
                {"complete", "unique"});
    e.kind = Kind::tree;
    e.phase = parse_phase(line, args);
    e.check_complete = args.has_flag("complete");
    e.check_unique = args.has_flag("unique");
    if (const std::string* r = args.find("relay_within")) {
      // `1r` / `2.5r` = gossip rounds (resolved against the run's
      // retransmission period at evaluation time); otherwise a time.
      if (!r->empty() && r->back() == 'r') {
        e.relay_within_rounds = line.real(r->substr(0, r->size() - 1));
        if (e.relay_within_rounds <= 0.0) {
          line.fail("relay_within rounds must be > 0");
        }
      } else {
        e.relay_within = line.time(*r);
        if (e.relay_within <= 0) line.fail("relay_within must be > 0");
      }
    }
    if (const std::string* d = args.find("max_depth")) {
      e.max_depth = line.uint<std::uint64_t>(*d, "max_depth");
      if (e.max_depth == 0) line.fail("max_depth must be > 0");
    }
    if (!e.check_complete && !e.check_unique && e.relay_within == 0 &&
        e.relay_within_rounds == 0.0 && e.max_depth == 0) {
      line.fail("tree needs at least one check (complete, unique, "
                "relay_within= or max_depth=)");
    }
  } else if (predicate == "metric") {
    if (line.tokens.size() != 4) {
      line.fail("metric needs 'metric NAME CMP VALUE'");
    }
    e.kind = Kind::metric;
    e.metric_name = line.tokens[1];
    e.cmp = parse_cmp(line, line.tokens[2]);
    e.metric_value = line.real(line.tokens[3]);
  } else {
    line.fail("unknown predicate '" + predicate + "'");
  }
  set.items.push_back(std::move(e));
}

}  // namespace

ExpectationSet parse_expectations(std::istream& is) {
  ExpectationSet set;
  text::for_each_line(is, "expectation", [&](const text::Line& line) {
    parse_line(line, set);
  });
  return set;
}

ExpectationSet parse_expectations(const std::string& text) {
  std::istringstream stream(text);
  return parse_expectations(stream);
}

ExpectationSet load_expectation_file(const std::string& path) {
  ExpectationSet set = text::load_file(
      path, "expectation",
      [](std::istream& is) { return parse_expectations(is); });
  for (Expectation& e : set.items) e.file = path;
  return set;
}

}  // namespace esm::expect
