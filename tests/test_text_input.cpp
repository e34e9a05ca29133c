// Tests for the shared text reader (src/common/text_input): the number
// grammar every tool uses, the line reader behind the `.scn`, `.wl` and
// `.exp` grammars, and every canned input file loaded from disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/text_input.hpp"
#include "expect/expect_text.hpp"
#include "harness/scenario_text.hpp"
#include "load/workload_text.hpp"

namespace esm::text {
namespace {

TEST(TextInput, NumberGrammarIsPlainDecimal) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-3"), -3.0);
  EXPECT_EQ(parse_double("1e2"), 100.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
  for (const char* bad : {"", "+1", "0x10", "1.5x", " 1", "inf", "nan",
                          "1e400"}) {
    EXPECT_FALSE(parse_double(bad)) << bad;
  }
  EXPECT_EQ(parse_uint<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_uint<std::uint64_t>("18446744073709551615"),
            18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", "0x10", "1.0", "1e3", "4294967296",
                          "7 "}) {
    EXPECT_FALSE(parse_uint<std::uint32_t>(bad)) << bad;
  }
  EXPECT_EQ(integer_range<std::uint32_t>(1), "an integer in [1, 4294967295]");
}

/// The lines `text` hands to for_each_line, as "N:token,token".
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for_each_line(is, "demo", [&](const Line& line) {
    out.push_back(std::to_string(line.number) + ":" + line.join(0, ","));
  });
  return out;
}

TEST(TextInput, LineReaderStripsCommentsAndNumbersLines) {
  EXPECT_EQ(lines_of("# header\n\n  a  b # note\n\t\nc\n"),
            (std::vector<std::string>{"3:a,b", "5:c"}));
}

TEST(TextInput, LineHelpers) {
  Line line;
  line.grammar = "demo";
  line.number = 7;
  line.tokens = {"cmd", "x=1", "flag", "y=2.5s"};
  EXPECT_EQ(line.time("2.5s"), 2500 * kMillisecond);
  EXPECT_EQ(line.time("250us"), 250);
  EXPECT_EQ(line.node_list("0..2,9"), (std::vector<NodeId>{0, 1, 2, 9}));
  const KvArgs args = line.kv(1, "cmd", {"x"}, {"y"}, {"flag"});
  EXPECT_EQ(*args.find("x"), "1");
  EXPECT_EQ(*args.find("y"), "2.5s");
  EXPECT_TRUE(args.has_flag("flag"));
  try {
    line.kv(1, "cmd", {"x"}, {});
    FAIL() << "flag and y= are outside the vocabulary";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "demo line 7: cmd: expected key=value, got 'flag'");
  }
  try {
    line.kv(1, "cmd", {"z"}, {"x", "y"}, {"flag"});
    FAIL() << "z= is required";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "demo line 7: cmd needs z=...");
  }
}

TEST(TextInput, LoadFileNamesThePath) {
  try {
    load_file("/nonexistent/in.scn", "scenario",
              [](std::istream&) { return 0; });
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cannot open scenario file: /nonexistent/in.scn");
  }
}

/// Every file under `dir` (relative to the source tree) with extension
/// `ext`, sorted.
std::vector<std::string> canned(const char* dir, const char* ext) {
  std::vector<std::string> out;
  const std::filesystem::path root =
      std::filesystem::path(ESM_SOURCE_DIR) / dir;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().extension() == ext) out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The canned inputs (CI's expect-matrix and the benchmark's workloads)
// parse in place, so a grammar change that breaks one fails here rather
// than in a later end-to-end run.
TEST(CannedInputs, EveryFileLoads) {
  std::size_t files = 0;
  for (const char* dir : {"examples", "esmbench/workloads"}) {
    for (const std::string& path : canned(dir, ".scn")) {
      EXPECT_FALSE(harness::load_scenario_file(path).events.empty()) << path;
      ++files;
    }
    for (const std::string& path : canned(dir, ".wl")) {
      EXPECT_FALSE(load::load_workload_file(path).publishers.empty()) << path;
      ++files;
    }
    for (const std::string& path : canned(dir, ".exp")) {
      EXPECT_FALSE(expect::load_expectation_file(path).empty()) << path;
      ++files;
    }
  }
  // 4 .scn + 2 .wl + 5 .exp in examples/; 4 .scn + 10 .exp in esmbench/.
  EXPECT_EQ(files, 25u);
}

}  // namespace
}  // namespace esm::text
