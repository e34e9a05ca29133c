// Text format for fault scenarios (--scenario files).
//
// Line-based: one event per line, `#` starts a comment, blank lines are
// ignored. Each event is `<time> <command> [args...]`, where <time> is a
// number with a unit suffix (us, ms, s) and is relative to the
// *measurement start* (end of warm-up). Commands:
//
//   <t> phase <label>                    new measurement window (label =
//                                        rest of line; no commas)
//   <t> crash best N | worst N | random N | nodes a,b,c
//   <t> recover all | nodes a,b,c | best N | worst N | random N
//   <t> partition a,b,c [| d,e,f]...     listed groups split off; all
//                                        unlisted nodes form one side
//   <t> heal                             remove the partition
//   <t> loss rate=P [for=DUR] [link=A-B]
//   <t> latency factor=F [for=DUR] [link=A-B]
//   <t> churn rate=R [for=DUR]           R in events/node/second
//   <t> noise to=O [over=DUR]            ramp monitor noise to O
//
// Node lists accept ranges: `nodes 0..4,9` = {0,1,2,3,4,9}. `for=0s` (or
// omitting `for=`) makes a burst permanent. Example:
//
//   # §6.3: kill the five best nodes mid-run
//   0s    phase baseline
//   60s   phase kill
//   60s   crash best 5
//   120s  phase recovered
#pragma once

#include <iosfwd>
#include <string>

#include "fault/scenario.hpp"

namespace esm::harness {

/// Parses scenario text. Throws std::runtime_error with a line number on
/// malformed input, including a node id not below `num_nodes`. The
/// returned script is sorted but not yet validated against a node count
/// (the experiment does that).
fault::ScenarioScript parse_scenario(std::istream& is,
                                     NodeId num_nodes = kInvalidNode);

/// Convenience overload for string literals (tests, canned workloads).
fault::ScenarioScript parse_scenario(const std::string& text);

/// Reads and parses a scenario file; throws std::runtime_error when the
/// file cannot be opened or parsed.
fault::ScenarioScript load_scenario_file(const std::string& path,
                                         NodeId num_nodes = kInvalidNode);

}  // namespace esm::harness
