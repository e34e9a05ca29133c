// Text format for workload specs (the `.wl` companion of `.scn`):
//
//   # one directive per line, '#' comments
//   duration 20s
//   limit 5000                      # optional cap on generated arrivals
//   topic feeds fraction=0.25       # random 25% of nodes
//   topic ops nodes=0..7,32         # explicit member list
//   publisher poisson rate=40 topic=feeds
//   publisher fixed rate=10 node=3 payload=512
//   publisher burst rate=200 on=250ms off=750ms start=2s stop=12s
//
// Topics are referenced by name and must be declared before use. Times
// require a unit (us/ms/s), matching scenario scripts. A directive takes
// only the keys shown above, each at most once: an unknown or repeated
// key is an error. Numbers are plain decimal (a leading '+' and hex are
// rejected), and integers must fit their field.
#pragma once

#include <iosfwd>
#include <string>

#include "load/workload.hpp"

namespace esm::load {

/// Parses a workload script. Throws std::runtime_error with a
/// "workload line N: ..." diagnostic on the first syntax error or node id
/// not below `num_nodes`. The other checks against the node count happen
/// later in WorkloadSpec::validate.
WorkloadSpec parse_workload(std::istream& is, NodeId num_nodes = kInvalidNode);
WorkloadSpec parse_workload(const std::string& text);

/// Reads and parses `path`; errors are prefixed with the path.
WorkloadSpec load_workload_file(const std::string& path,
                                NodeId num_nodes = kInvalidNode);

}  // namespace esm::load
