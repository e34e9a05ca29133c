// Peer sampling service interface (paper §3.1: "assumes the availability of
// a peer sampling service [10] providing an uniform sample of f other nodes
// with the PeerSample(f) primitive").
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace esm::overlay {

/// Uniform random peer sampling, one instance per node.
class PeerSampler {
 public:
  virtual ~PeerSampler() = default;

  /// Replaces `out` with up to `f` distinct peers, approximately uniform
  /// over the live membership; fewer when the local view is small. Hot
  /// callers pass a scratch vector they keep, so a relay allocates nothing.
  virtual void sample_into(std::size_t f, std::vector<NodeId>& out) = 0;

  /// sample_into() into a fresh vector, for tests and cold callers.
  std::vector<NodeId> sample(std::size_t f) {
    std::vector<NodeId> out;
    sample_into(f, out);
    return out;
  }
};

}  // namespace esm::overlay
