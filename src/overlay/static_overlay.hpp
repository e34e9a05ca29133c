// Static symmetric overlay: a fixed random graph used as the membership
// substrate when per-link protocol state must be able to converge.
//
// The Cyclon sampler is the right substrate for the paper's baseline
// protocol (uniform, continuously mixing), but adaptive per-link state —
// the Plumtree-style strategy — assumes the stable, *symmetric* partial
// views of a HyParView-like membership layer: if A gossips to B, B can
// gossip and advertise back to A, and the pair persists long enough for
// prune/graft feedback to settle. This module provides that substrate:
// a connected symmetric random graph built once, plus a PeerSampler view
// over each node's fixed neighbor set.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "overlay/peer_sampler.hpp"

namespace esm::overlay {

/// Builds a connected symmetric random graph with average degree ~`degree`:
/// a Hamiltonian ring (connectivity) plus random chords (randomness), no
/// parallel edges. Returns adjacency lists indexed by node.
std::vector<std::vector<NodeId>> build_symmetric_overlay(std::uint32_t n,
                                                         std::uint32_t degree,
                                                         Rng rng);

/// Compressed-sparse-row view of a whole overlay's neighbor sets: one
/// offsets array (n+1 entries) plus one flat neighbor array shared by all
/// nodes. Replaces per-node `std::vector<NodeId>` copies — at 1M nodes and
/// degree ~15 the per-node vectors cost ~24 bytes of header plus a heap
/// block each, and a second copy inside every sampler; the CSR stores the
/// same graph once, contiguously. Row order preserves the builder's
/// adjacency order, so samplers draw the identical random sequence over a
/// row as they did over the per-node vector it came from.
class CsrAdjacency {
 public:
  CsrAdjacency() = default;

  /// Compresses adjacency lists (index = node) into CSR form.
  static CsrAdjacency from_lists(
      const std::vector<std::vector<NodeId>>& lists);

  std::uint32_t num_nodes() const {
    return offsets_.empty()
               ? 0
               : static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  const NodeId* row(NodeId node) const {
    return neighbors_.data() + offsets_[node];
  }
  std::size_t degree(NodeId node) const {
    return offsets_[node + 1] - offsets_[node];
  }

  /// Directed entries (= 2x undirected edges for symmetric graphs).
  std::size_t num_entries() const { return neighbors_.size(); }

  std::size_t bytes() const {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           neighbors_.capacity() * sizeof(NodeId);
  }

 private:
  std::vector<std::uint64_t> offsets_;  // n + 1 entries
  std::vector<NodeId> neighbors_;
};

/// PeerSampler over a fixed neighbor set. sample(f) returns a uniform
/// random subset; with f >= neighbors the full set is returned (shuffled),
/// which is the Plumtree "cover every neighbor" mode.
///
/// Two constructions: owning (standalone tests hand it a vector) and
/// borrowing (the harness hands it one CSR row; the CsrAdjacency must
/// outlive the sampler). Both sample draw-for-draw identically.
class StaticNeighborSampler final : public PeerSampler {
 public:
  StaticNeighborSampler(std::vector<NodeId> neighbors, Rng rng)
      : owned_(std::move(neighbors)),
        data_(owned_.data()),
        size_(owned_.size()),
        rng_(rng) {}

  StaticNeighborSampler(const CsrAdjacency& adj, NodeId self, Rng rng)
      : data_(adj.row(self)), size_(adj.degree(self)), rng_(rng) {}

  StaticNeighborSampler(const StaticNeighborSampler&) = delete;
  StaticNeighborSampler& operator=(const StaticNeighborSampler&) = delete;

  void sample_into(std::size_t f, std::vector<NodeId>& out) override {
    rng_.sample_into(data_, size_, f, out);
  }

  std::size_t degree() const { return size_; }

 private:
  std::vector<NodeId> owned_;  // empty in the borrowing construction
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
  Rng rng_;
};

}  // namespace esm::overlay
