// One-way delay models consumed by the simulated transport.
//
// The production model (`MatrixLatencyModel`) wraps the precomputed
// client-to-client routed-path matrix; the constant and symmetric-random
// models exist for unit tests and micro-benchmarks.
#pragma once

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/routing.hpp"

namespace esm::net {

/// Abstract one-way propagation delay between two protocol participants.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  /// One-way delay in microseconds from `a` to `b` (a != b).
  virtual SimTime one_way(NodeId a, NodeId b) const = 0;
};

/// Same delay between every pair.
class ConstantLatencyModel final : public LatencyModel {
 public:
  explicit ConstantLatencyModel(SimTime delay) : delay_(delay) {
    ESM_CHECK(delay >= 0, "latency must be non-negative");
  }
  SimTime one_way(NodeId, NodeId) const override { return delay_; }

 private:
  SimTime delay_;
};

/// Delay read from a dense matrix (normally the routed underlay paths).
class MatrixLatencyModel final : public LatencyModel {
 public:
  explicit MatrixLatencyModel(ClientMetrics metrics)
      : metrics_(std::move(metrics)) {}

  SimTime one_way(NodeId a, NodeId b) const override {
    return metrics_.latency(a, b);
  }

  const ClientMetrics& metrics() const { return metrics_; }

 private:
  ClientMetrics metrics_;
};

/// Delay answered by a PathModel the caller keeps alive (dense matrix or
/// on-demand rows — whatever make_path_model selected). Unlike
/// MatrixLatencyModel it does not copy the metrics, so it is the adapter
/// the harness uses for large N.
class PathLatencyModel final : public LatencyModel {
 public:
  explicit PathLatencyModel(const PathModel& paths) : paths_(paths) {}

  SimTime one_way(NodeId a, NodeId b) const override {
    return paths_.latency(a, b);
  }

  const PathModel& paths() const { return paths_; }

 private:
  const PathModel& paths_;
};

/// Symmetric random pairwise delays in [lo, hi] — a cheap stand-in for a
/// routed topology in tests that only need latency *diversity*.
class RandomLatencyModel final : public LatencyModel {
 public:
  RandomLatencyModel(std::uint32_t n, SimTime lo, SimTime hi, std::uint64_t seed);
  SimTime one_way(NodeId a, NodeId b) const override;

 private:
  std::uint32_t n_;
  std::vector<SimTime> delays_;  // upper-triangular, symmetric
};

}  // namespace esm::net
