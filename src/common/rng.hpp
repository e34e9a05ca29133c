// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the library (topology generation, transport
// loss, gossip target selection, strategy coin flips, ...) draws from its own
// `Rng` stream derived from the experiment seed, so that experiments are
// bit-for-bit reproducible and components can be reseeded independently.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 as its authors recommend. It is not cryptographic; message
// identifiers only need to be unique with high probability (paper §3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esm {

/// splitmix64 step; used for seeding and for cheap hash mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also be handed to
/// <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xdeadbeefcafef00dULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 uniform bits.
  result_type operator()();

  /// Derives an independent child stream; `label` distinguishes siblings.
  /// Deterministic: same parent state + label => same child.
  Rng split(std::uint64_t label) const;

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Standard normal variate (Box-Muller; one value per call).
  double normal();

  /// Exponential variate with the given mean.
  double exponential(double mean);

  /// Fresh probabilistically-unique message identifier.
  MsgId next_msg_id();

  /// Samples `k` distinct elements from `items` uniformly without
  /// replacement. If k >= items.size(), returns a shuffled copy of all.
  template <typename T>
  std::vector<T> sample(const std::vector<T>& items, std::size_t k) {
    return sample(items.data(), items.size(), k);
  }

  /// Pointer-range overload (CSR adjacency rows and other borrowed spans).
  /// Draw-for-draw identical to the vector overload on the same elements,
  /// so switching a caller from an owned copy to a borrowed view cannot
  /// change any downstream random sequence.
  template <typename T>
  std::vector<T> sample(const T* items, std::size_t n, std::size_t k) {
    std::vector<T> out;
    sample_into(items, n, k, out);
    return out;
  }

  /// sample() into a caller-owned vector, whose capacity is reused: the
  /// same below() calls over the same population order, so callers can
  /// move between the two freely. `items` must not point into `out`.
  template <typename T>
  void sample_into(const T* items, std::size_t n, std::size_t k,
                   std::vector<T>& out) {
    out.assign(items, items + n);
    const std::size_t take = k < n ? k : n;
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(below(n - i));
      std::swap(out[i], out[j]);
    }
    out.resize(take);
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace esm
