// Deterministic, fast random number generation for simulations and optimizers.
//
// All stochastic components in stormtune (graph generation, workload
// assignment, the simulator's noise model, the Bayesian optimizer's candidate
// sampling and slice sampler) draw from this single generator type so that
// every experiment is reproducible from a single 64-bit seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace stormtune {

/// xoshiro256** generator seeded via splitmix64.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
/// be used with <random> distributions, but the convenience members below
/// avoid libstdc++'s distribution state for cross-platform determinism.
///
/// NOT THREAD-SAFE. Beyond the obvious data race on the xoshiro state,
/// normal() caches the second Box–Muller variate in the object: two threads
/// sharing an Rng would interleave cached and fresh draws in a
/// timing-dependent order, making results *silently* nondeterministic even
/// if the state words were atomic. Never share an Rng across threads.
/// Independent work takes its own stream via Rng::stream(seed, index),
/// which derives independent, reproducible generators from the same master
/// seed: the acquisition search's fixed candidate-generation shards each
/// draw from one, so a shard's draws depend only on its index.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the full 256-bit state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);

  /// A random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child generator; useful to give each component
  /// of a larger experiment its own stream without correlation.
  Rng split();

  /// Deterministic per-stream generator: an independent stream derived from
  /// (seed, stream_id) without touching any shared state. This is the ONLY
  /// supported way to hand randomness to thread-pool shards — results must
  /// depend on the shard index, never on the executing thread.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t next();

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace stormtune
