// Basic exact distributions over a uniform 64-bit generator.
//
// All samplers here are *exact* (rejection-based where needed), never
// approximations: the count-based simulator IS the Markov chain the paper
// analyzes, so distributional error would silently bias every experiment.
//
// Every sampler is a template over the generator engine, instantiated for
// the two engines the library ships (definitions live in distributions.cpp):
//
//   * Xoshiro256pp  — the sequential default; every pre-existing stream
//     (golden trajectories, StreamFactory) runs on it, bit-for-bit as
//     before the generic refactor.
//   * PhiloxStream  — the counter-based engine (rng/philox.hpp) behind the
//     batched stepping modes; same sampler algorithms, different uniform
//     source, so count-based stepping can consume block-generated Philox
//     uniforms with zero sampler divergence.
//
// A `Gen` must provide: result_type = uint64_t, operator()() over the full
// 64-bit range, and next_double() in [0, 1).
#pragma once

#include <cstdint>

#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::rng {

/// Uniform integer in [0, bound) via Lemire's multiply-shift with rejection
/// (Lemire 2019, "Fast Random Integer Generation in an Interval"): the
/// biased fringe of the multiply-shift map is rejected, so every value is
/// EXACTLY equally likely — no modulo bias. This matters because per-agent
/// stepping draws billions of node samples through this function; even a
/// 2^-11 per-draw bias would be statistically visible at paper scale. The
/// rejection behavior is pinned by tests (worst-case-bound chi-square and
/// an output-for-output replay of the published algorithm in
/// tests/rng/test_distributions.cpp). bound must be nonzero.
template <class Gen>
std::uint64_t uniform_below(Gen& gen, std::uint64_t bound);

/// Uniform integer in [lo, hi] inclusive.
template <class Gen>
std::uint64_t uniform_in(Gen& gen, std::uint64_t lo, std::uint64_t hi);

/// Uniform double in [0, 1).
template <class Gen>
double uniform01(Gen& gen);

/// Bernoulli(p) trial; p is clamped to [0, 1].
template <class Gen>
bool bernoulli(Gen& gen, double p);

/// Standard normal via the Marsaglia polar method (exact up to double
/// rounding; no tail truncation).
template <class Gen>
double standard_normal(Gen& gen);

/// Exponential(rate = 1) via inversion.
template <class Gen>
double standard_exponential(Gen& gen);

/// Fisher–Yates shuffle of a span-like range [first, first + count).
template <typename T, class Gen = Xoshiro256pp>
void shuffle(Gen& gen, T* first, std::size_t count) {
  for (std::size_t i = count; i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(uniform_below(gen, i));
    T tmp = first[i - 1];
    first[i - 1] = first[j];
    first[j] = tmp;
  }
}

}  // namespace plurality::rng
