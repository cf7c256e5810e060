// Basic exact distributions over a uniform 64-bit generator.
//
// All samplers here are *exact* (rejection-based where needed), never
// approximations: the count-based simulator IS the Markov chain the paper
// analyzes, so distributional error would silently bias every experiment.
//
// Every sampler is a template over the generator engine, instantiated for
// the two engines the library ships (definitions live in distributions.cpp,
// except uniform_below and shuffle, which are defined here so they inline
// into the stepping kernels and the graph builders):
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

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::rng {

namespace detail {
/// Throws CheckError for uniform_below's zero bound (kept out of line so
/// the inlined draw stays small).
[[noreturn]] void zero_bound();
}  // namespace detail

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
inline std::uint64_t uniform_below(Gen& gen, std::uint64_t bound) {
  if (bound == 0) [[unlikely]] detail::zero_bound();
  // Multiply a 64-bit word by the bound and keep the high half; reject the
  // small biased fringe so every residue is exactly equally likely.
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) [[unlikely]] {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = gen();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

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
///
/// The swap targets j are drawn in blocks of kBlock, in the plain loop's
/// order and with its bounds (i, i − 1, ...): no draw depends on the array,
/// so drawing ahead changes nothing, and every block's random targets are
/// prefetched (for writing) before its swaps touch them. Same permutation
/// and the same generator state as one draw per swap; at 2^24+ elements the
/// swaps otherwise wait on one cache miss each.
template <typename T, class Gen = Xoshiro256pp>
void shuffle(Gen& gen, T* first, std::size_t count) {
  constexpr std::size_t kBlock = 64;
  std::size_t js[kBlock] = {};
  for (std::size_t i = count; i > 1;) {
    const std::size_t nb = std::min(kBlock, i - 1);
    for (std::size_t b = 0; b < nb; ++b) {
      js[b] = static_cast<std::size_t>(uniform_below(gen, i - b));
      __builtin_prefetch(first + js[b], 1, 3);
    }
    for (std::size_t b = 0; b < nb; ++b, --i) {
      T tmp = first[i - 1];
      first[i - 1] = first[js[b]];
      first[js[b]] = tmp;
    }
  }
}

}  // namespace plurality::rng
