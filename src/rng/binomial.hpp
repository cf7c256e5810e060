// Exact Binomial(n, p) sampling.
//
// The count-based simulator replaces n per-node coin flips with one
// Binomial draw per color per round, so this sampler must be exact for n up
// to 10^9 and fast in both the small-mean and large-mean regimes:
//
//   * n·min(p,1-p) <= kInversionThreshold  →  BINV sequential inversion,
//     O(np) expected time, exact by construction.
//   * otherwise                            →  BTRS, Hörmann's transformed
//     rejection with squeeze (1993), O(1) expected time, exact because it
//     is a rejection method whose acceptance test uses the true pmf ratio
//     (via Stirling tails computed to double precision).
//
// The regime threshold is a pure performance knob (both samplers are exact);
// bench_rng measures the crossover.
//
// The samplers draw from Xoshiro256pp, the generator of every trial stream.
#pragma once

#include <cstdint>

#include "rng/xoshiro.hpp"

namespace plurality::rng {

/// Expected-time regime switch between inversion and rejection.
inline constexpr double kInversionThreshold = 14.0;

/// Draws Binomial(n, p). p outside [0,1] is clamped.
std::uint64_t binomial(Xoshiro256pp& gen, std::uint64_t n, double p);

/// Exposed for targeted testing/benchmarks: inversion sampler.
/// Requires 0 < p <= 0.5.
std::uint64_t binomial_inversion(Xoshiro256pp& gen, std::uint64_t n, double p);

/// Exposed for targeted testing/benchmarks: BTRS rejection sampler.
/// Requires 0 < p <= 0.5 and n*p >= 10.
std::uint64_t binomial_btrs(Xoshiro256pp& gen, std::uint64_t n, double p);

/// log of the Binomial(n,p) pmf at x (used by exact Markov analysis).
double binomial_log_pmf(std::uint64_t n, double p, std::uint64_t x);

/// Binomial(n,p) pmf at x.
double binomial_pmf(std::uint64_t n, double p, std::uint64_t x);

}  // namespace plurality::rng
