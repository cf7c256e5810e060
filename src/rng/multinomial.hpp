// Exact Multinomial(n, p_0..p_{k-1}) sampling via conditional binomials.
//
// This is THE inner loop of the count-based simulator: one multinomial draw
// per round replaces n independent per-node updates. Binomial draws over the
// positive-weight categories give the exact joint distribution: X_0 ~
// Bin(n, p_0), then X_1 | X_0 ~ Bin(n - X_0, p_1 / (1 - p_0)), and so on.
//
// Two entry points share one kernel:
//
//   * multinomial()            — writes the counts (classic API); the
//     workspace-free overload allocates scratch and is for one-off callers.
//   * multinomial_accumulate() — ADDS the draws into `inout`, touching only
//     categories that receive mass. The count-based stepper sums per-class
//     multinomials this way without a temporary per-class vector.
//
// The accumulate kernels take a batch of one or two independent lanes, each
// with its own generator and scratch. Each draw's `n` is the previous
// draw's remainder, so one multinomial is a serial chain of dependent
// binomial draws; a batch of two alternates the two chains' draws so the
// core overlaps their latencies, while every lane consumes exactly the
// stream it would consume alone.
//
// The kernel is sparse: it gathers the positive-weight categories once and
// draws only over that support, so a k-category law with nnz positive
// entries costs O(k) scan + O(nnz) binomial draws, and it stops as soon as
// the remaining mass hits zero. This is an *identical distribution AND an
// identical RNG-stream* to the dense conditional-binomial loop, because
// binomial() consumes no randomness when p <= 0, p >= 1, or n == 0 — the
// only categories/iterations the sparse kernel skips. Tests pin this
// equivalence bitwise (tests/core/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"
#include "support/types.hpp"

namespace plurality::rng {

/// Reusable scratch for the multinomial kernel (opaque: the layout is an
/// implementation detail of multinomial_accumulate). After the first call
/// at a given k, subsequent calls perform zero heap allocations; buffers
/// only ever grow.
struct MultinomialWorkspace {
  std::vector<std::uint32_t> support;
  /// Suffix sums of the support's weights, then (in place) its conditional
  /// probabilities.
  std::vector<double> suffix;
  std::vector<double> weights;
};

/// The widest lockstep batch: two chains took a draw from ~52 to ~35 ns,
/// four only to 33–35 ns (docs/performance.md, "Count driver: two trials
/// per core").
inline constexpr std::size_t kMaxLanes = 2;

/// One multinomial of a lockstep batch: Multinomial(n, weights) ADDED into
/// `inout`, drawn from `*gen` with `*ws` as scratch. Lanes of one batch
/// share nothing.
template <class Gen>
struct MultinomialLane {
  Gen* gen;
  count_t n;
  /// Dense kernel: the weight of category j. Indexed kernel: the weight of
  /// category states[i].
  std::span<const double> weights;
  std::span<count_t> inout;
  MultinomialWorkspace* ws;
  /// Indexed kernel only: strictly ascending categories of the weights.
  std::span<const state_t> states = {};
};

/// Draws each lane's multinomial sample (1 to kMaxLanes lanes) and ADDS it
/// into its `inout` (inout[j] += X_j). The weights need not be normalized
/// exactly to 1 (kernel formulas carry ~1e-15 float error); they are
/// treated as relative weights with nonnegativity enforced up to -1e-9
/// slack. Each lane's draws sum to its n.
/// Template over the generator engine (Xoshiro256pp / PhiloxStream — the
/// counter-based batched mode feeds block-generated Philox uniforms through
/// the identical kernel; instantiations live in multinomial.cpp).
template <class Gen>
void multinomial_accumulate(std::span<const MultinomialLane<Gen>> lanes);

/// One-lane form of the above.
template <class Gen>
void multinomial_accumulate(Gen& gen, count_t n, std::span<const double> probs,
                            std::span<count_t> inout, MultinomialWorkspace& ws) {
  const MultinomialLane<Gen> lane{&gen, n, probs, inout, &ws};
  multinomial_accumulate(std::span<const MultinomialLane<Gen>>(&lane, 1));
}

/// Sparse-law variant: each lane's distribution is given as (states[i],
/// weights[i]) pairs with `states` ascending and every omitted category
/// having weight zero. Draws X over the pairs and ADDS inout[states[i]] +=
/// X_i. Consumes the same RNG stream as multinomial_accumulate() over the
/// equivalent dense weight vector — this is the O(support) kernel behind
/// stateful count-based stepping.
template <class Gen>
void multinomial_accumulate_indexed(std::span<const MultinomialLane<Gen>> lanes);

/// One-lane form of the above.
template <class Gen>
void multinomial_accumulate_indexed(Gen& gen, count_t n,
                                    std::span<const state_t> states,
                                    std::span<const double> weights,
                                    std::span<count_t> inout, MultinomialWorkspace& ws) {
  const MultinomialLane<Gen> lane{&gen, n, weights, inout, &ws, states};
  multinomial_accumulate_indexed(std::span<const MultinomialLane<Gen>>(&lane, 1));
}

/// Draws a multinomial sample. `out` receives the counts, out.size() ==
/// probs.size(), and the counts always sum to n.
template <class Gen>
void multinomial(Gen& gen, count_t n, std::span<const double> probs,
                 std::span<count_t> out, MultinomialWorkspace& ws);

/// Workspace-free overload for one-off callers (allocates scratch).
template <class Gen>
void multinomial(Gen& gen, count_t n, std::span<const double> probs,
                 std::span<count_t> out);

}  // namespace plurality::rng
