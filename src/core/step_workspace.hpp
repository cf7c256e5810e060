// Preallocated scratch for the count-based stepping hot path.
//
// Every simulated round needs the real-valued counts, the adoption law, the
// next-counts accumulator, and the multinomial kernel's support/suffix
// arrays. Allocating them per round makes the stepper allocator-bound at
// paper scale (n up to 10^9, thousands of trials), so the workspace owns
// them all and is reused across rounds AND across trials — run_trials keeps
// one per lane (one or two per OpenMP thread).
//
// The workspace is pure scratch: every buffer is fully (re)written by the
// step that uses it, so reuse never leaks state between rounds, trials, or
// dynamics, and results are bitwise independent of how workspaces are
// shared (the determinism suite pins this). After the first step at a given
// k, a step performs zero heap allocations (tests/alloc/test_allocation.cpp).
#pragma once

#include <vector>

#include "rng/multinomial.hpp"
#include "support/types.hpp"

namespace plurality {

struct StepWorkspace {
  /// Current counts as doubles (the adoption-law input format).
  std::vector<double> counts_real;
  /// Adoption law (shared, or per own-state class for stateful dynamics).
  std::vector<double> law;
  /// Next-round counts, accumulated across per-class multinomial draws.
  std::vector<count_t> next;
  /// Sparse-law output pairs (dynamics with has_sparse_law()).
  std::vector<state_t> sparse_states;
  std::vector<double> sparse_weights;
  /// Support + suffix scratch for the sparse multinomial kernel.
  rng::MultinomialWorkspace multinomial;

  /// Sizes the k-indexed buffers; no-op (and allocation-free) once the
  /// workspace has seen this k.
  void prepare(state_t k) {
    counts_real.resize(k);
    law.resize(k);
    next.resize(k);
    sparse_states.resize(k);
    sparse_weights.resize(k);
    // Pre-size the kernel scratch to its worst case (a full-support law)
    // so the first sparse round at a new high-water k cannot allocate
    // mid-trial either.
    if (multinomial.support.size() < k) multinomial.support.resize(k);
    if (multinomial.weights.size() < k) multinomial.weights.resize(k);
    if (multinomial.suffix.size() < k + 1) multinomial.suffix.resize(k + 1);
  }
};

}  // namespace plurality
