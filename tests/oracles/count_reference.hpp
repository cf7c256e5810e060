// The pre-workspace count stepper, kept FROZEN as the bitwise ground truth
// for step_count_based (core/backend.hpp): the same RNG stream and the same
// results, with a dense Θ(k) loop per own-state class and per-round
// allocations. Do not optimize it — tests/core/test_determinism.cpp pins
// the workspace path against it, and bench_throughput and bench_backends
// report the workspace path's speedup over it. It lives beside the tests,
// not in the library: no product path calls it.
#pragma once

#include <span>
#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "rng/binomial.hpp"
#include "rng/xoshiro.hpp"
#include "support/check.hpp"

namespace plurality {

/// Advances `config` one synchronous round by the exact adoption law,
/// drawing from `gen` exactly as step_count_based does.
inline void step_count_based_reference(const Dynamics& dynamics, Configuration& config,
                                       rng::Xoshiro256pp& gen) {
  const state_t k = config.k();
  PLURALITY_REQUIRE(dynamics.has_exact_law(k),
                    "count-based step: dynamics '" << dynamics.name()
                                                   << "' has no exact law at k=" << k);
  const std::vector<double> counts = config.counts_real();
  std::vector<double> law(k);
  std::vector<count_t> next(k, 0);

  auto dense_multinomial = [&gen](count_t n, std::span<const double> probs,
                                  std::span<count_t> out) {
    const std::size_t kk = probs.size();
    std::vector<double> suffix(kk + 1, 0.0);
    for (std::size_t j = kk; j-- > 0;) {
      double w = probs[j];
      PLURALITY_REQUIRE(w > -1e-9, "multinomial: negative weight " << w << " at " << j);
      if (w < 0.0) w = 0.0;
      suffix[j] = suffix[j + 1] + w;
    }
    PLURALITY_REQUIRE(suffix[0] > 0.0, "multinomial: all weights zero");
    count_t remaining = n;
    for (std::size_t j = 0; j + 1 < kk; ++j) {
      if (remaining == 0 || suffix[j] <= 0.0) {
        out[j] = 0;
        continue;
      }
      double pc = probs[j] <= 0.0 ? 0.0 : probs[j] / suffix[j];
      if (pc > 1.0) pc = 1.0;
      const count_t draw = rng::binomial(gen, remaining, pc);
      out[j] = draw;
      remaining -= draw;
    }
    out[kk - 1] = remaining;
  };

  if (!dynamics.law_depends_on_own_state()) {
    dynamics.adoption_law(counts, law);
    dense_multinomial(config.n(), law, next);
  } else {
    std::vector<count_t> class_next(k, 0);
    for (state_t s = 0; s < k; ++s) {
      const count_t class_size = config.at(s);
      if (class_size == 0) continue;
      dynamics.adoption_law_given(s, counts, law);
      dense_multinomial(class_size, law, class_next);
      for (state_t j = 0; j < k; ++j) next[j] += class_next[j];
    }
  }

  config = Configuration(std::move(next));
}

}  // namespace plurality
