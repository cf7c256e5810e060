#include "core/backend.hpp"

#include <algorithm>
#include <array>

#include "rng/binomial.hpp"
#include "rng/multinomial.hpp"
#include "support/check.hpp"

namespace plurality {

template <class Gen>
void step_count_based(const Dynamics& dynamics, std::span<const CountLane<Gen>> lanes) {
  PLURALITY_REQUIRE(!lanes.empty() && lanes.size() <= rng::kMaxLanes,
                    "count-based step: takes 1 to " << rng::kMaxLanes << " lanes, got "
                                                    << lanes.size());
  for (const CountLane<Gen>& lane : lanes) {
    const state_t k = lane.config->k();
    PLURALITY_REQUIRE(dynamics.has_exact_law(k),
                      "count-based step: dynamics '" << dynamics.name()
                                                     << "' has no exact law at k=" << k);
    lane.ws->prepare(k);
    lane.config->counts_real_into(lane.ws->counts_real);
    std::fill(lane.ws->next.begin(), lane.ws->next.end(), count_t{0});
  }

  std::array<rng::MultinomialLane<Gen>, rng::kMaxLanes> draws;
  if (!dynamics.law_depends_on_own_state()) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      StepWorkspace& ws = *lanes[l].ws;
      dynamics.adoption_law(ws.counts_real, ws.law);
      draws[l] = {lanes[l].gen, lanes[l].config->n(), ws.law, ws.next, &ws.multinomial};
    }
    rng::multinomial_accumulate(std::span<const rng::MultinomialLane<Gen>>(draws.data(),
                                                                           lanes.size()));
  } else {
    // Nodes within one own-state class are i.i.d.; each class contributes
    // its own multinomial and the class draws are independent given the
    // configuration, so summing them samples the exact joint transition.
    // Only occupied classes do any work, and each class's multinomial only
    // draws over its law's support — empty classes and zero-probability
    // transitions cost nothing (and consume no randomness, keeping the
    // stream identical to the dense reference). Dynamics with a sparse law
    // skip materializing the dense k-entry law entirely, so a round costs
    // O(k + total support) instead of Θ(k · occupied classes). Each lane
    // walks its own occupied classes in ascending order; one batch draws
    // the next class of every lane that has one left.
    const bool sparse = dynamics.has_sparse_law();
    std::array<state_t, rng::kMaxLanes> next_class{};
    for (;;) {
      std::size_t batch = 0;
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        const Configuration& config = *lanes[l].config;
        StepWorkspace& ws = *lanes[l].ws;
        const state_t k = config.k();
        const std::span<const count_t> counts = config.counts();
        state_t s = next_class[l];
        while (s < k && counts[s] == 0) ++s;
        if (s == k) {
          next_class[l] = k;
          continue;
        }
        next_class[l] = s + 1;
        if (sparse) {
          const state_t nnz = dynamics.adoption_law_given_sparse(
              s, ws.counts_real, static_cast<double>(config.n()), ws.sparse_states,
              ws.sparse_weights);
          PLURALITY_CHECK_MSG(nnz >= 1 && nnz <= k,
                              "sparse law of '" << dynamics.name() << "' returned nnz=" << nnz);
          draws[batch++] = {lanes[l].gen, counts[s],
                            std::span<const double>(ws.sparse_weights.data(), nnz), ws.next,
                            &ws.multinomial,
                            std::span<const state_t>(ws.sparse_states.data(), nnz)};
        } else {
          dynamics.adoption_law_given(s, ws.counts_real, ws.law);
          draws[batch++] = {lanes[l].gen, counts[s], ws.law, ws.next, &ws.multinomial};
        }
      }
      if (batch == 0) break;
      const std::span<const rng::MultinomialLane<Gen>> batch_lanes(draws.data(), batch);
      if (sparse) {
        rng::multinomial_accumulate_indexed(batch_lanes);
      } else {
        rng::multinomial_accumulate(batch_lanes);
      }
    }
  }

  // Publish with a copy, not a buffer swap: swapping would trade buffer
  // capacities between the configuration and the workspace, so a workspace
  // shared across different k values would re-allocate every round. The
  // copy is k words into an already-sized buffer.
  for (const CountLane<Gen>& lane : lanes) lane.config->assign_counts(lane.ws->next);
}

template <class Gen>
void step_count_based(const Dynamics& dynamics, Configuration& config, Gen& gen,
                      StepWorkspace& ws) {
  const CountLane<Gen> lane{&config, &gen, &ws};
  step_count_based(dynamics, std::span<const CountLane<Gen>>(&lane, 1));
}

template <class Gen>
void step_count_based(const Dynamics& dynamics, Configuration& config, Gen& gen) {
  StepWorkspace ws;
  step_count_based(dynamics, config, gen, ws);
}

// The two shipped engines (see backend.hpp).
template void step_count_based<rng::Xoshiro256pp>(
    const Dynamics&, std::span<const CountLane<rng::Xoshiro256pp>>);
template void step_count_based<rng::PhiloxStream>(
    const Dynamics&, std::span<const CountLane<rng::PhiloxStream>>);
template void step_count_based<rng::Xoshiro256pp>(const Dynamics&, Configuration&,
                                                  rng::Xoshiro256pp&, StepWorkspace&);
template void step_count_based<rng::PhiloxStream>(const Dynamics&, Configuration&,
                                                  rng::PhiloxStream&, StepWorkspace&);
template void step_count_based<rng::Xoshiro256pp>(const Dynamics&, Configuration&,
                                                  rng::Xoshiro256pp&);
template void step_count_based<rng::PhiloxStream>(const Dynamics&, Configuration&,
                                                  rng::PhiloxStream&);

void step_count_based_reference(const Dynamics& dynamics, Configuration& config,
                                rng::Xoshiro256pp& gen) {
  // Frozen pre-workspace implementation (dense conditional-binomial loop,
  // per-round allocations). Do not optimize: it is the bitwise baseline the
  // determinism tests and bench_throughput compare against.
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
