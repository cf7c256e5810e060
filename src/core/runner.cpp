#include "core/runner.hpp"

#include <memory>

#include "core/observer.hpp"
#include "support/check.hpp"

namespace plurality {

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen,
                       StepWorkspace& ws) {
  const state_t states = start.k();
  const state_t num_colors = dynamics.num_colors(states);
  PLURALITY_REQUIRE(num_colors >= 1 && num_colors <= states,
                    "run_dynamics: start configuration has " << states
                        << " states but dynamics expects "
                        << dynamics.num_states(num_colors));
  PLURALITY_REQUIRE(start.n() > 0, "run_dynamics: empty configuration");
  PLURALITY_REQUIRE(dynamics.has_exact_law(states),
                    "run_dynamics: dynamics '" << dynamics.name() << "' has no exact law at "
                        << states << " states; run it per agent with "
                           "graph::run_graph_trials on graph::AgentGraph::complete");

  RunResult result;
  result.initial_plurality = start.plurality(num_colors);

  Configuration config = start;
  std::unique_ptr<rng::PhiloxStream> philox;
  if (options.engine == EngineMode::Batched) {
    // One draw keys the counter-based stepping stream; `gen` stays the
    // source for everything else (adversary moves, factory randomness), so
    // switching engines never perturbs those streams.
    philox = std::make_unique<rng::PhiloxStream>(gen());
  }

  if (options.observer != nullptr) {
    options.observer->begin_trial(options.observer_trial, config, num_colors);
  }

  auto finish = [&](round_t rounds, StopReason reason) {
    result.rounds = rounds;
    result.reason = reason;
    if (reason == StopReason::ColorConsensus) {
      result.winner = config.plurality(num_colors);
      result.plurality_won = (result.winner == result.initial_plurality);
    }
    if (options.observer != nullptr) {
      options.observer->end_trial(options.observer_trial, reason, rounds, config,
                                  num_colors);
    }
    result.final_config = std::move(config);
    return result;
  };

  // Round 0 checks: a start that is already absorbed/stopping.
  if (config.color_consensus(num_colors)) return finish(0, StopReason::ColorConsensus);
  if (options.stop_predicate && options.stop_predicate(config, 0)) {
    return finish(0, StopReason::PredicateMet);
  }

  for (round_t round = 1; round <= options.max_rounds; ++round) {
    if (options.cancel != nullptr && options.cancel->stop_requested()) {
      // Between-rounds cooperative stop: cheapest possible check (one
      // relaxed load), and the partially-advanced config is discarded by
      // every caller that sees Cancelled.
      return finish(round - 1, StopReason::Cancelled);
    }
    if (philox != nullptr) {
      step_count_based(dynamics, config, *philox, ws);
    } else {
      step_count_based(dynamics, config, gen, ws);
    }
    if (options.adversary != nullptr) {
      options.adversary->corrupt(config, num_colors, round, gen);
    }

    if (options.observer != nullptr) {
      options.observer->observe_round(options.observer_trial, round, config, num_colors);
    }
    if (config.color_consensus(num_colors)) {
      return finish(round, StopReason::ColorConsensus);
    }
    if (config.monochromatic()) {
      // All mass in one non-color state (e.g. all-undecided): absorbing but
      // not a consensus on any color.
      return finish(round, StopReason::NonColorAbsorbed);
    }
    if (options.stop_predicate && options.stop_predicate(config, round)) {
      return finish(round, StopReason::PredicateMet);
    }
  }
  return finish(options.max_rounds, StopReason::RoundLimit);
}

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen) {
  StepWorkspace ws;
  return run_dynamics(dynamics, start, options, gen, ws);
}

std::function<bool(const Configuration&, round_t)> stop_when_any_color_reaches(
    count_t threshold, state_t num_colors) {
  return [threshold, num_colors](const Configuration& config, round_t) {
    return config.plurality_count(num_colors) >= threshold;
  };
}

std::function<bool(const Configuration&, round_t)> stop_at_m_plurality(count_t m,
                                                                       state_t color) {
  return [m, color](const Configuration& config, round_t) {
    return config.n() - config.at(color) <= m;
  };
}

}  // namespace plurality
