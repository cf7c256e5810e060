#include "core/runner.hpp"

#include <array>
#include <utility>

#include "core/observer.hpp"
#include "support/check.hpp"

namespace plurality {

CountTrial::CountTrial(const Dynamics& dynamics, Configuration start,
                       const RunOptions& options, rng::Xoshiro256pp& gen, StepWorkspace& ws)
    : dynamics_(dynamics), options_(options), gen_(gen), ws_(ws), config_(std::move(start)) {
  const state_t states = config_.k();
  num_colors_ = dynamics.num_colors(states);
  PLURALITY_REQUIRE(num_colors_ >= 1 && num_colors_ <= states,
                    "run_dynamics: start configuration has " << states
                        << " states but dynamics expects "
                        << dynamics.num_states(num_colors_));
  PLURALITY_REQUIRE(config_.n() > 0, "run_dynamics: empty configuration");
  PLURALITY_REQUIRE(dynamics.has_exact_law(states),
                    "run_dynamics: dynamics '" << dynamics.name() << "' has no exact law at "
                        << states << " states; run it per agent with "
                           "graph::run_graph_trials on graph::AgentGraph::complete");

  result_.initial_plurality = config_.plurality(num_colors_);
  if (options.engine == EngineMode::Batched) {
    // One draw keys the counter-based stepping stream; `gen` stays the
    // source for everything else (adversary moves, factory randomness), so
    // switching engines never perturbs those streams.
    philox_.emplace(gen());
  }

  if (options.observer != nullptr) {
    options.observer->begin_trial(options.observer_trial, config_, num_colors_);
  }

  // Round 0 checks: a start that is already absorbed/stopping.
  if (config_.color_consensus(num_colors_)) {
    finish(0, StopReason::ColorConsensus);
  } else if (options.stop_predicate && options.stop_predicate(config_, 0)) {
    finish(0, StopReason::PredicateMet);
  } else if (options.max_rounds == 0) {
    finish(0, StopReason::RoundLimit);
  }
}

void CountTrial::finish(round_t rounds, StopReason reason) {
  done_ = true;
  result_.rounds = rounds;
  result_.reason = reason;
  if (reason == StopReason::ColorConsensus) {
    result_.winner = config_.plurality(num_colors_);
    result_.plurality_won = (result_.winner == result_.initial_plurality);
  }
  if (options_.observer != nullptr) {
    options_.observer->end_trial(options_.observer_trial, reason, rounds, config_,
                                 num_colors_);
  }
}

bool CountTrial::begin_round() {
  if (options_.cancel != nullptr && options_.cancel->stop_requested()) {
    // Between-rounds cooperative stop: cheapest possible check (one
    // relaxed load), and the partially-advanced config is discarded by
    // every caller that sees Cancelled.
    finish(round_, StopReason::Cancelled);
  }
  return !done_;
}

void CountTrial::end_round() {
  const round_t round = ++round_;
  if (options_.adversary != nullptr) {
    options_.adversary->corrupt(config_, num_colors_, round, gen_);
  }
  if (options_.observer != nullptr) {
    options_.observer->observe_round(options_.observer_trial, round, config_, num_colors_);
  }
  if (config_.color_consensus(num_colors_)) {
    finish(round, StopReason::ColorConsensus);
  } else if (config_.monochromatic()) {
    // All mass in one non-color state (e.g. all-undecided): absorbing but
    // not a consensus on any color.
    finish(round, StopReason::NonColorAbsorbed);
  } else if (options_.stop_predicate && options_.stop_predicate(config_, round)) {
    finish(round, StopReason::PredicateMet);
  } else if (round == options_.max_rounds) {
    finish(round, StopReason::RoundLimit);
  }
}

RunResult CountTrial::take_result() {
  PLURALITY_REQUIRE(done_, "CountTrial::take_result: the run has not stopped");
  result_.final_config = std::move(config_);
  return std::move(result_);
}

void step_trials(std::span<CountTrial* const> trials) {
  PLURALITY_REQUIRE(trials.size() <= rng::kMaxLanes,
                    "step_trials: at most " << rng::kMaxLanes << " runs, got "
                                            << trials.size());
  std::array<CountTrial*, rng::kMaxLanes> live;
  std::size_t count = 0;
  for (CountTrial* trial : trials) {
    PLURALITY_REQUIRE(!trial->done(), "step_trials: the run has already stopped");
    if (trial->begin_round()) live[count++] = trial;
  }
  if (count == 0) return;
  const CountTrial& first = *live[0];
  for (std::size_t l = 1; l < count; ++l) {
    PLURALITY_REQUIRE(&live[l]->dynamics_ == &first.dynamics_ &&
                          live[l]->philox_.has_value() == first.philox_.has_value(),
                      "step_trials: lockstep runs must share the dynamics and engine");
  }
  if (first.philox_) {
    std::array<CountLane<rng::PhiloxStream>, rng::kMaxLanes> lanes;
    for (std::size_t l = 0; l < count; ++l) {
      lanes[l] = {&live[l]->config_, &*live[l]->philox_, &live[l]->ws_};
    }
    step_count_based(first.dynamics_,
                     std::span<const CountLane<rng::PhiloxStream>>(lanes.data(), count));
  } else {
    std::array<CountLane<rng::Xoshiro256pp>, rng::kMaxLanes> lanes;
    for (std::size_t l = 0; l < count; ++l) {
      lanes[l] = {&live[l]->config_, &live[l]->gen_, &live[l]->ws_};
    }
    step_count_based(first.dynamics_,
                     std::span<const CountLane<rng::Xoshiro256pp>>(lanes.data(), count));
  }
  for (std::size_t l = 0; l < count; ++l) live[l]->end_round();
}

RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen,
                       StepWorkspace& ws) {
  CountTrial trial(dynamics, start, options, gen, ws);
  CountTrial* const lane[] = {&trial};
  while (!trial.done()) step_trials(lane);
  return trial.take_result();
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
