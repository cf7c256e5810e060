#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/observer.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "support/check.hpp"

namespace plurality {
namespace {

TEST(Runner, ConvergesToConsensusFromBiasedStart) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(1);
  const Configuration start = workloads::additive_bias(10000, 3, 3000);
  RunOptions options;
  const RunResult result = run_dynamics(dynamics, start, options, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_TRUE(result.final_config.color_consensus(3));
  EXPECT_EQ(result.initial_plurality, 0u);
}

TEST(Runner, AlreadyMonochromaticStopsAtRoundZero) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(2);
  const Configuration start({0, 500, 0});
  const RunResult result = run_dynamics(dynamics, start, RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.winner, 1u);
}

TEST(Runner, RoundLimitStops) {
  Voter dynamics;  // voter on a balanced start takes ~n rounds; cap at 3
  rng::Xoshiro256pp gen(3);
  const Configuration start = workloads::balanced(100000, 2);
  RunOptions options;
  options.max_rounds = 3;
  const RunResult result = run_dynamics(dynamics, start, options, gen);
  EXPECT_EQ(result.reason, StopReason::RoundLimit);
  EXPECT_EQ(result.rounds, 3u);
}

TEST(Runner, TrajectoryRecordsEveryRound) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(4);
  const Configuration start = workloads::additive_bias(5000, 3, 1500);
  RunOptions options;
  TrajectoryObserver recorder;
  options.observer = &recorder;
  const RunResult result = run_dynamics(dynamics, start, options, gen);
  const std::vector<TrajectoryPoint>& trajectory = recorder.points();
  ASSERT_EQ(trajectory.size(), result.rounds + 1);
  EXPECT_EQ(trajectory.front().round, 0u);
  EXPECT_EQ(trajectory.front().plurality_count, start.plurality_count(3));
  EXPECT_EQ(trajectory.back().minority_mass, 0u);
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    EXPECT_EQ(trajectory[i].round, i);
  }
  EXPECT_EQ(recorder.reason(), result.reason);
  EXPECT_EQ(recorder.rounds(), result.rounds);
  EXPECT_EQ(recorder.plurality_won(), result.plurality_won);
}

TEST(Runner, TrajectoryObserverRecordsGraphTrialZero) {
  // The same observer on the graph driver records the same columns, from
  // round 0 through the absorbing round, for trial 0 only.
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(5000, 3, 1500);
  CommonTrialOptions options;
  options.trials = 3;
  options.seed = 4;
  TrajectoryObserver recorder;
  options.observer = &recorder;
  const TrialSummary summary = graph::run_graph_trials(
      dynamics, graph::AgentGraph::complete(start.n()), start, options);
  ASSERT_EQ(summary.consensus_count, 3u);
  const std::vector<TrajectoryPoint>& trajectory = recorder.points();
  ASSERT_EQ(trajectory.size(), recorder.rounds() + 1);
  EXPECT_EQ(trajectory.front().plurality_count, start.plurality_count(3));
  EXPECT_EQ(trajectory.back().minority_mass, 0u);
  EXPECT_EQ(recorder.reason(), StopReason::ColorConsensus);
  EXPECT_TRUE(recorder.plurality_won());
}

TEST(Runner, PluralityWonFlagTracksInitialPlurality) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(5);
  // Heavy bias: winner is essentially always the initial plurality.
  const Configuration start = workloads::additive_bias(10000, 2, 6000);
  const RunResult result = run_dynamics(dynamics, start, RunOptions{}, gen);
  ASSERT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_TRUE(result.plurality_won);
  EXPECT_EQ(result.winner, 0u);
}

TEST(Runner, StopPredicateShortCircuits) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(6);
  const Configuration start = workloads::additive_bias(10000, 4, 2000);
  RunOptions options;
  options.stop_predicate = stop_when_any_color_reaches(6000, 4);
  const RunResult result = run_dynamics(dynamics, start, options, gen);
  EXPECT_EQ(result.reason, StopReason::PredicateMet);
  EXPECT_GE(result.final_config.plurality_count(4), 6000u);
  EXPECT_FALSE(result.final_config.color_consensus(4));
}

TEST(Runner, PredicateTrueAtStartStopsImmediately) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(7);
  const Configuration start = workloads::additive_bias(1000, 2, 500);
  RunOptions options;
  options.stop_predicate = stop_when_any_color_reaches(1, 2);
  const RunResult result = run_dynamics(dynamics, start, options, gen);
  EXPECT_EQ(result.reason, StopReason::PredicateMet);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(Runner, MPluralityPredicate) {
  const auto predicate = stop_at_m_plurality(10, 0);
  EXPECT_TRUE(predicate(Configuration({95, 5}), 1));
  EXPECT_TRUE(predicate(Configuration({90, 10}), 1));
  EXPECT_FALSE(predicate(Configuration({89, 11}), 1));
}

TEST(Runner, CliqueAgentsReachConsensusToo) {
  // The per-agent path: the graph engine on the implicit clique.
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(2000, 3, 800);
  CommonTrialOptions options;
  options.trials = 1;
  options.seed = 8;
  options.shuffle_layout = false;
  const TrialSummary summary = graph::run_graph_trials(
      dynamics, graph::AgentGraph::complete(start.n()), start, options);
  EXPECT_EQ(summary.consensus_count, 1u);
  EXPECT_EQ(summary.plurality_wins, 1u);
}

TEST(Runner, UndecidedStateSpaceRunsViaExtendedConfig) {
  UndecidedState dynamics;
  rng::Xoshiro256pp gen(9);
  const Configuration start =
      UndecidedState::extend_with_undecided(workloads::additive_bias(5000, 3, 2000));
  const RunResult result = run_dynamics(dynamics, start, RunOptions{}, gen);
  EXPECT_EQ(result.reason, StopReason::ColorConsensus);
  EXPECT_LT(result.winner, 3u);  // a color, not the undecided state
}

TEST(Runner, DynamicsWithoutExactLawRejected) {
  // run_dynamics steps counts by the exact law; a dynamics without one at
  // this k runs per agent (graph::run_graph_trials on the clique) instead.
  HPlurality dynamics(20);
  rng::Xoshiro256pp gen(10);
  ASSERT_FALSE(dynamics.has_exact_law(16));
  EXPECT_THROW(
      run_dynamics(dynamics, workloads::additive_bias(1000, 16, 100), RunOptions{}, gen),
      CheckError);
}

TEST(Runner, EmptyConfigurationRejected) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(11);
  EXPECT_THROW(run_dynamics(dynamics, Configuration::zeros(3), RunOptions{}, gen),
               CheckError);
}

TEST(Runner, DeterministicGivenSeed) {
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(5000, 3, 1000);
  rng::Xoshiro256pp gen_a(42), gen_b(42);
  const RunResult a = run_dynamics(dynamics, start, RunOptions{}, gen_a);
  const RunResult b = run_dynamics(dynamics, start, RunOptions{}, gen_b);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.winner, b.winner);
}

}  // namespace
}  // namespace plurality
