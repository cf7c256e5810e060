#include "core/phases.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/majority.hpp"
#include "core/observer.hpp"
#include "core/workloads.hpp"
#include "support/check.hpp"

namespace plurality {
namespace {

TrajectoryPoint point(round_t round, count_t plurality, count_t runner_up, count_t n) {
  return TrajectoryPoint{.round = round,
                         .plurality_color = 0,
                         .plurality_count = plurality,
                         .runner_up_count = runner_up,
                         .bias = plurality - runner_up,
                         .minority_mass = n - plurality};
}

TEST(PhaseClassify, BoundariesMatchTheLemmas) {
  const count_t n = 900;
  const double boundary = 50.0;
  // c1 = 500 <= 2n/3 = 600 -> phase 1.
  EXPECT_EQ(classify_phase(point(0, 500, 100, n), n, boundary), Phase::BiasGrowth);
  // c1 = 601 > 600 but below n - 50 -> phase 2.
  EXPECT_EQ(classify_phase(point(0, 700, 100, n), n, boundary), Phase::MinorityDecay);
  // c1 >= 850 -> phase 3.
  EXPECT_EQ(classify_phase(point(0, 860, 10, n), n, boundary), Phase::LastStep);
}

TEST(PhaseClassify, ExactTwoThirdsIsPhaseOne) {
  const count_t n = 900;
  EXPECT_EQ(classify_phase(point(0, 600, 100, n), n, 10.0), Phase::BiasGrowth);
}

TEST(PhaseAnalyze, CountsRoundsPerPhase) {
  const count_t n = 900;
  const std::vector<TrajectoryPoint> trajectory = {
      point(0, 400, 300, n),  // phase 1
      point(1, 500, 250, n),  // phase 1
      point(2, 700, 100, n),  // phase 2
      point(3, 880, 10, n),   // phase 3
      point(4, 900, 0, n),
  };
  const PhaseReport report = analyze_phases(trajectory, n, 50.0);
  EXPECT_DOUBLE_EQ(report.rounds_phase1.mean(), 2.0);
  EXPECT_DOUBLE_EQ(report.rounds_phase2.mean(), 1.0);
  EXPECT_DOUBLE_EQ(report.rounds_phase3.mean(), 1.0);
}

TEST(PhaseAnalyze, BiasGrowthFactorsRecorded) {
  const count_t n = 900;
  const std::vector<TrajectoryPoint> trajectory = {
      point(0, 400, 300, n),  // bias 100
      point(1, 500, 250, n),  // bias 250: growth 2.5
      point(2, 700, 100, n),
  };
  const PhaseReport report = analyze_phases(trajectory, n, 50.0);
  EXPECT_EQ(report.bias_growth_steps, 2u);
  EXPECT_NEAR(report.bias_growth.max(), 2.5, 1e-12);
  EXPECT_EQ(report.bias_growth_violations, 0u);
}

TEST(PhaseAnalyze, ViolationDetected) {
  const count_t n = 900;
  // Bias shrinks 100 -> 90 in phase 1: a Lemma-3 violation at this step.
  const std::vector<TrajectoryPoint> trajectory = {
      point(0, 400, 300, n),
      point(1, 390, 300, n),
  };
  const PhaseReport report = analyze_phases(trajectory, n, 50.0);
  EXPECT_EQ(report.bias_growth_violations, 1u);
  EXPECT_DOUBLE_EQ(report.bias_violation_rate(), 1.0);
}

TEST(PhaseAnalyze, DecayFactorsRecorded) {
  const count_t n = 900;
  const std::vector<TrajectoryPoint> trajectory = {
      point(0, 700, 100, n),  // minority 200
      point(1, 800, 50, n),   // minority 100: decay 0.5 <= 8/9
      point(2, 890, 5, n),
  };
  const PhaseReport report = analyze_phases(trajectory, n, 5.0);
  EXPECT_EQ(report.minority_decay_steps, 2u);
  EXPECT_NEAR(report.minority_decay.min(), 0.1, 1e-12);  // 100 -> 10
  EXPECT_EQ(report.minority_decay_violations, 0u);
}

TEST(PhaseAnalyze, MergeAccumulates) {
  const count_t n = 900;
  const std::vector<TrajectoryPoint> a = {point(0, 400, 300, n), point(1, 500, 250, n)};
  const std::vector<TrajectoryPoint> b = {point(0, 700, 100, n), point(1, 800, 50, n)};
  PhaseReport ra = analyze_phases(a, n, 50.0);
  const PhaseReport rb = analyze_phases(b, n, 50.0);
  ra.merge(rb);
  EXPECT_EQ(ra.bias_growth_steps, 1u);
  EXPECT_EQ(ra.minority_decay_steps, 1u);
  EXPECT_EQ(ra.rounds_phase1.count(), 2u);
}

TEST(PhaseAnalyze, RealTrajectoryHasCleanPhases) {
  // End-to-end: a real biased 3-majority run should show phase-1 growth
  // above the Lemma 3 bound and phase-2 decay below 8/9 essentially always.
  ThreeMajority dynamics;
  const count_t n = 200000;
  const auto s = static_cast<count_t>(2.0 * workloads::critical_bias_scale(n, 6));
  rng::Xoshiro256pp gen(5);
  RunOptions options;
  TrajectoryObserver trajectory;
  options.observer = &trajectory;
  const RunResult result =
      run_dynamics(dynamics, workloads::additive_bias(n, 6, s), options, gen);
  ASSERT_EQ(result.reason, StopReason::ColorConsensus);
  const double polylog = std::pow(std::log(static_cast<double>(n)), 2.0);
  const PhaseReport report = analyze_phases(trajectory.points(), n, polylog);
  EXPECT_GT(report.bias_growth_steps, 0u);
  EXPECT_LT(report.bias_violation_rate(), 0.1);
  EXPECT_LT(report.decay_violation_rate(), 0.1);
  EXPECT_LE(report.rounds_phase3.mean(), 3.0);
}

TEST(PhaseAnalyze, RejectsDegenerateInput) {
  const std::vector<TrajectoryPoint> one = {point(0, 10, 5, 20)};
  EXPECT_THROW(analyze_phases(one, 20, 2.0), CheckError);
  EXPECT_THROW(classify_phase(point(0, 1, 0, 2), 0, 1.0), CheckError);
}

}  // namespace
}  // namespace plurality
