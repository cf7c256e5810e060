// Corollaries 2-4: the specific lambda regimes of Theorem 1 and the
// adversary guarantee, at test-sized scales.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adversary.hpp"
#include "core/majority.hpp"
#include "core/observer.hpp"
#include "core/phases.hpp"
#include "core/trials.hpp"
#include "core/workloads.hpp"

namespace plurality {
namespace {

TEST(Corollaries, C3_ConstantShareMeansLogarithmicRounds) {
  // Corollary 3: c1 >= n/beta for constant beta => O(log n) rounds. The
  // rounds/log n ratio must stay bounded as n grows 16x.
  ThreeMajority dynamics;
  double worst_ratio = 0.0;
  for (const count_t n : {50'000ull, 200'000ull, 800'000ull}) {
    const Configuration start = workloads::plurality_share(n, 8, 0.35);
    CommonTrialOptions options;
    options.trials = 20;
    options.seed = 100 + n;
    const TrialSummary summary = run_trials(dynamics, start, options);
    EXPECT_EQ(summary.plurality_wins, summary.trials) << "n=" << n;
    worst_ratio = std::max(worst_ratio,
                           summary.rounds.mean() / std::log(static_cast<double>(n)));
  }
  EXPECT_LT(worst_ratio, 5.0);
}

TEST(Corollaries, C2_PolylogShareMeansPolylogRounds) {
  // Corollary 2: c1 >= n/log^l n with bias above 72 sqrt(2 n log^{l+1} n)
  // => O(log^{l+1} n) rounds. With l = 1 at n = 10^6: lambda = ln n ~ 13.8.
  ThreeMajority dynamics;
  const count_t n = 1'000'000;
  const double ln_n = std::log(static_cast<double>(n));
  const auto lambda = static_cast<state_t>(std::ceil(ln_n));
  // k = lambda colors with c1 = 2n/lambda satisfies c1 >= n/log n.
  const Configuration start = workloads::plurality_share(n, lambda, 2.0 / lambda);
  CommonTrialOptions options;
  options.trials = 20;
  options.seed = 7;
  const TrialSummary summary = run_trials(dynamics, start, options);
  EXPECT_EQ(summary.plurality_wins, summary.trials);
  // O(log^2 n) with a generous constant.
  EXPECT_LT(summary.rounds.mean(), 5.0 * ln_n * ln_n);
}

TEST(Corollaries, C4_MPluralityHoldsThroughALongWindow) {
  // Corollary 4's "almost-stability phase of poly(n) length": after
  // reaching M-plurality under attack, the system must stay there.
  ThreeMajority dynamics;
  const count_t n = 50'000;
  const count_t s = 15'000;
  const count_t f = 30;
  BoostRunnerUp adversary(f);
  const count_t m = 4 * f + 8;

  rng::Xoshiro256pp gen(11);
  RunOptions reach;
  reach.adversary = &adversary;
  reach.max_rounds = 2'000;
  reach.stop_predicate = stop_at_m_plurality(m, 0);
  const RunResult result =
      run_dynamics(dynamics, workloads::additive_bias(n, 3, s), reach, gen);
  ASSERT_TRUE(result.reason == StopReason::PredicateMet ||
              result.reason == StopReason::ColorConsensus);

  Configuration config = result.final_config;
  std::uint64_t violations = 0;
  const round_t window = 2'000;
  for (round_t round = 0; round < window; ++round) {
    step_count_based(dynamics, config, gen);
    adversary.corrupt(config, 3, round, gen);
    violations += (config.n() - config.at(0) > m);
  }
  EXPECT_EQ(violations, 0u);
}

TEST(Corollaries, C4_BiasNeverFallsBelowStartUnderSmallF) {
  // The induction inside Corollary 4's proof: with F = o(s/lambda), the
  // running bias s(t) stays >= the initial s w.h.p. in every round of
  // phase 1. Check over the pre-consensus window.
  ThreeMajority dynamics;
  const count_t n = 100'000;
  const auto s = static_cast<count_t>(3.0 * workloads::critical_bias_scale(n, 3));
  BoostRunnerUp adversary(s / 100);
  rng::Xoshiro256pp gen(13);
  RunOptions options;
  options.adversary = &adversary;
  TrajectoryObserver trajectory;
  options.observer = &trajectory;
  options.max_rounds = 5'000;
  // Full consensus is impossible under a per-round adversary; stop once all
  // but 4F nodes support the plurality.
  options.stop_predicate = stop_at_m_plurality(4 * adversary.budget(), 0);
  const RunResult result =
      run_dynamics(dynamics, workloads::additive_bias(n, 3, s), options, gen);
  ASSERT_EQ(result.reason, StopReason::PredicateMet);
  for (const auto& pt : trajectory.points()) {
    EXPECT_GE(pt.bias + 2 * adversary.budget(), s) << "round " << pt.round;
  }
}

TEST(Corollaries, PhaseDurationsMatchTheoremOneBudget) {
  // The proof spends O(lambda log n) rounds in phase 1 and O(log n) in
  // phases 2-3; check the split on instrumented runs.
  ThreeMajority dynamics;
  const count_t n = 500'000;
  const state_t k = 8;
  const auto s = static_cast<count_t>(2.0 * workloads::critical_bias_scale(n, k));
  const double ln_n = std::log(static_cast<double>(n));
  rng::Xoshiro256pp gen(17);
  PhaseReport total;
  for (int trial = 0; trial < 5; ++trial) {
    RunOptions options;
    TrajectoryObserver trajectory;
    options.observer = &trajectory;
    const RunResult result =
        run_dynamics(dynamics, workloads::additive_bias(n, k, s), options, gen);
    ASSERT_EQ(result.reason, StopReason::ColorConsensus);
    total.merge(analyze_phases(trajectory.points(), n, ln_n * ln_n));
  }
  EXPECT_LT(total.rounds_phase1.mean(), 10.0 * k * ln_n);
  EXPECT_LT(total.rounds_phase2.mean(), 5.0 * ln_n);
  EXPECT_LE(total.rounds_phase3.max(), 3.0);
}

}  // namespace
}  // namespace plurality
