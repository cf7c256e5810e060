// Literal per-trial pins for specs compiled through Scenario, so a change
// to how the scenario layer builds or steps a graph cannot move a result
// without a test saying so.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/observer.hpp"
#include "scenario/scenario.hpp"

namespace plurality::scenario {
namespace {

/// Records each trial's stop round and final plurality color. Trials may
/// run concurrently; each writes only its own slot.
class WinnerRecorder final : public RoundObserver {
 public:
  explicit WinnerRecorder(std::uint64_t trials) : rounds_(trials), winners_(trials) {}

  void begin_trial(std::uint64_t, const Configuration&, state_t) override {}
  void observe_round(std::uint64_t, round_t, const Configuration&, state_t) override {}
  void end_trial(std::uint64_t trial, StopReason, round_t rounds, const Configuration& final,
                 state_t num_colors) override {
    rounds_[trial] = rounds;
    winners_[trial] = final.plurality(num_colors);
  }

  [[nodiscard]] const std::vector<round_t>& rounds() const { return rounds_; }
  [[nodiscard]] const std::vector<state_t>& winners() const { return winners_; }

 private:
  std::vector<round_t> rounds_;
  std::vector<state_t> winners_;
};

TEST(ScenarioGoldens, RegularBatchedSummaryIsLayoutFree) {
  // The default sparse workload under the batched engine. These literals
  // were recorded while the scenario layer still relabeled regular graphs
  // (RCM, with Philox words addressed by the builder's ids) and must hold
  // unchanged on the builder's own numbering.
  const Scenario scenario = Scenario::compile(ScenarioSpec::parse(
      "dynamics=3-majority topology=regular:8 workload=bias:2c n=20000 k=4 trials=4 "
      "engine=batched seed=20141014"));
  WinnerRecorder recorder(4);
  const TrialSummary summary = scenario.run(&recorder);

  const std::vector<round_t> expected_rounds = {22, 22, 18, 20};
  const std::vector<state_t> expected_winners = {0, 0, 0, 0};
  EXPECT_EQ(recorder.rounds(), expected_rounds);
  EXPECT_EQ(recorder.winners(), expected_winners);
  EXPECT_EQ(summary.trials, 4u);
  EXPECT_EQ(summary.consensus_count, 4u);
  EXPECT_EQ(summary.plurality_wins, 4u);
  const std::vector<double> expected_samples(expected_rounds.begin(), expected_rounds.end());
  EXPECT_EQ(summary.round_samples, expected_samples);
}

}  // namespace
}  // namespace plurality::scenario
