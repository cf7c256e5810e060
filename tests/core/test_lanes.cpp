// Lockstep lanes: the count driver keeps up to two trials in flight per
// thread and draws their rounds as one lockstep batch. That must never
// change a result:
//
//  1. A two-lane step equals each lane stepped alone, round by round, for
//     every exact-law dynamics, generator states included.
//  2. Through run_trials, every trial's outcome (stop reason, rounds,
//     final counts) is bitwise what run_dynamics gives it alone, and the
//     TrialSummary is the same whether the thread budget gave the run one
//     lane per thread or two. The lane count is reached only through the
//     budget: lanes = 2 iff trials >= 2 · threads.
//  3. With an adversary, a stop predicate, an observer checking each
//     trial's call order and a cancel token that fires mid-run, the same
//     holds for every trial the token did not stop.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/observer.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "rng/stream.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {
namespace {

// --- 1. One lockstep step == each lane alone. ----------------------------

Configuration in_state_space(const Dynamics& dynamics, const Configuration& colors) {
  return dynamics.num_states(colors.k()) > colors.k()
             ? UndecidedState::extend_with_undecided(colors)
             : colors;
}

void expect_lockstep_matches_alone(const Dynamics& dynamics, const Configuration& start_a,
                                   const Configuration& start_b, std::uint64_t seed) {
  Configuration a = start_a, b = start_b, alone_a = start_a, alone_b = start_b;
  rng::Xoshiro256pp gen_a(seed), gen_b(seed + 1), alone_gen_a(seed), alone_gen_b(seed + 1);
  StepWorkspace ws_a, ws_b, ws_alone;
  const CountLane lanes[] = {{&a, &gen_a, &ws_a}, {&b, &gen_b, &ws_b}};
  for (int round = 0; round < 25; ++round) {
    step_count_based(dynamics, std::span<const CountLane>(lanes));
    step_count_based(dynamics, alone_a, alone_gen_a, ws_alone);
    step_count_based(dynamics, alone_b, alone_gen_b, ws_alone);
    ASSERT_EQ(a, alone_a) << dynamics.name() << " lane A, round " << round;
    ASSERT_EQ(b, alone_b) << dynamics.name() << " lane B, round " << round;
    ASSERT_EQ(gen_a(), alone_gen_a()) << dynamics.name() << " lane A stream, round " << round;
    ASSERT_EQ(gen_b(), alone_gen_b()) << dynamics.name() << " lane B stream, round " << round;
  }
}

class LockstepStep : public ::testing::TestWithParam<const Dynamics*> {};

TEST_P(LockstepStep, EqualsEachLaneAlone) {
  const Dynamics& dynamics = *GetParam();
  // Lanes of different k and n, one with an empty class.
  const Configuration a = in_state_space(dynamics, Configuration({400, 0, 250, 200, 150}));
  const Configuration b = in_state_space(dynamics, workloads::additive_bias(30000, 12, 900));
  expect_lockstep_matches_alone(dynamics, a, b, 71);
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;

INSTANTIATE_TEST_SUITE_P(AllDynamics, LockstepStep,
                         ::testing::Values(&kMajority, &kVoter, &kTwoChoices, &kMedian,
                                           &kMedianOwnTwo, &kUndecided),
                         [](const auto& info) {
                           std::string name = info.param->name();
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

TEST(LockstepStep, SparseK301BesideADenseLane) {
  // The sparse-class kernel's workload (300 colors, 3 occupied) batched
  // with a 4-color lane: the lanes run out of occupied classes at
  // different batches.
  std::vector<count_t> counts(300, 0);
  counts[0] = 60000;
  counts[17] = 30000;
  counts[255] = 10000;
  const Configuration wide =
      UndecidedState::extend_with_undecided(Configuration(std::move(counts)));
  const Configuration narrow =
      UndecidedState::extend_with_undecided(Configuration({40000, 35000, 15000, 10000}));
  expect_lockstep_matches_alone(kUndecided, wide, narrow, 424242);
}

TEST(LockstepStep, RejectsAnEmptyOrOversizedBatch) {
  Configuration c({10, 20});
  rng::Xoshiro256pp gen(1);
  StepWorkspace ws;
  const CountLane lane{&c, &gen, &ws};
  const CountLane three[] = {lane, lane, lane};
  EXPECT_THROW(step_count_based(kMajority, std::span<const CountLane>()), CheckError);
  EXPECT_THROW(step_count_based(kMajority, std::span<const CountLane>(three)), CheckError);
}

#if defined(PLURALITY_HAVE_OPENMP)

// --- 2. Through the driver, at one and two lanes per thread. -------------

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

struct Outcome {
  bool begun = false;
  bool ended = false;
  bool in_order = true;
  round_t last_round = 0;
  StopReason reason = StopReason::RoundLimit;
  round_t rounds = 0;
  std::vector<count_t> final_counts;
};

/// Records each trial's stop and checks its call order (begin_trial, rounds
/// 1, 2, ..., end_trial at the last observed round). Callbacks run on the
/// team's threads, so they only write their trial's slot; the test reads
/// the slots after the driver returns. Optionally fires `cancel` once any
/// trial reaches `fire_round`.
class LaneRecorder final : public RoundObserver {
 public:
  explicit LaneRecorder(std::uint64_t trials, CancellationToken* cancel = nullptr,
                        round_t fire_round = 0)
      : slots_(trials), cancel_(cancel), fire_round_(fire_round) {}

  void begin_trial(std::uint64_t trial, const Configuration&, state_t) override {
    Outcome& o = slots_[trial];
    if (o.begun) o.in_order = false;
    o.begun = true;
  }
  void observe_round(std::uint64_t trial, round_t round, const Configuration&,
                     state_t) override {
    Outcome& o = slots_[trial];
    if (!o.begun || o.ended || round != o.last_round + 1) o.in_order = false;
    o.last_round = round;
    if (cancel_ != nullptr && round >= fire_round_) {
      cancel_->cancel(CancellationToken::Reason::kShutdown);
    }
  }
  void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                 const Configuration& final, state_t) override {
    Outcome& o = slots_[trial];
    if (!o.begun || o.ended || rounds != o.last_round) o.in_order = false;
    o.ended = true;
    o.reason = reason;
    o.rounds = rounds;
    o.final_counts.assign(final.counts().begin(), final.counts().end());
  }

  [[nodiscard]] const std::vector<Outcome>& outcomes() const { return slots_; }

 private:
  std::vector<Outcome> slots_;
  CancellationToken* cancel_;
  round_t fire_round_;
};

/// Each trial run alone through run_dynamics: its own stream, its own
/// factory start, no other trial beside it.
std::vector<RunResult> alone(const Dynamics& dynamics, const ConfigFactory& factory,
                             const CommonTrialOptions& options) {
  RunOptions run;
  run.max_rounds = options.max_rounds;
  run.adversary = options.adversary;
  run.stop_predicate = options.stop_predicate;
  const rng::StreamFactory streams(options.seed);
  std::vector<RunResult> results;
  for (std::uint64_t trial = 0; trial < options.trials; ++trial) {
    rng::Xoshiro256pp gen = streams.stream(trial);
    const Configuration start = factory(trial, gen);
    results.push_back(run_dynamics(dynamics, start, run, gen));
  }
  return results;
}

void expect_matches_alone(const Outcome& got, const RunResult& want, const std::string& where) {
  EXPECT_TRUE(got.in_order) << where;
  EXPECT_TRUE(got.ended) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.final_counts, std::vector<count_t>(want.final_config.counts().begin(),
                                                   want.final_config.counts().end()))
      << where;
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b,
                         const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.consensus_count, b.consensus_count) << where;
  EXPECT_EQ(a.plurality_wins, b.plurality_wins) << where;
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits) << where;
  EXPECT_EQ(a.predicate_stops, b.predicate_stops) << where;
  EXPECT_EQ(a.rounds.count(), b.rounds.count()) << where;
  if (a.rounds.count() > 0 && b.rounds.count() > 0) {
    EXPECT_EQ(a.rounds.mean(), b.rounds.mean()) << where;  // bitwise, not near
  }
  EXPECT_EQ(a.round_samples, b.round_samples) << where;  // order included
}

constexpr std::uint64_t kTrials = 6;
/// Budgets giving 6 trials two lanes per thread (1 and 3 threads) and one
/// (4 threads).
constexpr int kBudgets[] = {1, 3, 4};

TEST(Lanes, TheBudgetReachesOneAndTwoLanes) {
  std::set<int> lanes;
  for (const int threads : kBudgets) {
    lanes.insert(plan_execution(kTrials, TrialDriver::Count, 0, threads).lanes);
  }
  EXPECT_EQ(lanes, (std::set<int>{1, 2}));
}

/// Runs the trials at every budget: each trial must match its lone run,
/// and every budget's summary the 1-thread one, which is returned.
TrialSummary expect_lanes_invisible(const std::string& name, const Dynamics& dynamics,
                            const ConfigFactory& factory, CommonTrialOptions options) {
  options.trials = kTrials;
  const std::vector<RunResult> want = alone(dynamics, factory, options);
  TrialSummary reference;
  for (const int threads : kBudgets) {
    ThreadCountGuard guard(threads);
    const int lanes = plan_execution(kTrials, TrialDriver::Count, 0, threads).lanes;
    const std::string where =
        name + " at " + std::to_string(threads) + " threads, " + std::to_string(lanes) + " lanes";
    LaneRecorder recorder(kTrials);
    options.observer = &recorder;
    const TrialSummary summary = run_trials(dynamics, factory, options);
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      expect_matches_alone(recorder.outcomes()[t], want[t],
                           where + ", trial " + std::to_string(t));
    }
    if (threads == kBudgets[0]) {
      EXPECT_GT(summary.rounds.count(), 0u) << where << ": no trial stopped";
      reference = summary;
    } else {
      expect_same_summary(summary, reference, where);
    }
  }
  return reference;
}

ConfigFactory fixed(const Configuration& start) {
  return [start](std::uint64_t, rng::Xoshiro256pp&) { return start; };
}

/// Trials of different lengths: each start's bias is drawn from the
/// trial's own stream, so the two lanes of a thread stop at different
/// rounds and refill out of step.
ConfigFactory varied(count_t n, state_t k) {
  return [n, k](std::uint64_t, rng::Xoshiro256pp& gen) {
    return workloads::additive_bias(n, k, 50 + gen() % 400);
  };
}

TEST(Lanes, ThreeMajority) {
  CommonTrialOptions options;
  options.seed = 11;
  options.max_rounds = 4000;
  expect_lanes_invisible("3-majority", kMajority, varied(3000, 4), options);
}

TEST(Lanes, UndecidedIncludingSparseK301) {
  CommonTrialOptions options;
  options.seed = 12;
  options.max_rounds = 4000;
  expect_lanes_invisible(
      "undecided", kUndecided,
      fixed(UndecidedState::extend_with_undecided(workloads::additive_bias(2400, 3, 400))),
      options);

  std::vector<count_t> counts(300, 0);
  counts[0] = 6000;
  counts[17] = 3000;
  counts[255] = 1000;
  options.seed = 13;
  expect_lanes_invisible(
      "undecided k=301", kUndecided,
      fixed(UndecidedState::extend_with_undecided(Configuration(std::move(counts)))), options);
}

TEST(Lanes, AdversaryPredicateObserverAndCancel) {
  const BoostRunnerUp adversary(20);
  CommonTrialOptions options;
  options.seed = 14;
  options.max_rounds = 4000;
  options.adversary = &adversary;
  options.stop_predicate = stop_when_any_color_reaches(2700, 4);
  const TrialSummary stopped =
      expect_lanes_invisible("adversary + predicate", kMajority, varied(3000, 4), options);
  EXPECT_GT(stopped.predicate_stops, 0u);

  // A token fired once any trial reaches round 3: the run throws, every
  // trial still sees begin, rounds in order and one end, and a trial the
  // token did not stop ends exactly as it does alone.
  options.trials = kTrials;
  const std::vector<RunResult> want = alone(kMajority, varied(3000, 4), options);
  for (const int threads : kBudgets) {
    ThreadCountGuard guard(threads);
    const std::string where = "cancel at " + std::to_string(threads) + " threads";
    CancellationToken token;
    LaneRecorder recorder(kTrials, &token, 3);
    options.observer = &recorder;
    options.cancel = &token;
    EXPECT_THROW((void)run_trials(kMajority, varied(3000, 4), options), CancelledError)
        << where;
    int cancelled = 0;
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      const Outcome& got = recorder.outcomes()[t];
      const std::string trial = where + ", trial " + std::to_string(t);
      EXPECT_TRUE(got.in_order) << trial;
      EXPECT_TRUE(got.ended) << trial;
      if (got.reason == StopReason::Cancelled) {
        ++cancelled;
        EXPECT_LE(got.rounds, want[t].rounds) << trial;
      } else {
        expect_matches_alone(got, want[t], trial);
      }
    }
    EXPECT_GT(cancelled, 0) << where;
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality
