#include "core/trials.hpp"

#include <array>
#include <atomic>
#include <optional>
#include <span>

#include "core/observer.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {

double TrialSummary::win_rate() const {
  PLURALITY_REQUIRE(trials > 0, "TrialSummary::win_rate: no trials");
  return static_cast<double>(plurality_wins) / static_cast<double>(trials);
}

double TrialSummary::consensus_rate() const {
  PLURALITY_REQUIRE(trials > 0, "TrialSummary::consensus_rate: no trials");
  return static_cast<double>(consensus_count) / static_cast<double>(trials);
}

stats::ProportionCi TrialSummary::win_ci() const {
  return stats::wilson_interval(plurality_wins, trials);
}

TrialOutcomes::TrialOutcomes(std::uint64_t trials, std::size_t exact_round_samples)
    : trials_(trials),
      exact_round_samples_(exact_round_samples),
      won_(trials, 0),
      consensus_(trials, 0),
      limited_(trials, 0),
      predicate_(trials, 0),
      round_samples_(trials, -1.0) {
  PLURALITY_REQUIRE(trials > 0, "TrialOutcomes: need at least one trial");
  // Fail fast: summarize() builds a QuantileSketch with this capacity, and
  // discovering a bad value only after every trial ran would lose the run.
  PLURALITY_REQUIRE(exact_round_samples >= 2,
                    "TrialOutcomes: exact_round_samples must be >= 2, got "
                        << exact_round_samples);
}

void TrialOutcomes::record(std::uint64_t trial, StopReason reason, bool plurality_won,
                           round_t rounds) {
  PLURALITY_REQUIRE(trial < trials_, "TrialOutcomes::record: trial out of range");
  switch (reason) {
    case StopReason::ColorConsensus:
      consensus_[trial] = 1;
      won_[trial] = plurality_won ? 1 : 0;
      round_samples_[trial] = static_cast<double>(rounds);
      break;
    case StopReason::PredicateMet:
      predicate_[trial] = 1;
      round_samples_[trial] = static_cast<double>(rounds);
      break;
    case StopReason::RoundLimit:
      limited_[trial] = 1;
      break;
    case StopReason::NonColorAbsorbed:
      break;
    case StopReason::Cancelled:
      // A cancelled trial has no outcome; the driver throws CancelledError
      // after joining, so this recording is never summarized.
      break;
  }
}

TrialSummary TrialOutcomes::summarize() const {
  TrialSummary summary;
  summary.trials = trials_;
  summary.round_quantiles = stats::QuantileSketch(exact_round_samples_);
  for (std::uint64_t trial = 0; trial < trials_; ++trial) {
    summary.consensus_count += consensus_[trial];
    summary.plurality_wins += won_[trial];
    summary.round_limit_hits += limited_[trial];
    summary.predicate_stops += predicate_[trial];
    if (round_samples_[trial] >= 0.0) {
      summary.rounds.add(round_samples_[trial]);
      summary.round_quantiles.add(round_samples_[trial]);
      if (summary.round_samples.size() < exact_round_samples_) {
        summary.round_samples.push_back(round_samples_[trial]);
      }
    }
  }
  if (!summary.round_quantiles.exact()) {
    // Past the cap the vector would be a misleading prefix; the sketch
    // carries a capacity-sized uniform sample instead.
    summary.round_samples.clear();
    summary.round_samples.shrink_to_fit();
  }
  return summary;
}

namespace {

/// One trial slot of a thread: the trial's generator, scratch and options
/// copy (carrying the trial index to the observer), reused by every trial
/// the slot runs.
struct Lane {
  rng::Xoshiro256pp gen{0};
  StepWorkspace ws;
  RunOptions run;
  std::optional<CountTrial> trial;
};

}  // namespace

TrialSummary run_trials(const Dynamics& dynamics, const ConfigFactory& factory,
                        const CommonTrialOptions& options) {
  PLURALITY_REQUIRE(options.trials > 0, "run_trials: need at least one trial");
  PLURALITY_REQUIRE(options.mode == EngineMode::Strict,
                    "run_trials: the count driver has one engine, strict; the batched "
                    "pipeline runs on the graph driver (graph::run_graph_trials)");
  RunOptions run_options;
  run_options.max_rounds = options.max_rounds;
  run_options.adversary = options.adversary;
  run_options.stop_predicate = options.stop_predicate;
  run_options.observer = options.observer;
  run_options.cancel = options.cancel;

  const rng::StreamFactory streams(options.seed);
  TrialOutcomes outcomes(options.trials, options.exact_round_samples);

  // The count driver's plan does not depend on n (its rounds have no
  // parallel loop), so no start needs building to make it.
  const ExecutionPlan plan =
      options.plan ? *options.plan
                   : plan_execution(options.trials, TrialDriver::Count, 0,
                                    execution_thread_budget());
  const auto lanes = static_cast<std::size_t>(plan.lanes);
  PLURALITY_CHECK_MSG(lanes >= 1 && lanes <= rng::kMaxLanes, "run_trials: lanes " << lanes);

  // Threads take trials from one counter, and each of a thread's lanes
  // takes the next trial as soon as its own ends. Lanes are pure scratch
  // plus a trial's own hash-derived stream, so which thread or lane runs
  // which trial, and beside which other trial, cannot affect results.
  std::atomic<std::uint64_t> next_trial{0};
  const auto run_thread = [&] {
    std::array<Lane, rng::kMaxLanes> slots;
    const auto record = [&](Lane& lane) {
      const RunResult result = lane.trial->take_result();
      outcomes.record(lane.run.observer_trial, result.reason, result.plurality_won,
                      result.rounds);
    };
    // Starts the next unclaimed trial in `lane`, recording (and replacing)
    // trials that stop at round 0; leaves the lane empty once none remain.
    const auto refill = [&](Lane& lane) {
      for (;;) {
        lane.trial.reset();
        const std::uint64_t trial = next_trial.fetch_add(1, std::memory_order_relaxed);
        if (trial >= options.trials) return;
        lane.gen = streams.stream(trial);
        lane.run.observer_trial = trial;
        lane.trial.emplace(dynamics, factory(trial, lane.gen), lane.run, lane.gen, lane.ws);
        if (!lane.trial->done()) return;
        record(lane);
      }
    };
    for (std::size_t l = 0; l < lanes; ++l) {
      slots[l].run = run_options;
      refill(slots[l]);
    }
    std::array<CountTrial*, rng::kMaxLanes> live;
    for (;;) {
      std::size_t count = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (slots[l].trial) live[count++] = &*slots[l].trial;
      }
      if (count == 0) return;
      step_trials(std::span<CountTrial* const>(live.data(), count));
      for (std::size_t l = 0; l < lanes; ++l) {
        Lane& lane = slots[l];
        if (!lane.trial || !lane.trial->done()) continue;
        record(lane);
        refill(lane);
      }
    }
  };

#if defined(PLURALITY_HAVE_OPENMP)
  if (plan.parallelism == Parallelism::Trials) {
#pragma omp parallel
    run_thread();
  } else {
    run_thread();
  }
#else
  run_thread();
#endif

  // Unwinding is only safe here, outside the OpenMP region. Any token that
  // fired poisons the whole run: partial summaries are not reproducible.
  if (options.cancel != nullptr && options.cancel->stop_requested()) {
    throw CancelledError(options.cancel->reason());
  }

  return outcomes.summarize();
}

TrialSummary run_trials(const Dynamics& dynamics, const Configuration& start,
                        const CommonTrialOptions& options) {
  return run_trials(
      dynamics,
      [&start](std::uint64_t, rng::Xoshiro256pp&) { return start; },
      options);
}

}  // namespace plurality
