// Multi-trial experiment driver: R independent runs of a dynamics, each
// trial on its own hash-derived RNG stream so results are identical no
// matter how many threads execute them or how the execution planner
// (core/execution_plan.hpp) spreads them over the OpenMP team — or which
// trial a count-driver thread steps in lockstep beside which.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/engine_mode.hpp"
#include "core/execution_plan.hpp"
#include "core/runner.hpp"
#include "rng/stream.hpp"
#include "stats/quantile_sketch.hpp"
#include "stats/summary.hpp"

namespace plurality {

/// Builds the start configuration for one trial (may itself be random,
/// e.g. sampled Zipf workloads). Must be thread-safe / pure.
using ConfigFactory = std::function<Configuration(std::uint64_t trial, rng::Xoshiro256pp&)>;

struct TrialSummary {
  std::uint64_t trials = 0;
  std::uint64_t consensus_count = 0;    // reached some color consensus
  std::uint64_t plurality_wins = 0;     // ... on the initial plurality color
  std::uint64_t round_limit_hits = 0;
  std::uint64_t predicate_stops = 0;
  /// Rounds over trials that stopped before the round limit (consensus or
  /// predicate), i.e. the quantity the theorems bound.
  stats::OnlineStats rounds;
  /// The primary quantile path: a bounded-memory sketch over the same
  /// filtered per-trial round counts (exact below its capacity, reservoir
  /// estimates above — see stats/quantile_sketch.hpp).
  stats::QuantileSketch round_quantiles;
  /// Raw per-trial round counts, same filter as `rounds`, kept verbatim
  /// only while their number stays within the driver's
  /// `exact_round_samples` cap — CLEARED above it (the sketch then holds a
  /// capacity-sized uniform sample; docs/performance.md, "round-sample
  /// memory cap"). Consumers wanting quantiles should call rounds_p().
  std::vector<double> round_samples;

  [[nodiscard]] double win_rate() const;
  [[nodiscard]] double consensus_rate() const;
  [[nodiscard]] stats::ProportionCi win_ci() const;
  /// q-th quantile of the stopped-trial round counts (requires
  /// rounds.count() > 0). Exact when the sample count is within the cap.
  [[nodiscard]] double rounds_p(double q) const { return round_quantiles.quantile(q); }
};

/// The one option set every trial driver consumes — core's run_trials and
/// graph::run_graph_trials both read it, and the scenario layer fills it
/// from a ScenarioSpec. Fields the other backend ignores are documented as
/// such rather than split out: the point is that ONE struct names the
/// whole grid axis.
struct CommonTrialOptions {
  std::uint64_t trials = 100;
  std::uint64_t seed = 1;
  /// The execution plan the driver runs: its parallelism, and on the count
  /// driver its lanes. Unset (the default) = the driver calls
  /// plan_execution at entry, from the trial count, the driver, the
  /// population and execution_thread_budget(). Scenario::compile sets the
  /// plan it resolved, so a scenario runs the plan its result echoes;
  /// tests and measurements set one to force a shape. Results are bitwise
  /// the same under any plan.
  std::optional<ExecutionPlan> plan;
  round_t max_rounds = 1'000'000;
  /// Stepping pipeline of the graph driver (see core/engine_mode.hpp):
  /// Strict = fused xoshiro kernels, Batched = counter-based stage-split
  /// SIMD pipeline. The count driver has one engine, Strict (the trial's
  /// xoshiro stream); run_trials rejects Batched.
  EngineMode mode = EngineMode::Strict;
  /// Applied after every protocol round (count-level on the count backend,
  /// node-level via corrupt_nodes on the graph backend).
  const Adversary* adversary = nullptr;
  /// Graph backend only: shuffle the node layout per trial (node position
  /// matters on sparse graphs). The count backend is exchangeable, so
  /// there is nothing to shuffle.
  bool shuffle_layout = true;
  /// Optional extra stop condition, checked at round 0 and after each
  /// round on top of the absorption checks (StopReason::PredicateMet).
  std::function<bool(const Configuration&, round_t)> stop_predicate;
  /// Per-round probe pipeline (core/observer.hpp), threaded through every
  /// driver. Observers read materialized configurations only and draw no
  /// RNG, so observer-on and observer-off runs produce bitwise-identical
  /// trial streams (tests/core/test_observer.cpp pins the driver × engine
  /// × adversary grid). Distinct trials may observe concurrently — see
  /// RoundObserver's per-trial-slot contract.
  RoundObserver* observer = nullptr;
  /// TrialSummary keeps stopped-trial round counts verbatim up to this
  /// many samples (exact quantiles); past it, round_samples is cleared and
  /// quantiles come from the streaming sketch.
  std::size_t exact_round_samples = stats::QuantileSketch::kDefaultExactCapacity;
  /// Cooperative cancellation (support/cancellation.hpp), threaded into
  /// every trial's between-rounds check by BOTH drivers. When the token
  /// fires, in-flight trials stop at their next round boundary, remaining
  /// trials drain immediately, and the driver throws CancelledError after
  /// its parallel region joins — a cancelled run never returns a partial
  /// TrialSummary. nullptr = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// Per-trial outcome flags with the shared reduction into a TrialSummary.
/// Factored out of run_trials so every trial driver (the clique driver
/// below, graph::run_graph_trials) classifies stop reasons and filters
/// round samples identically. record() writes disjoint slots, so parallel
/// trial bodies may call it concurrently without synchronization.
class TrialOutcomes {
 public:
  explicit TrialOutcomes(std::uint64_t trials,
                         std::size_t exact_round_samples =
                             stats::QuantileSketch::kDefaultExactCapacity);

  /// Records trial `trial`'s stop. `rounds` is only consumed for stops the
  /// theorems bound (consensus / predicate).
  void record(std::uint64_t trial, StopReason reason, bool plurality_won,
              round_t rounds);

  /// Reduces all recorded trials into a summary (sequential; call once).
  [[nodiscard]] TrialSummary summarize() const;

 private:
  std::uint64_t trials_;
  std::size_t exact_round_samples_;
  std::vector<std::uint8_t> won_, consensus_, limited_, predicate_;
  std::vector<double> round_samples_;
};

/// Runs `options.trials` independent runs from factory-generated starts —
/// the count-path trial driver (clique model; for sparse topologies see
/// graph::run_graph_trials, which consumes the same CommonTrialOptions).
/// Threads claim trials from a shared counter; each keeps the plan's
/// `lanes` trials in flight (CountTrial) and steps them in lockstep
/// (step_trials), starting the next trial in a lane as soon as its own
/// ends. Every trial's outcome is what run_dynamics gives it alone.
/// Throws CheckError for options.mode == Batched, a graph-driver pipeline.
TrialSummary run_trials(const Dynamics& dynamics, const ConfigFactory& factory,
                        const CommonTrialOptions& options);

/// Convenience overload: every trial starts from the same configuration.
TrialSummary run_trials(const Dynamics& dynamics, const Configuration& start,
                        const CommonTrialOptions& options);

}  // namespace plurality
