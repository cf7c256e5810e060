// Single-run driver: advances a dynamics from an initial configuration by
// exact-law count stepping (the clique model) until color consensus (or
// another absorbing/stop condition), applying an F-bounded adversary
// after each protocol step (Section 3.1's  Random -> Adversary  round
// split). Per-round trajectories, such as the one the phase-structure
// analysis (E8) needs, are recorded by a TrajectoryObserver
// (core/observer.hpp). A run is a CountTrial, a resumable state that
// run_dynamics steps alone and run_trials steps two at a time in lockstep;
// the stop checks live there once. Per-agent runs — sparse topologies,
// and the clique when the dynamics has no exact law — go through
// graph::run_graph_trials.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/adversary.hpp"
#include "core/backend.hpp"
#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "core/engine_mode.hpp"
#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"
#include "support/cancellation.hpp"
#include "support/types.hpp"

namespace plurality {

class RoundObserver;  // core/observer.hpp

/// One sampled point of a run's trajectory (colors only; auxiliary states
/// count toward minority_mass) — what TrajectoryObserver records.
struct TrajectoryPoint {
  round_t round;
  state_t plurality_color;
  count_t plurality_count;
  count_t runner_up_count;
  count_t bias;
  count_t minority_mass;
};

enum class StopReason {
  ColorConsensus,   // all n nodes on one color — the absorbing goal state
  NonColorAbsorbed, // absorbed in a non-color state (all-undecided)
  PredicateMet,     // caller's stop_predicate returned true
  RoundLimit,       // max_rounds exhausted without absorption
  Cancelled,        // RunOptions::cancel fired — result must be discarded
};

struct RunResult {
  round_t rounds = 0;
  StopReason reason = StopReason::RoundLimit;
  /// Winning color; only meaningful for ColorConsensus.
  state_t winner = 0;
  /// Plurality color of the INITIAL configuration (lowest index on ties).
  state_t initial_plurality = 0;
  /// reason == ColorConsensus && winner == initial_plurality.
  bool plurality_won = false;
  /// Final configuration at stop time.
  Configuration final_config;
};

struct RunOptions {
  round_t max_rounds = 1'000'000;
  /// Stepping pipeline. Strict is the bitwise-pinned xoshiro default;
  /// Batched steps with block-generated PhiloxStream uniforms through the same exact conditional-binomial kernels (the
  /// count-side face of the graph engine's mode axis — distributionally
  /// equivalent, not bitwise). The Philox stream is keyed off one draw from
  /// the caller's generator, so trials stay independent and thread-
  /// invariant; adversary and factory randomness keep using the caller's
  /// generator either way.
  EngineMode engine = EngineMode::Strict;
  /// Applied after every protocol step.
  const Adversary* adversary = nullptr;
  /// Optional extra stop condition, checked after each round:
  /// (configuration, round) -> stop?
  std::function<bool(const Configuration&, round_t)> stop_predicate;
  /// Per-round probe pipeline (core/observer.hpp): begin_trial before the
  /// first step, observe_round after each materialized round (protocol +
  /// adversary), end_trial at stop. Observers read the configuration only
  /// and draw no RNG, so wiring one in never changes the run's results
  /// (pinned by tests/core/test_observer.cpp).
  RoundObserver* observer = nullptr;
  /// Trial index forwarded to the observer's callbacks (run_trials sets it;
  /// standalone runs default to 0).
  std::uint64_t observer_trial = 0;
  /// Cooperative cancellation (support/cancellation.hpp): checked between
  /// rounds (one relaxed atomic load). A fired token stops the run at the
  /// next round boundary with StopReason::Cancelled — the run's partial
  /// state is NOT a valid result and must be discarded by the caller (the
  /// trial drivers translate it into a CancelledError once outside their
  /// parallel regions). nullptr = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// One run of run_dynamics as a resumable state, so a driver can keep
/// several runs in flight and step them in lockstep (step_trials). The stop
/// sequence lives here and nowhere else: the constructor calls begin_trial
/// and runs the round-0 checks; each round then checks the cancel token,
/// steps the protocol, applies the adversary, calls observe_round, and
/// checks consensus, monochromatic absorption, the stop predicate and the
/// round limit, in that order; end_trial comes with the stop.
class CountTrial {
 public:
  /// Borrows `dynamics`, `options`, `gen` and `ws` for the run's lifetime.
  /// The run may be done at once (round-0 stop).
  CountTrial(const Dynamics& dynamics, Configuration start, const RunOptions& options,
             rng::Xoshiro256pp& gen, StepWorkspace& ws);

  [[nodiscard]] bool done() const { return done_; }

  /// The finished run (call once, when done()).
  [[nodiscard]] RunResult take_result();

 private:
  friend void step_trials(std::span<CountTrial* const> trials);

  /// The cancel check before a round; false once the run is stopped.
  bool begin_round();
  /// Everything after the protocol step, through the stop checks.
  void end_round();
  void finish(round_t rounds, StopReason reason);

  const Dynamics& dynamics_;
  const RunOptions& options_;
  rng::Xoshiro256pp& gen_;
  StepWorkspace& ws_;
  /// Keyed off one draw of `gen_` in the Batched engine (see
  /// RunOptions::engine); empty in Strict.
  std::optional<rng::PhiloxStream> philox_;
  state_t num_colors_;
  round_t round_ = 0;
  bool done_ = false;
  RunResult result_;
  Configuration config_;
};

/// Advances every run in `trials` (1 to rng::kMaxLanes runs, none done, of
/// one dynamics and engine) by one round, drawing their protocol steps as
/// one lockstep batch (step_count_based over lanes). A run stopped by its
/// cancel token takes no step.
void step_trials(std::span<CountTrial* const> trials);

/// Runs `dynamics` from `start` (already in the dynamics' state space —
/// use UndecidedState::extend_with_undecided for protocols with auxiliary
/// states). Requires dynamics.has_exact_law(start.k()). Advances `gen` as
/// its randomness source. `ws` is the stepping scratch; callers running
/// many runs (run_trials) pass one workspace per trial in flight so
/// steady-state rounds allocate nothing. Workspace sharing never affects
/// results (it is pure scratch — see step_workspace.hpp). This is the
/// one-lane use of CountTrial and step_trials.
RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen,
                       StepWorkspace& ws);

/// Convenience overload for one-off runs; allocates a throwaway workspace.
RunResult run_dynamics(const Dynamics& dynamics, const Configuration& start,
                       const RunOptions& options, rng::Xoshiro256pp& gen);

/// Stop predicate for Theorem 2-style experiments: stop once any color
/// reaches `threshold` nodes.
std::function<bool(const Configuration&, round_t)> stop_when_any_color_reaches(
    count_t threshold, state_t num_colors);

/// Stop predicate for Corollary 4: stop once all but at most M nodes hold
/// `color`.
std::function<bool(const Configuration&, round_t)> stop_at_m_plurality(
    count_t m, state_t color);

}  // namespace plurality
