#include "core/observer.hpp"

#include "support/check.hpp"

namespace plurality {

namespace {

TrajectoryPoint trajectory_point(const Configuration& config, state_t num_colors,
                                 round_t round) {
  const state_t plurality = config.plurality(num_colors);
  return TrajectoryPoint{
      .round = round,
      .plurality_color = plurality,
      .plurality_count = config.at(plurality),
      .runner_up_count = num_colors >= 2 ? config.runner_up_count(num_colors) : 0,
      .bias = config.bias(num_colors),
      .minority_mass = config.minority_mass(num_colors),
  };
}

}  // namespace

ProbeObserver::ProbeObserver(const ProbeOptions& options)
    : options_(options), m_sketch_(options.sketch_capacity) {
  PLURALITY_REQUIRE(options.trials > 0, "ProbeObserver: need at least one trial");
  PLURALITY_REQUIRE(options.trajectory_stride >= 1,
                    "ProbeObserver: trajectory_stride must be >= 1");
  // Everything the per-round callbacks touch is allocated here, once, so an
  // observed warm round stays heap-free (tests/alloc pins this).
  rows_.resize(options.trials * options.trajectory_capacity);
  row_count_.assign(options.trials, 0);
  time_to_m_.assign(options.trials, -1.0);
  final_fraction_.assign(options.trials, -1.0);
  final_support_.assign(options.trials, -1.0);
  final_mono_.assign(options.trials, -1.0);
}

void ProbeObserver::probe(std::uint64_t trial, round_t round, const Configuration& config,
                          state_t num_colors) {
  const count_t n = config.n();
  const count_t cmax = config.plurality_count(num_colors);
  const double fraction = static_cast<double>(cmax) / static_cast<double>(n);

  state_t support = 0;
  for (state_t j = 0; j < num_colors; ++j) support += config.at(j) > 0 ? 1 : 0;

  // All mass can sit in auxiliary states (all-undecided absorption); the
  // distance is defined over colors, so report 0 rather than divide by 0.
  const double mono = cmax > 0 ? config.monochromatic_distance(num_colors) : 0.0;

  if (options_.track_m_plurality && time_to_m_[trial] < 0.0 &&
      n - cmax <= options_.m_plurality) {
    time_to_m_[trial] = static_cast<double>(round);
  }

  if (options_.trajectory_capacity > 0 && round % options_.trajectory_stride == 0) {
    const std::uint32_t used = row_count_[trial];
    if (used < options_.trajectory_capacity) {
      rows_[trial * options_.trajectory_capacity + used] =
          ProbeRow{round, fraction, support, mono};
      row_count_[trial] = used + 1;
    }
  }

  // Overwritten every round; end_trial freezes the last materialized state.
  final_fraction_[trial] = fraction;
  final_support_[trial] = static_cast<double>(support);
  final_mono_[trial] = mono;
}

void ProbeObserver::begin_trial(std::uint64_t trial, const Configuration& start,
                                state_t num_colors) {
  PLURALITY_REQUIRE(trial < options_.trials,
                    "ProbeObserver::begin_trial: trial out of range");
  // Reset the trial's slots (observers may be reused across driver calls),
  // then record round 0.
  row_count_[trial] = 0;
  time_to_m_[trial] = -1.0;
  probe(trial, 0, start, num_colors);
}

void ProbeObserver::observe_round(std::uint64_t trial, round_t round,
                                  const Configuration& config, state_t num_colors) {
  probe(trial, round, config, num_colors);
}

void ProbeObserver::end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                              const Configuration& final, state_t num_colors) {
  (void)reason;
  (void)rounds;
  // The final configuration was already probed (observe_round runs before
  // the driver's stop checks; round-0 stops were probed by begin_trial), so
  // there is nothing to recompute — the per-trial final slots hold it.
  (void)final;
  (void)num_colors;
  PLURALITY_REQUIRE(trial < options_.trials, "ProbeObserver::end_trial: trial out of range");
}

void ProbeObserver::finalize() {
  PLURALITY_REQUIRE(!finalized_, "ProbeObserver::finalize: already finalized");
  finalized_ = true;
  for (std::uint64_t trial = 0; trial < options_.trials; ++trial) {
    if (time_to_m_[trial] >= 0.0) {
      ++m_hits_;
      m_sketch_.add(time_to_m_[trial]);
    }
    if (final_fraction_[trial] >= 0.0) {
      final_fraction_stats_.add(final_fraction_[trial]);
      final_support_stats_.add(final_support_[trial]);
      final_mono_stats_.add(final_mono_[trial]);
    }
  }
}

std::span<const ProbeRow> ProbeObserver::trajectory(std::uint64_t trial) const {
  PLURALITY_REQUIRE(trial < options_.trials, "ProbeObserver::trajectory: trial out of range");
  return {rows_.data() + trial * options_.trajectory_capacity, row_count_[trial]};
}

double ProbeObserver::time_to_m(std::uint64_t trial) const {
  PLURALITY_REQUIRE(trial < options_.trials, "ProbeObserver::time_to_m: trial out of range");
  return time_to_m_[trial];
}

void TrajectoryObserver::begin_trial(std::uint64_t trial, const Configuration& start,
                                     state_t num_colors) {
  if (trial != 0) return;
  points_.assign(1, trajectory_point(start, num_colors, 0));
  initial_plurality_ = start.plurality(num_colors);
}

void TrajectoryObserver::observe_round(std::uint64_t trial, round_t round,
                                       const Configuration& config, state_t num_colors) {
  if (trial == 0) points_.push_back(trajectory_point(config, num_colors, round));
}

void TrajectoryObserver::end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                                   const Configuration& final, state_t num_colors) {
  if (trial != 0) return;
  reason_ = reason;
  rounds_ = rounds;
  plurality_won_ = reason == StopReason::ColorConsensus &&
                   final.plurality(num_colors) == initial_plurality_;
}

}  // namespace plurality
