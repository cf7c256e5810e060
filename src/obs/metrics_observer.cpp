#include "obs/metrics_observer.hpp"

#include <array>

#include "obs/trace.hpp"

namespace plurality::obs {

EngineMetrics::EngineMetrics(MetricsRegistry& registry)
    : rounds_total(registry.counter("engine_rounds_total",
                                    "Materialized dynamics rounds across all trials")),
      node_updates_total(registry.counter(
          "engine_node_updates_total",
          "Node state updates (one per node per round) across all trials")),
      trials_started_total(
          registry.counter("engine_trials_started_total", "Trials begun by the drivers")),
      trials_finished_total(registry.counter("engine_trials_finished_total",
                                             "Trials run to a stop reason")),
      plurality_fraction(registry.gauge("engine_plurality_fraction",
                                        "Plurality fraction of the last observed round")),
      support_size(registry.gauge("engine_support_size",
                                  "Colors with support in the last observed round")),
      current_trial(registry.gauge("engine_current_trial",
                                   "Trial index of the last observed round")),
      current_round(registry.gauge("engine_current_round",
                                   "Round number of the last observed round")),
      trial_rounds(registry.histogram(
          "engine_trial_rounds",
          {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000, 100000},
          "Rounds per finished trial")) {}

MetricsObserver::MetricsObserver(MetricsRegistry& registry, RoundObserver* inner)
    : m_(registry), inner_(inner) {}

namespace {
/// Trial-span start times. Observer calls for one trial come from one
/// thread, in order, and a thread has at most rng::kMaxLanes trials in
/// flight (core/observer.hpp), so a fixed thread_local table keyed by trial
/// pairs begin_trial with its end_trial without allocating.
struct TrialStart {
  std::uint64_t trial = 0;
  double us = -1.0;  ///< -1: the entry is free
};
thread_local std::array<TrialStart, rng::kMaxLanes> t_trial_starts;

/// The entry of `trial`, else a free one, else the first (a caller
/// breaking the lane bound loses a span, never memory).
TrialStart& trial_start_entry(std::uint64_t trial) {
  TrialStart* free_entry = nullptr;
  for (TrialStart& entry : t_trial_starts) {
    if (entry.us >= 0.0 && entry.trial == trial) return entry;
    if (entry.us < 0.0 && free_entry == nullptr) free_entry = &entry;
  }
  return free_entry != nullptr ? *free_entry : t_trial_starts[0];
}
}  // namespace

void MetricsObserver::begin_trial(std::uint64_t trial, const Configuration& start,
                                  state_t num_colors) {
  m_.trials_started_total.add(1);
  m_.current_trial.set(static_cast<double>(trial));
  if (TraceRecorder::global().enabled()) {
    TrialStart& entry = trial_start_entry(trial);
    entry.trial = trial;
    entry.us = TraceRecorder::now_us();
  }
  if (inner_ != nullptr) inner_->begin_trial(trial, start, num_colors);
}

void MetricsObserver::observe_round(std::uint64_t trial, round_t round,
                                    const Configuration& config, state_t num_colors) {
  const count_t n = config.n();
  const count_t cmax = config.plurality_count(num_colors);
  state_t support = 0;
  for (state_t j = 0; j < num_colors; ++j) support += config.at(j) > 0 ? 1 : 0;

  m_.rounds_total.add(1);
  m_.node_updates_total.add(static_cast<std::uint64_t>(n));
  m_.plurality_fraction.set(static_cast<double>(cmax) / static_cast<double>(n));
  m_.support_size.set(static_cast<double>(support));
  m_.current_trial.set(static_cast<double>(trial));
  m_.current_round.set(static_cast<double>(round));

  if (inner_ != nullptr) inner_->observe_round(trial, round, config, num_colors);
}

void MetricsObserver::end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                                const Configuration& final, state_t num_colors) {
  m_.trials_finished_total.add(1);
  m_.trial_rounds.observe(static_cast<double>(rounds));
  if (TraceRecorder::global().enabled()) {
    TrialStart& entry = trial_start_entry(trial);
    if (entry.us >= 0.0 && entry.trial == trial) {
      TraceRecorder::global().record("trial", "engine", entry.us,
                                     TraceRecorder::now_us() - entry.us,
                                     "trial " + std::to_string(trial));
      entry.us = -1.0;
    }
  }
  if (inner_ != nullptr) inner_->end_trial(trial, reason, rounds, final, num_colors);
}

}  // namespace plurality::obs
