// PERF — the execution planner's rule (core/execution_plan.hpp).
//
// The planner gives the OpenMP team to each round while it has at least
// two threads per trial, and to the trials otherwise.
// This bench measures that trial-count threshold: for trials = 1 ..
// threads it runs the same trials with CommonTrialOptions::parallelism
// forced to Trials and to Rounds, the two shapes interleaved per
// repetition, every trial capped at the cell's round count. Results are
// bitwise equal either way (tests/core/test_execution_plan.cpp), so both
// shapes do identical work and only time differs.
//
// Cells (compiled through the scenario layer, default layout and backend):
//   regular:8 strict   — dynamics=3-majority workload=bias:2c n=1e6 k=8,
//                        20 rounds per trial
//   gossip batched     — dynamics=3-majority workload=bias:2c n=2^24 k=8,
//                        6 rounds per trial
// (--quick: n=1e5 and 2^18.)
//
// Reports median wall times, Trials/Rounds (> 1: Rounds is faster) and what
// the planner picks. Writes BENCH_planner.json (override with --json).
// docs/performance.md ("Execution plan") records a run.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "harness.hpp"
#include "core/execution_plan.hpp"
#include "graph/graph_trials.hpp"
#include "io/json.hpp"
#include "scenario/scenario.hpp"
#include "stats/quantile.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"

namespace plurality::bench {
namespace {

struct Cell {
  std::string name;
  std::string spec;
  count_t n;
  round_t rounds;  // per-trial round cap
};

struct Sample {
  double trials_s = 0.0;  // median wall time, Parallelism::Trials
  double rounds_s = 0.0;  // median wall time, Parallelism::Rounds
  double node_updates = 0.0;
};

/// Median wall time of `trials` trials under each shape over `reps`
/// interleaved repetitions. Short runs (--quick) repeat inside a sample
/// until it lasts ~0.1 s, so timer and fork/join noise stay below the
/// signal.
Sample measure(const scenario::Scenario& compiled, std::uint64_t trials, round_t cap,
               std::uint64_t reps) {
  const auto run = [&](Parallelism p) {
    CommonTrialOptions options = compiled.options();
    options.trials = trials;
    options.max_rounds = cap;
    options.parallelism = p;
    return graph::run_graph_trials(compiled.dynamics(), compiled.graph(), compiled.start(),
                                   options);
  };
  WallTimer calibrate;
  const TrialSummary summary = run(Parallelism::Rounds);
  const int inner = static_cast<int>(std::clamp(std::ceil(0.1 / calibrate.seconds()), 1.0, 1e4));
  PLURALITY_REQUIRE(summary.round_limit_hits == trials,
                    "bench_planner: a trial stopped before the round cap");

  std::vector<double> trial_s, round_s;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    for (const Parallelism p : {Parallelism::Trials, Parallelism::Rounds}) {
      WallTimer timer;
      for (int i = 0; i < inner; ++i) (void)run(p);
      (p == Parallelism::Trials ? trial_s : round_s).push_back(timer.seconds() / inner);
    }
  }
  return {stats::median(trial_s), stats::median(round_s),
          static_cast<double>(trials * cap) * static_cast<double>(compiled.start().n())};
}

int run(int argc, const char* const* argv) {
  Experiment exp("PERF-planner",
                 "Execution planner: trial-level vs round-level parallelism",
                 "performance (execution plan rule)", "bench_planner");
  exp.cli().add_uint("reps", 0, "interleaved repetitions per cell (0 = mode default)");
  exp.cli().add_string("json", "BENCH_planner.json",
                       "write machine-readable results to this JSON path");
  if (!exp.parse(argc, argv)) return 0;

  const std::uint64_t reps = exp.cli().get_uint("reps") != 0
                                 ? exp.cli().get_uint("reps")
                                 : exp.scaled<std::uint64_t>(1, 5, 9);
  const int threads = static_cast<int>(exp.threads());
  const std::vector<Cell> cells = {
      {"regular:8 strict",
       "dynamics=3-majority topology=regular:8 workload=bias:2c k=8 engine=strict",
       exp.quick() ? count_t{100'000} : count_t{1'000'000}, 20},
      {"gossip batched",
       "dynamics=3-majority topology=gossip workload=bias:2c k=8 engine=batched",
       exp.quick() ? count_t{1} << 18 : count_t{1} << 24, 6},
  };
  exp.record().add("threads", std::to_string(threads));
  exp.record().add("repetitions", std::to_string(reps));
  exp.record().set_expectation(
      "Rounds wins while the team has at least two threads per trial; "
      "Trials wins once they occupy more than half the team");
  exp.print_header();

  io::JsonValue doc = make_bench_doc("planner", 1, exp);
  doc.set("repetitions", reps);
  io::JsonValue& json_rows = doc.set("cells", io::JsonValue::array());

  io::Table table({"cell", "n", "trials", "Trials s", "Rounds s", "Trials/Rounds",
                   "planner picks"});
  for (const Cell& cell : cells) {
    const scenario::Scenario compiled = scenario::Scenario::compile(
        scenario::ScenarioSpec::parse(cell.spec + " n=" + std::to_string(cell.n) +
                                      " seed=" + std::to_string(exp.seed())));
    for (std::uint64_t trials = 1; trials <= static_cast<std::uint64_t>(threads); ++trials) {
      const Sample s = measure(compiled, trials, cell.rounds, reps);
      const Parallelism pick =
          plan_execution(trials, TrialDriver::Graph, cell.n, threads).parallelism;
      table.row()
          .cell(cell.name)
          .cell(format_count(cell.n))
          .cell(static_cast<double>(trials))
          .cell(format_sig(s.trials_s, 3))
          .cell(format_sig(s.rounds_s, 3))
          .cell(format_sig(s.trials_s / s.rounds_s, 3) + "x")
          .cell(parallelism_name(pick));
      io::JsonValue& entry = json_rows.push(io::JsonValue::object());
      entry.set("cell", cell.name);
      entry.set("spec", compiled.spec().to_spec_string());
      entry.set("rounds_per_trial", std::uint64_t{cell.rounds});
      entry.set("trials", trials);
      entry.set("trials_wall_s_median", s.trials_s);
      entry.set("rounds_wall_s_median", s.rounds_s);
      entry.set("trials_node_updates_per_sec", s.node_updates / s.trials_s);
      entry.set("rounds_node_updates_per_sec", s.node_updates / s.rounds_s);
      entry.set("trials_over_rounds", s.trials_s / s.rounds_s);
      entry.set("planner", parallelism_name(pick));
    }
  }
  std::cout << "median wall time of " << reps << " interleaved repetitions\n";
  exp.emit(table, "planner");

  write_bench_json(doc, exp.cli().get_string("json"));
  exp.finish();
  return 0;
}

}  // namespace
}  // namespace plurality::bench

int main(int argc, char** argv) { return plurality::bench::run(argc, argv); }
