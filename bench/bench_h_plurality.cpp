// E5 — Theorem 4: the h-plurality dynamics gains at most ~h^2 from larger
// samples.
//
// Workload: near-balanced k-color start (the lower-bound regime). For each
// h we measure rounds to consensus and report the speedup relative to
// h = 3. The paper's bound T = Omega(k/h^2) caps the speedup at
// (h/3)^2 * polylog; the table's "speedup vs (h/3)^2" column should stay
// O(1) — polylog sample sizes can only buy polylog factors.
//
// Backend ablation (called out in DESIGN.md): the exact enumeration law is
// used while C(h+k-1, h) fits the budget, O(n h) per-agent stepping on the
// graph engine's implicit clique beyond; the backend column records which
// ran.
#include <cmath>
#include <iostream>

#include "common/experiment.hpp"
#include "core/hplurality.hpp"
#include "core/trials.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "support/format.hpp"

namespace plurality::bench {
namespace {

int run(int argc, const char* const* argv) {
  Experiment exp("E5", "h-plurality: speedup ceiling in the sample size",
                 "Theorem 4 (Lemma 9)", "bench_h_plurality");
  exp.cli().add_uint("n", 0, "number of nodes (0 = mode default)");
  exp.cli().add_uint("k", 0, "number of colors (0 = mode default)");
  if (!exp.parse(argc, argv)) return 0;

  const count_t n = exp.cli().get_uint("n") != 0 ? exp.cli().get_uint("n")
                                                 : exp.scaled<count_t>(30'000, 100'000, 500'000);
  const state_t k = exp.cli().get_uint("k") != 0
                        ? static_cast<state_t>(exp.cli().get_uint("k"))
                        : exp.scaled<state_t>(16, 32, 32);
  const std::uint64_t trials =
      exp.trials() != 0 ? exp.trials() : exp.scaled<std::uint64_t>(5, 10, 30);

  exp.record().add("workload", "near_balanced(n, k, 0.25)");
  exp.record().add("n", format_count(n));
  exp.record().add("k", std::to_string(k));
  exp.record().add("trials/point", std::to_string(trials));
  exp.record().set_expectation(
      "speedup(h) = T(3)/T(h) <= c (h/3)^2: the ratio column stays O(1) "
      "while h grows");
  exp.print_header();

  const Configuration start = workloads::near_balanced(n, k, 0.25);
  const graph::AgentGraph clique = graph::AgentGraph::complete(n);
  io::Table table({"h", "backend", "rounds (mean ± ci)", "speedup vs h=3",
                   "(h/3)^2", "speedup/(h/3)^2", "win rate"});

  double base_rounds = 0.0;
  for (unsigned h : {3u, 5u, 9u, 13u, 17u}) {
    HPlurality dynamics(h);
    const bool exact = dynamics.has_exact_law(k);
    CommonTrialOptions options;
    options.trials = trials;
    options.seed = exp.seed() + h;
    options.max_rounds = exp.max_rounds();
    const TrialSummary summary = exact
                                     ? run_trials(dynamics, start, options)
                                     : graph::run_graph_trials(dynamics, clique, start, options);

    if (h == 3) base_rounds = summary.rounds.mean();
    const double speedup = base_rounds / summary.rounds.mean();
    const double quadratic = (static_cast<double>(h) / 3.0) * (static_cast<double>(h) / 3.0);
    table.row()
        .cell(static_cast<std::uint64_t>(h))
        .cell(exact ? "count-based (exact law)" : "graph clique (O(nh)/round)")
        .cell(mean_ci_cell(summary.rounds.mean(), summary.rounds.ci95_halfwidth()))
        .cell(speedup, 3)
        .cell(quadratic, 3)
        .cell(speedup / quadratic, 3)
        .percent(summary.win_rate());
  }
  exp.emit(table);

  std::cout << "\n(Theorem 4: T = Omega(k/h^2) from near-balanced starts, i.e. the\n"
               " speedup/(h/3)^2 column is bounded — most gains per sample arrive\n"
               " early, and polylog h yields only polylog speedup.)\n";
  exp.finish();
  return 0;
}

}  // namespace
}  // namespace plurality::bench

int main(int argc, char** argv) { return plurality::bench::run(argc, argv); }
