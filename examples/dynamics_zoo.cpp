// The dynamics zoo: every protocol in the library racing from the same
// starting configuration — a one-screen empirical summary of the paper.
//
//   $ ./dynamics_zoo --n 2e5 --k 6
//
// From a configuration with the plurality on an extreme color, watch:
// 3-majority win the plurality; h-plurality win faster as h grows; the
// median dynamics converge quickly but to the WRONG (median) color; the
// voter / 2-choices pair forget the bias; and the undecided-state protocol
// race ahead using its one extra memory state. The whole sweep is one
// ScenarioSpec with the `dynamics` field iterated over the registry —
// registry metadata (describe_dynamics) fills the samples/memory columns,
// and backend=auto drops large-h protocols onto the graph engine's
// per-agent clique by itself.
#include <iostream>

#include "core/registry.hpp"
#include "io/table.hpp"
#include "scenario/scenario.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"

int main(int argc, char** argv) {
  using namespace plurality;

  CliParser cli("dynamics_zoo", "all dynamics from one start, side by side");
  cli.add_uint("n", 200'000, "number of nodes");
  cli.add_uint("k", 6, "number of colors");
  cli.add_uint("trials", 40, "trials per dynamics");
  cli.add_uint("seed", 3, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const count_t n = cli.get_uint("n");
  const auto k = static_cast<state_t>(cli.get_uint("k"));
  const std::uint64_t trials = cli.get_uint("trials");

  // Plurality (30%) on color 0, an extreme of the ordered color range, so
  // plurality and median disagree; the rest balanced.
  scenario::ScenarioSpec spec;
  spec.workload = "share:0.3";
  spec.n = n;
  spec.k = k;
  spec.trials = trials;
  spec.seed = cli.get_uint("seed");
  spec.max_rounds = 2'000'000;

  std::cout << "start: share:0.3 — initial plurality: color 0 at 30%"
            << " — value-median sits at color " << (k / 2) / 2 + 1 << "-ish\n\n";

  const char* zoo[] = {"3-majority", "5-plurality", "9-plurality", "3-median",
                       "median-own2", "voter", "2-choices", "undecided"};

  io::Table table({"dynamics", "samples", "memory bits", "backend", "consensus rate",
                   "plurality wins", "rounds (mean)", "rounds (p95)"});
  for (const char* name : zoo) {
    const DynamicsInfo info = describe_dynamics(name);
    spec.dynamics = name;
    // Large-h exact laws are gated; backend=auto falls back to per-agent
    // stepping on the graph clique — cap its Θ(n·h) trials.
    spec.trials = spec.resolved_backend() == "graph" ? std::min<std::uint64_t>(trials, 10)
                                                     : trials;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const TrialSummary& summary = result.summary;
    const bool finished = summary.rounds.count() > 0;
    table.row()
        .cell(info.display_name)
        .cell(static_cast<std::uint64_t>(info.sample_arity))
        .cell(static_cast<std::uint64_t>(info.memory_bits))
        .cell(result.resolved.backend)
        .percent(summary.consensus_rate())
        .percent(summary.win_rate())
        .cell(finished ? format_sig(summary.rounds.mean(), 4) : std::string("> cap"))
        .cell(finished ? format_sig(summary.rounds_p(0.95), 4)
                       : std::string("-"));
  }
  table.print(std::cout);

  std::cout
      << "\nreading guide (all paper results, one table):\n"
         "  * 3-majority / h-plurality: plurality wins ~100%; larger h is\n"
         "    faster but by at most ~h^2 (Theorem 4)\n"
         "  * median rules: fast consensus for any k, but on the median\n"
         "    color, not the plurality (Theorem 3's non-uniform rules)\n"
         "  * voter & 2-choices: identical by Section 1's equivalence, win\n"
         "    only in proportion to the initial share\n"
         "  * undecided-state: fastest here (md(c) is small) but needs the\n"
         "    extra state and fails for k = omega(sqrt n)\n";
  return 0;
}
