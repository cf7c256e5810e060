// Replicated-database repair under Byzantine corruption — the paper's
// first motivating application ([7], [20]): replicas hold versions of a
// record, most are correct, some are corrupted, and an active adversary
// keeps re-corrupting up to F replicas per round. The cluster must
// converge to (and then hold) the correct version on all but O(F)
// replicas using the self-stabilizing 3-majority rule (Corollary 4).
//
//   $ ./replica_repair --replicas 1e6 --versions 4 --corrupt-budget 50
#include <iostream>

#include "core/adversary.hpp"
#include "core/majority.hpp"
#include "core/observer.hpp"
#include "core/runner.hpp"
#include "core/workloads.hpp"
#include "io/table.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"

int main(int argc, char** argv) {
  using namespace plurality;

  CliParser cli("replica_repair",
                "self-stabilizing version repair in a replicated database");
  cli.add_uint("replicas", 1'000'000, "number of replicas (nodes)");
  cli.add_uint("versions", 4, "number of distinct record versions in play");
  cli.add_double("correct-share", 0.4, "fraction of replicas holding the correct version");
  cli.add_uint("corrupt-budget", 50, "replicas the adversary can corrupt per round (F)");
  cli.add_uint("stability-rounds", 300, "rounds to verify stability after repair");
  cli.add_uint("seed", 11, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const count_t n = cli.get_uint("replicas");
  const auto versions = static_cast<state_t>(cli.get_uint("versions"));
  const count_t f = cli.get_uint("corrupt-budget");
  const count_t m = 4 * f + 8;  // tolerated residual corruption

  // Version 0 is "correct" and held by a plurality; the stale versions
  // split the rest evenly.
  const Configuration start =
      workloads::plurality_share(n, versions, cli.get_double("correct-share"));
  std::cout << "cluster: " << format_count(n) << " replicas, " << versions
            << " versions; correct version held by "
            << format_percent(static_cast<double>(start.at(0)) / static_cast<double>(n))
            << "\nadversary: re-corrupts up to " << f
            << " replicas per round (targeting the strongest rival version)\n"
            << "goal: all but M = " << m << " replicas on the correct version\n\n";

  ThreeMajority dynamics;
  BoostRunnerUp adversary(f);
  rng::Xoshiro256pp gen(cli.get_uint("seed"));

  // Phase 1: repair.
  RunOptions options;
  options.adversary = &adversary;
  options.max_rounds = 100'000;
  options.stop_predicate = stop_at_m_plurality(m, 0);
  TrajectoryObserver recorder;
  options.observer = &recorder;
  const RunResult repair = run_dynamics(dynamics, start, options, gen);

  io::Table trajectory({"round", "correct replicas", "corrupted replicas"});
  const std::vector<TrajectoryPoint>& points = recorder.points();
  const std::size_t stride = std::max<std::size_t>(1, points.size() / 16);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i % stride != 0 && i + 1 != points.size()) continue;
    const auto& pt = points[i];
    trajectory.row().cell(pt.round).cell(pt.plurality_count).cell(pt.minority_mass);
  }
  trajectory.print(std::cout);

  if (repair.reason != StopReason::PredicateMet &&
      repair.reason != StopReason::ColorConsensus) {
    std::cout << "\nrepair FAILED within the round budget (adversary too strong "
                 "for this bias — see Corollary 4's F = o(s/lambda) condition)\n";
    return 1;
  }
  std::cout << "\nrepaired to M-plurality consensus in " << repair.rounds
            << " rounds\n";

  // Phase 2: stability under continued attack (the "almost-stable phase
  // of poly(n) length" of Section 3.1).
  Configuration cluster = repair.final_config;
  count_t worst_corruption = cluster.n() - cluster.at(0);
  bool stable = true;
  const round_t window = cli.get_uint("stability-rounds");
  for (round_t round = 0; round < window; ++round) {
    step_count_based(dynamics, cluster, gen);
    adversary.corrupt(cluster, versions, round, gen);
    const count_t corrupted = cluster.n() - cluster.at(0);
    worst_corruption = std::max(worst_corruption, corrupted);
    if (corrupted > m) stable = false;
  }
  std::cout << "stability window (" << window << " rounds under attack): "
            << (stable ? "HELD" : "VIOLATED") << "; worst corruption seen: "
            << worst_corruption << " replicas (tolerance M = " << m << ")\n";
  return stable ? 0 : 1;
}
