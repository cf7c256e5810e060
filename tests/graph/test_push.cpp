// The push stepper's correctness battery (graph/step_push.cpp) and the
// StepTuning knobs.
//
// Two contracts:
//  * Push == Batched, bitwise: the scatter stepper consumes the batched
//    pipeline's randomness word for word, so trajectories are identical on
//    every topology shape it dispatches over (complete, regular row,
//    general CSR, implicit), for both arity-1 dynamics.
//  * Tuning is performance-only: tile size and prefetch distance (strict
//    AND batched) never change a single bit of the trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/majority.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/step_push.hpp"
#include "graph/topology_registry.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

Topology test_regular(count_t n, count_t d, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  return random_regular(n, d, gen);
}

Topology test_er(count_t n, std::uint64_t m, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  return erdos_renyi(n, m, gen, /*patch_isolated=*/true);
}

/// Runs `rounds` rounds under `mode` and returns the per-round state
/// vectors (exact comparison material for the bitwise pins).
std::vector<std::vector<state_t>> trajectory(const Dynamics& dynamics,
                                             const AgentGraph& graph,
                                             const Configuration& start,
                                             std::uint64_t seed, EngineMode mode,
                                             int rounds,
                                             const StepTuning& tuning = {}) {
  GraphSimulation sim(dynamics, graph, start, seed, /*shuffle_layout=*/true, mode);
  sim.set_tuning(tuning);
  std::vector<std::vector<state_t>> out;
  for (int r = 0; r < rounds; ++r) {
    sim.step();
    out.push_back(sim.states());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Push == Batched, bitwise.

TEST(PushEngine, KernelCoverage) {
  EXPECT_TRUE(push_has_kernel(Voter{}));
  EXPECT_TRUE(push_has_kernel(UndecidedState{}));
  EXPECT_FALSE(push_has_kernel(ThreeMajority{}));
}

TEST(PushEngine, MatchesBatchedBitwiseAcrossTopologies) {
  const Voter voter;
  const UndecidedState undecided;
  const count_t n = 2000;
  struct Case {
    const char* name;
    AgentGraph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"complete", AgentGraph::complete(n)});
  cases.push_back({"regular", AgentGraph::from_topology(test_regular(n, 8, 41))});
  cases.push_back({"torus", AgentGraph::from_topology(torus(40, 50))});
  cases.push_back({"er", AgentGraph::from_topology(test_er(n, 6000, 42))});

  const Configuration start2 = workloads::parse_workload("bias:60", n, 2);
  const Configuration start3 =
      UndecidedState::extend_with_undecided(workloads::parse_workload("bias:60", n, 3));
  for (const Case& c : cases) {
    EXPECT_EQ(trajectory(voter, c.graph, start2, 91, EngineMode::Push, 5),
              trajectory(voter, c.graph, start2, 91, EngineMode::Batched, 5))
        << "voter on " << c.name;
    EXPECT_EQ(trajectory(undecided, c.graph, start3, 92, EngineMode::Push, 5),
              trajectory(undecided, c.graph, start3, 92, EngineMode::Batched, 5))
        << "undecided on " << c.name;
  }
}

TEST(PushEngine, MatchesBatchedOnImplicitTopologies) {
  const Voter voter;
  const AgentGraph ring_graph = make_topology_implicit("ring", 3000);
  const AgentGraph lattice_graph = make_topology_implicit("lattice:6", 3000);
  const Configuration start = workloads::parse_workload("bias:80", 3000, 2);
  EXPECT_EQ(trajectory(voter, ring_graph, start, 93, EngineMode::Push, 5),
            trajectory(voter, ring_graph, start, 93, EngineMode::Batched, 5));
  EXPECT_EQ(trajectory(voter, lattice_graph, start, 94, EngineMode::Push, 5),
            trajectory(voter, lattice_graph, start, 94, EngineMode::Batched, 5));
}

TEST(PushEngine, FallsBackToBatchedForHigherArity) {
  // Push on a rule without a push kernel must run the batched pipeline
  // (then strict, for rules without either) — silently, like Batched's own
  // fallback contract.
  const ThreeMajority majority;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1200, 6, 44));
  const Configuration start = workloads::parse_workload("bias:40", 1200, 3);
  EXPECT_EQ(trajectory(majority, graph, start, 95, EngineMode::Push, 4),
            trajectory(majority, graph, start, 95, EngineMode::Batched, 4));
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(PushEngine, ThreadCountInvariant) {
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(2000, 8, 45));
  const Configuration start = workloads::parse_workload("bias:60", 2000, 2);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto serial = trajectory(voter, graph, start, 96, EngineMode::Push, 5);
  omp_set_num_threads(saved);
  const auto parallel = trajectory(voter, graph, start, 96, EngineMode::Push, 5);
  EXPECT_EQ(serial, parallel);
}
#endif

TEST(PushEngine, ConsensusStatisticsMatchStrict) {
  // Push and strict are different generators over the same Markov chain;
  // their trial statistics must agree loosely (the tight pin is the
  // bitwise push==batched equality plus batched-vs-strict equivalence in
  // test_graph_batched.cpp — this is an end-to-end smoke over the driver).
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(600, 8, 46));
  const Configuration start = workloads::parse_workload("bias:120", 600, 2);
  CommonTrialOptions options;
  options.trials = 24;
  options.seed = 5;
  options.max_rounds = 60000;
  options.mode = EngineMode::Push;
  const TrialSummary push = run_graph_trials(voter, graph, start, options);
  options.mode = EngineMode::Strict;
  const TrialSummary strict = run_graph_trials(voter, graph, start, options);
  ASSERT_GT(push.consensus_count, 20u);
  ASSERT_GT(strict.consensus_count, 20u);
  const double ratio = push.rounds_p(0.5) / strict.rounds_p(0.5);
  EXPECT_GT(ratio, 1.0 / 4.0);
  EXPECT_LT(ratio, 4.0);
}

// ---------------------------------------------------------------------------
// Tuning is performance-only.

TEST(StepTuningKnobs, StrictPrefetchWindowIsBitwiseInert) {
  // prefetch_distance=0 runs the legacy per-node loop; the default windowed
  // path must reproduce it exactly (same draw order, same states).
  const ThreeMajority majority;
  const UndecidedState undecided;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 51));
  const Configuration start3 = workloads::parse_workload("bias:40", 1500, 3);
  const Configuration startu =
      UndecidedState::extend_with_undecided(workloads::parse_workload("bias:40", 1500, 3));
  for (const std::uint32_t distance : {0u, 4u, 16u, 300u}) {
    const StepTuning tuning{0, distance};
    EXPECT_EQ(trajectory(majority, graph, start3, 61, EngineMode::Strict, 4, tuning),
              trajectory(majority, graph, start3, 61, EngineMode::Strict, 4))
        << "prefetch " << distance;
    EXPECT_EQ(trajectory(undecided, graph, startu, 62, EngineMode::Strict, 4, tuning),
              trajectory(undecided, graph, startu, 62, EngineMode::Strict, 4))
        << "prefetch " << distance;
  }
}

TEST(StepTuningKnobs, BatchedTileAndPrefetchAreBitwiseInert) {
  const ThreeMajority majority;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 52));
  const Configuration start = workloads::parse_workload("bias:40", 1500, 3);
  const auto reference = trajectory(majority, graph, start, 63, EngineMode::Batched, 4);
  for (const std::uint32_t tile : {0u, 64u, 777u, 8192u}) {
    for (const std::uint32_t distance : {0u, 16u}) {
      const StepTuning tuning{tile, distance};
      EXPECT_EQ(trajectory(majority, graph, start, 63, EngineMode::Batched, 4, tuning),
                reference)
          << "tile " << tile << " prefetch " << distance;
    }
  }
}

TEST(StepTuningKnobs, PushIgnoresTuning) {
  const Voter voter;
  const AgentGraph graph = AgentGraph::from_topology(test_regular(1500, 8, 53));
  const Configuration start = workloads::parse_workload("bias:40", 1500, 2);
  const StepTuning tuning{512, 64};
  EXPECT_EQ(trajectory(voter, graph, start, 64, EngineMode::Push, 4, tuning),
            trajectory(voter, graph, start, 64, EngineMode::Push, 4));
}

}  // namespace
}  // namespace plurality::graph
