#include "graph/agent_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/builders.hpp"
#include "rng/distributions.hpp"
#include "stats/chi_square.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

TEST(GraphSim, PreservesPopulation) {
  ThreeMajority dynamics;
  const AgentGraph topo = torus(10, 10);
  GraphSimulation sim(dynamics, topo, workloads::additive_bias(100, 3, 30), 1);
  for (int round = 0; round < 20; ++round) {
    sim.step();
    EXPECT_EQ(sim.configuration().n(), 100u);
  }
}

TEST(GraphSim, DeterministicForSeed) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(60);
  GraphSimulation a(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  GraphSimulation b(dynamics, topo, workloads::additive_bias(60, 2, 20), 7);
  for (int round = 0; round < 10; ++round) {
    a.step();
    b.step();
    EXPECT_EQ(a.configuration(), b.configuration());
  }
}

TEST(GraphSim, PopulationMismatchThrows) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(10);
  EXPECT_THROW(
      GraphSimulation(dynamics, topo, workloads::additive_bias(20, 2, 5), 1),
      CheckError);
}

TEST(GraphSim, CompleteTopologyMatchesCliqueBackendInDistribution) {
  // On AgentGraph::complete, one GraphSimulation round must sample the same
  // transition distribution as the clique count-based backend.
  ThreeMajority dynamics;
  const count_t n = 150;
  const Configuration start({80, 40, 30});
  const AgentGraph topo = AgentGraph::complete(n);

  const int kTrials = 3000;
  std::vector<std::uint64_t> graph_hist(n + 1, 0), count_hist(n + 1, 0);
  for (int t = 0; t < kTrials; ++t) {
    GraphSimulation sim(dynamics, topo, start, 5000 + t, /*shuffle_layout=*/false);
    sim.step();
    ++graph_hist[sim.configuration().at(0)];
  }
  rng::Xoshiro256pp gen(9);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    step_count_based(dynamics, c, gen);
    ++count_hist[c.at(0)];
  }
  const auto result = stats::chi_square_two_sample(graph_hist, count_hist);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(GraphSim, ConsensusOnDenseRandomGraph) {
  // Strong bias on a well-connected random regular graph: 3-majority should
  // still reach consensus on the plurality.
  ThreeMajority dynamics;
  rng::Xoshiro256pp topo_gen(10);
  const AgentGraph topo = random_regular(500, 16, topo_gen);
  GraphSimulation sim(dynamics, topo, workloads::additive_bias(500, 2, 300), 11);
  const round_t rounds = sim.run_to_consensus(2000);
  EXPECT_LT(rounds, 2000u);
  EXPECT_TRUE(sim.configuration().color_consensus(2));
  EXPECT_EQ(sim.configuration().at(0), 500u);
}

TEST(GraphSim, VoterOnCycleEventuallyAbsorbs) {
  // The voter on a small cycle absorbs in reasonable time; mostly a smoke
  // test of neighbor sampling on a sparse topology.
  Voter dynamics;
  const AgentGraph topo = cycle(30);
  GraphSimulation sim(dynamics, topo, workloads::balanced(30, 2), 12);
  const round_t rounds = sim.run_to_consensus(200000);
  EXPECT_LT(rounds, 200000u);
  EXPECT_TRUE(sim.configuration().color_consensus(2));
}

TEST(GraphSim, ShuffleLayoutChangesNodePlacementNotCounts) {
  ThreeMajority dynamics;
  const AgentGraph topo = cycle(50);
  const Configuration start = workloads::additive_bias(50, 2, 10);
  GraphSimulation plain(dynamics, topo, start, 13, /*shuffle_layout=*/false);
  GraphSimulation shuffled(dynamics, topo, start, 13, /*shuffle_layout=*/true);
  EXPECT_EQ(plain.configuration(), shuffled.configuration());
  EXPECT_NE(plain.states(), shuffled.states());
}

TEST(GraphSim, RoundCounterAdvances) {
  Voter dynamics;
  const AgentGraph topo = cycle(10);
  GraphSimulation sim(dynamics, topo, workloads::balanced(10, 2), 14);
  EXPECT_EQ(sim.round(), 0u);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.round(), 2u);
}

// --- Degree-0 nodes. -------------------------------------------------------

TEST(GraphSim, IsolatedVertexRejected) {
  // Node 3 has no edges: it cannot sample, so the engine must refuse the
  // topology up front instead of drawing uniform_below(gen, 0) mid-round.
  ThreeMajority dynamics;
  const std::vector<AgentGraph::Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  const AgentGraph topo = AgentGraph::from_edges(4, edges);
  EXPECT_EQ(topo.min_degree(), 0u);
  EXPECT_EQ(topo.degree(3), 0u);
  EXPECT_THROW(GraphSimulation(dynamics, topo, workloads::balanced(4, 2), 1),
               CheckError);
}

TEST(GraphSim, ErdosRenyiPatchIsolatedLeavesNoDegreeZero) {
  // Sparse G(n, m) (m = n/4) leaves many isolated vertices; with
  // patch_isolated every node must end up sampleable.
  rng::Xoshiro256pp gen(15);
  const AgentGraph sparse = erdos_renyi(200, 50, gen, /*patch_isolated=*/false);
  EXPECT_EQ(sparse.min_degree(), 0u) << "workload regression: pick a sparser m";
  const AgentGraph patched = erdos_renyi(200, 50, gen, /*patch_isolated=*/true);
  EXPECT_GE(patched.min_degree(), 1u);
  // Patching must make the topology acceptable to the engine.
  ThreeMajority dynamics;
  GraphSimulation sim(dynamics, patched, workloads::additive_bias(200, 2, 60), 16);
  sim.step();
  EXPECT_EQ(sim.configuration().n(), 200u);
}

// --- Self-loop rejection in the random builders. ---------------------------

TEST(GraphSim, RandomRegularBuilderRejectsSelfLoops) {
  // The Steger–Wormald pairing must never emit a self-loop (it re-draws the
  // pair), at every scale the tests exercise — including small n where the
  // stub pool is tight.
  for (const count_t n : {8u, 20u, 150u}) {
    rng::Xoshiro256pp gen(17 + n);
    const AgentGraph topo = random_regular(n, 4, gen);
    for (count_t v = 0; v < n; ++v) {
      for (const count_t u : topo.neighbors_of(v)) {
        ASSERT_NE(u, v) << "self-loop at node " << v << " (n=" << n << ")";
      }
    }
  }
}

TEST(GraphSim, ErdosRenyiBuilderRejectsSelfLoops) {
  rng::Xoshiro256pp gen(18);
  const AgentGraph topo = erdos_renyi(120, 300, gen, /*patch_isolated=*/true);
  for (count_t v = 0; v < 120; ++v) {
    for (const count_t u : topo.neighbors_of(v)) {
      ASSERT_NE(u, v) << "self-loop at node " << v;
    }
  }
}

TEST(GraphSim, ExplicitSelfLoopsAreStillLegalTopologyInput) {
  // from_edges supports self-loops by contract (sampling semantics): a
  // self-loop contributes ONE arc, and the node can sample itself.
  const std::vector<AgentGraph::Edge> edges = {{0, 0}, {0, 1}, {1, 2}, {2, 0}};
  const AgentGraph topo = AgentGraph::from_edges(3, edges);
  EXPECT_EQ(topo.degree(0), 3u);  // self-loop once + two neighbors
  Voter dynamics;
  GraphSimulation sim(dynamics, topo, workloads::balanced(3, 3), 19,
                      /*shuffle_layout=*/false);
  sim.step();
  EXPECT_EQ(sim.configuration().n(), 3u);
}

TEST(GraphSim, OwnsATemporaryGraph) {
  // A graph passed as a temporary is moved into the simulation, which then
  // steps exactly like one borrowing an identical caller-owned graph.
  ThreeMajority dynamics;
  const Configuration start = workloads::additive_bias(60, 2, 20);
  const AgentGraph borrowed = cycle(60);
  GraphSimulation owning(dynamics, cycle(60), start, 7);
  GraphSimulation borrowing(dynamics, borrowed, start, 7);
  EXPECT_NE(&owning.graph(), &borrowed);
  EXPECT_EQ(owning.graph().num_arcs(), 120u);
  for (int round = 0; round < 10; ++round) {
    owning.step();
    borrowing.step();
    ASSERT_EQ(owning.states(), borrowing.states()) << "round " << round;
  }
}

// --- CSR packing. ----------------------------------------------------------

TEST(AgentGraphCsr, FromEdgesRowsFollowEdgeListOrder) {
  // Row v lists v's incident edges in list order: (u, v) puts v in row u and
  // u in row v, a self-loop is stored once and parallel edges repeat.
  rng::Xoshiro256pp gen(20);
  const count_t n = 80;
  std::vector<AgentGraph::Edge> edges;
  for (int e = 0; e < 300; ++e) {
    edges.emplace_back(static_cast<std::uint32_t>(rng::uniform_below(gen, n)),
                       static_cast<std::uint32_t>(rng::uniform_below(gen, n)));
  }
  edges.push_back(edges.front());  // a parallel edge
  std::vector<std::vector<std::uint32_t>> rows(n);
  for (const auto& [u, v] : edges) {
    rows[u].push_back(v);
    if (u != v) rows[v].push_back(u);
  }
  const AgentGraph csr = AgentGraph::from_edges(n, edges);
  ASSERT_EQ(csr.num_nodes(), n);
  count_t arcs = 0, min_degree = rows[0].size(), max_degree = 0;
  for (count_t v = 0; v < n; ++v) {
    const auto actual = csr.neighbors_of(v);
    ASSERT_EQ(std::vector<std::uint32_t>(actual.begin(), actual.end()), rows[v])
        << "node " << v;
    arcs += rows[v].size();
    min_degree = std::min<count_t>(min_degree, rows[v].size());
    max_degree = std::max<count_t>(max_degree, rows[v].size());
  }
  EXPECT_EQ(csr.num_arcs(), arcs);
  EXPECT_EQ(csr.min_degree(), min_degree);
  EXPECT_EQ(csr.max_degree(), max_degree);
}

TEST(AgentGraphCsr, SingleArenaLayout) {
  const AgentGraph csr = cycle(10);
  // Offsets and neighbors live in one contiguous arena: the neighbor array
  // begins exactly one u64 row past the n+1 offsets.
  EXPECT_EQ(static_cast<const void*>(csr.neighbors()),
            static_cast<const void*>(csr.offsets() + csr.num_nodes() + 1));
  EXPECT_EQ(csr.arena_bytes(),
            (10 + 1 + (20 + 1) / 2) * sizeof(std::uint64_t));
  const AgentGraph clique = AgentGraph::complete(1000);
  EXPECT_EQ(clique.arena_bytes(), 0u);  // implicit: no adjacency memory
  EXPECT_EQ(clique.degree(0), 1000u);   // self included, the clique model
}

}  // namespace
}  // namespace plurality::graph
