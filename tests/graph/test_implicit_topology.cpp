// Contracts of the implicit-topology engine (implicit_topology.hpp):
//
//  * CSR-order pin: ImplicitTopology::neighbor(v, idx) must return EXACTLY
//    AgentGraph::neighbors_of(v)[idx] of the arena build, for every (v,
//    idx), across ring / torus (square, non-square, edge rows) / lattice
//    degrees. This is the load-bearing bitwise contract — the samplers
//    draw the same index either way, so matching rows make implicit and
//    arena runs indistinguishable.
//  * Trajectory equivalence: implicit vs arena full-state trajectories are
//    bitwise-equal in BOTH engine modes, and invariant under the OpenMP
//    team size.
//  * Gossip: trajectory-equal to the implicit clique (it reuses the
//    complete-graph kernels; the descriptor only changes bookkeeping).
//  * Adoption-law battery: one-round chi-square pins for gossip and the
//    implicit families in both modes, with the exact law computed from
//    ImplicitTopology::neighbor itself (the arena is not consulted).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/majority.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/implicit_topology.hpp"
#include "stats/chi_square.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

void expect_matches_arena_rows(const ImplicitTopology& topo, const AgentGraph& arena,
                               const char* label) {
  ASSERT_EQ(arena.num_nodes(), topo.n) << label;
  for (count_t v = 0; v < arena.num_nodes(); ++v) {
    const auto row = arena.neighbors_of(v);
    ASSERT_EQ(row.size(), topo.degree) << label << " node " << v;
    for (std::uint64_t idx = 0; idx < topo.degree; ++idx) {
      ASSERT_EQ(topo.neighbor(v, idx), row[idx])
          << label << " node " << v << " idx " << idx;
    }
  }
}

TEST(ImplicitTopology, RingMatchesArenaCsrOrder) {
  for (const count_t n : {3, 4, 5, 8, 17}) {
    expect_matches_arena_rows(ImplicitTopology::ring(n), cycle(n), "ring");
  }
}

TEST(ImplicitTopology, TorusMatchesArenaCsrOrder) {
  const std::pair<count_t, count_t> shapes[] = {{3, 3}, {3, 5}, {5, 3}, {4, 4}, {6, 3}};
  for (const auto [rows, cols] : shapes) {
    expect_matches_arena_rows(ImplicitTopology::torus(rows, cols), torus(rows, cols),
                              "torus");
  }
}

TEST(ImplicitTopology, LatticeMatchesArenaCsrOrder) {
  for (const count_t d : {2, 4, 6}) {
    for (const count_t n : {9, 12, 31}) {
      expect_matches_arena_rows(ImplicitTopology::lattice(n, d),
                                circulant_lattice(n, d), "lattice");
    }
  }
}

/// `rounds` full-state snapshots under `mode` (same helper as the batched
/// suite, parameterized on mode).
std::vector<std::vector<state_t>> trajectory(const Dynamics& dynamics,
                                             const AgentGraph& graph,
                                             const Configuration& start,
                                             std::uint64_t seed, int rounds,
                                             EngineMode mode) {
  GraphSimulation sim(dynamics, graph, start, seed, /*shuffle_layout=*/true, mode);
  std::vector<std::vector<state_t>> out;
  for (int r = 0; r < rounds; ++r) {
    sim.step();
    out.push_back(sim.states());
  }
  return out;
}

TEST(ImplicitTopology, ImplicitMatchesArenaBitwise) {
  ThreeMajority majority;
  struct Case {
    const char* name;
    AgentGraph arena;
    AgentGraph implicit_graph;
  };
  std::vector<Case> cases;
  cases.push_back({"ring", cycle(900),
                   AgentGraph::implicit(ImplicitTopology::ring(900))});
  cases.push_back({"torus", torus(30, 30),
                   AgentGraph::implicit(ImplicitTopology::torus(30, 30))});
  cases.push_back({"torus 20x45", torus(20, 45),
                   AgentGraph::implicit(ImplicitTopology::torus(20, 45))});
  cases.push_back({"lattice:6", circulant_lattice(900, 6),
                   AgentGraph::implicit(ImplicitTopology::lattice(900, 6))});
  const Configuration start = workloads::additive_bias(900, 3, 200);
  for (auto& c : cases) {
    for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
      const auto arena = trajectory(majority, c.arena, start, 33, 4, mode);
      const auto implicit = trajectory(majority, c.implicit_graph, start, 33, 4, mode);
      ASSERT_EQ(implicit, arena)
          << c.name << (mode == EngineMode::Batched ? " (batched)" : " (strict)");
    }
  }
}

TEST(ImplicitTopology, GossipMatchesCliqueBitwise) {
  ThreeMajority majority;
  const AgentGraph gossip = AgentGraph::implicit(ImplicitTopology::gossip(900));
  const AgentGraph clique = AgentGraph::complete(900);
  EXPECT_TRUE(gossip.is_complete());
  EXPECT_EQ(gossip.max_degree(), 900u);
  const Configuration start = workloads::additive_bias(900, 3, 200);
  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    ASSERT_EQ(trajectory(majority, gossip, start, 44, 4, mode),
              trajectory(majority, clique, start, 44, 4, mode))
        << (mode == EngineMode::Batched ? "batched" : "strict");
  }
}

#if defined(PLURALITY_HAVE_OPENMP)
TEST(ImplicitTopology, ThreadCountNeverChangesResults) {
  struct ThreadCountGuard {
    int saved;
    explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
      omp_set_num_threads(threads);
    }
    ~ThreadCountGuard() { omp_set_num_threads(saved); }
  };
  ThreeMajority majority;
  const AgentGraph graph = AgentGraph::implicit(ImplicitTopology::torus(30, 40));
  const Configuration start = workloads::additive_bias(1200, 3, 300);
  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    std::vector<std::vector<state_t>> baseline;
    {
      ThreadCountGuard guard(1);
      baseline = trajectory(majority, graph, start, 55, 4, mode);
    }
    for (const int threads : {2, 4}) {
      ThreadCountGuard guard(threads);
      EXPECT_EQ(trajectory(majority, graph, start, 55, 4, mode), baseline)
          << threads << " threads"
          << (mode == EngineMode::Batched ? " (batched)" : " (strict)");
    }
  }
}
#endif

// --- adoption-law battery over the implicit samplers. ----------------------

/// Exact next-state law of `node`, with the neighborhood multiset read off
/// ImplicitTopology::neighbor — deliberately NOT the arena (that equality
/// has its own pin above); a bug in the implicit sampler's indexing would
/// make the engine disagree with this law.
std::vector<double> implicit_node_law(const Dynamics& dynamics,
                                      const ImplicitTopology& topo,
                                      const std::vector<state_t>& layout, count_t node,
                                      state_t states) {
  std::vector<double> neighborhood(states, 0.0);
  for (std::uint64_t idx = 0; idx < topo.degree; ++idx) {
    neighborhood[layout[topo.neighbor(node, idx)]] += 1.0;
  }
  std::vector<double> law(states, 0.0);
  if (dynamics.law_depends_on_own_state()) {
    dynamics.adoption_law_given(layout[node], neighborhood, law);
  } else {
    dynamics.adoption_law(neighborhood, law);
  }
  return law;
}

void expect_implicit_matches_law(const Dynamics& dynamics, const ImplicitTopology& topo,
                                 const Configuration& start, count_t node,
                                 std::uint64_t seed_base, int trials = 6000) {
  const AgentGraph graph = AgentGraph::implicit(topo);
  const state_t states = start.k();
  GraphSimulation probe(dynamics, graph, start, seed_base, /*shuffle_layout=*/false);
  const std::vector<state_t> layout = probe.states();
  const std::vector<double> law = implicit_node_law(dynamics, topo, layout, node, states);

  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    std::vector<std::uint64_t> observed(states, 0);
    const std::uint64_t seed0 =
        seed_base + (mode == EngineMode::Batched ? 500'000 : 0);
    for (int t = 0; t < trials; ++t) {
      GraphSimulation sim(dynamics, graph, start, seed0 + static_cast<std::uint64_t>(t),
                          /*shuffle_layout=*/false, mode);
      sim.step();
      ++observed[sim.state(node)];
    }
    const auto result = stats::chi_square_gof(observed, law);
    EXPECT_GT(result.p_value, 1e-6)
        << dynamics.name() << " node " << node
        << (mode == EngineMode::Batched ? " (batched)" : " (strict)")
        << ": stat=" << result.statistic << " dof=" << result.dof;
  }
}

/// Node ids 0..2 hold color 0, 3..4 color 1, the rest color 2 (shuffle off).
Configuration battery_start(count_t n) {
  return Configuration(std::vector<count_t>{3, 2, n - 5});
}

TEST(ImplicitLawBattery, GossipMatchesLaw) {
  // Gossip's law is the adoption law of the whole configuration, self
  // included — exactly the uniform-pull model of arXiv:1407.2565.
  ThreeMajority majority;
  expect_implicit_matches_law(majority, ImplicitTopology::gossip(7), battery_start(7),
                              0, 110'000);
  Voter voter;
  expect_implicit_matches_law(voter, ImplicitTopology::gossip(7), battery_start(7),
                              3, 120'000);
}

TEST(ImplicitLawBattery, RingMatchesLaw) {
  ThreeMajority majority;
  // Node 4 sees colors {1, 2} (ids 3 and 5) — a genuinely mixed boundary.
  expect_implicit_matches_law(majority, ImplicitTopology::ring(7), battery_start(7),
                              4, 130'000);
  // Node 0 wraps: neighbors n-1 (color 2) and 1 (color 0).
  expect_implicit_matches_law(majority, ImplicitTopology::ring(7), battery_start(7),
                              0, 140'000);
}

TEST(ImplicitLawBattery, TorusMatchesLaw) {
  ThreeMajority majority;
  // 3x3: node 4 (interior of the id range) sees ids {1, 3, 5, 7} = colors
  // {0, 1, 2, 2}; node 0 wraps both axes.
  expect_implicit_matches_law(majority, ImplicitTopology::torus(3, 3), battery_start(9),
                              4, 150'000);
  expect_implicit_matches_law(majority, ImplicitTopology::torus(3, 3), battery_start(9),
                              0, 160'000);
}

TEST(ImplicitLawBattery, LatticeMatchesLaw) {
  ThreeMajority majority;
  // degree 4 on 9 nodes: node 4 sees ids {2, 3, 5, 6} = colors {0, 1, 2, 2}.
  expect_implicit_matches_law(majority, ImplicitTopology::lattice(9, 4),
                              battery_start(9), 4, 170'000);
}

}  // namespace
}  // namespace plurality::graph
