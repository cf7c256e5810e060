// run_graph_trials + node-level adversary wiring.
//
// The driver must classify stop reasons exactly like core's run_trials
// (shared TrialOutcomes reduction), and corrupt_nodes must keep the node
// array and the count vector consistent while respecting the strategy's
// count-level move.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/adversary.hpp"
#include "core/majority.hpp"
#include "core/observer.hpp"
#include "core/registry.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

std::vector<count_t> tally(const std::vector<state_t>& nodes, state_t k) {
  std::vector<count_t> counts(k, 0);
  for (const state_t s : nodes) ++counts[s];
  return counts;
}

TEST(GraphTrials, BiasedStartOnExpanderReachesPluralityConsensus) {
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(5);
  const AgentGraph graph = random_regular(400, 10, topo_gen);
  CommonTrialOptions options;
  options.trials = 16;
  options.seed = 9;
  options.max_rounds = 5000;
  const TrialSummary s =
      run_graph_trials(dyn, graph, workloads::additive_bias(400, 3, 150), options);
  EXPECT_EQ(s.trials, 16u);
  EXPECT_EQ(s.consensus_count, 16u);
  EXPECT_GE(s.win_rate(), 0.9);
  EXPECT_GT(s.rounds.mean(), 0.0);
}

TEST(GraphTrials, RoundLimitIsReported) {
  // The voter on a large cycle mixes in Θ(n^2); 3 rounds cannot absorb.
  Voter dyn;
  const AgentGraph graph = cycle(200);
  CommonTrialOptions options;
  options.trials = 8;
  options.seed = 11;
  options.max_rounds = 3;
  const TrialSummary s =
      run_graph_trials(dyn, graph, workloads::balanced(200, 2), options);
  EXPECT_EQ(s.round_limit_hits, 8u);
  EXPECT_EQ(s.consensus_count, 0u);
  EXPECT_TRUE(s.round_samples.empty());
}

/// Records each trial's stop reason and round count as end_trial reports
/// them (serial trials only: plain vectors, one slot per trial).
class StopRecorder final : public RoundObserver {
 public:
  explicit StopRecorder(std::uint64_t trials) : reasons_(trials), rounds_(trials) {}
  void begin_trial(std::uint64_t, const Configuration&, state_t) override {}
  void observe_round(std::uint64_t, round_t, const Configuration&, state_t) override {}
  void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                 const Configuration&, state_t) override {
    reasons_[trial] = reason;
    rounds_[trial] = rounds;
  }
  std::vector<StopReason> reasons_;
  std::vector<round_t> rounds_;
};

TEST(GraphTrials, StopPredicatesStopWithPredicateMet) {
  // m-plurality and any-reaches on the graph driver: a 20-plurality clique
  // (no exact law at k = 16: the per-agent path) and 3-majority on
  // regular:8. Every trial stops on the predicate, is counted in
  // predicate_stops, and contributes its stop round to the round samples.
  const count_t n = 3000;
  const std::unique_ptr<Dynamics> plurality20 = make_dynamics("20-plurality");
  ThreeMajority majority;
  rng::Xoshiro256pp topo_gen(8);
  const AgentGraph clique = AgentGraph::complete(n);
  const AgentGraph regular = make_topology("regular:8", n, topo_gen);
  const Configuration start16 = workloads::additive_bias(n, 16, 600);
  const Configuration start3 = workloads::additive_bias(n, 3, 500);
  struct Case {
    const char* name;
    const Dynamics* dynamics;
    const AgentGraph* graph;
    const Configuration* start;
    std::function<bool(const Configuration&, round_t)> stop;
  };
  const Case cases[] = {
      {"20-plurality clique m-plurality", plurality20.get(), &clique, &start16,
       stop_at_m_plurality(n / 2, 0)},
      {"20-plurality clique any-reaches", plurality20.get(), &clique, &start16,
       stop_when_any_color_reaches(1500, 16)},
      {"3-majority regular:8 m-plurality", &majority, &regular, &start3,
       stop_at_m_plurality(300, 0)},
      {"3-majority regular:8 any-reaches", &majority, &regular, &start3,
       stop_when_any_color_reaches(2000, 3)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StopRecorder recorder(5);
    CommonTrialOptions options;
    options.trials = 5;
    options.seed = 17;
    // Serial trials for the recorder.
    options.plan = ExecutionPlan{.parallelism = Parallelism::Rounds};
    options.stop_predicate = c.stop;
    options.observer = &recorder;
    const TrialSummary s = run_graph_trials(*c.dynamics, *c.graph, *c.start, options);
    EXPECT_EQ(s.predicate_stops, 5u);
    EXPECT_EQ(s.consensus_count, 0u);
    EXPECT_EQ(s.rounds.count(), 5u);
    for (std::uint64_t t = 0; t < 5; ++t) {
      EXPECT_EQ(recorder.reasons_[t], StopReason::PredicateMet) << "trial " << t;
      EXPECT_GE(recorder.rounds_[t], 1u) << "trial " << t;
    }
  }
}

TEST(GraphTrials, StopPredicateIsCheckedAtRoundZero) {
  // As on the count path: a start that already satisfies the predicate
  // stops before the first round.
  ThreeMajority dyn;
  const AgentGraph graph = cycle(200);
  CommonTrialOptions options;
  options.trials = 4;
  options.seed = 3;
  options.stop_predicate = stop_when_any_color_reaches(100, 2);
  const TrialSummary s = run_graph_trials(dyn, graph, workloads::balanced(200, 2), options);
  EXPECT_EQ(s.predicate_stops, 4u);
  EXPECT_EQ(s.rounds.max(), 0.0);
}

TEST(GraphTrials, FactoryReceivesTrialIndex) {
  ThreeMajority dyn;
  const AgentGraph graph = cycle(60);
  CommonTrialOptions options;
  options.trials = 6;
  options.seed = 3;
  options.plan = ExecutionPlan{.parallelism = Parallelism::Rounds};
  options.max_rounds = 1;
  std::vector<std::uint8_t> seen(6, 0);
  const TrialSummary s = run_graph_trials(
      dyn, graph,
      [&seen](std::uint64_t trial, rng::Xoshiro256pp&) {
        seen[trial] = 1;
        return workloads::additive_bias(60, 2, 10);
      },
      options);
  EXPECT_EQ(s.trials, 6u);
  for (const auto flag : seen) EXPECT_TRUE(flag);
}

TEST(GraphTrials, IsolatedVertexRejected) {
  ThreeMajority dyn;
  // Node 3 has no edges.
  const std::vector<AgentGraph::Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  const AgentGraph graph = AgentGraph::from_edges(4, edges);
  CommonTrialOptions options;
  options.trials = 2;
  EXPECT_THROW(run_graph_trials(dyn, graph, workloads::balanced(4, 2), options),
               CheckError);
}

// --- corrupt_nodes. --------------------------------------------------------

TEST(CorruptNodes, KeepsNodesAndCountsConsistent) {
  const BoostRunnerUp adversary(7);
  const Configuration start = workloads::additive_bias(100, 3, 30);
  const rng::StreamFactory streams(21);
  GraphStepWorkspace ws;
  ws.prepare(start.n(), start.k());
  load_nodes(start, true, streams, ws);
  Configuration config = start;
  rng::Xoshiro256pp gen(17);
  for (round_t round = 1; round <= 5; ++round) {
    corrupt_nodes(adversary, config, 3, round, gen, ws);
    EXPECT_EQ(tally(ws.states(config.k()), config.k()),
              std::vector<count_t>(config.counts().begin(), config.counts().end()))
        << "round " << round;
    EXPECT_EQ(config.n(), 100u);
  }
}

TEST(CorruptNodes, MovesExactlyTheStrategyBudget) {
  const BoostRunnerUp adversary(5);
  const Configuration start = workloads::additive_bias(60, 2, 20);
  const rng::StreamFactory streams(22);
  GraphStepWorkspace ws;
  ws.prepare(start.n(), start.k());
  load_nodes(start, false, streams, ws);
  const std::vector<state_t> before = ws.states(start.k());
  Configuration config = start;
  rng::Xoshiro256pp gen(18);
  corrupt_nodes(adversary, config, 2, 1, gen, ws);
  const std::vector<state_t> after = ws.states(start.k());
  // BoostRunnerUp moves min(F, ...) = 5 nodes from plurality to runner-up.
  std::size_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      EXPECT_EQ(before[i], 0u);  // taken from the plurality color
      EXPECT_EQ(after[i], 1u);
      ++changed;
    }
  }
  EXPECT_EQ(changed, 5u);
}

TEST(CorruptNodes, DeterministicForSeed) {
  const RandomCorruption adversary(9);
  const Configuration start = workloads::additive_bias(80, 4, 16);
  const rng::StreamFactory streams(23);
  GraphStepWorkspace ws_a, ws_b;
  ws_a.prepare(start.n(), start.k());
  ws_b.prepare(start.n(), start.k());
  load_nodes(start, true, streams, ws_a);
  load_nodes(start, true, streams, ws_b);
  Configuration config_a = start, config_b = start;
  rng::Xoshiro256pp gen_a(19), gen_b(19);
  for (round_t round = 1; round <= 4; ++round) {
    corrupt_nodes(adversary, config_a, 4, round, gen_a, ws_a);
    corrupt_nodes(adversary, config_b, 4, round, gen_b, ws_b);
    ASSERT_EQ(ws_a.states(start.k()), ws_b.states(start.k())) << "round " << round;
    ASSERT_EQ(config_a, config_b) << "round " << round;
  }
}

TEST(GraphTrials, AdversaryBlocksExactConsensus) {
  // Section 3.1's point, observed through the wiring: a runner-up-boosting
  // adversary recreates F runner-up nodes after every round, so EXACT
  // consensus is unreachable (only M-plurality consensus is, M = Omega(F))
  // — while the clean runs converge quickly from the same start.
  ThreeMajority dyn;
  const AgentGraph graph = AgentGraph::complete(300);
  const Configuration start = workloads::additive_bias(300, 2, 60);
  CommonTrialOptions clean;
  clean.trials = 12;
  clean.seed = 77;
  clean.max_rounds = 300;
  CommonTrialOptions attacked = clean;
  const BoostRunnerUp adversary(25);
  attacked.adversary = &adversary;

  const TrialSummary s_clean = run_graph_trials(dyn, graph, start, clean);
  const TrialSummary s_attacked = run_graph_trials(dyn, graph, start, attacked);
  EXPECT_EQ(s_clean.consensus_count, 12u);
  EXPECT_EQ(s_attacked.consensus_count, 0u);
  EXPECT_EQ(s_attacked.round_limit_hits, 12u);
}

}  // namespace
}  // namespace plurality::graph
