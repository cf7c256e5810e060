// Determinism regression suite for the CSR graph engine — the graph-layer
// mirror of tests/core/test_determinism.cpp. Three bitwise contracts:
//
//  1. Golden fixed-seed trajectories, recorded from the FROZEN pre-refactor
//     per-node stepper (reference_sim.cpp) on ring / torus / clique. Both
//     the reference and the CSR engine must keep reproducing them forever.
//  2. Engine == reference round by round — node states AND count vectors —
//     for every dynamics (fused kernels and the generic fallback alike),
//     on sparse explicit graphs and on the implicit clique.
//  3. Thread-count independence: GraphSimulation trajectories and
//     run_graph_trials summaries are identical under 1, 4, and max OpenMP
//     threads (and with parallel trials disabled).
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/observer.hpp"
#include "core/registry.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/builders.hpp"
#include "graph/graph_trials.hpp"
#include "graph/reference_sim.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {
namespace {

std::vector<count_t> counts_of(const Configuration& c) {
  return {c.counts().begin(), c.counts().end()};
}

// --- 1. Golden fixed-seed trajectories (recorded from the frozen
//        reference stepper; see file comment). -----------------------------

TEST(GoldenGraphTrajectories, RingMajority) {
  ThreeMajority dyn;
  const Topology topo = cycle(60);
  const Configuration start = workloads::additive_bias(60, 3, 18);
  const std::vector<count_t> golden = {33, 8, 19};

  ReferenceGraphSimulation ref(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 7);
  for (int r = 0; r < 12; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, TorusUndecided) {
  UndecidedState dyn;
  const Topology topo = torus(10, 10);
  const Configuration start =
      UndecidedState::extend_with_undecided(workloads::additive_bias(100, 4, 20));
  const std::vector<count_t> golden = {75, 0, 5, 9, 11};

  ReferenceGraphSimulation ref(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 77);
  for (int r = 0; r < 10; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

TEST(GoldenGraphTrajectories, CliqueMajority) {
  ThreeMajority dyn;
  const Topology topo = Topology::complete(150);
  const Configuration start = workloads::additive_bias(150, 3, 30);
  const std::vector<count_t> golden = {140, 3, 7};

  ReferenceGraphSimulation ref(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) ref.step();
  EXPECT_EQ(counts_of(ref.configuration()), golden) << "frozen reference drifted";

  GraphSimulation engine(dyn, topo, start, 99);
  for (int r = 0; r < 5; ++r) engine.step();
  EXPECT_EQ(counts_of(engine.configuration()), golden) << "CSR engine drifted";
}

// --- 2. Engine vs frozen reference, all dynamics, round by round. ---------

struct EngineVsReferenceCase {
  const Dynamics* dynamics;
  bool extend_undecided;
  state_t k = 4;
  count_t nodes = 200;
  bool shuffle_layout = true;
};

// `k` colors with an additive bias of a fifth of the nodes toward color 0;
// the undecided state, when present, starts empty.
Configuration reference_start(const EngineVsReferenceCase& param) {
  Configuration start = workloads::additive_bias(param.nodes, param.k, param.nodes / 5);
  if (param.extend_undecided) start = UndecidedState::extend_with_undecided(start);
  return start;
}

class EngineVsReference : public ::testing::TestWithParam<EngineVsReferenceCase> {};

TEST_P(EngineVsReference, BitwiseEqualOnRandomRegular) {
  const auto& param = GetParam();
  rng::Xoshiro256pp topo_gen(42);
  const Topology topo = random_regular(param.nodes, 6, topo_gen);
  const AgentGraph csr = AgentGraph::from_topology(topo);
  const Configuration start = reference_start(param);

  ReferenceGraphSimulation ref(*param.dynamics, topo, start, 1234, param.shuffle_layout);
  GraphSimulation engine(*param.dynamics, csr, start, 1234, param.shuffle_layout);
  for (int round = 0; round < 25; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

TEST_P(EngineVsReference, BitwiseEqualOnClique) {
  const auto& param = GetParam();
  const Topology topo = Topology::complete(param.nodes);
  const Configuration start = reference_start(param);

  ReferenceGraphSimulation ref(*param.dynamics, topo, start, 555, param.shuffle_layout);
  GraphSimulation engine(*param.dynamics, topo, start, 555, param.shuffle_layout);
  for (int round = 0; round < 15; ++round) {
    ref.step();
    engine.step();
    ASSERT_EQ(ref.configuration(), engine.configuration())
        << param.dynamics->name() << " counts diverged at round " << round;
    ASSERT_EQ(ref.states(), engine.states())
        << param.dynamics->name() << " node states diverged at round " << round;
  }
}

std::string sanitized_name(const Dynamics& dynamics) {
  std::string name = dynamics.name();
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;
const HPlurality kFivePlurality(5);
// No fused kernel exists for rule tables: exercises the generic
// virtual-dispatch fallback path.
const std::unique_ptr<Dynamics> kRuleMin = make_dynamics("rule:min");

INSTANTIATE_TEST_SUITE_P(
    AllDynamics, EngineVsReference,
    ::testing::Values(EngineVsReferenceCase{&kMajority, false},
                      EngineVsReferenceCase{&kVoter, false},
                      EngineVsReferenceCase{&kTwoChoices, false},
                      EngineVsReferenceCase{&kMedian, false},
                      EngineVsReferenceCase{&kMedianOwnTwo, false},
                      EngineVsReferenceCase{&kUndecided, true},
                      EngineVsReferenceCase{&kFivePlurality, false},
                      EngineVsReferenceCase{kRuleMin.get(), false}),
    [](const auto& info) { return sanitized_name(*info.param.dynamics); });

// Every registry dynamics at small, medium and wide-state k (state bytes
// and state_t), node ids in layout order. On the implicit clique this is
// the paper's per-agent protocol: every node pulls sample_arity() uniform
// nodes of the whole population, with repetition and itself included. The
// removed agent backend, a separate stepper of that protocol, was held
// bitwise equal to the clique on this grid, so the clique reproduces its
// trajectories seed for seed.
const std::vector<std::unique_ptr<Dynamics>> kRegistry = [] {
  std::vector<std::unique_ptr<Dynamics>> all;
  for (const std::string& name : dynamics_names()) all.push_back(make_dynamics(name));
  return all;
}();

std::vector<EngineVsReferenceCase> registry_cases() {
  std::vector<EngineVsReferenceCase> cases;
  for (const std::unique_ptr<Dynamics>& dynamics : kRegistry) {
    for (const state_t k : {state_t{2}, state_t{5}, state_t{300}}) {
      cases.push_back({dynamics.get(), dynamics->num_states(k) > k, k, /*nodes=*/1000,
                       /*shuffle_layout=*/false});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Registry, EngineVsReference, ::testing::ValuesIn(registry_cases()),
                         [](const auto& info) {
                           return sanitized_name(*info.param.dynamics) + "_k" +
                                  std::to_string(info.param.k);
                         });

TEST(EngineVsReferenceWide, BitwiseEqualBeyondByteMirror) {
  // k > 256 stores node states as state_t instead of bytes — pin that
  // width against the reference too (the k <= 256 cases above never reach
  // it).
  const state_t k = 300;
  rng::Xoshiro256pp topo_gen(77);
  const Topology topo = random_regular(600, 6, topo_gen);
  const AgentGraph csr = AgentGraph::from_topology(topo);
  std::vector<count_t> counts(k, 2);  // 600 nodes over 300 colors
  const Configuration start(std::move(counts));

  const Voter voter;
  const MedianDynamics median;
  for (const Dynamics* dynamics :
       {static_cast<const Dynamics*>(&voter), static_cast<const Dynamics*>(&median)}) {
    ReferenceGraphSimulation ref(*dynamics, topo, start, 4242);
    GraphSimulation engine(*dynamics, csr, start, 4242);
    for (int round = 0; round < 12; ++round) {
      ref.step();
      engine.step();
      ASSERT_EQ(ref.configuration(), engine.configuration())
          << dynamics->name() << " (k=300) counts diverged at round " << round;
      ASSERT_EQ(ref.states(), engine.states())
          << dynamics->name() << " (k=300) node states diverged at round " << round;
    }
  }
}

TEST(EngineWorkspaceReuse, SharedAcrossTrialsMatchesFresh) {
  // One workspace carried across different dynamics and k values (the
  // run_graph_trials reuse pattern) must reproduce fresh-workspace runs:
  // everything except the node states is rewritten per round, and the
  // node states are rewritten per load_nodes.
  ThreeMajority majority;
  UndecidedState undecided;
  rng::Xoshiro256pp topo_gen(11);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(120, 4, topo_gen));
  const Configuration start_a = workloads::additive_bias(120, 3, 30);
  const Configuration start_b =
      UndecidedState::extend_with_undecided(workloads::additive_bias(120, 5, 20));

  GraphStepWorkspace shared;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int which = 0; which < 2; ++which) {
      const Dynamics& dyn = which == 0 ? static_cast<const Dynamics&>(majority)
                                       : static_cast<const Dynamics&>(undecided);
      const Configuration& start = which == 0 ? start_a : start_b;
      const rng::StreamFactory streams(301 + which);

      Configuration shared_cfg = start;
      shared.prepare(start.n(), start.k());
      load_nodes(start, true, streams, shared);

      GraphStepWorkspace fresh;
      Configuration fresh_cfg = start;
      fresh.prepare(start.n(), start.k());
      load_nodes(start, true, streams, fresh);

      for (round_t round = 0; round < 8; ++round) {
        step_graph(dyn, graph, shared_cfg, streams, round, shared);
        step_graph(dyn, graph, fresh_cfg, streams, round, fresh);
        ASSERT_EQ(shared_cfg, fresh_cfg) << dyn.name() << " round " << round;
        ASSERT_EQ(shared.states(start.k()), fresh.states(start.k()))
            << dyn.name() << " round " << round;
      }
    }
  }
}

// --- Golden run_graph_trials summary (pins the trial driver's stream
//     plumbing: per-trial families, layout stream, outcome filters). ------

TEST(GoldenGraphTrajectories, GraphTrialSummary) {
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(8);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(300, 8, topo_gen));
  CommonTrialOptions options;
  options.trials = 24;
  options.seed = 31;
  options.parallelism = Parallelism::Rounds;
  options.max_rounds = 4000;
  const TrialSummary s =
      run_graph_trials(dyn, graph, workloads::additive_bias(300, 3, 90), options);
  EXPECT_EQ(s.consensus_count, 24u);
  EXPECT_EQ(s.plurality_wins, 24u);
  EXPECT_EQ(s.round_limit_hits, 0u);
  EXPECT_DOUBLE_EQ(s.rounds.mean(), 10.83333333333333);
}

// --- Golden per-trial outcomes across the node-state width rule: the
//     byte-state path (k <= 256, gossip strict/batched and an adversary
//     run) and the state_t path (k = 300). Literals recorded before the
//     u32 mirror was removed; every trial's rounds, final plurality color
//     and final plurality count must stay exactly these. --------------------

struct TrialOutcome {
  round_t rounds;
  state_t winner;
  count_t winner_count;
  bool operator==(const TrialOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TrialOutcome& t) {
  return os << "{" << t.rounds << ", " << t.winner << ", " << t.winner_count << "}";
}

/// Records each trial's stop round and final plurality (one slot per
/// trial, so parallel trials never share a slot).
class OutcomeRecorder final : public RoundObserver {
 public:
  explicit OutcomeRecorder(std::uint64_t trials) : outcomes(trials) {}
  void begin_trial(std::uint64_t, const Configuration&, state_t) override {}
  void observe_round(std::uint64_t, round_t, const Configuration&, state_t) override {}
  void end_trial(std::uint64_t trial, StopReason, round_t rounds,
                 const Configuration& final, state_t num_colors) override {
    const state_t winner = final.plurality(num_colors);
    outcomes[trial] = {rounds, winner, final.at(winner)};
  }
  std::vector<TrialOutcome> outcomes;
};

std::vector<TrialOutcome> per_trial_outcomes(const Dynamics& dyn, const AgentGraph& graph,
                                             const Configuration& start,
                                             CommonTrialOptions options) {
  OutcomeRecorder recorder(options.trials);
  options.observer = &recorder;
  (void)run_graph_trials(dyn, graph, start, options);
  return recorder.outcomes;
}

TEST(GoldenGraphTrajectories, PerTrialGossipK8Batched) {
  ThreeMajority dyn;
  const AgentGraph graph = AgentGraph::implicit(ImplicitTopology::gossip(4096));
  CommonTrialOptions options;
  options.trials = 6;
  options.seed = 161;
  options.mode = EngineMode::Batched;
  options.max_rounds = 10'000;
  const std::vector<TrialOutcome> golden = {{38, 4, 4096}, {26, 0, 4096}, {26, 5, 4096},
                                            {38, 3, 4096}, {30, 7, 4096}, {26, 0, 4096}};
  EXPECT_EQ(per_trial_outcomes(dyn, graph, workloads::additive_bias(4096, 8, 6), options),
            golden);
}

TEST(GoldenGraphTrajectories, PerTrialGossipK8Strict) {
  ThreeMajority dyn;
  const AgentGraph graph = AgentGraph::implicit(ImplicitTopology::gossip(4096));
  CommonTrialOptions options;
  options.trials = 6;
  options.seed = 162;
  options.max_rounds = 10'000;
  const std::vector<TrialOutcome> golden = {{27, 0, 4096}, {28, 4, 4096}, {28, 7, 4096},
                                            {27, 0, 4096}, {29, 3, 4096}, {24, 0, 4096}};
  EXPECT_EQ(per_trial_outcomes(dyn, graph, workloads::additive_bias(4096, 8, 6), options),
            golden);
}

TEST(GoldenGraphTrajectories, PerTrialRegular8K4Adversary) {
  // corrupt_nodes edits the node array between rounds: its reservoir must
  // read the same states in the same order and make the same draws.
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(163);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(400, 8, topo_gen));
  const RandomCorruption adversary(1);
  CommonTrialOptions options;
  options.trials = 8;
  options.seed = 163;
  options.adversary = &adversary;
  options.max_rounds = 26;  // the cap lands mid-corruption: final counts differ
  const std::vector<TrialOutcome> golden = {{26, 3, 396}, {26, 2, 399}, {26, 1, 399},
                                            {26, 2, 398}, {26, 3, 400}, {26, 3, 399},
                                            {26, 3, 398}, {26, 0, 210}};
  EXPECT_EQ(per_trial_outcomes(dyn, graph, workloads::additive_bias(400, 4, 4), options),
            golden);
}

TEST(GoldenGraphTrajectories, PerTrialRegular8K300Strict) {
  ThreeMajority dyn;
  rng::Xoshiro256pp topo_gen(164);
  const AgentGraph graph = AgentGraph::from_topology(random_regular(3000, 8, topo_gen));
  CommonTrialOptions options;
  options.trials = 4;
  options.seed = 164;
  options.max_rounds = 10'000;
  const std::vector<TrialOutcome> golden = {{96, 139, 3000}, {124, 118, 3000},
                                            {85, 38, 3000}, {96, 53, 3000}};
  EXPECT_EQ(per_trial_outcomes(dyn, graph, workloads::balanced(3000, 300), options),
            golden);
}

// --- 3. Thread-count independence. ----------------------------------------

#if defined(PLURALITY_HAVE_OPENMP)

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

TEST(GraphThreadInvariance, TrajectoryIdenticalAcrossThreadCounts) {
  UndecidedState dyn;
  const Topology topo = torus(12, 12);
  const Configuration start =
      UndecidedState::extend_with_undecided(workloads::additive_bias(144, 3, 40));

  std::vector<std::vector<count_t>> baseline;
  {
    ThreadCountGuard guard(1);
    GraphSimulation sim(dyn, topo, start, 4096);
    for (int r = 0; r < 10; ++r) {
      sim.step();
      baseline.push_back(counts_of(sim.configuration()));
    }
  }
  for (const int threads : {4, omp_get_max_threads()}) {
    ThreadCountGuard guard(threads);
    GraphSimulation sim(dyn, topo, start, 4096);
    for (int r = 0; r < 10; ++r) {
      sim.step();
      ASSERT_EQ(counts_of(sim.configuration()), baseline[static_cast<std::size_t>(r)])
          << threads << " threads diverged at round " << r;
    }
  }
}

TrialSummary torus_trials(bool parallel) {
  ThreeMajority dyn;
  const AgentGraph graph = AgentGraph::from_topology(torus(10, 10));
  CommonTrialOptions options;
  options.trials = 16;
  options.seed = 2026;
  options.parallelism = parallel ? Parallelism::Trials : Parallelism::Rounds;
  options.max_rounds = 3000;
  return run_graph_trials(dyn, graph, workloads::additive_bias(100, 2, 40), options);
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.consensus_count, b.consensus_count);
  EXPECT_EQ(a.plurality_wins, b.plurality_wins);
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits);
  EXPECT_EQ(a.predicate_stops, b.predicate_stops);
  EXPECT_EQ(a.round_samples, b.round_samples);  // bitwise, order included
}

TEST(GraphThreadInvariance, TrialSummaryIdenticalAcrossThreadCounts) {
  const TrialSummary serial = torus_trials(false);
  for (const int threads : {1, 4, omp_get_max_threads()}) {
    ThreadCountGuard guard(threads);
    expect_same_summary(torus_trials(true), serial);
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality::graph
