// The execution planner: its decision table, and the contract that makes
// it safe — forcing either parallelism at any thread count leaves every
// driver's TrialSummary bitwise unchanged.
#include "core/execution_plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/hplurality.hpp"
#include "core/majority.hpp"
#include "core/trials.hpp"
#include "core/undecided.hpp"
#include "core/workloads.hpp"
#include "graph/graph_trials.hpp"
#include "graph/topology_registry.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {
namespace {

// --- 1. The decision table. ----------------------------------------------

struct PlanRow {
  std::uint64_t trials;
  int threads;
  TrialDriver driver;
  std::uint64_t nodes;
  Parallelism expected;
  int lanes;
};

TEST(ExecutionPlan, DecisionTable) {
  constexpr std::uint64_t kLarge = std::uint64_t{1} << 24;
  constexpr std::uint64_t kSmall = 3000;
  const std::vector<PlanRow> table = {
      // At least two threads per trial: the rounds get the team.
      {1, 4, TrialDriver::Graph, kLarge, Parallelism::Rounds, 1},
      {2, 4, TrialDriver::Graph, kLarge, Parallelism::Rounds, 1},
      {1, 4, TrialDriver::Graph, kRoundsMinNodes, Parallelism::Rounds, 1},
      {1, 2, TrialDriver::Graph, kLarge, Parallelism::Rounds, 1},
      {4, 8, TrialDriver::Graph, kLarge, Parallelism::Rounds, 1},
      // Trials occupying more than half the team keep it: a round scales
      // worse than independent trials (trials = 3 lost on both measured
      // cells at 4 threads).
      {3, 4, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {5, 8, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {4, 4, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {8, 4, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {2048, 4, TrialDriver::Count, kLarge, Parallelism::Trials, 2},
      // A count round has no parallel loop to hand the team to.
      {1, 4, TrialDriver::Count, kLarge, Parallelism::Trials, 1},
      {3, 4, TrialDriver::Count, kLarge, Parallelism::Trials, 1},
      // A round too small to pay for its fork/join keeps the trial team.
      {1, 4, TrialDriver::Graph, kSmall, Parallelism::Trials, 1},
      {1, 4, TrialDriver::Graph, kRoundsMinNodes - 1, Parallelism::Trials, 1},
      {2, 4, TrialDriver::Graph, kSmall, Parallelism::Trials, 1},
      // A budget of one (e.g. inside a sweep's cells team): nothing to split.
      {1, 1, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {8, 1, TrialDriver::Graph, kLarge, Parallelism::Trials, 1},
      {1, 1, TrialDriver::Count, kLarge, Parallelism::Trials, 1},
      // Lanes: the count driver steps two trials per thread in lockstep
      // once every thread can have two (trials >= 2 * threads); with fewer
      // trials one lane keeps every thread busy. Graph trials never pair.
      {8, 4, TrialDriver::Count, 0, Parallelism::Trials, 2},
      {7, 4, TrialDriver::Count, 0, Parallelism::Trials, 1},
      {4, 4, TrialDriver::Count, 0, Parallelism::Trials, 1},
      {2, 1, TrialDriver::Count, 0, Parallelism::Trials, 2},
      {6, 3, TrialDriver::Count, 0, Parallelism::Trials, 2},
      {2048, 4, TrialDriver::Graph, kSmall, Parallelism::Trials, 1},
      {2, 1, TrialDriver::Graph, kSmall, Parallelism::Trials, 1},
  };
  for (const PlanRow& row : table) {
    const ExecutionPlan plan = plan_execution(row.trials, row.driver, row.nodes, row.threads);
    EXPECT_EQ(plan.parallelism, row.expected)
        << "trials=" << row.trials << " threads=" << row.threads
        << " driver=" << static_cast<int>(row.driver) << " nodes=" << row.nodes;
    EXPECT_EQ(plan.lanes, row.lanes)
        << "trials=" << row.trials << " threads=" << row.threads
        << " driver=" << static_cast<int>(row.driver);
    EXPECT_EQ(plan.threads, row.threads);
  }
}

TEST(ExecutionPlan, NamesAndBadBudget) {
  EXPECT_STREQ(parallelism_name(Parallelism::Trials), "trials");
  EXPECT_STREQ(parallelism_name(Parallelism::Rounds), "rounds");
  EXPECT_THROW((void)plan_execution(1, TrialDriver::Graph, kRoundsMinNodes, 0), CheckError);
}

#if defined(PLURALITY_HAVE_OPENMP)

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

TEST(ExecutionPlan, BudgetIsOneInsideATeam) {
  ThreadCountGuard guard(4);
  EXPECT_EQ(execution_thread_budget(), 4);
  EXPECT_EQ(plan_execution(1, TrialDriver::Graph, kRoundsMinNodes, execution_thread_budget())
                .parallelism,
            Parallelism::Rounds);

  int in_team_budget = 0;
  Parallelism in_team = Parallelism::Rounds;
  bool active = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      active = omp_in_parallel() != 0;
      in_team_budget = execution_thread_budget();
      in_team =
          plan_execution(1, TrialDriver::Graph, kRoundsMinNodes, in_team_budget).parallelism;
    }
  }
  if (!active) GTEST_SKIP() << "the runtime gave the team one thread";
  EXPECT_EQ(in_team_budget, 1);
  EXPECT_EQ(in_team, Parallelism::Trials);
}

// --- 2. Thread-invariance battery. ---------------------------------------
//
// Every driver and engine, forced to each parallelism at 1, 2 and 4
// threads, must reproduce the 1-thread Rounds summary bitwise.

void expect_same_summary(const TrialSummary& a, const TrialSummary& b,
                         const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.consensus_count, b.consensus_count) << where;
  EXPECT_EQ(a.plurality_wins, b.plurality_wins) << where;
  EXPECT_EQ(a.round_limit_hits, b.round_limit_hits) << where;
  EXPECT_EQ(a.predicate_stops, b.predicate_stops) << where;
  EXPECT_EQ(a.rounds.count(), b.rounds.count()) << where;
  if (a.rounds.count() > 0 && b.rounds.count() > 0) {
    EXPECT_EQ(a.rounds.mean(), b.rounds.mean()) << where;  // bitwise, not near
  }
  EXPECT_EQ(a.round_samples, b.round_samples) << where;  // order included
}

template <class Run>
void expect_invariant(const std::string& name, const Run& run) {
  TrialSummary reference;
  {
    ThreadCountGuard guard(1);
    reference = run(Parallelism::Rounds);
  }
  ASSERT_GT(reference.rounds.count(), 0u) << name << ": no trial stopped";
  for (const int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    for (const Parallelism p : {Parallelism::Trials, Parallelism::Rounds}) {
      expect_same_summary(run(p), reference,
                          name + " " + parallelism_name(p) + " at " +
                              std::to_string(threads) + " threads");
    }
  }
}

constexpr std::uint64_t kTrials = 6;  // not a multiple of 4: uneven teams

CommonTrialOptions forced(Parallelism parallelism, std::uint64_t seed) {
  CommonTrialOptions options;
  options.trials = kTrials;
  options.seed = seed;
  options.max_rounds = 4000;
  options.parallelism = parallelism;
  return options;
}

TEST(ExecutionPlanInvariance, CountDriver) {
  ThreeMajority majority;
  UndecidedState undecided;
  const Configuration start = workloads::additive_bias(2400, 3, 400);
  const Configuration start_u = UndecidedState::extend_with_undecided(start);
  for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
    const std::string engine = mode == EngineMode::Strict ? "strict" : "batched";
    expect_invariant("count 3-majority " + engine, [&](Parallelism p) {
      CommonTrialOptions options = forced(p, 11);
      options.mode = mode;
      return run_trials(majority, start, options);
    });
    expect_invariant("count undecided " + engine, [&](Parallelism p) {
      CommonTrialOptions options = forced(p, 12);
      options.mode = mode;
      return run_trials(undecided, start_u, options);
    });
  }
}

TEST(ExecutionPlanInvariance, GraphDriverEveryEngine) {
  ThreeMajority majority;
  UndecidedState undecided;
  rng::Xoshiro256pp topo_gen(21);
  const count_t n = 3000;
  const graph::AgentGraph regular = graph::make_topology("regular:6", n, topo_gen);
  const graph::AgentGraph gossip = graph::make_topology("gossip", n, topo_gen);
  const Configuration start = workloads::additive_bias(n, 3, 500);
  const Configuration start_u = UndecidedState::extend_with_undecided(start);

  // The per-agent clique, laid out unshuffled (the clique model for
  // dynamics without an exact law).
  const graph::AgentGraph clique = graph::AgentGraph::complete(n);
  expect_invariant("graph clique 3-majority strict", [&](Parallelism p) {
    CommonTrialOptions options = forced(p, 13);
    options.shuffle_layout = false;
    return graph::run_graph_trials(majority, clique, start, options);
  });
  expect_invariant("graph clique undecided strict", [&](Parallelism p) {
    CommonTrialOptions options = forced(p, 14);
    options.shuffle_layout = false;
    return graph::run_graph_trials(undecided, clique, start_u, options);
  });

  for (const graph::AgentGraph* graph : {&regular, &gossip}) {
    const std::string topo = graph == &regular ? "regular:6" : "gossip";
    for (const EngineMode mode : {EngineMode::Strict, EngineMode::Batched}) {
      const std::string engine = mode == EngineMode::Strict ? "strict" : "batched";
      expect_invariant("graph " + topo + " 3-majority " + engine, [&](Parallelism p) {
        CommonTrialOptions options = forced(p, 31);
        options.mode = mode;
        return graph::run_graph_trials(majority, *graph, start, options);
      });
    }
    expect_invariant("graph " + topo + " undecided batched", [&](Parallelism p) {
      CommonTrialOptions options = forced(p, 32);
      options.mode = EngineMode::Batched;
      return graph::run_graph_trials(undecided, *graph, start_u, options);
    });
  }
}

TEST(ExecutionPlanInvariance, GraphStopPredicates) {
  // Stop predicates on the graph driver: a 20-plurality clique (no exact
  // law at k = 16, so the per-agent path) and regular:8, each stopped by
  // m-plurality and by any-reaches under every parallelism.
  const HPlurality plurality20(20);
  ThreeMajority majority;
  const count_t n = 3000;
  rng::Xoshiro256pp topo_gen(22);
  const graph::AgentGraph regular = graph::make_topology("regular:8", n, topo_gen);
  const graph::AgentGraph clique = graph::AgentGraph::complete(n);
  const Configuration start16 = workloads::additive_bias(n, 16, 600);
  const Configuration start3 = workloads::additive_bias(n, 3, 500);
  // 20-plurality reaches consensus within a round or two, so its
  // m-plurality threshold must be met a round earlier: half the nodes.
  struct Cell {
    std::string name;
    const Dynamics* dynamics;
    const graph::AgentGraph* graph;
    const Configuration* start;
    count_t m;
  };
  const Cell cells[] = {{"20-plurality clique", &plurality20, &clique, &start16, n / 2},
                        {"3-majority regular:8", &majority, &regular, &start3, 300}};
  for (const Cell& cell : cells) {
    const std::pair<std::string, std::function<bool(const Configuration&, round_t)>>
        stops[] = {{"m-plurality:" + std::to_string(cell.m), stop_at_m_plurality(cell.m, 0)},
                   {"any-reaches:2000", stop_when_any_color_reaches(2000, cell.start->k())}};
    for (const auto& [stop_name, predicate] : stops) {
      expect_invariant(cell.name + " " + stop_name, [&](Parallelism p) {
        CommonTrialOptions options = forced(p, 41);
        options.stop_predicate = predicate;
        const TrialSummary summary =
            graph::run_graph_trials(*cell.dynamics, *cell.graph, *cell.start, options);
        EXPECT_EQ(summary.predicate_stops, kTrials) << cell.name << " " << stop_name;
        return summary;
      });
    }
  }
}

#endif  // PLURALITY_HAVE_OPENMP

}  // namespace
}  // namespace plurality
