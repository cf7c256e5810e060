// Scenario::plan() and the "plan" block of a ScenarioResult: what the
// execution planner resolved for a spec, echoed into the result JSON.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/observer.hpp"
#include "graph/step_batched.hpp"
#include "scenario/scenario.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::scenario {
namespace {

#if defined(PLURALITY_HAVE_OPENMP)

struct ThreadCountGuard {
  explicit ThreadCountGuard(int threads) : saved(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
  int saved;
};

// A single gossip trial big enough for the rounds to take the team.
const std::string kSingleGossip =
    "dynamics=3-majority topology=gossip workload=bias:2c n=131072 k=8 trials=1 "
    "engine=batched max_rounds=2";

TEST(ExecutionPlanEcho, SingleLargeTrialGivesTheRoundsTheTeam) {
  ThreadCountGuard guard(4);
  const Scenario compiled = Scenario::compile(ScenarioSpec::parse(kSingleGossip));
  const ExecutionPlan plan = compiled.plan();
  EXPECT_EQ(plan.parallelism, Parallelism::Rounds);
  EXPECT_EQ(plan.threads, 4);
  EXPECT_TRUE(plan.bytes_only);  // k = 8 fits a byte
  EXPECT_EQ(plan.simd, graph::batched_simd_isa());

  const io::JsonValue doc =
      scenario_result_to_json(run_scenario(ScenarioSpec::parse(kSingleGossip)));
  const io::JsonValue& echoed = doc.at("plan");
  EXPECT_EQ(echoed.at("parallelism").as_string(), "rounds");
  EXPECT_EQ(echoed.at("threads").as_uint(), 4u);
  EXPECT_EQ(echoed.at("lanes").as_uint(), 1u);  // graph trials never pair
  EXPECT_TRUE(echoed.at("bytes_only").as_bool());
  EXPECT_EQ(echoed.at("simd").as_string(), plan.simd);
}

TEST(ExecutionPlanEcho, ManyTrialsAndCountRunsKeepTheTrialTeam) {
  ThreadCountGuard guard(4);
  const Scenario many = Scenario::compile(ScenarioSpec::parse(
      "dynamics=3-majority topology=gossip workload=bias:2c n=131072 k=8 trials=8 "
      "engine=batched"));
  EXPECT_EQ(many.plan().parallelism, Parallelism::Trials);

  // The count driver's rounds have no parallel loop, and no SIMD path.
  const Scenario count = Scenario::compile(ScenarioSpec::parse(
      "dynamics=3-majority topology=clique workload=bias:2c n=1e9 k=8 trials=1"));
  ASSERT_FALSE(count.uses_graph_driver());
  EXPECT_EQ(count.plan().parallelism, Parallelism::Trials);
  EXPECT_EQ(count.plan().simd, "scalar");

  EXPECT_EQ(count.plan().lanes, 1);  // one trial: one lane

  // The strict graph engine takes no runtime-dispatched SIMD kernel.
  const Scenario strict = Scenario::compile(ScenarioSpec::parse(
      "dynamics=3-majority topology=gossip workload=bias:2c n=131072 k=8 trials=1"));
  EXPECT_EQ(strict.plan().simd, "scalar");
}

TEST(ExecutionPlanEcho, CountRunsEchoTheirLanes) {
  // Two lanes per thread once every thread of the budget gets two trials.
  const std::string count_spec =
      "dynamics=3-majority topology=clique workload=bias:2c n=1e6 k=8 max_rounds=3 trials=";
  const auto lanes_echoed = [&](int threads, int trials) {
    ThreadCountGuard guard(threads);
    const io::JsonValue doc = scenario_result_to_json(
        run_scenario(ScenarioSpec::parse(count_spec + std::to_string(trials))));
    return doc.at("plan").at("lanes").as_uint();
  };
  EXPECT_EQ(lanes_echoed(4, 8), 2u);
  EXPECT_EQ(lanes_echoed(4, 7), 1u);
  EXPECT_EQ(lanes_echoed(1, 2), 2u);
  EXPECT_EQ(lanes_echoed(1, 1), 1u);
  // Graph runs echo one lane at any trial count.
  ThreadCountGuard guard(1);
  const io::JsonValue graph = scenario_result_to_json(run_scenario(ScenarioSpec::parse(
      "dynamics=3-majority topology=gossip workload=bias:2c n=1000 k=8 max_rounds=3 "
      "trials=8")));
  EXPECT_EQ(graph.at("plan").at("lanes").as_uint(), 1u);
}

/// The most trials one thread held in flight at once (begin_trial to
/// end_trial): the lanes the count driver ran.
thread_local int open_trials = 0;
struct LanesObserver final : RoundObserver {
  void begin_trial(std::uint64_t, const Configuration&, state_t) override {
    const int open = ++open_trials;
    for (int seen = lanes; open > seen && !lanes.compare_exchange_weak(seen, open);) {
    }
  }
  void observe_round(std::uint64_t, round_t, const Configuration&, state_t) override {}
  void end_trial(std::uint64_t, StopReason, round_t, const Configuration&, state_t) override {
    --open_trials;
  }
  std::atomic<int> lanes{0};
};

TEST(ExecutionPlanEcho, RunRunsThePlanCompileEchoed) {
  // Compiled outside a team at a 4-thread budget, 4 trials get one lane
  // per thread. Inside a team the budget is one thread, which would give
  // them two lanes; run() must still run the one lane it echoes.
  ThreadCountGuard guard(4);
  const Scenario compiled = Scenario::compile(ScenarioSpec::parse(
      "dynamics=3-majority topology=clique workload=bias:2c n=1e6 k=8 max_rounds=3 "
      "trials=4"));
  ASSERT_FALSE(compiled.uses_graph_driver());
  ASSERT_EQ(compiled.plan().threads, 4);
  ASSERT_EQ(compiled.plan().lanes, 1);
  LanesObserver observer;
  bool active = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      active = omp_in_parallel() != 0;
      (void)compiled.run(&observer);
    }
  }
  if (!active) GTEST_SKIP() << "the runtime gave the team one thread";
  EXPECT_EQ(observer.lanes.load(), compiled.plan().lanes);
}

TEST(ExecutionPlanEcho, InsideATeamTheBudgetIsOneThread) {
  // compile() resolves the plan under the thread budget where it runs.
  ThreadCountGuard guard(4);
  ExecutionPlan in_team;
  bool active = false;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    {
      active = omp_in_parallel() != 0;
      in_team = Scenario::compile(ScenarioSpec::parse(kSingleGossip)).plan();
    }
  }
  if (!active) GTEST_SKIP() << "the runtime gave the team one thread";
  EXPECT_EQ(in_team.threads, 1);
  EXPECT_EQ(in_team.parallelism, Parallelism::Trials);
}

#endif  // PLURALITY_HAVE_OPENMP

TEST(ExecutionPlanEcho, BytesOnlyFollowsTheStateCount) {
  // Byte node states iff the graph driver runs and k <= 256, at any n.
  const auto plan_of = [](const std::string& text) {
    return Scenario::compile(ScenarioSpec::parse(text)).plan();
  };
  EXPECT_TRUE(plan_of("dynamics=3-majority topology=gossip workload=bias:2c n=1000 k=256 "
                      "trials=1 engine=batched")
                  .bytes_only);
  EXPECT_FALSE(plan_of("dynamics=3-majority topology=gossip workload=bias:2c n=1000 "
                       "k=300 trials=1 engine=batched")
                   .bytes_only);
  // undecided adds a state: 256 colors are 257 states.
  EXPECT_FALSE(plan_of("dynamics=undecided topology=regular:8 workload=bias:2c n=1000 "
                       "k=256 trials=1")
                   .bytes_only);
  // The count driver holds no node states.
  EXPECT_FALSE(plan_of("dynamics=3-majority topology=clique workload=bias:2c n=1000 k=8 "
                       "trials=1")
                   .bytes_only);
}

}  // namespace
}  // namespace plurality::scenario
