#include "core/execution_plan.hpp"

#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality {

const char* parallelism_name(Parallelism parallelism) {
  return parallelism == Parallelism::Rounds ? "rounds" : "trials";
}

int execution_thread_budget() {
#if defined(PLURALITY_HAVE_OPENMP)
  return omp_in_parallel() ? 1 : omp_get_max_threads();
#else
  return 1;
#endif
}

ExecutionPlan plan_execution(std::uint64_t trials, TrialDriver driver, std::uint64_t nodes,
                             int threads) {
  PLURALITY_REQUIRE(threads >= 1, "plan_execution: thread budget must be >= 1, got "
                                      << threads);
  ExecutionPlan plan;
  plan.threads = threads;
  const bool parallel_rounds = driver == TrialDriver::Graph && nodes >= kRoundsMinNodes;
  const bool team_to_spare = 2 * trials <= static_cast<std::uint64_t>(threads);
  plan.parallelism =
      parallel_rounds && team_to_spare ? Parallelism::Rounds : Parallelism::Trials;
  const bool two_per_thread = trials >= 2 * static_cast<std::uint64_t>(threads);
  plan.lanes = driver == TrialDriver::Count && two_per_thread ? 2 : 1;
  return plan;
}

}  // namespace plurality
