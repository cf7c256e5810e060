// The execution planner — the one place that decides how a run's trials
// use the OpenMP team.
//
// Two shapes exist, and neither can change a result: every trial draws
// from its own hash-derived stream and graph rounds reduce fixed
// kGraphChunks partials, so a TrialSummary is bitwise the same under either shape at any thread count
// (tests/core/test_execution_plan.cpp pins this per driver and engine).
//
//  * Trials — an outer team runs one trial per thread. Each round's own
//    `omp parallel for` is then nested and runs on that trial's thread.
//  * Rounds — trials run one after another on the calling thread, and
//    each round's chunked `omp parallel for` gets the whole team.
//
// Independent trials scale almost linearly with threads; a round's
// parallel loop does not (it scaled 1.6–2.8× on 4 threads). So an outer
// team wins as soon as the trials occupy more than half of it, and Rounds
// takes over only while the team has at least two threads per trial
// (2 · trials <= threads) — if the round covers at least
// kRoundsMinNodes nodes, and never on the count driver, whose Θ(k) rounds
// have no parallel loop to hand the team to. docs/performance.md
// ("Execution plan") has the measurements behind the rule.
//
// The count driver also keeps two trials in flight per thread (`lanes`),
// stepping them in lockstep so their dependent binomial chains overlap on
// the core — once there are enough trials to give every thread two
// (trials >= 2 · threads); with fewer, one lane per thread keeps every
// thread busy. Lanes cannot change a result either: each trial keeps its
// own generator and draws in its own order.
#pragma once

#include <cstdint>
#include <string>

namespace plurality {

/// How trials share the OpenMP team (see the header comment).
enum class Parallelism : std::uint8_t { Trials, Rounds };

/// "trials" / "rounds" — the name results echo.
[[nodiscard]] const char* parallelism_name(Parallelism parallelism);

/// The trial driver a run dispatches to. It decides whether a round has a
/// parallel loop at all: the graph round does, the count round does not.
enum class TrialDriver : std::uint8_t { Count, Graph };

/// What the planner resolved, plus the memory mode and kernel path the
/// graph layer resolves for the same run. Results echo all of it (the
/// scenario result's and the sweep cell's "plan" block), so a result says
/// how it ran; none of it changes what it computed.
struct ExecutionPlan {
  Parallelism parallelism = Parallelism::Trials;
  /// The thread budget the plan was made for.
  int threads = 1;
  /// Trials each thread keeps in flight and steps in lockstep: 2 on the
  /// count driver when trials >= 2 · threads, else 1 (always 1 on graph).
  int lanes = 1;
  /// Graph driver only: node states stored one byte each, ~2n bytes for
  /// the double buffer (k <= 256, graph::byte_states). Always false on the
  /// other drivers.
  bool bytes_only = false;
  /// SIMD path of the batched graph pipeline ("avx512" / "avx2"), or
  /// "scalar" when the run takes no runtime-dispatched SIMD kernel.
  std::string simd = "scalar";
};

/// Smallest population whose rounds the planner hands the team. Below it
/// a round is well under a millisecond of work, so a per-round team saves
/// little, while its barriers stall badly when other processes share the
/// cores (docs/performance.md, "Execution plan").
inline constexpr std::uint64_t kRoundsMinNodes = std::uint64_t{1} << 16;

/// Threads a run may use from here: omp_get_max_threads(), or 1 inside an
/// active parallel region (e.g. a sweep's cells-in-parallel team, where a
/// nested team would run serially anyway). 1 without OpenMP. Reads only
/// OpenMP state — no file or sysfs I/O.
[[nodiscard]] int execution_thread_budget();

/// The planner: Rounds when `2 * trials <= threads`, the driver's rounds
/// have a parallel loop and a round covers at least kRoundsMinNodes
/// `nodes`; Trials otherwise. Lanes as documented on ExecutionPlan::lanes.
/// Fills parallelism, threads and lanes.
[[nodiscard]] ExecutionPlan plan_execution(std::uint64_t trials, TrialDriver driver,
                                           std::uint64_t nodes, int threads);

}  // namespace plurality
