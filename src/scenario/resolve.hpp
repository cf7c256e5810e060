// The resolver — the one place every `auto` of a ScenarioSpec is decided.
//
// From a spec, a thread budget and a memory budget it returns the trial
// backend, the topology backend and the execution plan. Scenario::compile
// calls it once per scenario; the sweep orchestrator and the sweep
// service's worker call it once per admitted cell, at preflight, under
// the memory budget they admit the cell with, and then run the spec it
// returns.
//
//   backend           ScenarioSpec::resolved_backend(): the clique with an
//                     exact adoption law -> count, else graph.
//   topology_backend  graph backend only. clique/gossip are implicit by
//                     construction; regular/er/gnm/edges have only an arena
//                     form. ring/torus/lattice:<d> have both, bitwise
//                     identical, so the choice is cost alone: the arena
//                     when n fits its u32 node ids and the cell's arena
//                     bill (estimate_cell_memory_bytes) fits the memory
//                     budget — its rounds ran 2–6.5× faster than the
//                     implicit ones (docs/performance.md, "The implicit
//                     engine") — else implicit, whose bill is the node
//                     states alone.
//   plan              plan_execution (core/execution_plan.hpp) for the
//                     driver, plus the graph driver's state width
//                     (graph::byte_states) and batched SIMD table.
//
// The memory budget is read only when a choice exists (an `auto` ring,
// torus or lattice), so resolving any other spec bills nothing and reads
// no system memory size.
#pragma once

#include <cstdint>

#include "core/execution_plan.hpp"
#include "scenario/spec.hpp"

namespace plurality::scenario {

/// A spec with every `auto` decided, and the plan it runs under.
struct Resolution {
  /// The input spec with `backend` explicit ("count" or "graph") and, on
  /// the graph backend, `topology_backend` explicit ("arena" or
  /// "implicit"). The count backend keeps `topology_backend` as given.
  ScenarioSpec spec;
  ExecutionPlan plan;
};

/// Resolves `spec` for a run with `threads` threads and
/// `memory_budget_bytes` of memory (0 = default_memory_budget_bytes(),
/// read only when an `auto` ring/torus/lattice needs it). Validates the
/// spec first (throws CheckError).
[[nodiscard]] Resolution resolve(const ScenarioSpec& spec, int threads,
                                 std::uint64_t memory_budget_bytes = 0);

/// Upper bound of the peak heap bytes of running `resolved`, from its
/// backend, n, k, plan and — for arena-backed graph cells — the topology's
/// edge count and its builder's transient. Graph cells bill one step
/// workspace per trial in flight under the plan (a `trials` plan runs
/// min(trials, threads) at once) at the plan's state width. Implicit
/// topologies are billed for the node states only (no CSR arena: the
/// point of gossip and implicit cells at n = 1e9). Fields still "auto"
/// bill the costlier case (graph, arena), so the bound also holds for
/// specs that were never resolved. All arithmetic saturates instead of
/// wrapping, so a clique-sized edge count at n = 7e9 estimates "cannot
/// fit" rather than wrapping u64 into "fits". Never throws; an
/// unparseable topology argument bills a clique-sized worst case
/// (validation rejects the spec anyway).
[[nodiscard]] std::uint64_t estimate_cell_memory_bytes(const Resolution& resolved);

/// The default memory budget: ~80% of physical RAM, or 2 GiB when the
/// platform won't say. SweepOptions::memory_budget_bytes overrides it for
/// a sweep.
[[nodiscard]] std::uint64_t default_memory_budget_bytes();

}  // namespace plurality::scenario
