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
//   engine            "strict" on the count backend, whose one engine it
//                     is; the graph backend keeps the spec's engine.
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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_plan.hpp"
#include "scenario/spec.hpp"

namespace plurality::scenario {

/// A spec with every `auto` decided, and the plan it runs under.
struct Resolution {
  /// The input spec with `backend` explicit ("count" or "graph") and, on
  /// the graph backend, `topology_backend` explicit ("arena" or
  /// "implicit"). The count backend keeps `topology_backend` as given and
  /// says `engine` "strict".
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

/// The default memory budget: the smaller of ~80% of physical RAM and the
/// memory limit of the process's own cgroup (cgroup_memory_limit_files),
/// or 2 GiB when the platform won't say. SweepOptions::memory_budget_bytes
/// overrides it for a sweep.
[[nodiscard]] std::uint64_t default_memory_budget_bytes();

/// The files that hold the memory limit of the cgroups `proc_self_cgroup`
/// (the text of /proc/self/cgroup) names, in the order to try them: for a
/// cgroup v1 `memory` controller line, <path>/memory.limit_in_bytes under
/// /sys/fs/cgroup/memory, then the file at that mount's root (a container
/// sees its own cgroup there); for the v2 line `0::<path>`, memory.max
/// under /sys/fs/cgroup likewise.
[[nodiscard]] std::vector<std::string> cgroup_memory_limit_files(
    std::string_view proc_self_cgroup);

/// The limit a memory.max or memory.limit_in_bytes file's `contents` set,
/// or nullopt for no limit: "max", a value at or above `physical_bytes`
/// (cgroup v1 writes ~2^63 for none), or text that is not a number.
[[nodiscard]] std::optional<std::uint64_t> parse_cgroup_memory_limit(
    std::string_view contents, std::uint64_t physical_bytes);

}  // namespace plurality::scenario
