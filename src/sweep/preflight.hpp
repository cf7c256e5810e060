// Memory preflight for sweep cells.
//
// A sweep grid can hold one cell whose topology allocates two orders of
// magnitude more than its neighbours (er:0.01 at n=1e6 is a ~10^10-entry
// CSR). Discovering that by OOM-kill mid-sweep loses every in-flight cell
// and — on Linux default overcommit — can take the whole machine with it.
// So the orchestrator and the sweep service resolve each cell once, before
// running anything, under the memory budget they admit it with
// (scenario/resolve.hpp), and bill what that resolution runs:
//
//   bill > budget            the cell is refused up front (failed_spec;
//                            it would be refused by the allocator anyway,
//                            just less politely)
//   bill > budget / threads  the orchestrator runs the cell in its serial
//                            phase (cells_in_parallel would multiply peaks)
//
// The cell then runs the resolved spec, topology_backend explicit, so it
// builds what it was billed for; its requested spec stays the cache and
// resume key. Bills are deliberately coarse upper bounds (±2x is fine);
// they only have to rank "fits comfortably / fits alone / cannot fit".
#pragma once

#include <cstdint>
#include <string>

#include "sweep/orchestrator.hpp"

namespace plurality::sweep {

/// Resolves `cell.requested` under the caller's thread budget
/// (execution_thread_budget()) and `budget`, stores the spec the cell will
/// run in cell.resolved, and returns its bill
/// (scenario::estimate_cell_memory_bytes). A spec that no longer validates
/// (an edge-list file removed since the grid was expanded) is stored
/// unresolved and billed 0, so its attempt records the failed_spec verdict
/// like any other spec error.
[[nodiscard]] std::uint64_t preflight_cell(CellOutcome& cell, std::uint64_t budget);

/// Human-readable "1.5 GiB" style rendering for refusal messages.
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

}  // namespace plurality::sweep
