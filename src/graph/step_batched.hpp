// The batched (EngineMode::Batched) graph stepper — counter-based Philox
// randomness + stage-split tile pipeline (kernels_batched.hpp), with fused
// SIMD fast paths (batched_simd.hpp) on x86 hosts that have them.
//
// step_graph (agent_graph.hpp) routes here when the caller asks for
// EngineMode::Batched and the dynamics has a batched kernel; dynamics
// without one (rule tables / unregistered protocols, whose virtual rule may
// consume generator randomness mid-node) fall back to the strict path —
// batched_has_kernel says which.
#pragma once

#include <cstddef>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/graph_workspace.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

class AgentGraph;

/// True when `dynamics` has a batched kernel (the seven fused dynamics).
[[nodiscard]] bool batched_has_kernel(const Dynamics& dynamics);

/// One synchronous batched round. Same externally observable contract as
/// the strict step (reads/advances ws.nodes, publishes counts into config)
/// but randomness is Philox keyed by streams.master_seed() with `round` as
/// the counter domain — bitwise identical results for any thread count,
/// chunking, or tile size (so `tuning` never changes results, only speed).
/// Requires batched_has_kernel(dynamics).
void step_graph_batched(const Dynamics& dynamics, const AgentGraph& graph,
                        Configuration& config, const rng::StreamFactory& streams,
                        round_t round, GraphStepWorkspace& ws,
                        const StepTuning& tuning = {});

// --- Test hooks (single-threaded setup only). ---------------------------

/// Forces the scalar pipeline even when SIMD kernels are available, so the
/// SIMD paths can be pinned bitwise against the scalar reference.
void set_batched_simd_enabled(bool enabled);

/// True when a SIMD fast path exists on this host (and is enabled).
[[nodiscard]] bool batched_simd_active();

/// The ISA of that fast path ("avx512" / "avx2"), or "scalar" — what the
/// execution plan echoes.
[[nodiscard]] const char* batched_simd_isa();

}  // namespace plurality::graph
