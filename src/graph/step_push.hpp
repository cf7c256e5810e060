// The push-mode (EngineMode::Push) graph stepper — the scatter formulation
// of the batched pull law for arity-1 dynamics.
//
// A pull round of an arity-1 dynamics (voter, undecided-state) makes one
// random gather per node: v adopts f(state[u]) for a u sampled from v's
// neighborhood. At large n those gathers are the engine's wall — every load
// misses cache (docs/performance.md). The push stepper executes the SAME
// law source-major instead of destination-major:
//
//   A. sample: every node v draws its source u with the EXACT batched
//      Philox addressing (word w(0, v), scale_word against v's degree,
//      v's neighbor row) — a sequential streaming pass;
//   B. bin: (u, v) pairs are placed into buckets of kPushBucketNodes
//      source ids at deterministic cursors — two more streaming passes
//      (histogram + placement);
//   C. scatter-apply: per bucket, read state[u] — now confined to one
//      L2-resident window of the state array (1 MiB of byte mirror) — and
//      write v's next state. Each v appears exactly once, so the writes
//      are race-free.
//
// The random working set per phase-C bin is a cache-resident window instead
// of the whole array: gathers that missed DRAM now hit L2. The price is
// streaming 12 bytes/node of pair buffers (ws.push_src + ws.push_pairs),
// profitable exactly when n is far beyond cache — the regime the ROADMAP's
// open item names.
//
// BITWISE CONTRACT: phase A consumes word-for-word the batched pipeline's
// randomness (same key, same round domain, same w(0, i) = i addressing,
// same scale_word), and phase C applies the
// same rule arithmetic. A push round therefore produces BIT-IDENTICAL
// states, counts, and summaries to the batched round — pinned by
// tests/graph/test_push.cpp's push-vs-batched battery (the
// golden-trajectory machinery's cross-engine analogue). Thread-count
// invariance holds by the fixed chunk/bucket grids and deterministic
// placement cursors (TSan-covered in CI).
#pragma once

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/graph_workspace.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

class AgentGraph;

/// True when `dynamics` has a push kernel: the arity-1 laws (voter,
/// undecided-state). Arity >= 2 rules need all of a node's samples
/// together, which the source-major execution order cannot provide.
[[nodiscard]] bool push_has_kernel(const Dynamics& dynamics);

/// One synchronous push round. Same externally observable contract as
/// step_graph_batched — and bitwise-identical results to it (see the
/// header comment). Requires push_has_kernel(dynamics) and n < 2^32 (ids
/// are packed two to a word in the pair buffer).
void step_graph_push(const Dynamics& dynamics, const AgentGraph& graph,
                     Configuration& config, const rng::StreamFactory& streams,
                     round_t round, GraphStepWorkspace& ws,
                     const StepTuning& tuning = {});

}  // namespace plurality::graph
