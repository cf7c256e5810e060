// Preallocated scratch for the graph stepping hot path — the graph-layer
// sibling of core's StepWorkspace.
//
// A graph round needs the node-state array, its double buffer, and the
// per-chunk partial count matrix. The pre-refactor stepper allocated the
// partials (and a fresh Configuration) every round, which makes per-agent
// stepping allocator-bound exactly where it is already the slow path
// (Θ(n·h) work per round). The workspace owns every buffer and is reused
// across rounds AND across trials — run_graph_trials keeps one per OpenMP
// thread, GraphSimulation owns one for its lifetime.
//
// Unlike StepWorkspace, the node-state array is NOT pure scratch: it
// carries the node states across rounds (the graph process is not
// exchangeable, so the count vector is not a sufficient statistic).
// load_nodes() (re)initializes it per trial; everything else is fully
// rewritten by each step, so workspace reuse across trials or dynamics
// never leaks state. After the first step at a given (n, k), a warm round
// performs zero heap allocations (tests/alloc/test_allocation.cpp pins
// this).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine_mode.hpp"
#include "support/types.hpp"

namespace plurality::graph {

/// Fixed chunk fan-out of the graph stepper: one hash-derived RNG stream
/// per (round, chunk), so results depend on the seed but never on the
/// thread count.
inline constexpr unsigned kGraphChunks = 64;

/// Which stepping pipeline step_graph runs. The enum itself now lives in
/// core/engine_mode.hpp (the axis spans both backends); on this backend
/// Batched means the stage-split pipeline of kernels_batched.hpp, whose
/// index conversion is branch-free bounded-bias Lemire high-multiply
/// (bias <= bound / 2^64 per draw — exactly 0 when the bound is a power of
/// two).
using plurality::EngineMode;

/// Cache-behavior knobs of the stepping pipelines, threaded from the bench
/// CLI (bench_graphs --tile-nodes/--prefetch-distance) down to the
/// kernels; everything else runs the defaults. Pure performance tuning:
/// every setting produces bitwise-identical results per engine mode (tile
/// addressing is counter-based; the strict window replays the exact draw
/// order), pinned by test_graph_batched's tuning-invariance battery.
struct StepTuning {
  /// Batched-pipeline tile size in nodes (0 = derive from
  /// kernels_batched::kBatchedWordBudget; clamped to the word budget).
  std::uint32_t tile_nodes = 0;
  /// Software-prefetch distance of the gather loops: the batched pass-3
  /// look-ahead, and the strict windowed drivers' window size (clamped to
  /// kernels::kMaxPrefetchWindow). 0 disables prefetching entirely (the
  /// strict path then runs the legacy per-node loop).
  std::uint32_t prefetch_distance = 16;
};

/// The node-state width rule: a trial whose state space fits one byte
/// (k <= 256) stores its node states as bytes, a wider one as state_t.
/// Width follows from k alone, so every graph trial holds exactly one
/// double-buffered state array.
constexpr bool byte_states(state_t k) { return k <= 256; }

struct GraphStepWorkspace {
  /// Current / next-round node states when k > 256 (double buffer, swapped
  /// each step). Empty for byte-state trials.
  std::vector<state_t> nodes;
  std::vector<state_t> scratch;
  /// Current / next-round node states when k <= 256. +4 bytes of tail
  /// slack: the batched SIMD gathers read them through 32-bit lane loads
  /// (value masked to the low byte), so an access at id n-1 touches 3
  /// bytes past the last state. Only indices < n are ever addressed.
  std::vector<std::uint8_t> nodes8;
  std::vector<std::uint8_t> scratch8;
  /// kGraphChunks x k per-chunk partial counts.
  std::vector<count_t> partials;
  /// k-entry reduction of partials (the published next configuration).
  std::vector<count_t> counts;

  // (Batched-mode tile arenas are NOT here: the stage-split pipeline stages
  // each tile in fixed-size stack arrays bounded by
  // kernels_batched::kBatchedWordBudget — per-thread by construction, warm,
  // and invisible to the zero-allocation budget. See step_batched.cpp.)

  // --- Adversary scratch (graph_trials' node-level corruption). ---
  std::vector<count_t> adv_before;       // counts before corruption
  std::vector<count_t> adv_take;         // per-state number of victims
  std::vector<count_t> adv_seen;         // reservoir counters
  std::vector<std::uint64_t> adv_offset; // victim-block prefix sums (k+1)
  std::vector<std::uint64_t> adv_victims;

  /// Sizes every buffer for an (n, k) instance; allocation-free once the
  /// workspace has seen these sizes (buffers only ever grow in capacity).
  /// Only the state array pair that k selects is sized.
  void prepare(count_t n, state_t k) {
    if (byte_states(k)) {
      nodes8.resize(static_cast<std::size_t>(n) + 4);
      scratch8.resize(static_cast<std::size_t>(n) + 4);
    } else {
      nodes.resize(n);
      scratch.resize(n);
    }
    partials.resize(static_cast<std::size_t>(kGraphChunks) * k);
    counts.resize(k);
  }

  /// Node count the workspace currently holds k-state trial states for.
  /// The steppers' "call load_nodes first" checks go through here.
  [[nodiscard]] std::size_t state_size(state_t k) const {
    if (!byte_states(k)) return nodes.size();
    return nodes8.size() >= 4 ? nodes8.size() - 4 : 0;
  }

  /// Calls f(current) with a pointer to the current states of a k-state
  /// trial: std::uint8_t* or state_t*.
  template <class F>
  decltype(auto) with_states(state_t k, F&& f) {
    return byte_states(k) ? f(nodes8.data()) : f(nodes.data());
  }
  template <class F>
  decltype(auto) with_states(state_t k, F&& f) const {
    return byte_states(k) ? f(nodes8.data()) : f(nodes.data());
  }

  /// Node v's current state in a k-state trial.
  [[nodiscard]] state_t state(std::size_t v, state_t k) const {
    return with_states(k, [v](const auto* s) { return static_cast<state_t>(s[v]); });
  }

  /// Copy of a k-state trial's current states, widened to state_t.
  [[nodiscard]] std::vector<state_t> states(state_t k) const {
    const std::size_t n = state_size(k);
    return with_states(k, [n](const auto* s) { return std::vector<state_t>(s, s + n); });
  }

  /// One round's double-buffer step: calls sweep(current, next) on the
  /// array pair k selects, then swaps so `next` becomes current.
  template <class Sweep>
  void advance(state_t k, Sweep&& sweep) {
    if (byte_states(k)) {
      sweep(static_cast<const std::uint8_t*>(nodes8.data()), scratch8.data());
      nodes8.swap(scratch8);
    } else {
      sweep(static_cast<const state_t*>(nodes.data()), scratch.data());
      nodes.swap(scratch);
    }
  }

  /// Extra buffers used only when an adversary is wired in.
  void prepare_adversary(state_t k) {
    adv_before.resize(k);
    adv_take.resize(k);
    adv_seen.resize(k);
    adv_offset.resize(static_cast<std::size_t>(k) + 1);
  }
};

}  // namespace plurality::graph
