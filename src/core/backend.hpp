// The count-based stepper.
//
// Because node updates are i.i.d. given the configuration
// (or i.i.d. within each own-state class for stateful dynamics), one
// multinomial draw per round over the adoption law samples the EXACT
// one-round transition of the Markov chain — Θ(k) work per round instead of
// Θ(n·h). This is what lets the experiments run n up to 10^9.
//
// The stepper works out of a caller-owned StepWorkspace so steady-state
// rounds perform zero heap allocations, and its multinomial kernel is
// sparse: stateful dynamics pay O(k + nnz) per *occupied* own-state class
// (nnz = support of that class's law) instead of Θ(k) binomial calls per
// class. Both properties are load-bearing at paper scale (k in the
// hundreds, almost all classes empty). step_count_based_reference() keeps
// the original dense allocating implementation frozen so tests and
// bench_throughput can verify, bitwise and in rounds/sec, what the
// workspace path buys — the two must consume identical RNG streams.
//
// The literal per-agent protocol (an explicit node array, h uniform
// samples per node per round) is the graph engine on the implicit clique,
// graph::AgentGraph::complete: it cross-validates this stepper in
// distribution (chi-square, tests/core/test_backend.cpp) and runs the
// dynamics whose exact law is unavailable (large h-plurality).
#pragma once

#include <span>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "core/step_workspace.hpp"
#include "rng/philox.hpp"
#include "rng/xoshiro.hpp"

namespace plurality {

/// One trial's share of a lockstep round: its configuration, the generator
/// its protocol step draws from, and its own scratch.
template <class Gen>
struct CountLane {
  Configuration* config;
  Gen* gen;
  StepWorkspace* ws;
};

/// Advances each lane (1 to rng::kMaxLanes, independent trials of one
/// dynamics) by one synchronous round in place using the exact adoption
/// law. The lanes' multinomials are drawn as one lockstep batch
/// (rng/multinomial.hpp), and for own-state dynamics each lane's j-th
/// occupied class is batched with the other's j-th, so every lane consumes
/// exactly the stream it would consume stepped alone. Requires
/// dynamics.has_exact_law(k) for every lane's k. Zero heap allocations once
/// each lane's workspace is warm at its k.
template <class Gen>
void step_count_based(const Dynamics& dynamics, std::span<const CountLane<Gen>> lanes);

/// Advances one synchronous round in place: the one-lane batch above.
///
/// Template over the generator engine (instantiated in backend.cpp):
/// Xoshiro256pp is the sequential default every existing stream runs on;
/// rng::PhiloxStream is the counter-based batched mode — the same exact
/// conditional-binomial kernels fed by block-generated Philox uniforms, so
/// the two engines are distributionally identical (pinned by
/// tests/core/test_backend.cpp) while Philox streams stay order-free and
/// cheap to derive per (seed, tag).
template <class Gen>
void step_count_based(const Dynamics& dynamics, Configuration& config, Gen& gen,
                      StepWorkspace& ws);

/// Convenience overload for one-off steps; allocates a throwaway workspace.
template <class Gen>
void step_count_based(const Dynamics& dynamics, Configuration& config, Gen& gen);

/// The pre-workspace dense implementation, kept frozen as the bitwise
/// ground truth: same RNG stream, same results, Θ(k) per own-state class
/// plus per-round allocations. Used by the determinism suite and by
/// bench_throughput to report the workspace path's speedup.
void step_count_based_reference(const Dynamics& dynamics, Configuration& config,
                                rng::Xoshiro256pp& gen);

}  // namespace plurality
