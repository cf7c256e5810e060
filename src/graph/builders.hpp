// Standard topology generators for the sparse-graph extension experiments
// (E13): structured graphs (cycle, torus, circulant lattice) and random
// graphs (simple d-regular via Steger–Wormald pairing, Erdős–Rényi G(n, m)).
// Each returns an arena-backed AgentGraph whose arena it fills in place.
#pragma once

#include "graph/agent_graph.hpp"
#include "graph/implicit_topology.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::graph {

/// The arena twin of a ring/torus/lattice descriptor: row v is
/// topo.neighbor(v, 0 .. degree - 1), so the implicit and arena forms share
/// one definition of the neighbor order (topo.n <= 2^32 - 1).
AgentGraph materialize(const ImplicitTopology& topo);

/// Cycle C_n (n >= 3): materialize(ImplicitTopology::ring(n)).
AgentGraph cycle(count_t n);

/// rows x cols torus grid (4-regular, wrap-around; rows, cols >= 3).
AgentGraph torus(count_t rows, count_t cols);

/// Circulant d-regular lattice: v ~ v +- j (mod n) for j = 1..d/2 (d even,
/// 2 <= d <= n - 2). d = 2 is exactly cycle(n).
AgentGraph circulant_lattice(count_t n, count_t d);

/// Simple random d-regular graph via Steger–Wormald incremental pairing:
/// d*n stubs (d*n even, d < n, n <= 2^32 - 1) are matched two at a time at
/// random, and a match that would make a self-loop or a parallel edge is
/// rejected. The result never has either. A pairing that gets stuck (no
/// acceptable match in 200 draws) restarts from scratch; after 256 attempts
/// it throws CheckError, which happens only for d close to n. The graph
/// and the generator state it leaves are fixed by `gen`'s state.
AgentGraph random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen);

/// Erdős–Rényi G(n, m): m distinct edges (no self-loops) chosen uniformly
/// (n <= 2^32 - 1). With `patch_isolated`, every degree-0 vertex is
/// afterwards attached to a uniform random partner (adding a few edges
/// beyond m) so that sampling dynamics are well-defined on every node.
AgentGraph erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                       bool patch_isolated = false);

}  // namespace plurality::graph
