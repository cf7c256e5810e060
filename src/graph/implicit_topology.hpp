// Implicit topologies: neighborhoods as pure functions of the node id.
//
// The CSR arena (agent_graph.hpp) caps the graph engine twice over: node
// ids must fit 32 bits, and the arena itself is O(arcs) bytes of RAM. But
// the paper grid's structured topologies — ring, torus, circulant
// d-regular lattice — and the gossip/uniform-pull model of the follow-up
// paper (arXiv:1407.2565) need no stored adjacency at all: neighbor j of
// node v is arithmetic on v. An ImplicitTopology descriptor carries that
// arithmetic; the stepping kernels (kernels.hpp strict, kernels_batched.hpp
// batched) call neighbor(v, idx) instead of gathering from the arena, so
// total simulation state collapses to the node-state arrays — at n = 10^9
// with byte-wide states that is ~2 GB instead of a ~16 GB arena plus
// 10 GB of workspace. The price is speed: computing ids per draw ran
// rounds 2-6.5x slower than the arena at n = 10^6 - 4*10^6
// (docs/performance.md, "The implicit engine"), so the scenario layer's
// topology_backend=auto takes the arena whenever it fits the memory budget
// (scenario/resolve.hpp).
//
// THE NEIGHBOR ORDER IS A BITWISE CONTRACT, and this file is its only
// definition: the arena form of ring, torus and lattice
// (builders.hpp, materialize) fills row v with neighbor(v, 0 .. degree-1),
// so AgentGraph::neighbors_of(v)[idx] == neighbor(v, idx) by construction.
// The strict and batched samplers draw the same index either way, so
// implicit and arena runs are bitwise-identical at any n where both exist
// (tests/graph/test_implicit_topology.cpp pins this per family and mode).
// The order itself is frozen: it is the CSR row order of the edge-list
// builders these families once had, and the golden trajectories and arena
// digests (tests/graph/test_builders.cpp) pin it.
#pragma once

#include <cstdint>

#include "support/types.hpp"

namespace plurality::graph {

struct ImplicitTopology {
  enum class Family : std::uint8_t {
    None = 0,  ///< arena-backed graph (no implicit descriptor)
    Gossip,    ///< uniform pull over the whole population, self included
    Ring,      ///< cycle C_n
    Torus,     ///< rows x cols wrap-around grid (4-regular)
    Lattice,   ///< circulant: v ~ v +- j (mod n) for j = 1..degree/2
  };

  Family family = Family::None;
  std::uint64_t n = 0;
  std::uint64_t rows = 0;  ///< Torus only
  std::uint64_t cols = 0;  ///< Torus only
  std::uint64_t half = 0;  ///< Lattice only: degree / 2
  /// Per-node sampling bound: n for Gossip (self included — the paper's
  /// clique model), 2 / 4 / d otherwise.
  std::uint64_t degree = 0;

  [[nodiscard]] bool implicit() const { return family != Family::None; }

  /// Neighbor `idx` (0 <= idx < degree) of node v, in the frozen order the
  /// arena form copies (see the header comment). Gossip has no arena form;
  /// its "adjacency" is the identity over [0, n).
  [[nodiscard]] std::uint64_t neighbor(std::uint64_t v, std::uint64_t idx) const {
    switch (family) {
      case Family::Gossip:
        return idx;
      case Family::Ring:
        // Predecessor first, then successor — except node 0, whose
        // successor comes first (the order of edges (v, v+1 mod n) listed
        // in v order).
        if (v == 0) return idx == 0 ? 1 : n - 1;
        return idx == 0 ? v - 1 : (v + 1 == n ? 0 : v + 1);
      case Family::Torus: {
        // The order of each cell's right edge then down edge, listed in
        // row-major cell order: a node's row order depends on which of its
        // up/left neighbors wrap around the grid.
        const std::uint64_t r = v / cols;
        const std::uint64_t c = v % cols;
        const std::uint64_t up = (r == 0 ? rows - 1 : r - 1) * cols + c;
        const std::uint64_t down = (r + 1 == rows ? 0 : r + 1) * cols + c;
        const std::uint64_t left = r * cols + (c == 0 ? cols - 1 : c - 1);
        const std::uint64_t right = r * cols + (c + 1 == cols ? 0 : c + 1);
        if (r > 0 && c > 0) {
          const std::uint64_t order[4] = {up, left, right, down};
          return order[idx];
        }
        if (r > 0) {  // c == 0: the left edge is emitted later in this row
          const std::uint64_t order[4] = {up, right, down, left};
          return order[idx];
        }
        if (c > 0) {  // r == 0: the up edge is emitted in the last row
          const std::uint64_t order[4] = {left, right, down, up};
          return order[idx];
        }
        const std::uint64_t order[4] = {right, down, left, up};
        return order[idx];
      }
      case Family::Lattice: {
        // Ring j = 1 .. half contributes the pair (v-j, v+j) to node v,
        // predecessor first unless it wraps (v < j) — the order of edges
        // (v, v+j mod n) listed with j as the outer loop.
        const std::uint64_t j = idx / 2 + 1;
        if (v >= j) {
          if ((idx & 1) == 0) return v - j;
          const std::uint64_t s = v + j;
          return s >= n ? s - n : s;
        }
        return (idx & 1) == 0 ? v + j : v + n - j;
      }
      case Family::None:
        break;
    }
    return 0;  // unreachable for a well-formed descriptor
  }

  static ImplicitTopology gossip(std::uint64_t n);
  static ImplicitTopology ring(std::uint64_t n);
  static ImplicitTopology torus(std::uint64_t rows, std::uint64_t cols);
  /// Circulant lattice on n nodes, even degree d with 2 <= d <= n - 2.
  static ImplicitTopology lattice(std::uint64_t n, std::uint64_t d);
};

}  // namespace plurality::graph
