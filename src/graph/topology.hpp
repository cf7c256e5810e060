// Sparse-topology substrate (extension beyond the paper's clique).
//
// The paper analyzes the clique; its related work ([1] Abdullah–Draief,
// [20] Peleg) and open questions concern general graphs. This module gives
// the same dynamics a neighbor-sampling semantics: each node draws its h
// samples uniformly (with repetition) from its own neighbor list instead of
// the whole population. The clique is represented implicitly (sampling
// uniform over [n], matching the core model exactly) so it costs no memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace plurality::graph {

/// Compressed-sparse-row undirected graph. For Kind::CompleteImplicit the
/// adjacency arrays are empty and sampling is uniform over all nodes
/// (including self, matching the paper's clique model).
class Topology {
 public:
  enum class Kind { CompleteImplicit, Explicit };

  /// Implicit complete graph on n nodes.
  static Topology complete(count_t n);

  /// Explicit graph from an edge list (undirected; both directions stored).
  /// Self-loops and parallel edges are allowed (sampling semantics).
  static Topology from_edges(count_t n,
                             std::span<const std::pair<count_t, count_t>> edges);

  /// Explicit d-regular graph from its CSR rows: rows[v*d, v*d + d) are v's
  /// neighbors, in order. The caller guarantees symmetry (u in row v exactly
  /// as often as v in row u); ids must be below n.
  static Topology from_regular_rows(count_t n, count_t d,
                                    std::span<const std::uint32_t> rows);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] count_t num_nodes() const { return n_; }

  /// Number of stored directed arcs (2x undirected edge count).
  [[nodiscard]] std::uint64_t num_arcs() const { return adjacency_.size(); }

  [[nodiscard]] count_t degree(count_t v) const;

  [[nodiscard]] std::span<const count_t> neighbors(count_t v) const;

  /// Min/max degree over all nodes (0 for implicit complete: see degree()).
  [[nodiscard]] count_t min_degree() const;
  [[nodiscard]] count_t max_degree() const;

  /// True if the graph is connected (implicit complete is always connected;
  /// BFS otherwise). Isolated vertices make it disconnected.
  [[nodiscard]] bool connected() const;

 private:
  Topology(Kind kind, count_t n) : kind_(kind), n_(n) {}

  Kind kind_;
  count_t n_;
  std::vector<std::uint64_t> offsets_;  // size n+1 for Explicit
  std::vector<count_t> adjacency_;
};

}  // namespace plurality::graph
