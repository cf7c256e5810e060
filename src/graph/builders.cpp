#include "graph/builders.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

Topology cycle(count_t n) {
  PLURALITY_REQUIRE(n >= 3, "cycle: need n >= 3");
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(n);
  for (count_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Topology::from_edges(n, edges);
}

Topology torus(count_t rows, count_t cols) {
  PLURALITY_REQUIRE(rows >= 3 && cols >= 3, "torus: need rows, cols >= 3");
  const count_t n = rows * cols;
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(2 * n);
  auto id = [cols](count_t r, count_t c) { return r * cols + c; };
  for (count_t r = 0; r < rows; ++r) {
    for (count_t c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Topology::from_edges(n, edges);
}

Topology circulant_lattice(count_t n, count_t d) {
  PLURALITY_REQUIRE(d >= 2 && d % 2 == 0,
                    "circulant_lattice: degree must be even and >= 2, got " << d);
  PLURALITY_REQUIRE(n >= d + 2,
                    "circulant_lattice: degree " << d << " needs n >= " << d + 2
                                                 << ", got " << n);
  // Edge emission order (j outer, v inner) is the implicit-topology
  // contract: ImplicitTopology::neighbor reproduces the resulting CSR row
  // order arithmetically, so do not reorder these loops.
  const count_t half = d / 2;
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(static_cast<std::size_t>(n) * half);
  for (count_t j = 1; j <= half; ++j) {
    for (count_t v = 0; v < n; ++v) {
      const count_t u = v + j >= n ? v + j - n : v + j;
      edges.emplace_back(v, u);
    }
  }
  return Topology::from_edges(n, edges);
}

Topology random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen) {
  PLURALITY_REQUIRE(n >= 2 && d >= 1, "random_regular: need n >= 2, d >= 1");
  PLURALITY_REQUIRE((n * d) % 2 == 0, "random_regular: n*d must be even");
  PLURALITY_REQUIRE(d < n, "random_regular: d must be below n");
  PLURALITY_REQUIRE(n <= 4294967295ULL,
                    "random_regular: node ids are 32-bit, so n is capped at "
                    "4294967295 (got " << n << ")");

  // Steger–Wormald incremental pairing: repeatedly match two random free
  // stubs, rejecting matches that would create a self-loop or a parallel
  // edge. For d = o(sqrt n) the process gets stuck only with small
  // probability, in which case we restart from scratch.
  //
  // rows[u*d, u*d + fill[u]) holds u's partners in match order, which is
  // exactly the CSR row Topology::from_edges would build from the matched
  // edge list. A partner row has at most d entries, so scanning it is the
  // duplicate-edge check.
  const std::size_t arcs = n * d;
  std::vector<std::uint32_t> rows(arcs);
  bool built = false;
  {  // stubs and fill are freed before the CSR copy, to keep peak memory low
    std::vector<std::uint32_t> stubs(arcs);
    std::vector<std::uint32_t> fill(n);
    for (int attempt = 0; attempt < 256 && !built; ++attempt) {
      std::uint32_t* stub = stubs.data();
      for (count_t v = 0; v < n; ++v) {
        stub = std::fill_n(stub, d, static_cast<std::uint32_t>(v));
      }
      std::fill(fill.begin(), fill.end(), 0);
      std::size_t live = arcs;
      bool stuck = false;
      while (live > 0 && !stuck) {
        stuck = true;
        for (int tries = 0; tries < 200; ++tries) {
          const std::size_t i = rng::uniform_below(gen, live);
          std::size_t j = rng::uniform_below(gen, live - 1);
          if (j >= i) ++j;
          const std::uint32_t u = stubs[i], v = stubs[j];
          if (u == v) continue;
          std::uint32_t* const row_u = rows.data() + u * d;
          if (std::find(row_u, row_u + fill[u], v) != row_u + fill[u]) continue;
          row_u[fill[u]++] = v;
          rows[v * d + fill[v]++] = u;
          // Swap-pop both stubs (larger index first keeps i/j valid).
          stubs[std::max(i, j)] = stubs[--live];
          stubs[std::min(i, j)] = stubs[--live];
          stuck = false;
          break;
        }
      }
      built = !stuck;
    }
  }
  PLURALITY_CHECK_MSG(built, "random_regular: failed to build a simple graph "
                             "(n=" << n << ", d=" << d << "); d too close to n?");
  return Topology::from_regular_rows(n, d, rows);
}

Topology erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                     bool patch_isolated) {
  PLURALITY_REQUIRE(n >= 2, "erdos_renyi: need n >= 2");
  const std::uint64_t max_edges = n * (n - 1) / 2;
  PLURALITY_REQUIRE(m <= max_edges, "erdos_renyi: m exceeds the edge universe");
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(m * 2);
  std::vector<std::pair<count_t, count_t>> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const count_t u = rng::uniform_below(gen, n);
    const count_t v = rng::uniform_below(gen, n);
    if (u == v) continue;
    const std::uint64_t key = std::min(u, v) * n + std::max(u, v);
    if (chosen.insert(key).second) edges.emplace_back(u, v);
  }
  if (patch_isolated) {
    std::vector<std::uint8_t> has_edge(n, 0);
    for (const auto& [u, v] : edges) {
      has_edge[u] = 1;
      has_edge[v] = 1;
    }
    for (count_t v = 0; v < n; ++v) {
      if (has_edge[v]) continue;
      count_t u = v;
      while (u == v) u = rng::uniform_below(gen, n);
      edges.emplace_back(v, u);
    }
  }
  return Topology::from_edges(n, edges);
}

}  // namespace plurality::graph
