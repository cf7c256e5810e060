#include "graph/builders.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality::graph {

AgentGraph materialize(const ImplicitTopology& topo) {
  PLURALITY_REQUIRE(topo.implicit() && topo.family != ImplicitTopology::Family::Gossip,
                    "materialize: needs a ring, torus or lattice descriptor");
  const count_t d = topo.degree;
  return AgentGraph::regular(topo.n, d, [&topo, d](std::span<std::uint32_t> rows) {
    std::uint32_t* row = rows.data();
    for (count_t v = 0; v < topo.n; ++v) {
      for (count_t idx = 0; idx < d; ++idx) {
        *row++ = static_cast<std::uint32_t>(topo.neighbor(v, idx));
      }
    }
  });
}

AgentGraph cycle(count_t n) { return materialize(ImplicitTopology::ring(n)); }

AgentGraph torus(count_t rows, count_t cols) {
  return materialize(ImplicitTopology::torus(rows, cols));
}

AgentGraph circulant_lattice(count_t n, count_t d) {
  return materialize(ImplicitTopology::lattice(n, d));
}

AgentGraph random_regular(count_t n, count_t d, rng::Xoshiro256pp& gen) {
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
  // Row u of the arena, rows[u*d, u*d + fill[u]), holds u's partners in
  // match order, which is exactly the row AgentGraph::from_edges would
  // build from the matched edge list. A partner row has at most d entries,
  // so scanning it is the duplicate-edge check.
  //
  // Every try is a dependent chain of random loads: two stubs, then both
  // partner rows and fill counts. The addresses come from the generator
  // before any of them is touched, so a look-ahead clone of `gen` (reset
  // at every attempt) replays the next words: kAhead tries ahead it
  // prefetches the two stub slots, and kAhead/2 tries ahead it reads them
  // and prefetches the rows and counts. Rows start 8·(n+1) bytes into the
  // arena, so a row of 8 ids (32 B) can straddle two cache lines: both its
  // first and its last id are prefetched. It predicts `live` as if every
  // try in between matched, so a rejection only makes the next few
  // prefetches miss; a Lemire retry (below live/2^64 per draw) shifts the
  // clone by a word and leaves the rest of its attempt unprefetched.
  // Indices are scaled by values <= live, so every real load stays in
  // bounds, and `gen` is drawn exactly as without the clone.
  constexpr std::size_t kAhead = 16;
  const std::size_t arcs = n * d;
  bool built = false;
  AgentGraph graph = AgentGraph::regular(n, d, [&](std::span<std::uint32_t> rows) {
    std::vector<std::uint32_t> stubs(arcs);
    std::vector<std::uint32_t> fill(n);
    // The two stub slots a try would draw from a pair of raw words with
    // `live` free stubs (uniform_below without its rejection step).
    const auto predict = [](const std::uint64_t* w, std::size_t live) {
      const auto scale = [](std::uint64_t x, std::size_t bound) {
        return static_cast<std::size_t>((static_cast<__uint128_t>(x) * bound) >> 64);
      };
      const std::size_t i = scale(w[0], live);
      const std::size_t j = scale(w[1], live - 1);
      return std::pair{i, j + (j >= i)};
    };
    for (int attempt = 0; attempt < 256 && !built; ++attempt) {
      std::uint32_t* stub = stubs.data();
      for (count_t v = 0; v < n; ++v) {
        stub = std::fill_n(stub, d, static_cast<std::uint32_t>(v));
      }
      std::fill(fill.begin(), fill.end(), 0);
      // Try t's two raw words sit at ahead[2·(t mod kAhead)] until try t
      // runs, which refills the pair with try t + kAhead's.
      rng::Xoshiro256pp clone = gen;
      std::uint64_t ahead[2 * kAhead] = {};
      for (std::uint64_t& w : ahead) w = clone();
      std::size_t live = arcs;
      std::size_t tried = 0;
      bool stuck = false;
      while (live > 0 && !stuck) {
        stuck = true;
        for (int tries = 0; tries < 200; ++tries) {
          const std::size_t t = tried++;
          if (live > 2 * kAhead) {
            std::uint64_t* const next = ahead + 2 * (t % kAhead);
            const auto [pi, pj] = predict(ahead + 2 * ((t + kAhead / 2) % kAhead), live - kAhead);
            const std::uint32_t pu = stubs[pi], pv = stubs[pj];
            __builtin_prefetch(rows.data() + pu * d, 1, 3);
            __builtin_prefetch(rows.data() + pu * d + d - 1, 1, 3);
            __builtin_prefetch(rows.data() + pv * d, 1, 3);
            __builtin_prefetch(rows.data() + pv * d + d - 1, 1, 3);
            __builtin_prefetch(fill.data() + pu, 1, 3);
            __builtin_prefetch(fill.data() + pv, 1, 3);
            next[0] = clone();
            next[1] = clone();
            const auto [qi, qj] = predict(next, live - 2 * kAhead);
            __builtin_prefetch(stubs.data() + qi, 1, 3);
            __builtin_prefetch(stubs.data() + qj, 1, 3);
          }
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
  });
  PLURALITY_CHECK_MSG(built, "random_regular: failed to build a simple graph "
                             "(n=" << n << ", d=" << d << "); d too close to n?");
  return graph;
}

AgentGraph erdos_renyi(count_t n, std::uint64_t m, rng::Xoshiro256pp& gen,
                       bool patch_isolated) {
  PLURALITY_REQUIRE(n >= 2, "erdos_renyi: need n >= 2");
  const std::uint64_t max_edges = n * (n - 1) / 2;
  PLURALITY_REQUIRE(m <= max_edges, "erdos_renyi: m exceeds the edge universe");
  std::vector<AgentGraph::Edge> edges;
  edges.reserve(m);
  {  // the duplicate filter is freed before the arena is built
    // Open addressing with linear probing over the edge keys, at most half
    // full. u != v makes every key >= 1, so 0 marks an empty slot.
    const std::uint64_t capacity = std::bit_ceil(std::max<std::uint64_t>(2 * m, 2));
    const int shift = 64 - std::countr_zero(capacity);
    std::vector<std::uint64_t> chosen(capacity, 0);
    while (edges.size() < m) {
      const count_t u = rng::uniform_below(gen, n);
      const count_t v = rng::uniform_below(gen, n);
      if (u == v) continue;
      const std::uint64_t key = std::min(u, v) * n + std::max(u, v);
      std::uint64_t slot = (key * 0x9e3779b97f4a7c15ULL) >> shift;
      while (chosen[slot] != 0 && chosen[slot] != key) slot = (slot + 1) & (capacity - 1);
      if (chosen[slot] == 0) {
        chosen[slot] = key;
        edges.emplace_back(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
      }
    }
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
      edges.emplace_back(static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(u));
    }
  }
  return AgentGraph::from_edges(n, edges);
}

}  // namespace plurality::graph
