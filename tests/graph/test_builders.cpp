#include "graph/builders.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace plurality::graph {
namespace {

TEST(Builders, CycleIsTwoRegularAndConnected) {
  const Topology t = cycle(10);
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.min_degree(), 2u);
  EXPECT_EQ(t.max_degree(), 2u);
  EXPECT_TRUE(t.connected());
}

TEST(Builders, CycleNeighborsAreAdjacent) {
  const Topology t = cycle(5);
  const auto n0 = t.neighbors(0);
  const std::set<count_t> neighbors(n0.begin(), n0.end());
  EXPECT_EQ(neighbors, (std::set<count_t>{1, 4}));
}

TEST(Builders, CycleTooSmallThrows) {
  EXPECT_THROW(cycle(2), CheckError);
}

TEST(Builders, TorusIsFourRegularAndConnected) {
  const Topology t = torus(4, 5);
  EXPECT_EQ(t.num_nodes(), 20u);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_TRUE(t.connected());
}

TEST(Builders, TorusNeighborsWrapAround) {
  const Topology t = torus(3, 3);
  const auto n0 = t.neighbors(0);  // node (0,0)
  const std::set<count_t> neighbors(n0.begin(), n0.end());
  // Right (0,1)=1, left (0,2)=2, down (1,0)=3, up (2,0)=6.
  EXPECT_EQ(neighbors, (std::set<count_t>{1, 2, 3, 6}));
}

TEST(Builders, RandomRegularHasExactDegrees) {
  rng::Xoshiro256pp gen(1);
  const Topology t = random_regular(200, 6, gen);
  EXPECT_EQ(t.num_nodes(), 200u);
  EXPECT_EQ(t.min_degree(), 6u);
  EXPECT_EQ(t.max_degree(), 6u);
}

TEST(Builders, RandomRegularIsSimple) {
  rng::Xoshiro256pp gen(2);
  const Topology t = random_regular(100, 4, gen);
  for (count_t v = 0; v < 100; ++v) {
    const auto neigh = t.neighbors(v);
    std::set<count_t> unique(neigh.begin(), neigh.end());
    EXPECT_EQ(unique.size(), neigh.size()) << "parallel edge at " << v;
    EXPECT_EQ(unique.count(v), 0u) << "self loop at " << v;
  }
}

TEST(Builders, RandomRegularTypicallyConnected) {
  // Random d-regular graphs with d >= 3 are connected w.h.p.
  rng::Xoshiro256pp gen(3);
  const Topology t = random_regular(300, 4, gen);
  EXPECT_TRUE(t.connected());
}

TEST(Builders, RandomRegularOddProductThrows) {
  rng::Xoshiro256pp gen(4);
  EXPECT_THROW(random_regular(5, 3, gen), CheckError);
  EXPECT_THROW(random_regular(10, 10, gen), CheckError);  // d >= n
}

/// FNV-1a over every CSR row in node order: each row's degree, then its
/// neighbor ids, each as 8 little-endian bytes.
std::uint64_t fnv1a_rows(const Topology& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (count_t v = 0; v < t.num_nodes(); ++v) {
    const auto row = t.neighbors(v);
    mix(row.size());
    for (count_t u : row) mix(u);
  }
  return h;
}

TEST(Builders, RandomRegularGoldenAdjacency) {
  // Pins the exact graph (every row, in CSR order) and the generator state
  // the builder leaves behind. Any change to the pairing's draws, its
  // accept/reject decisions or the row order breaks this. The d-close-to-n
  // cells are where the pairing most often gets stuck and restarts.
  struct Case {
    count_t n, d;
    std::uint64_t seed, rows_hash, next_word;
  };
  const Case cases[] = {
      {10, 3, 1, 0x78341979bdf68544ULL, 0x81df0abdf578c676ULL},
      {10, 3, 2, 0xa6e968851b086f44ULL, 0xa5d1bbf9dddeedefULL},
      {12, 9, 1, 0xf73676214f897f65ULL, 0x910485145119c58bULL},
      {12, 9, 7, 0x45d9aef638321125ULL, 0xa04ef4e9bb28c46bULL},
      {20, 17, 3, 0x4320fc8c9445a1a5ULL, 0x72680cefeb53a701ULL},
      {20, 17, 4, 0x0212f4a95d3c15c5ULL, 0x88ea75b69500628fULL},
      {16, 5, 4, 0x3787d1b638977f25ULL, 0xca899a444f3f380dULL},
      {64, 7, 5, 0x803dd52f4c9dd9c5ULL, 0xca1f690863cd77c1ULL},
      {100, 4, 6, 0x068f37e4430ce425ULL, 0x4376b1d60df034a4ULL},
      {257, 6, 7, 0x5454dfde43f42d53ULL, 0xd7748c2f89250fdfULL},
      {1000, 8, 8, 0xfc54bab91c15b479ULL, 0xd114589919f8ed02ULL},
      {5000, 3, 9, 0x9f826ac947d5cea9ULL, 0x44c4855ef9f26883ULL},
      {20000, 8, 10, 0x4586b72a071ccfa9ULL, 0x619728e5d26dd130ULL},
  };
  for (const Case& c : cases) {
    rng::Xoshiro256pp gen(c.seed);
    const Topology t = random_regular(c.n, c.d, gen);
    const std::uint64_t next = gen();
    EXPECT_EQ(fnv1a_rows(t), c.rows_hash)
        << "n=" << c.n << " d=" << c.d << " seed=" << c.seed;
    EXPECT_EQ(next, c.next_word) << "n=" << c.n << " d=" << c.d << " seed=" << c.seed;
  }
}

TEST(Builders, RandomRegularIsSimpleAndSymmetricAtScale) {
  // Rows are filled pairwise by the builder itself (no edge list), so
  // symmetry is checked here rather than inherited from from_edges: every
  // arc (u, v) must have its reverse (v, u), with multiplicity.
  for (const count_t d : {count_t{8}, count_t{3}}) {
    const count_t n = 100000;
    rng::Xoshiro256pp gen(40 + d);
    const Topology t = random_regular(n, d, gen);
    ASSERT_EQ(t.num_nodes(), n);
    ASSERT_EQ(t.num_arcs(), n * d);
    std::vector<std::pair<count_t, count_t>> arcs, reversed;
    arcs.reserve(n * d);
    reversed.reserve(n * d);
    std::vector<count_t> row;
    for (count_t v = 0; v < n; ++v) {
      const auto neigh = t.neighbors(v);
      ASSERT_EQ(neigh.size(), d) << "degree at " << v;
      row.assign(neigh.begin(), neigh.end());
      std::sort(row.begin(), row.end());
      ASSERT_TRUE(std::adjacent_find(row.begin(), row.end()) == row.end())
          << "parallel edge at " << v;
      ASSERT_FALSE(std::binary_search(row.begin(), row.end(), v)) << "self loop at " << v;
      for (count_t u : neigh) {
        arcs.emplace_back(v, u);
        reversed.emplace_back(u, v);
      }
    }
    std::sort(arcs.begin(), arcs.end());
    std::sort(reversed.begin(), reversed.end());
    EXPECT_TRUE(arcs == reversed) << "asymmetric adjacency for d=" << d;
  }
}

TEST(Builders, ErdosRenyiHasRequestedEdges) {
  rng::Xoshiro256pp gen(5);
  const Topology t = erdos_renyi(100, 400, gen);
  EXPECT_EQ(t.num_arcs(), 800u);  // each edge stored in both directions
}

TEST(Builders, ErdosRenyiEdgesAreDistinctAndSimple) {
  rng::Xoshiro256pp gen(6);
  const Topology t = erdos_renyi(50, 200, gen);
  std::set<std::pair<count_t, count_t>> seen;
  for (count_t v = 0; v < 50; ++v) {
    for (count_t u : t.neighbors(v)) {
      EXPECT_NE(u, v);
      if (v < u) seen.insert({v, u});
    }
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Builders, ErdosRenyiFullGraph) {
  rng::Xoshiro256pp gen(7);
  const Topology t = erdos_renyi(10, 45, gen);  // complete K10
  EXPECT_EQ(t.min_degree(), 9u);
}

TEST(Builders, ErdosRenyiTooManyEdgesThrows) {
  rng::Xoshiro256pp gen(8);
  EXPECT_THROW(erdos_renyi(10, 46, gen), CheckError);
}

}  // namespace
}  // namespace plurality::graph
