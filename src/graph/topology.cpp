#include "graph/topology.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace plurality::graph {

Topology Topology::complete(count_t n) {
  PLURALITY_REQUIRE(n >= 1, "Topology::complete: need at least one node");
  return Topology(Kind::CompleteImplicit, n);
}

Topology Topology::from_edges(count_t n,
                              std::span<const std::pair<count_t, count_t>> edges) {
  PLURALITY_REQUIRE(n >= 1, "Topology::from_edges: need at least one node");
  Topology topo(Kind::Explicit, n);
  std::vector<std::uint64_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    PLURALITY_REQUIRE(u < n && v < n, "Topology::from_edges: endpoint out of range");
    ++degree[u];
    if (u != v) ++degree[v];
  }
  topo.offsets_.assign(n + 1, 0);
  for (count_t v = 0; v < n; ++v) topo.offsets_[v + 1] = topo.offsets_[v] + degree[v];
  topo.adjacency_.resize(topo.offsets_[n]);
  std::vector<std::uint64_t> cursor(topo.offsets_.begin(), topo.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    topo.adjacency_[cursor[u]++] = v;
    if (u != v) topo.adjacency_[cursor[v]++] = u;
  }
  return topo;
}

Topology Topology::from_regular_rows(count_t n, count_t d,
                                     std::span<const std::uint32_t> rows) {
  PLURALITY_REQUIRE(n >= 1, "Topology::from_regular_rows: need at least one node");
  PLURALITY_REQUIRE(rows.size() == n * d, "Topology::from_regular_rows: "
                                              << rows.size() << " row entries for n=" << n
                                              << ", d=" << d);
  PLURALITY_REQUIRE(std::all_of(rows.begin(), rows.end(),
                                [n](std::uint32_t u) { return u < n; }),
                    "Topology::from_regular_rows: endpoint out of range");
  Topology topo(Kind::Explicit, n);
  topo.offsets_.resize(n + 1);
  for (count_t v = 0; v <= n; ++v) topo.offsets_[v] = v * d;
  topo.adjacency_.assign(rows.begin(), rows.end());
  return topo;
}

count_t Topology::degree(count_t v) const {
  PLURALITY_REQUIRE(v < n_, "Topology::degree: node out of range");
  if (kind_ == Kind::CompleteImplicit) return n_;  // self included, clique model
  return offsets_[v + 1] - offsets_[v];
}

std::span<const count_t> Topology::neighbors(count_t v) const {
  PLURALITY_REQUIRE(kind_ == Kind::Explicit,
                    "Topology::neighbors: implicit complete graph has no list");
  PLURALITY_REQUIRE(v < n_, "Topology::neighbors: node out of range");
  return {adjacency_.data() + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

count_t Topology::min_degree() const {
  if (kind_ == Kind::CompleteImplicit) return n_;
  count_t best = degree(0);
  for (count_t v = 1; v < n_; ++v) best = std::min(best, degree(v));
  return best;
}

count_t Topology::max_degree() const {
  if (kind_ == Kind::CompleteImplicit) return n_;
  count_t best = degree(0);
  for (count_t v = 1; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Topology::connected() const {
  if (kind_ == Kind::CompleteImplicit) return true;
  if (n_ == 0) return false;
  std::vector<std::uint8_t> seen(n_, 0);
  std::vector<count_t> stack = {0};
  seen[0] = 1;
  count_t visited = 1;
  while (!stack.empty()) {
    const count_t v = stack.back();
    stack.pop_back();
    for (count_t u : neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n_;
}

}  // namespace plurality::graph
