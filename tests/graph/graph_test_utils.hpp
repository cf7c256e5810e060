// Graph-test helpers shared by the tests/graph suites.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/agent_graph.hpp"

namespace plurality::graph {

/// True if the graph is connected: always for the implicit complete graph,
/// by depth-first search over the stored rows otherwise. Isolated vertices
/// make it disconnected.
inline bool connected(const AgentGraph& g) {
  if (g.is_complete()) return true;
  const count_t n = g.num_nodes();
  if (n == 0) return false;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<count_t> stack = {0};
  seen[0] = 1;
  count_t visited = 1;
  while (!stack.empty()) {
    const count_t v = stack.back();
    stack.pop_back();
    for (const count_t u : g.neighbors_of(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

}  // namespace plurality::graph
