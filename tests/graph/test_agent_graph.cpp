// AgentGraph construction: the implicit complete graph and from_edges'
// CSR semantics (self-loops, parallel edges, degree range, range checks).
#include "graph/agent_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph_test_utils.hpp"
#include "support/check.hpp"

namespace plurality::graph {
namespace {

using Edges = std::vector<AgentGraph::Edge>;

TEST(AgentGraph, ImplicitCompleteBasics) {
  const AgentGraph t = AgentGraph::complete(100);
  EXPECT_TRUE(t.is_complete());
  EXPECT_EQ(t.num_nodes(), 100u);
  EXPECT_EQ(t.degree(5), 100u);  // self included per the clique model
  EXPECT_EQ(t.min_degree(), 100u);
  EXPECT_TRUE(connected(t));
  EXPECT_THROW(t.neighbors_of(0), CheckError);
}

TEST(AgentGraph, FromEdgesBuildsSymmetricAdjacency) {
  const Edges edges = {{0, 1}, {1, 2}};
  const AgentGraph t = AgentGraph::from_edges(3, edges);
  EXPECT_EQ(t.num_arcs(), 4u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(2), 1u);
  const auto n1 = t.neighbors_of(1);
  std::vector<count_t> sorted(n1.begin(), n1.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<count_t>{0, 2}));
}

TEST(AgentGraph, SelfLoopStoredOnce) {
  const Edges edges = {{0, 0}, {0, 1}};
  const AgentGraph t = AgentGraph::from_edges(2, edges);
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 1u);
}

TEST(AgentGraph, ParallelEdgesKeepMultiplicity) {
  const Edges edges = {{0, 1}, {0, 1}};
  const AgentGraph t = AgentGraph::from_edges(2, edges);
  EXPECT_EQ(t.degree(0), 2u);  // sampling weight doubled, by design
}

TEST(AgentGraph, MinMaxDegree) {
  const Edges edges = {{0, 1}, {1, 2}, {1, 3}};
  const AgentGraph t = AgentGraph::from_edges(4, edges);
  EXPECT_EQ(t.min_degree(), 1u);
  EXPECT_EQ(t.max_degree(), 3u);
}

TEST(AgentGraph, ConnectivityDetection) {
  const Edges path = {{0, 1}, {1, 2}};
  EXPECT_TRUE(connected(AgentGraph::from_edges(3, path)));
  const Edges split = {{0, 1}, {2, 3}};
  EXPECT_FALSE(connected(AgentGraph::from_edges(4, split)));
  // Isolated vertex 3.
  const Edges iso = {{0, 1}, {1, 2}};
  EXPECT_FALSE(connected(AgentGraph::from_edges(4, iso)));
}

TEST(AgentGraph, EndpointOutOfRangeThrows) {
  const Edges edges = {{0, 5}};
  EXPECT_THROW(AgentGraph::from_edges(3, edges), CheckError);
}

TEST(AgentGraph, NodeOutOfRangeThrows) {
  const AgentGraph t = AgentGraph::complete(3);
  EXPECT_THROW(t.degree(3), CheckError);
}

}  // namespace
}  // namespace plurality::graph
