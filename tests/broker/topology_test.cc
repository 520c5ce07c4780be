#include "broker/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace subcover {
namespace {

TEST(Topology, Line) {
  const auto t = topology::line(4);
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.neighbors(0), (std::vector<int>{1}));
  EXPECT_EQ(t.neighbors(1), (std::vector<int>{0, 2}));
  EXPECT_EQ(t.neighbors(3), (std::vector<int>{2}));
}

TEST(Topology, Star) {
  const auto t = topology::star(5);
  EXPECT_EQ(t.neighbors(0).size(), 4U);
  EXPECT_EQ(t.neighbors(3), (std::vector<int>{0}));
}

TEST(Topology, SingleBroker) {
  const auto t = topology::line(1);
  EXPECT_EQ(t.size(), 1);
  EXPECT_TRUE(t.neighbors(0).empty());
}

TEST(Topology, BalancedTree) {
  const auto t = topology::balanced_tree(2, 3);  // 1+2+4+8 = 15 nodes
  EXPECT_EQ(t.size(), 15);
  EXPECT_EQ(t.neighbors(0).size(), 2U);   // root: two children
  EXPECT_EQ(t.neighbors(14).size(), 1U);  // leaf: parent only
}

TEST(Topology, BalancedTreeDepthZero) {
  EXPECT_EQ(topology::balanced_tree(3, 0).size(), 1);
}

TEST(Topology, RejectsNonTree) {
  // Cycle: 3 nodes, 3 edges.
  EXPECT_THROW(topology(3, {{0, 1}, {1, 2}, {2, 0}}), std::invalid_argument);
  // Disconnected: 4 nodes, edges forming a triangle + isolated node.
  EXPECT_THROW(topology(4, {{0, 1}, {1, 2}, {2, 0}}), std::invalid_argument);
  // Self loop.
  EXPECT_THROW(topology(2, {{0, 0}}), std::invalid_argument);
  // Wrong edge count.
  EXPECT_THROW(topology(3, {{0, 1}}), std::invalid_argument);
}

TEST(Topology, RejectsBadIds) {
  EXPECT_THROW(topology(2, {{0, 2}}), std::invalid_argument);
  EXPECT_THROW(topology(0, {}), std::invalid_argument);
  const auto t = topology::line(3);
  EXPECT_THROW((void)t.neighbors(3), std::invalid_argument);
  EXPECT_THROW((void)t.neighbors(-1), std::invalid_argument);
}

TEST(Topology, Path) {
  const auto t = topology::balanced_tree(2, 2);  // 7 nodes: 0; 1,2; 3,4,5,6
  EXPECT_EQ(t.path(3, 3), (std::vector<int>{3}));
  EXPECT_EQ(t.path(3, 4), (std::vector<int>{3, 1, 4}));
  EXPECT_EQ(t.path(3, 6), (std::vector<int>{3, 1, 0, 2, 6}));
  EXPECT_EQ(t.path(0, 5), (std::vector<int>{0, 2, 5}));
}

TEST(Topology, PathEndpointsValidated) {
  const auto t = topology::line(3);
  EXPECT_THROW(t.path(0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace subcover
