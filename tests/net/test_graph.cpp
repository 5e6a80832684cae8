#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "testing_topologies.hpp"

namespace smrp::net {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.link_count(), 0);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(Graph, AddNodesReturnsFirstId) {
  Graph g;
  EXPECT_EQ(g.add_nodes(3), 0);
  EXPECT_EQ(g.add_nodes(2), 3);
  EXPECT_EQ(g.node_count(), 5);
}

TEST(Graph, AddLinkWiresBothDirections) {
  Graph g(3);
  const LinkId l = g.add_link(0, 2, 2.5);
  EXPECT_EQ(g.link(l).weight, 2.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(2).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].neighbor, 2);
  EXPECT_EQ(g.neighbors(2)[0].neighbor, 0);
  EXPECT_EQ(g.neighbors(0)[0].link, l);
}

TEST(Graph, LinkOtherEndpoint) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1, 1.0);
  EXPECT_EQ(g.link(l).other(0), 1);
  EXPECT_EQ(g.link(l).other(1), 0);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_link(1, 1, 1.0), std::invalid_argument);
}

TEST(Graph, RejectsParallelLink) {
  Graph g(2);
  g.add_link(0, 1, 1.0);
  EXPECT_THROW(g.add_link(1, 0, 2.0), std::invalid_argument);
}

TEST(Graph, RejectsNonPositiveWeight) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_link(-1, 1, 1.0), std::out_of_range);
}

TEST(Graph, LinkBetweenFindsEitherOrientation) {
  Graph g(3);
  const LinkId l = g.add_link(0, 1, 1.0);
  EXPECT_EQ(g.link_between(0, 1), l);
  EXPECT_EQ(g.link_between(1, 0), l);
  EXPECT_EQ(g.link_between(0, 2), std::nullopt);
  EXPECT_EQ(g.link_between(0, 99), std::nullopt);
}

TEST(Graph, RejectsParallelLinkAfterRead) {
  // A read releases the duplicate-check table and the next add_link
  // rebuilds it from the link list, so a parallel link stays rejected
  // across reads, copies and node growth.
  const auto expect_rejected = [](Graph& graph, NodeId a, NodeId b) {
    const int links = graph.link_count();
    const std::uint64_t version = graph.topology_version();
    EXPECT_THROW(graph.add_link(a, b, 1.0), std::invalid_argument);
    EXPECT_EQ(graph.link_count(), links);
    EXPECT_EQ(graph.topology_version(), version);
  };
  Graph g(4);
  const LinkId l01 = g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  (void)g.neighbors(0);
  expect_rejected(g, 0, 1);
  expect_rejected(g, 1, 0);
  expect_rejected(g, 2, 1);

  Graph read_copy = g;  // copied after a read
  expect_rejected(read_copy, 1, 0);
  expect_rejected(read_copy, 1, 2);
  read_copy.add_link(0, 2, 1.0);
  Graph stale_copy = read_copy;  // copied before any read of the new link
  expect_rejected(stale_copy, 2, 0);
  expect_rejected(stale_copy, 0, 1);

  g.add_nodes(1);
  expect_rejected(g, 0, 1);
  expect_rejected(g, 2, 1);

  // A distinct link still goes in, and link_between finds links no read
  // has seen yet.
  const LinkId l24 = g.add_link(2, 4, 1.0);
  const LinkId l30 = g.add_link(3, 0, 1.0);
  expect_rejected(g, 4, 2);
  EXPECT_EQ(g.link_count(), 4);
  EXPECT_EQ(g.link_between(4, 2), l24);
  EXPECT_EQ(g.link_between(0, 3), l30);
  EXPECT_EQ(g.link_between(1, 0), l01);
  EXPECT_EQ(g.link_between(3, 4), std::nullopt);
}

TEST(Graph, ConcurrentFirstReadsAfterConstruction) {
  // Construction leaves the CSR stale and the duplicate-check table
  // alive. The first reads race to rebuild the CSR, and the winner
  // releases the table under the CSR mutex; every reader, including
  // link_between's row scan, sees the finished graph.
  constexpr NodeId kNodes = 2'000;
  constexpr int kThreads = 4;
  Graph g(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    g.add_link(n, (n + 1) % kNodes, 1.0);
    g.add_link(n, (n + 7) % kNodes, 1.0);
  }
  std::atomic<bool> go{false};
  std::vector<int> found(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (NodeId n = t; n < kNodes; n += kThreads) {
        if (g.link_between((n + 7) % kNodes, n) && g.neighbors(n).size() == 4) {
          ++found[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(std::accumulate(found.begin(), found.end(), 0), kNodes);
  // The next add_link rebuilds the table from the link list.
  EXPECT_THROW(g.add_link(1, 0, 1.0), std::invalid_argument);
  EXPECT_EQ(g.add_link(0, 2, 1.0), 2 * kNodes);
}

TEST(Graph, AverageDegree) {
  const testing::Fig1Topology fig;
  // 5 nodes, 6 links → 2*6/5.
  EXPECT_DOUBLE_EQ(fig.graph.average_degree(), 12.0 / 5.0);
}

TEST(Graph, ConnectivityDetectsIsolation) {
  Graph g(3);
  g.add_link(0, 1, 1.0);
  EXPECT_FALSE(g.connected());
  g.add_link(1, 2, 1.0);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, ConnectedWithoutBridgeLink) {
  Graph g(4);
  g.add_link(0, 1, 1.0);
  g.add_link(1, 2, 1.0);
  const LinkId bridge = g.add_link(2, 3, 1.0);
  g.add_link(0, 2, 1.0);
  EXPECT_TRUE(g.connected());
  EXPECT_FALSE(g.connected_without(bridge));
  EXPECT_TRUE(g.connected_without(g.link_between(0, 1).value()));
}

TEST(Graph, PositionsRoundTrip) {
  Graph g(2);
  g.set_positions({{0.0, 0.0}, {3.0, 4.0}});
  ASSERT_EQ(g.positions().size(), 2u);
  EXPECT_DOUBLE_EQ(euclidean(g.positions()[0], g.positions()[1]), 5.0);
}

TEST(Graph, PositionCountMustMatch) {
  Graph g(2);
  EXPECT_THROW(g.set_positions({{0, 0}}), std::invalid_argument);
}

TEST(Graph, GridHasExpectedShape) {
  const Graph g = testing::grid3x3();
  EXPECT_EQ(g.node_count(), 9);
  EXPECT_EQ(g.link_count(), 12);
  EXPECT_EQ(g.degree(4), 4);  // center
  EXPECT_EQ(g.degree(0), 2);  // corner
  EXPECT_TRUE(g.connected());
}

TEST(Graph, ToStringMentionsEveryLink) {
  Graph g(2);
  g.add_link(0, 1, 1.5);
  const std::string s = g.to_string();
  EXPECT_NE(s.find("nodes=2"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace smrp::net
