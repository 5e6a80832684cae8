#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

TEST(Graph, AddLinkWiresBothDirections) {
  const Graph g(3, {{0, 2, 2.5}});
  const LinkId l = 0;
  EXPECT_EQ(g.link(l).weight, 2.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(2).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].neighbor, 2);
  EXPECT_EQ(g.neighbors(2)[0].neighbor, 0);
  EXPECT_EQ(g.neighbors(0)[0].link, l);
}

TEST(Graph, LinkOtherEndpoint) {
  const Graph g(2, {{0, 1, 1.0}});
  EXPECT_EQ(g.link(0).other(0), 1);
  EXPECT_EQ(g.link(0).other(1), 0);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph(2, {{1, 1, 1.0}}), std::invalid_argument);
}

TEST(Graph, RejectsParallelLink) {
  EXPECT_THROW(Graph(2, {{0, 1, 1.0}, {1, 0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 1, 1.0}}),
               std::invalid_argument);
}

TEST(Graph, RejectsNonPositiveWeight) {
  EXPECT_THROW(Graph(2, {{0, 1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 1, -1.0}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph(2, {{0, 2, 1.0}}), std::out_of_range);
  EXPECT_THROW(Graph(2, {{-1, 1, 1.0}}), std::out_of_range);
}

TEST(Graph, LinkBetweenFindsEitherOrientation) {
  const Graph g(3, {{0, 1, 1.0}});
  EXPECT_EQ(g.link_between(0, 1), 0);
  EXPECT_EQ(g.link_between(1, 0), 0);
  EXPECT_EQ(g.link_between(0, 2), std::nullopt);
  EXPECT_EQ(g.link_between(0, 99), std::nullopt);
}

TEST(Graph, ConcurrentFirstReadsAfterConstruction) {
  // A built graph needs no synchronisation: four readers start on it at
  // once, with no read before theirs, and each sees the whole graph (the
  // TSan lane reports any write a read makes).
  constexpr NodeId kNodes = 2'000;
  constexpr int kThreads = 4;
  std::vector<Link> links;
  for (NodeId n = 0; n < kNodes; ++n) {
    links.push_back({n, (n + 1) % kNodes, 1.0});
    links.push_back({n, (n + 7) % kNodes, 1.0});
  }
  const Graph g(kNodes, std::move(links));
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
}

TEST(Graph, AverageDegree) {
  const testing::Fig1Topology fig;
  // 5 nodes, 6 links → 2*6/5.
  EXPECT_DOUBLE_EQ(fig.graph.average_degree(), 12.0 / 5.0);
}

TEST(Graph, ConnectivityDetectsIsolation) {
  EXPECT_FALSE(Graph(3, {{0, 1, 1.0}}).connected());
  EXPECT_TRUE(Graph(3, {{0, 1, 1.0}, {1, 2, 1.0}}).connected());
}

TEST(Graph, ConnectedWithoutBridgeLink) {
  const Graph g(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 2, 1.0}});
  const LinkId bridge = 2;
  EXPECT_TRUE(g.connected());
  EXPECT_FALSE(g.connected_without(bridge));
  EXPECT_TRUE(g.connected_without(g.link_between(0, 1).value()));
}

TEST(Graph, PositionsRoundTrip) {
  Graph g(2, {});
  g.set_positions({{0.0, 0.0}, {3.0, 4.0}});
  ASSERT_EQ(g.positions().size(), 2u);
  EXPECT_DOUBLE_EQ(euclidean(g.positions()[0], g.positions()[1]), 5.0);
}

TEST(Graph, PositionCountMustMatch) {
  Graph g(2, {});
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
  const Graph g(2, {{0, 1, 1.5}});
  const std::string s = g.to_string();
  EXPECT_NE(s.find("nodes=2"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace smrp::net
