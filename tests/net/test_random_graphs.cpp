#include "net/random_graphs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

namespace smrp::net {
namespace {

TEST(ErdosRenyi, ConnectedWithRequestedSize) {
  Rng rng(1);
  ErdosRenyiParams p;
  p.node_count = 80;
  const Graph g = erdos_renyi_graph(p, rng);
  EXPECT_EQ(g.node_count(), 80);
  EXPECT_TRUE(g.connected());
}

TEST(ErdosRenyi, DegreeTracksProbability) {
  ErdosRenyiParams p;
  p.node_count = 120;
  p.edge_probability = 0.08;
  double mean_degree = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    mean_degree += erdos_renyi_graph(p, rng).average_degree();
  }
  mean_degree /= 6.0;
  // Expected degree ≈ p·(n−1) = 9.52.
  EXPECT_NEAR(mean_degree, 0.08 * 119, 1.5);
}

TEST(ErdosRenyi, WeightsWithinBounds) {
  Rng rng(3);
  ErdosRenyiParams p;
  p.node_count = 60;
  p.min_weight = 2.0;
  p.max_weight = 4.0;
  const Graph g = erdos_renyi_graph(p, rng);
  for (const Link& l : g.links()) {
    EXPECT_GE(l.weight, 2.0);
    EXPECT_LT(l.weight, 4.0);
  }
}

TEST(ErdosRenyi, PatchesSparseSamples) {
  Rng rng(4);
  ErdosRenyiParams p;
  p.node_count = 100;
  p.edge_probability = 0.005;  // far below the connectivity threshold
  p.max_resample_attempts = 2;
  const ErdosRenyiResult r = generate_erdos_renyi(p, rng);
  EXPECT_TRUE(r.graph.connected());
  EXPECT_GT(r.patched_links, 0);
}

TEST(ErdosRenyi, RejectsBadParameters) {
  Rng rng(5);
  ErdosRenyiParams p;
  p.node_count = 1;
  EXPECT_THROW(erdos_renyi_graph(p, rng), std::invalid_argument);
  p.node_count = 10;
  p.edge_probability = 0.0;
  EXPECT_THROW(erdos_renyi_graph(p, rng), std::invalid_argument);
}

TEST(BarabasiAlbert, AlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    BarabasiAlbertParams p;
    p.node_count = 100;
    const Graph g = barabasi_albert_graph(p, rng);
    EXPECT_TRUE(g.connected()) << "seed " << seed;
    EXPECT_EQ(g.node_count(), 100);
  }
}

TEST(BarabasiAlbert, MeanDegreeNearTwoM) {
  Rng rng(7);
  BarabasiAlbertParams p;
  p.node_count = 200;
  p.edges_per_node = 3;
  const Graph g = barabasi_albert_graph(p, rng);
  EXPECT_NEAR(g.average_degree(), 6.0, 0.8);
}

TEST(BarabasiAlbert, ProducesHeavyTail) {
  // Preferential attachment must yield hubs: the max degree should far
  // exceed the mean (an Erdős–Rényi graph of the same density keeps its
  // maximum within a few multiples).
  Rng rng(8);
  BarabasiAlbertParams p;
  p.node_count = 300;
  p.edges_per_node = 2;
  const Graph g = barabasi_albert_graph(p, rng);
  int max_degree = 0;
  for (NodeId n = 0; n < g.node_count(); ++n) {
    max_degree = std::max(max_degree, g.degree(n));
  }
  EXPECT_GT(max_degree, 6.0 * g.average_degree());
}

TEST(BarabasiAlbert, DeterministicPerSeed) {
  BarabasiAlbertParams p;
  p.node_count = 60;
  Rng a(99);
  Rng b(99);
  const Graph ga = barabasi_albert_graph(p, a);
  const Graph gb = barabasi_albert_graph(p, b);
  ASSERT_EQ(ga.link_count(), gb.link_count());
  for (LinkId l = 0; l < ga.link_count(); ++l) {
    EXPECT_EQ(ga.link(l).a, gb.link(l).a);
    EXPECT_EQ(ga.link(l).b, gb.link(l).b);
  }
}

TEST(BarabasiAlbert, SeededOutputIsPinned) {
  // FNV-1a over each link's a, b (4 bytes each) and weight bits (8 bytes),
  // little-endian, in link-id order. It pins the generator's output: how
  // it avoids linking a newcomer to the same target twice must not change
  // the graph it draws.
  Rng rng(20050628);
  BarabasiAlbertParams p;
  p.node_count = 5'000;
  p.edges_per_node = 3;
  const Graph g = barabasi_albert_graph(p, rng);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto feed = [&hash](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Link& l : g.links()) {
    feed(static_cast<std::uint32_t>(l.a), 4);
    feed(static_cast<std::uint32_t>(l.b), 4);
    feed(std::bit_cast<std::uint64_t>(l.weight), 8);
  }
  EXPECT_EQ(g.link_count(), 14'994);
  EXPECT_EQ(hash, 0x34c912305642e0a9ULL);
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  Rng rng(10);
  BarabasiAlbertParams p;
  p.node_count = 2;
  p.edges_per_node = 3;
  EXPECT_THROW(barabasi_albert_graph(p, rng), std::invalid_argument);
  p.edges_per_node = 0;
  EXPECT_THROW(barabasi_albert_graph(p, rng), std::invalid_argument);
}

}  // namespace
}  // namespace smrp::net
