#include "spf/steiner_tree_builder.hpp"

#include <gtest/gtest.h>

#include "net/waxman.hpp"
#include "spf/spf_tree_builder.hpp"
#include "testing_topologies.hpp"

namespace smrp::baseline {
namespace {

using testing::Fig1Topology;

TEST(SteinerTreeBuilder, FirstJoinConnectsToSource) {
  const Fig1Topology fig;
  SteinerTreeBuilder builder(fig.graph, fig.S);
  ASSERT_TRUE(builder.join(fig.C));
  EXPECT_EQ(builder.tree().path_to_source(fig.C),
            (std::vector<net::NodeId>{fig.C, fig.A, fig.S}));
}

TEST(SteinerTreeBuilder, LaterJoinGraftsToNearestTreePoint) {
  const Fig1Topology fig;
  SteinerTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  // D's nearest tree point is A (distance 1), closer than S via B (3) or
  // C (2); the Steiner graft therefore shares A.
  builder.join(fig.D);
  EXPECT_EQ(builder.tree().parent(fig.D), fig.A);
  builder.tree().validate();
}

TEST(SteinerTreeBuilder, CostNeverAboveSpfTree) {
  // The greedy Steiner heuristic connects each member by its cheapest
  // graft, so the resulting tree never costs more than the SPF tree built
  // over the same join sequence.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    net::Rng rng(seed);
    net::WaxmanParams wax;
    wax.node_count = 70;
    const net::Graph g = net::waxman_graph(wax, rng);
    SteinerTreeBuilder steiner(g, 0);
    SpfTreeBuilder spf(g, 0);
    for (int i = 0; i < 25; ++i) {
      const auto m = static_cast<net::NodeId>(1 + rng.below(69));
      steiner.join(m);
      spf.join(m);
    }
    steiner.tree().validate();
    EXPECT_LE(steiner.tree().total_cost(), spf.tree().total_cost() + 1e-9)
        << "seed " << seed;
  }
}

TEST(SteinerTreeBuilder, DelaysAtLeastSpf) {
  net::Rng rng(9);
  net::WaxmanParams wax;
  wax.node_count = 70;
  const net::Graph g = net::waxman_graph(wax, rng);
  const net::ShortestPathTree spf = net::dijkstra(g, 0);
  SteinerTreeBuilder builder(g, 0);
  for (int i = 0; i < 25; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(69)));
  }
  for (const net::NodeId m : builder.tree().members()) {
    EXPECT_GE(builder.tree().delay_to_source(m) + 1e-9,
              spf.dist[static_cast<std::size_t>(m)]);
  }
}

TEST(SteinerTreeBuilder, LeaveAndRejoin) {
  const Fig1Topology fig;
  SteinerTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  builder.join(fig.D);
  builder.leave(fig.C);
  builder.tree().validate();
  EXPECT_FALSE(builder.tree().is_member(fig.C));
  ASSERT_TRUE(builder.join(fig.C));
  builder.tree().validate();
}

TEST(SteinerTreeBuilder, SourceCannotJoin) {
  const Fig1Topology fig;
  SteinerTreeBuilder builder(fig.graph, fig.S);
  EXPECT_THROW(builder.join(fig.S), std::invalid_argument);
}

TEST(SteinerTreeBuilder, UnreachableMemberRefused) {
  const net::Graph g(3, {{0, 1, 1.0}});
  SteinerTreeBuilder builder(g, 0);
  EXPECT_FALSE(builder.join(2));
}

}  // namespace
}  // namespace smrp::baseline
