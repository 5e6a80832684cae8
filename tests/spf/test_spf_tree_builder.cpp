#include "spf/spf_tree_builder.hpp"

#include <gtest/gtest.h>

#include "net/waxman.hpp"
#include "testing_topologies.hpp"

namespace smrp::baseline {
namespace {

using testing::Fig1Topology;

TEST(SpfTreeBuilder, BuildsShortestPathTree) {
  const Fig1Topology fig;
  SpfTreeBuilder builder(fig.graph, fig.S);
  ASSERT_TRUE(builder.join(fig.C));
  ASSERT_TRUE(builder.join(fig.D));
  EXPECT_EQ(builder.tree().path_to_source(fig.C),
            (std::vector<net::NodeId>{fig.C, fig.A, fig.S}));
  EXPECT_EQ(builder.tree().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.A, fig.S}));
  builder.tree().validate();
}

TEST(SpfTreeBuilder, EveryMemberDelayEqualsSpf) {
  net::Rng rng(5);
  net::WaxmanParams wax;
  wax.node_count = 80;
  const net::Graph g = net::waxman_graph(wax, rng);
  SpfTreeBuilder builder(g, 0);
  for (net::NodeId m = 1; m < 40; ++m) ASSERT_TRUE(builder.join(m));
  builder.tree().validate();
  for (net::NodeId m = 1; m < 40; ++m) {
    EXPECT_DOUBLE_EQ(builder.tree().delay_to_source(m), builder.spf_delay(m))
        << "member " << m;
  }
}

TEST(SpfTreeBuilder, JoinGraftsAtFirstOnTreeRouter) {
  const Fig1Topology fig;
  SpfTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  // D's SPF path is D–A–S; A is already on-tree, so the graft is D–A
  // only and A gains a second child.
  builder.join(fig.D);
  EXPECT_EQ(builder.tree().children(fig.A).size(), 2u);
}

TEST(SpfTreeBuilder, RelayBecomesMemberInPlace) {
  const Fig1Topology fig;
  SpfTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  ASSERT_TRUE(builder.join(fig.A));
  EXPECT_TRUE(builder.tree().is_member(fig.A));
  EXPECT_EQ(builder.tree().member_count(), 2);
}

TEST(SpfTreeBuilder, UnreachableMemberRefused) {
  const net::Graph g(3, {{0, 1, 1.0}});
  SpfTreeBuilder builder(g, 0);
  EXPECT_FALSE(builder.join(2));
}

TEST(SpfTreeBuilder, SourceCannotJoin) {
  const Fig1Topology fig;
  SpfTreeBuilder builder(fig.graph, fig.S);
  EXPECT_THROW(builder.join(fig.S), std::invalid_argument);
}

TEST(SpfTreeBuilder, LeaveAndRejoin) {
  const Fig1Topology fig;
  SpfTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  builder.join(fig.D);
  builder.leave(fig.C);
  builder.tree().validate();
  EXPECT_FALSE(builder.tree().is_member(fig.C));
  ASSERT_TRUE(builder.join(fig.C));
  EXPECT_TRUE(builder.tree().is_member(fig.C));
}

TEST(SpfTreeBuilder, UnionOfPathsIsAlwaysATree) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    net::Rng rng(seed);
    net::WaxmanParams wax;
    wax.node_count = 60;
    const net::Graph g = net::waxman_graph(wax, rng);
    SpfTreeBuilder builder(g, 0);
    for (int i = 0; i < 30; ++i) {
      builder.join(static_cast<net::NodeId>(1 + rng.below(59)));
      ASSERT_NO_THROW(builder.tree().validate());
    }
  }
}

}  // namespace
}  // namespace smrp::baseline
