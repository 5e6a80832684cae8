#include "spf/dual_tree_builder.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "net/waxman.hpp"
#include "smrp/recovery.hpp"
#include "testing_topologies.hpp"

namespace smrp::baseline {
namespace {

using testing::Fig1Topology;

TEST(DualTreeBuilder, BlueIsSpfRedIsDisjoint) {
  const Fig1Topology fig;
  DualTreeBuilder dual(fig.graph, fig.S);
  ASSERT_TRUE(dual.join(fig.D));
  EXPECT_EQ(dual.blue().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.A, fig.S}));
  EXPECT_EQ(dual.red().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
  EXPECT_TRUE(dual.is_protected(fig.D));
  dual.blue().validate();
  dual.red().validate();
}

TEST(DualTreeBuilder, ProtectedMemberSurvivesAnySingleCut) {
  const Fig1Topology fig;
  DualTreeBuilder dual(fig.graph, fig.S);
  dual.join(fig.D);
  for (net::LinkId l = 0; l < fig.graph.link_count(); ++l) {
    EXPECT_TRUE(dual.survives_link(fig.D, l)) << "link " << l;
  }
}

TEST(DualTreeBuilder, UnprotectedOnBridgeTopology) {
  // Chain 0–1–2: no disjoint alternative exists.
  const net::Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const net::LinkId bridge = 1;
  DualTreeBuilder dual(g, 0);
  ASSERT_TRUE(dual.join(2));
  EXPECT_FALSE(dual.is_protected(2));
  EXPECT_FALSE(dual.survives_link(2, bridge));
}

TEST(DualTreeBuilder, CombinedCostAboveSingleTree) {
  net::Rng rng(5);
  net::WaxmanParams wax;
  wax.node_count = 60;
  const net::Graph g = net::waxman_graph(wax, rng);
  DualTreeBuilder dual(g, 0);
  for (int i = 0; i < 20; ++i) {
    dual.join(static_cast<net::NodeId>(1 + rng.below(59)));
  }
  EXPECT_GT(dual.combined_cost(), dual.blue().total_cost());
  EXPECT_DOUBLE_EQ(dual.combined_cost(),
                   dual.blue().total_cost() + dual.red().total_cost());
}

TEST(DualTreeBuilder, ProtectedMembersHaveDisjointPaths) {
  net::Rng rng(6);
  net::WaxmanParams wax;
  wax.node_count = 60;
  const net::Graph g = net::waxman_graph(wax, rng);
  DualTreeBuilder dual(g, 0);
  std::vector<net::NodeId> members;
  for (int i = 0; i < 20; ++i) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(59));
    if (dual.join(m)) members.push_back(m);
  }
  dual.blue().validate();
  dual.red().validate();
  for (const net::NodeId m : members) {
    if (!dual.is_protected(m)) continue;
    // A protected member's realised blue and red tree paths share no
    // link, and therefore the member survives ANY single link failure.
    const auto blue_links =
        net::path_links(g, dual.blue().path_to_source(m));
    const auto red_links = net::path_links(g, dual.red().path_to_source(m));
    for (const net::LinkId bl : blue_links) {
      for (const net::LinkId rl : red_links) {
        ASSERT_NE(bl, rl) << "member " << m << " shares link " << bl;
      }
    }
    for (net::LinkId l = 0; l < g.link_count(); ++l) {
      ASSERT_TRUE(dual.survives_link(m, l)) << "member " << m << " link " << l;
    }
  }
}

TEST(DualTreeBuilder, SourceCannotJoin) {
  const Fig1Topology fig;
  DualTreeBuilder dual(fig.graph, fig.S);
  EXPECT_THROW(dual.join(fig.S), std::invalid_argument);
}

TEST(DualTreeBuilder, SurvivesLinkRequiresMembership) {
  const Fig1Topology fig;
  DualTreeBuilder dual(fig.graph, fig.S);
  EXPECT_THROW(static_cast<void>(dual.survives_link(fig.D, fig.AD)),
               std::invalid_argument);
}

}  // namespace
}  // namespace smrp::baseline
