#include "multicast/metrics.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "testing_topologies.hpp"

namespace smrp::mcast {
namespace {

using testing::Fig1Topology;

MulticastTree fig1_tree(const Fig1Topology& fig) {
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A}));
  return tree;
}

TEST(TreeMetrics, EmptyTree) {
  const Fig1Topology fig;
  const MulticastTree tree(fig.graph, fig.S);
  const TreeMetrics m = measure(tree);
  EXPECT_EQ(m.tree_link_count, 0);
  EXPECT_DOUBLE_EQ(m.total_cost, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_member_delay, 0.0);
}

TEST(TreeMetrics, PaperTreeNumbers) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  const TreeMetrics m = measure(tree);
  EXPECT_EQ(m.tree_link_count, 3);
  EXPECT_DOUBLE_EQ(m.total_cost, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_member_delay, 2.0);
  EXPECT_DOUBLE_EQ(m.max_member_delay, 2.0);
  EXPECT_DOUBLE_EQ(m.mean_member_hops, 2.0);
  EXPECT_DOUBLE_EQ(m.mean_member_shr, 3.0);
  EXPECT_EQ(m.max_link_sharing, 2);           // L_SA carries both members
  EXPECT_DOUBLE_EQ(m.mean_link_sharing, 4.0 / 3.0);
}

TEST(TreeMetrics, LinkSharingListsNL) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  const auto sharing = link_sharing(tree);
  ASSERT_EQ(sharing.size(), 3u);
  // Ascending by link id: SA(0), AC(2), AD(3) with N_L 2, 1, 1.
  EXPECT_EQ(sharing[0], std::make_pair(fig.SA, 2));
  EXPECT_EQ(sharing[1], std::make_pair(fig.AC, 1));
  EXPECT_EQ(sharing[2], std::make_pair(fig.AD, 1));
}

TEST(TreeMetrics, SharingDropsAfterDisjointMove) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  // The Figure-2 tree.
  tree.move_subtree(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  const TreeMetrics m = measure(tree);
  EXPECT_EQ(m.max_link_sharing, 1);  // fully disjoint member paths
  EXPECT_DOUBLE_EQ(m.total_cost, 5.0);  // SA + AC + SB + BD
}

}  // namespace
}  // namespace smrp::mcast
