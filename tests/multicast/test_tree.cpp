#include "multicast/tree.hpp"

#include <gtest/gtest.h>

#include "multicast/tree_equality.hpp"
#include "net/paths.hpp"
#include "net/rng.hpp"
#include "net/shortest_path.hpp"
#include "net/waxman.hpp"
#include "testing_topologies.hpp"

namespace smrp::mcast {
namespace {

using testing::Fig1Topology;
using Links = std::vector<net::LinkId>;

/// Fig. 1(a) tree: members C and D, both through A.
MulticastTree fig1_tree(const Fig1Topology& fig) {
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A}));
  return tree;
}

TEST(MulticastTree, FreshTreeHasOnlyTheSource) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  EXPECT_TRUE(tree.on_tree(fig.S));
  EXPECT_FALSE(tree.is_member(fig.S));
  EXPECT_EQ(tree.member_count(), 0);
  EXPECT_EQ(tree.on_tree_count(), 1);
  EXPECT_EQ(tree.shr(fig.S), 0);
  tree.validate();
}

TEST(MulticastTree, GraftBuildsPaperTree) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  tree.validate();

  EXPECT_TRUE(tree.is_member(fig.C));
  EXPECT_TRUE(tree.is_member(fig.D));
  EXPECT_EQ(tree.role(fig.A), NodeRole::kRelay);
  EXPECT_FALSE(tree.on_tree(fig.B));
  EXPECT_EQ(tree.member_count(), 2);

  EXPECT_EQ(tree.parent(fig.C), fig.A);
  EXPECT_EQ(tree.parent(fig.D), fig.A);
  EXPECT_EQ(tree.parent(fig.A), fig.S);

  // N_R: A carries both members.
  EXPECT_EQ(tree.subtree_members(fig.A), 2);
  EXPECT_EQ(tree.subtree_members(fig.C), 1);
  EXPECT_EQ(tree.subtree_members(fig.S), 2);
}

TEST(MulticastTree, ShrMatchesPaperExample) {
  // §3.1: SHR(S,C) = N_{L_SA} + N_{L_AC} = 2 + 1 = 3.
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  EXPECT_EQ(tree.shr(fig.C), 3);
  EXPECT_EQ(tree.shr(fig.D), 3);
  EXPECT_EQ(tree.shr(fig.A), 2);
  EXPECT_EQ(tree.shr(fig.S), 0);
}

TEST(MulticastTree, DelayAndHopsToSource) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  EXPECT_DOUBLE_EQ(tree.delay_to_source(fig.C), 2.0);
  EXPECT_EQ(tree.hops_to_source(fig.C), 2);
  EXPECT_DOUBLE_EQ(tree.delay_to_source(fig.S), 0.0);
  EXPECT_THROW(static_cast<void>(tree.delay_to_source(fig.B)),
               std::invalid_argument);
}

TEST(MulticastTree, PathToSource) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  EXPECT_EQ(tree.path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.A, fig.S}));
  EXPECT_TRUE(tree.path_to_source(fig.B).empty());
}

TEST(MulticastTree, TreeLinksAndCost) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  const auto links = tree.tree_links();
  EXPECT_EQ(links.size(), 3u);
  EXPECT_DOUBLE_EQ(tree.total_cost(), 3.0);  // SA + AC + AD
}

TEST(MulticastTree, GraftRejectsBadPaths) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  // The path must start at the member: its first link touches it.
  EXPECT_THROW(tree.graft(fig.C, Links{fig.SA}), std::invalid_argument);
  // Path must end on-tree.
  EXPECT_THROW(tree.graft(fig.C, Links{fig.AC}), std::invalid_argument);
  // Non-adjacent hop: D reaches C, and S–A does not touch C.
  EXPECT_THROW(tree.graft(fig.D, Links{fig.CD, fig.SA}),
               std::invalid_argument);
  tree.graft(fig.C, Links{fig.AC, fig.SA});
  // Crossing the tree before the merge node.
  EXPECT_THROW(tree.graft(fig.D, Links{fig.AD, fig.SA}),
               std::invalid_argument);
  // The source cannot become a member.
  EXPECT_THROW(tree.graft(fig.S, Links{}), std::invalid_argument);
}

TEST(MulticastTree, GraftRejectsDegeneratePaths) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  // No links for an off-tree member: there is no path at all, and no UB
  // or state change either — a clean rejection.
  EXPECT_THROW(tree.graft(fig.C, Links{}), std::invalid_argument);
  // A duplicate hop would wire a node as its own ancestor.
  EXPECT_THROW(tree.graft(fig.D, Links{fig.AD, fig.AD, fig.AD, fig.SA}),
               std::invalid_argument);
  EXPECT_EQ(tree.member_count(), 0);
  tree.validate();
  // After all those rejections the tree still accepts a valid graft.
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.validate();
  EXPECT_EQ(tree.member_count(), 1);
}

/// Runs `mutate`, which must throw std::invalid_argument, and checks that
/// the tree is still valid and unchanged.
template <typename Mutation>
void expect_rejected_unchanged(MulticastTree& tree, Mutation mutate) {
  const std::vector<net::NodeId> members = tree.members();
  const std::vector<net::NodeId> nodes = tree.on_tree_nodes();
  const std::vector<net::LinkId> links = tree.tree_links();
  EXPECT_THROW(mutate(), std::invalid_argument);
  EXPECT_NO_THROW(tree.validate());
  EXPECT_EQ(tree.members(), members);
  EXPECT_EQ(tree.on_tree_nodes(), nodes);
  EXPECT_EQ(tree.tree_links(), links);
}

TEST(MulticastTree, GraftAndMoveRejectBrokenLinkSequences) {
  // D joined via B (the Figure-2 branch); A and C are off-tree.
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.D, Links{fig.BD, fig.SB});
  const net::LinkId past_end = fig.graph.link_count();
  const std::vector<Links> broken_grafts = {
      {net::kNoLink},
      {past_end},
      {fig.AC, fig.SB},          // C reaches A; S–B does not touch A
      {fig.AC, fig.AC, fig.CD},  // C → A → C again → D
      {fig.CD, fig.BD, fig.SB},  // D is on-tree before the merge node
  };
  for (const Links& links : broken_grafts) {
    expect_rejected_unchanged(tree, [&] { tree.graft(fig.C, links); });
  }
  const std::vector<Links> broken_moves = {
      {net::kNoLink},
      {past_end},
      {fig.CD, fig.SA},                          // S–A does not touch C
      {fig.CD, fig.AC, fig.AC, fig.AC, fig.SA},  // D → C → A → C → A → S
      {fig.BD, fig.SB},                          // B is on-tree already
  };
  for (const Links& links : broken_moves) {
    expect_rejected_unchanged(tree, [&] { tree.move_subtree(fig.D, links); });
  }
  // The same tree still takes well-formed paths.
  tree.graft(fig.C, Links{fig.CD});
  tree.move_subtree(fig.D, Links{fig.AD, fig.SA});
  tree.validate();
  EXPECT_EQ(tree.parent(fig.C), fig.D);
  EXPECT_EQ(tree.parent(fig.D), fig.A);
  EXPECT_FALSE(tree.on_tree(fig.B));
}

TEST(MulticastTree, ValidateRejectsParentLinkThatMissesTheParent) {
  // Grafted on a 0–1–2 chain, then the graph under the tree is replaced
  // by one whose link 0 joins 0 and 2: node 1's parent_link no longer
  // joins it to its parent.
  net::Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  MulticastTree tree(g, 0);
  tree.graft(2, Links{1, 0});
  ASSERT_NO_THROW(tree.validate());
  g = net::Graph(3, {{0, 2, 1.0}, {1, 2, 1.0}});
  EXPECT_THROW(tree.validate(), std::logic_error);
}

TEST(MulticastTree, RelayBecomesMemberInPlace) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  EXPECT_EQ(tree.role(fig.A), NodeRole::kRelay);
  tree.graft(fig.A, Links{});
  tree.validate();
  EXPECT_TRUE(tree.is_member(fig.A));
  EXPECT_EQ(tree.member_count(), 2);
  EXPECT_EQ(tree.subtree_members(fig.A), 2);
  EXPECT_EQ(tree.shr(fig.A), 2);
  EXPECT_EQ(tree.shr(fig.C), 3);
}

TEST(MulticastTree, LeavePrunesUselessRelays) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  tree.leave(fig.C);
  tree.validate();
  EXPECT_FALSE(tree.on_tree(fig.C));
  EXPECT_TRUE(tree.on_tree(fig.A));  // still serves D
  tree.leave(fig.D);
  tree.validate();
  EXPECT_FALSE(tree.on_tree(fig.A));
  EXPECT_EQ(tree.on_tree_count(), 1);  // only the source remains
  EXPECT_EQ(tree.member_count(), 0);
}

TEST(MulticastTree, LeaveKeepsForkingRelay) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  tree.leave(fig.D);
  tree.validate();
  EXPECT_FALSE(tree.on_tree(fig.D));
  EXPECT_TRUE(tree.is_member(fig.C));
  EXPECT_EQ(tree.subtree_members(fig.A), 1);
  EXPECT_EQ(tree.shr(fig.C), 2);
}

TEST(MulticastTree, LeaveByMemberWithDescendantsKeepsRelayRole) {
  // C joins through A; A then becomes a member; when A leaves, it must
  // remain a relay because C still depends on it.
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.A, Links{});
  tree.leave(fig.A);
  tree.validate();
  EXPECT_EQ(tree.role(fig.A), NodeRole::kRelay);
  EXPECT_TRUE(tree.is_member(fig.C));
}

TEST(MulticastTree, LeaveByNonMemberThrows) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  EXPECT_THROW(tree.leave(fig.B), std::invalid_argument);
  EXPECT_THROW(tree.leave(fig.A), std::invalid_argument);
}

TEST(MulticastTree, MoveSubtreeReattaches) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  // Move D from under A to under S via B (the Figure-2 disjoint tree).
  tree.move_subtree(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  tree.validate();
  EXPECT_EQ(tree.parent(fig.D), fig.B);
  EXPECT_EQ(tree.parent(fig.B), fig.S);
  EXPECT_EQ(tree.role(fig.B), NodeRole::kRelay);
  EXPECT_EQ(tree.subtree_members(fig.A), 1);  // only C now
  EXPECT_EQ(tree.shr(fig.C), 2);
  EXPECT_EQ(tree.shr(fig.D), 2);  // N_B + N_D
}

TEST(MulticastTree, MoveSubtreeCarriesDescendants) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A, fig.S}));
  // C hangs below D.
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.D}));
  tree.move_subtree(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  tree.validate();
  EXPECT_EQ(tree.parent(fig.C), fig.D);
  EXPECT_EQ(tree.parent(fig.D), fig.B);
  EXPECT_FALSE(tree.on_tree(fig.A));  // old relay pruned
  EXPECT_EQ(tree.subtree_members(fig.D), 2);
}

TEST(MulticastTree, MoveSubtreeRejectsMergeIntoItself) {
  const Fig1Topology fig;
  MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A, fig.S}));
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.D}));
  EXPECT_THROW(tree.move_subtree(fig.D, Links{fig.CD}), std::invalid_argument);
}

TEST(MulticastTree, SeverDropsDisconnectedComponent) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  const auto lost = tree.sever(fig.SA);
  tree.validate();
  EXPECT_EQ(lost, (std::vector<net::NodeId>{fig.C, fig.D}));
  EXPECT_EQ(tree.member_count(), 0);
  EXPECT_EQ(tree.on_tree_count(), 1);
  EXPECT_FALSE(tree.on_tree(fig.A));
}

TEST(MulticastTree, SeverOfLeafLinkDropsOneMember) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  const auto lost = tree.sever(fig.AD);
  tree.validate();
  EXPECT_EQ(lost, (std::vector<net::NodeId>{fig.D}));
  EXPECT_TRUE(tree.is_member(fig.C));
  EXPECT_EQ(tree.shr(fig.C), 2);  // D's contribution is gone
}

// The source's parent link is kNoLink, and ids outside the graph name no
// link at all: like an unused link, none of them may cut anything.
TEST(MulticastTree, SeverOfNonTreeLinkIsNoOp) {
  const Fig1Topology fig;
  MulticastTree tree = fig1_tree(fig);
  const MulticastTree before = tree;
  for (const net::LinkId link : {fig.BD, net::kNoLink, fig.graph.link_count(),
                                 fig.graph.link_count() + 5}) {
    EXPECT_TRUE(tree.sever(link).empty()) << "link " << link;
    EXPECT_NO_THROW(tree.validate()) << "link " << link;
    EXPECT_EQ(tree.member_count(), 2) << "link " << link;
    testing::expect_same_tree(tree, before);
  }
}

TEST(MulticastTree, SurvivingAfterLink) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  const auto alive = tree.surviving_after_link(fig.SA);
  EXPECT_TRUE(alive[fig.S]);
  EXPECT_FALSE(alive[fig.A]);
  EXPECT_FALSE(alive[fig.C]);
  EXPECT_FALSE(alive[fig.D]);
  EXPECT_FALSE(alive[fig.B]);  // off-tree nodes never "survive"

  const auto alive2 = tree.surviving_after_link(fig.AD);
  EXPECT_TRUE(alive2[fig.S]);
  EXPECT_TRUE(alive2[fig.A]);
  EXPECT_TRUE(alive2[fig.C]);
  EXPECT_FALSE(alive2[fig.D]);
}

TEST(MulticastTree, SurvivingAfterNode) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  const auto alive = tree.surviving_after_node(fig.A);
  EXPECT_TRUE(alive[fig.S]);
  EXPECT_FALSE(alive[fig.A]);
  EXPECT_FALSE(alive[fig.C]);
  EXPECT_FALSE(alive[fig.D]);
  // Source failure kills everything.
  const auto none = tree.surviving_after_node(fig.S);
  for (net::NodeId n = 0; n < fig.graph.node_count(); ++n) {
    EXPECT_FALSE(none[static_cast<std::size_t>(n)]);
  }
}

TEST(MulticastTree, ShrExcludingSubtree) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  // If D's subtree (1 member) moved away, A would carry only C.
  EXPECT_EQ(tree.shr_excluding_subtree(fig.A, fig.D), 1);
  EXPECT_EQ(tree.shr_excluding_subtree(fig.S, fig.D), 0);
  // Excluding C from C's own path: A keeps D.
  EXPECT_EQ(tree.shr_excluding_subtree(fig.C, fig.C), 1);
}

TEST(MulticastTree, IsAncestorOrSelf) {
  const Fig1Topology fig;
  const MulticastTree tree = fig1_tree(fig);
  EXPECT_TRUE(tree.is_ancestor_or_self(fig.A, fig.C));
  EXPECT_TRUE(tree.is_ancestor_or_self(fig.S, fig.D));
  EXPECT_TRUE(tree.is_ancestor_or_self(fig.C, fig.C));
  EXPECT_FALSE(tree.is_ancestor_or_self(fig.C, fig.A));
  EXPECT_FALSE(tree.is_ancestor_or_self(fig.B, fig.C));
}

// ---- Randomised churn property test ---------------------------------------

class TreeChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeChurnProperty, InvariantsHoldUnderRandomChurn) {
  net::Rng rng(GetParam());
  net::WaxmanParams wax;
  wax.node_count = 50;
  const net::Graph g = net::waxman_graph(wax, rng);
  const net::NodeId source = 0;
  MulticastTree tree(g, source);
  const net::ShortestPathTree spf = net::dijkstra(g, source);

  std::vector<net::NodeId> joined;
  for (int step = 0; step < 200; ++step) {
    const bool can_leave = !joined.empty();
    const bool do_join = !can_leave || rng.uniform() < 0.6;
    if (do_join) {
      const auto member =
          static_cast<net::NodeId>(1 + rng.below(g.node_count() - 1));
      if (tree.is_member(member)) continue;
      // Graft along the SPF path up to the first on-tree node (no links
      // at all when the member is on-tree already).
      Links graft;
      for (net::NodeId cur = member; !tree.on_tree(cur);
           cur = spf.parent[static_cast<std::size_t>(cur)]) {
        graft.push_back(spf.parent_link[static_cast<std::size_t>(cur)]);
      }
      tree.graft(member, graft);
      joined.push_back(member);
    } else {
      const std::size_t idx = rng.below(joined.size());
      tree.leave(joined[idx]);
      joined.erase(joined.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_NO_THROW(tree.validate()) << "step " << step;
    ASSERT_EQ(tree.member_count(), static_cast<int>(joined.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeChurnProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace smrp::mcast
