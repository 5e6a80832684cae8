// Node-failure recovery (§1 includes incapacitated nodes in the failure
// model): worst-case node selection and both detour policies around a
// dead router.
#include <gtest/gtest.h>

#include <memory>

#include "net/paths.hpp"
#include "net/waxman.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::Fig1Topology;

mcast::MulticastTree fig1_tree(const Fig1Topology& fig) {
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A}));
  return tree;
}

TEST(NodeFailure, WorstCaseNodeIsSourcesChild) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  EXPECT_EQ(worst_case_failure_node(tree, fig.C), fig.A);
  EXPECT_EQ(worst_case_failure_node(tree, fig.D), fig.A);
}

TEST(NodeFailure, LocalDetourRoutesAroundDeadRouter) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  // A dies: C and D both lose service; survivors = {S}. D's detour must
  // not touch A.
  const RecoveryOutcome out =
      local_detour_recovery(fig.graph, tree, fig.D, Failure::of_node(fig.A));
  ASSERT_TRUE(out.disconnected);
  ASSERT_TRUE(out.recovered);
  EXPECT_EQ(out.reattach_node, fig.S);
  EXPECT_EQ(out.restoration_path,
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
  for (const net::NodeId hop : out.restoration_path) EXPECT_NE(hop, fig.A);
}

TEST(NodeFailure, GlobalDetourAvoidsDeadRouter) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  const RecoveryOutcome out =
      global_detour_recovery(fig.graph, tree, fig.C, Failure::of_node(fig.A));
  ASSERT_TRUE(out.recovered);
  for (const net::NodeId hop : out.restoration_path) EXPECT_NE(hop, fig.A);
  // C's only A-free route runs C–D–B–S; it grafts at the source.
  EXPECT_EQ(out.reattach_node, fig.S);
}

TEST(NodeFailure, FailedNodeCannotRecoverItself) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  EXPECT_THROW(
      local_detour_recovery(fig.graph, tree, fig.C, Failure::of_node(fig.C)),
      std::invalid_argument);
}

TEST(NodeFailure, UnaffectedMemberStaysPut) {
  const Fig1Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  const RecoveryOutcome out =
      local_detour_recovery(fig.graph, tree, fig.D, Failure::of_node(fig.A));
  EXPECT_FALSE(out.disconnected);
  EXPECT_TRUE(out.recovered);
}

// --- Edge cases around whole-session node-failure repair --------------------

TEST(NodeFailureEdge, MemberLosesItsDirectParent) {
  // Figure-2 style disjoint tree: C under A, D under B. A — C's direct
  // parent — dies; D's branch is untouched and C reattaches to it.
  const Fig1Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_node(fig.A), DetourPolicy::kLocal);
  EXPECT_EQ(report.disconnected_members, 1);
  EXPECT_EQ(report.repaired_members, 1);
  tree.validate();
  EXPECT_FALSE(tree.on_tree(fig.A));
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].member, fig.C);
  EXPECT_EQ(report.outcomes[0].reattach_node, fig.D);
  EXPECT_DOUBLE_EQ(report.outcomes[0].recovery_distance, 2.0);  // C–D
  EXPECT_EQ(tree.path_to_source(fig.C),
            (std::vector<net::NodeId>{fig.C, fig.D, fig.B, fig.S}));
  // The survivor kept its branch exactly.
  EXPECT_EQ(tree.path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
}

TEST(NodeFailureEdge, SourcesOnlyChildDies) {
  // On the SPF tree S–A–{C,D}, A is the source's only child: its death
  // takes the entire distribution structure down to just {S}. The session
  // must rebuild from scratch through B — nearest victim (D, via D–B–S
  // at 3) first, then C assisted by D's fresh branch (C–D at 2).
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  ASSERT_EQ(tree.children(fig.S).to_vector(), (std::vector<net::NodeId>{fig.A}));
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_node(fig.A), DetourPolicy::kLocal);
  EXPECT_EQ(report.disconnected_members, 2);
  EXPECT_EQ(report.repaired_members, 2);
  tree.validate();
  EXPECT_EQ(tree.children(fig.S).to_vector(), (std::vector<net::NodeId>{fig.B}));
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].member, fig.D);
  EXPECT_DOUBLE_EQ(report.outcomes[0].recovery_distance, 3.0);
  EXPECT_EQ(report.outcomes[1].member, fig.C);
  EXPECT_DOUBLE_EQ(report.outcomes[1].recovery_distance, 2.0);
  for (const net::NodeId m : {fig.C, fig.D}) {
    for (const net::NodeId hop : tree.path_to_source(m)) {
      EXPECT_NE(hop, fig.A);
    }
  }
}

TEST(NodeFailureEdge, AccumulatedFailuresNarrowTheDetourChoices) {
  // Multi-failure accumulation: link C–D already failed earlier, then
  // node A dies. D still detours via B, but C — whose only A-free escape
  // was C–D — is now physically cut off.
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  net::ExclusionSet dead(fig.graph);
  dead.ban_link(fig.CD);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_node(fig.A), DetourPolicy::kLocal, &dead);
  EXPECT_EQ(report.disconnected_members, 2);
  EXPECT_EQ(report.repaired_members, 1);
  EXPECT_EQ(report.unrecoverable_members, 1);
  tree.validate();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].member, fig.D);
  EXPECT_EQ(report.outcomes[0].restoration_path,
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
  EXPECT_TRUE(tree.is_member(fig.D));
  EXPECT_FALSE(tree.is_member(fig.C));
}

TEST(NodeFailureEdge, AccumulatedNodeFailuresCanStrandEveryone) {
  // B died earlier, now A dies too: with both transit routers gone the
  // members have no physical path left; the repair must report them
  // unrecoverable and leave a valid (source-only) tree.
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  net::ExclusionSet dead(fig.graph);
  dead.ban_node(fig.B);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_node(fig.A), DetourPolicy::kLocal, &dead);
  EXPECT_EQ(report.disconnected_members, 2);
  EXPECT_EQ(report.repaired_members, 0);
  EXPECT_EQ(report.unrecoverable_members, 2);
  tree.validate();
  EXPECT_EQ(tree.member_count(), 0);
  EXPECT_TRUE(tree.on_tree_nodes() ==
              std::vector<net::NodeId>{fig.S});
}

class NodeFailureProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeFailureProperty, RestorationAvoidsTheDeadNode) {
  net::Rng rng(GetParam());
  net::WaxmanParams wax;
  wax.node_count = 60;
  auto g = std::make_unique<net::Graph>(net::waxman_graph(wax, rng));
  SmrpTreeBuilder builder(*g, 0);
  std::vector<net::NodeId> members;
  for (int i = 0; i < 15; ++i) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(59));
    if (builder.tree().is_member(m)) continue;
    builder.join(m);
    members.push_back(m);
  }
  for (const net::NodeId m : members) {
    const net::NodeId dead = worst_case_failure_node(builder.tree(), m);
    if (dead == m) continue;
    const auto survivors = builder.tree().surviving_after_node(dead);
    for (const bool local : {true, false}) {
      const Failure failure = Failure::of_node(dead);
      const RecoveryOutcome out =
          local ? local_detour_recovery(*g, builder.tree(), m, failure)
                : global_detour_recovery(*g, builder.tree(), m, failure);
      ASSERT_TRUE(out.disconnected);
      if (!out.recovered) continue;
      for (const net::NodeId hop : out.restoration_path) {
        ASSERT_NE(hop, dead);
      }
      ASSERT_TRUE(survivors[static_cast<std::size_t>(out.reattach_node)]);
      ASSERT_NEAR(out.recovery_distance,
                  net::path_weight(*g, out.restoration_path), 1e-9);
    }
  }
}

TEST_P(NodeFailureProperty, NodeFailureDisconnectsAtLeastAsMuchAsItsLinks) {
  net::Rng rng(GetParam() ^ 0x77);
  net::WaxmanParams wax;
  wax.node_count = 50;
  auto g = std::make_unique<net::Graph>(net::waxman_graph(wax, rng));
  SmrpTreeBuilder builder(*g, 0);
  for (int i = 0; i < 12; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(49)));
  }
  const auto& tree = builder.tree();
  for (const net::NodeId n : tree.on_tree_nodes()) {
    if (n == tree.source()) continue;
    const auto by_node = tree.surviving_after_node(n);
    const auto by_link = tree.surviving_after_link(tree.parent_link(n));
    for (net::NodeId v = 0; v < g->node_count(); ++v) {
      // Everything the parent-link cut kills, the node failure kills too.
      if (!by_link[static_cast<std::size_t>(v)]) {
        ASSERT_FALSE(by_node[static_cast<std::size_t>(v)] && v != n)
            << "node " << n << " victim " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeFailureProperty,
                         ::testing::Values(3, 6, 9, 12, 15));

}  // namespace
}  // namespace smrp::proto
