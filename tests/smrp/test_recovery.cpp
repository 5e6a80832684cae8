#include "smrp/recovery.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/paths.hpp"
#include "net/waxman.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"
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

TEST(WorstCaseFailure, PicksSourceIncidentLink) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  EXPECT_EQ(worst_case_failure_link(tree, fig.C), fig.SA);
  EXPECT_EQ(worst_case_failure_link(tree, fig.D), fig.SA);
  EXPECT_THROW(static_cast<void>(worst_case_failure_link(tree, fig.B)),
               std::invalid_argument);
}

TEST(LocalDetour, UnaffectedMemberNeedsNoRecovery) {
  const Fig1Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));
  const RecoveryOutcome out =
      local_detour_recovery(fig.graph, tree, fig.D, fig.SA);
  EXPECT_FALSE(out.disconnected);
  EXPECT_TRUE(out.recovered);
  EXPECT_DOUBLE_EQ(out.recovery_distance, 0.0);
  EXPECT_EQ(out.reattach_node, fig.D);
}

TEST(LocalDetour, FailsWhenFailureIsolatesMember) {
  // Chain 0–1–2: the only link into 2 is the tree link; no detour exists.
  const net::Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const net::LinkId last = 1;
  mcast::MulticastTree tree(g, 0);
  tree.graft(2, net::path_links(g, {2, 1, 0}));
  const RecoveryOutcome out = local_detour_recovery(g, tree, 2, last);
  EXPECT_TRUE(out.disconnected);
  EXPECT_FALSE(out.recovered);
}

TEST(GlobalDetour, FailsWhenFailureIsolatesMember) {
  const net::Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const net::LinkId last = 1;
  mcast::MulticastTree tree(g, 0);
  tree.graft(2, net::path_links(g, {2, 1, 0}));
  EXPECT_FALSE(global_detour_recovery(g, tree, 2, last).recovered);
}

TEST(Recovery, NonMemberCannotInitiate) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  EXPECT_THROW(local_detour_recovery(fig.graph, tree, fig.A, fig.SA),
               std::invalid_argument);
}

TEST(ApplyRecovery, RegraftsAfterSever) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const RecoveryOutcome rec =
      local_detour_recovery(fig.graph, tree, fig.D, fig.AD);
  ASSERT_TRUE(rec.recovered);
  tree.sever(fig.AD);
  apply_recovery(tree, rec);
  tree.validate();
  EXPECT_TRUE(tree.is_member(fig.D));
  EXPECT_EQ(tree.parent(fig.D), fig.C);
  EXPECT_DOUBLE_EQ(tree.delay_to_source(fig.D), rec.new_delay);
}

TEST(ApplyRecovery, FullSessionRepairAfterWorstCaseFailure) {
  // Fail L_SA on the Figure-1 tree: both members drop; repairing them in
  // sequence must yield a valid tree serving both again, with the second
  // repair allowed to ride on the first (neighbor-assisted recovery).
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const std::vector<RecoveryOutcome> plans = {
      local_detour_recovery(fig.graph, tree, fig.C, fig.SA),
      local_detour_recovery(fig.graph, tree, fig.D, fig.SA),
  };
  const auto lost = tree.sever(fig.SA);
  ASSERT_EQ(lost.size(), 2u);
  for (const RecoveryOutcome& plan : plans) {
    ASSERT_TRUE(plan.recovered);
    apply_recovery(tree, plan);
  }
  tree.validate();
  EXPECT_TRUE(tree.is_member(fig.C));
  EXPECT_TRUE(tree.is_member(fig.D));
  // The repaired tree must not use the dead link.
  for (const net::LinkId l : tree.tree_links()) EXPECT_NE(l, fig.SA);
}

TEST(ApplyRecovery, RejectsFailedPlans) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  RecoveryOutcome bogus;
  bogus.recovered = false;
  EXPECT_THROW(apply_recovery(tree, bogus), std::invalid_argument);
}

// ---- Randomised recovery properties ---------------------------------------

class RecoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The tree references the graph by pointer, so the graph must live at a
// stable address for the scenario's lifetime.
struct BuiltScenario {
  std::unique_ptr<net::Graph> graph_holder;
  std::unique_ptr<mcast::MulticastTree> tree_holder;
  std::vector<net::NodeId> members;
  const net::Graph& graph;
  const mcast::MulticastTree& tree;
};

BuiltScenario build_random_scenario(std::uint64_t seed) {
  net::Rng rng(seed);
  net::WaxmanParams wax;
  wax.node_count = 60;
  auto graph = std::make_unique<net::Graph>(net::waxman_graph(wax, rng));
  SmrpTreeBuilder builder(*graph, 0);
  std::vector<net::NodeId> members;
  for (int i = 0; i < 15; ++i) {
    const auto m = static_cast<net::NodeId>(1 + rng.below(59));
    if (builder.tree().is_member(m)) continue;
    builder.join(m);
    members.push_back(m);
  }
  auto tree = std::make_unique<mcast::MulticastTree>(builder.tree());
  const net::Graph& graph_ref = *graph;
  const mcast::MulticastTree& tree_ref = *tree;
  return BuiltScenario{std::move(graph), std::move(tree), std::move(members),
                       graph_ref, tree_ref};
}

TEST_P(RecoveryProperty, RestorationAvoidsFailureAndEndsOnSurvivor) {
  const BuiltScenario sc = build_random_scenario(GetParam());
  for (const net::NodeId m : sc.members) {
    const net::LinkId failed = worst_case_failure_link(sc.tree, m);
    const auto survivors = sc.tree.surviving_after_link(failed);
    for (const bool local : {true, false}) {
      const RecoveryOutcome out =
          local ? local_detour_recovery(sc.graph, sc.tree, m, failed)
                : global_detour_recovery(sc.graph, sc.tree, m, failed);
      ASSERT_TRUE(out.disconnected);
      if (!out.recovered) continue;
      ASSERT_FALSE(out.restoration_path.empty());
      ASSERT_EQ(out.restoration_path.front(), m);
      ASSERT_EQ(out.restoration_path.back(), out.reattach_node);
      ASSERT_TRUE(survivors[static_cast<std::size_t>(out.reattach_node)]);
      // No hop of the restoration path uses the failed link.
      const auto links = net::path_links(sc.graph, out.restoration_path);
      ASSERT_EQ(out.restoration_links, links);
      for (const net::LinkId l : links) ASSERT_NE(l, failed);
      // Reported distance matches the path.
      ASSERT_NEAR(out.recovery_distance,
                  net::path_weight(sc.graph, out.restoration_path), 1e-9);
      ASSERT_EQ(out.recovery_hops,
                static_cast<int>(out.restoration_path.size()) - 1);
      // Only the reattach node is a survivor: every interior hop is new.
      for (std::size_t i = 0; i + 1 < out.restoration_path.size(); ++i) {
        ASSERT_FALSE(
            survivors[static_cast<std::size_t>(out.restoration_path[i])]);
      }
    }
  }
}

TEST_P(RecoveryProperty, LocalDetourIsNearestSurvivor) {
  const BuiltScenario sc = build_random_scenario(GetParam() ^ 0x5a5a);
  for (const net::NodeId m : sc.members) {
    const net::LinkId failed = worst_case_failure_link(sc.tree, m);
    const RecoveryOutcome out =
        local_detour_recovery(sc.graph, sc.tree, m, failed);
    if (!out.recovered) continue;
    // No survivor may be strictly closer than the chosen reattach node
    // (checked against unrestricted shortest paths, which lower-bound the
    // absorbing search the recovery uses).
    net::ExclusionSet excl(sc.graph);
    excl.ban_link(failed);
    const net::ShortestPathTree spf = net::dijkstra(sc.graph, m, excl);
    const auto survivors = sc.tree.surviving_after_link(failed);
    double best = net::kInfinity;
    for (net::NodeId n = 0; n < sc.graph.node_count(); ++n) {
      if (!survivors[static_cast<std::size_t>(n)]) continue;
      if (spf.reachable(n)) {
        best = std::min(best, spf.dist[static_cast<std::size_t>(n)]);
      }
    }
    ASSERT_NEAR(out.recovery_distance, best, 1e-9);
  }
}

TEST_P(RecoveryProperty, GlobalDetourFollowsPostFailureSpf) {
  const BuiltScenario sc = build_random_scenario(GetParam() ^ 0xa5a5);
  for (const net::NodeId m : sc.members) {
    const net::LinkId failed = worst_case_failure_link(sc.tree, m);
    const RecoveryOutcome out =
        global_detour_recovery(sc.graph, sc.tree, m, failed);
    if (!out.recovered) continue;
    net::ExclusionSet excl(sc.graph);
    excl.ban_link(failed);
    const net::ShortestPathTree spf = net::dijkstra(sc.graph, m, excl);
    // The restoration path must be a prefix of the new SPF path to the
    // source.
    const auto full = spf.path_from_source(sc.tree.source());
    ASSERT_LE(out.restoration_path.size(), full.size());
    for (std::size_t i = 0; i < out.restoration_path.size(); ++i) {
      ASSERT_EQ(out.restoration_path[i], full[i]);
    }
  }
}

TEST_P(RecoveryProperty, LocalNeverLongerThanGlobal) {
  // The local detour picks the *nearest* survivor; the global detour ends
  // on some survivor. Hence RD_local ≤ RD_global always.
  const BuiltScenario sc = build_random_scenario(GetParam() ^ 0x1111);
  for (const net::NodeId m : sc.members) {
    const net::LinkId failed = worst_case_failure_link(sc.tree, m);
    const RecoveryOutcome local =
        local_detour_recovery(sc.graph, sc.tree, m, failed);
    const RecoveryOutcome global =
        global_detour_recovery(sc.graph, sc.tree, m, failed);
    if (!local.recovered || !global.recovered) continue;
    ASSERT_LE(local.recovery_distance, global.recovery_distance + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace smrp::proto
