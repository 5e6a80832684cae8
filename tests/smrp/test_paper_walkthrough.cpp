// End-to-end checks that the implementation reproduces every concrete
// walkthrough the paper gives on its illustrative topologies:
//   * Figure 1: recovery of D after L_AD fails (local detour D→C with
//     RD=2 vs the SPF global detour D→B→S with RD=3),
//   * Figure 2: the disjoint tree mitigates the L_SA failure,
//   * Figure 4: the join order E, G, F with D_thresh=0.3 builds exactly
//     the tree the paper draws, including G preferring the less-shared
//     path and F being bound-limited,
//   * Figure 5: F's arrival triggers E's Condition-I reshape to E→C→A→S.
#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::Fig1Topology;
using testing::Fig4Topology;

TEST(PaperFig1, SpfTreeAndShr) {
  const Fig1Topology fig;
  baseline::SpfTreeBuilder spf(fig.graph, fig.S);
  ASSERT_TRUE(spf.join(fig.C));
  ASSERT_TRUE(spf.join(fig.D));
  // "the original multicast tree is constructed ... using SPF".
  EXPECT_EQ(spf.tree().parent(fig.C), fig.A);
  EXPECT_EQ(spf.tree().parent(fig.D), fig.A);
  // §3.1: SHR(S,C) = 3.
  EXPECT_EQ(spf.tree().shr(fig.C), 3);
}

TEST(PaperFig1, LocalDetourBeatsGlobalDetourForD) {
  const Fig1Topology fig;
  baseline::SpfTreeBuilder spf(fig.graph, fig.S);
  spf.join(fig.C);
  spf.join(fig.D);

  // "Suppose the on-tree link L_AD fails."
  const RecoveryOutcome local =
      local_detour_recovery(fig.graph, spf.tree(), fig.D, fig.AD);
  const RecoveryOutcome global =
      global_detour_recovery(fig.graph, spf.tree(), fig.D, fig.AD);

  ASSERT_TRUE(local.disconnected);
  ASSERT_TRUE(local.recovered);
  // "path D→C→A→S is preferred ... only link L_CD needs to be brought
  //  into the multicast tree ... RD_D = 2."
  EXPECT_EQ(local.reattach_node, fig.C);
  EXPECT_EQ(local.restoration_path,
            (std::vector<net::NodeId>{fig.D, fig.C}));
  EXPECT_DOUBLE_EQ(local.recovery_distance, 2.0);
  EXPECT_EQ(local.recovery_hops, 1);

  // "a new path D→B→S is constructed" by the SPF protocols.
  ASSERT_TRUE(global.recovered);
  EXPECT_EQ(global.reattach_node, fig.S);
  EXPECT_EQ(global.restoration_path,
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
  EXPECT_DOUBLE_EQ(global.recovery_distance, 3.0);

  // The tradeoff the paper highlights: local detour has the shorter
  // recovery path but the larger end-to-end delay.
  EXPECT_LT(local.recovery_distance, global.recovery_distance);
  EXPECT_GT(local.new_delay, global.new_delay);
}

TEST(PaperFig2, DisjointTreeLimitsLsaFailureToOneMember) {
  const Fig1Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  // Figure 2's tree: C via A, D via B — no shared links.
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.B, fig.S}));

  const auto alive = tree.surviving_after_link(fig.SA);
  // "at most one member suffers the service disruption".
  EXPECT_FALSE(alive[fig.C]);
  EXPECT_TRUE(alive[fig.D]);

  // "C can quickly restore its service by connecting to its non-faulty
  //  neighbor node D."
  const RecoveryOutcome rec =
      local_detour_recovery(fig.graph, tree, fig.C, fig.SA);
  ASSERT_TRUE(rec.recovered);
  EXPECT_EQ(rec.reattach_node, fig.D);
  EXPECT_EQ(rec.restoration_path, (std::vector<net::NodeId>{fig.C, fig.D}));
}

class PaperFig4 : public ::testing::Test {
 protected:
  Fig4Topology fig;
  SmrpConfig config;

  PaperFig4() {
    config.d_thresh = 0.3;
    config.reshape_shr_delta = 2;
  }
};

TEST_F(PaperFig4, JoinWalkthroughBuildsThePaperTree) {
  SmrpTreeBuilder builder(fig.graph, fig.S, config);

  // E joins first: "the join procedure of E is trivial, and it selects
  // the shortest path" E→D→A→S.
  const JoinOutcome e = builder.join(fig.E);
  ASSERT_TRUE(e.joined);
  EXPECT_FALSE(e.used_fallback);
  EXPECT_EQ(e.merge_node, fig.S);
  EXPECT_EQ(builder.tree().path_to_source(fig.E),
            (std::vector<net::NodeId>{fig.E, fig.D, fig.A, fig.S}));
  // "node D has SHR(S,D) = 2".
  EXPECT_EQ(builder.tree().shr(fig.D), 2);

  // G joins: "G chooses path G→B→S even though path G→F→D→A→S has
  // shorter end-to-end delay."
  const JoinOutcome g = builder.join(fig.G);
  ASSERT_TRUE(g.joined);
  EXPECT_FALSE(g.used_fallback);
  EXPECT_EQ(g.merge_node, fig.S);
  EXPECT_EQ(builder.tree().path_to_source(fig.G),
            (std::vector<net::NodeId>{fig.G, fig.B, fig.S}));
  // Sanity: the rejected path really is shorter end-to-end.
  EXPECT_LT(net::path_weight(fig.graph, {fig.G, fig.F, fig.D, fig.A, fig.S}),
            net::path_weight(fig.graph, {fig.G, fig.B, fig.S}));

  // F joins: "receiver F selects path F→D→A→S. F does not choose path
  // F→B→S and path F→G→B→S because their path lengths exceed the bound."
  const double bound = (1.0 + config.d_thresh) * builder.spf_delay(fig.F);
  EXPECT_GT(net::path_weight(fig.graph, {fig.F, fig.B, fig.S}), bound);
  EXPECT_GT(net::path_weight(fig.graph, {fig.F, fig.G, fig.B, fig.S}), bound);

  SmrpConfig no_reshape = config;
  no_reshape.enable_reshaping = false;
  SmrpTreeBuilder plain(fig.graph, fig.S, no_reshape);
  plain.join(fig.E);
  plain.join(fig.G);
  const JoinOutcome f = plain.join(fig.F);
  ASSERT_TRUE(f.joined);
  EXPECT_EQ(f.merge_node, fig.D);
  EXPECT_EQ(plain.tree().path_to_source(fig.F),
            (std::vector<net::NodeId>{fig.F, fig.D, fig.A, fig.S}));
  // "SHR(S,D) is increased from 2 to 4 after F joined".
  EXPECT_EQ(plain.tree().shr(fig.D), 4);
}

TEST_F(PaperFig4, Figure5ReshapeMovesEtoCA) {
  SmrpTreeBuilder builder(fig.graph, fig.S, config);
  builder.join(fig.E);
  builder.join(fig.G);
  // F's arrival raises SHR(S,D) by 2 and must trigger E's Condition-I
  // reshape: "E completes another path selection process by selecting
  // path E→C→A→S" whose merge node A has the smaller (adjusted) SHR.
  const JoinOutcome f = builder.join(fig.F);
  ASSERT_TRUE(f.joined);
  EXPECT_EQ(f.reshapes_triggered, 1);
  EXPECT_EQ(builder.tree().path_to_source(fig.E),
            (std::vector<net::NodeId>{fig.E, fig.C, fig.A, fig.S}));
  EXPECT_EQ(builder.tree().role(fig.C), mcast::NodeRole::kRelay);
  // After the switch D serves only F.
  EXPECT_EQ(builder.tree().subtree_members(fig.D), 1);
  builder.tree().validate();
}

TEST_F(PaperFig4, NoReshapeWithoutConditionOneTrigger) {
  SmrpConfig strict = config;
  strict.reshape_shr_delta = 5;  // F's +2 growth no longer qualifies
  SmrpTreeBuilder builder(fig.graph, fig.S, strict);
  builder.join(fig.E);
  builder.join(fig.G);
  const JoinOutcome f = builder.join(fig.F);
  EXPECT_EQ(f.reshapes_triggered, 0);
  EXPECT_EQ(builder.tree().path_to_source(fig.E),
            (std::vector<net::NodeId>{fig.E, fig.D, fig.A, fig.S}));
}

TEST_F(PaperFig4, ConditionTwoPassFindsTheSameImprovement) {
  // With Condition I disabled entirely, a periodic Condition-II pass must
  // still discover E's better position.
  SmrpConfig no_auto = config;
  no_auto.enable_reshaping = false;
  SmrpTreeBuilder builder(fig.graph, fig.S, no_auto);
  builder.join(fig.E);
  builder.join(fig.G);
  builder.join(fig.F);
  EXPECT_EQ(builder.tree().parent(fig.E), fig.D);
  const int switches = builder.reshape_pass();
  EXPECT_EQ(switches, 1);
  EXPECT_EQ(builder.tree().path_to_source(fig.E),
            (std::vector<net::NodeId>{fig.E, fig.C, fig.A, fig.S}));
  // A second pass is quiescent.
  EXPECT_EQ(builder.reshape_pass(), 0);
}

}  // namespace
}  // namespace smrp::proto
