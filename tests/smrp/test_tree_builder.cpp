#include "smrp/tree_builder.hpp"

#include <gtest/gtest.h>

#include "net/waxman.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::Fig1Topology;

TEST(SmrpTreeBuilder, SourceCannotJoin) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  EXPECT_THROW(builder.join(fig.S), std::invalid_argument);
}

TEST(SmrpTreeBuilder, JoinIsIdempotent) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  ASSERT_TRUE(builder.join(fig.C).joined);
  const JoinOutcome again = builder.join(fig.C);
  EXPECT_TRUE(again.joined);
  EXPECT_EQ(builder.tree().member_count(), 1);
}

TEST(SmrpTreeBuilder, UnreachableMemberIsRefused) {
  net::Graph g(3);
  g.add_link(0, 1, 1.0);
  SmrpTreeBuilder builder(g, 0);
  EXPECT_FALSE(builder.join(2).joined);
  EXPECT_EQ(builder.tree().member_count(), 0);
}

TEST(SmrpTreeBuilder, FirstJoinTakesSpfPath) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.D);
  EXPECT_EQ(builder.tree().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.A, fig.S}));
  EXPECT_DOUBLE_EQ(builder.tree().delay_to_source(fig.D),
                   builder.spf_delay(fig.D));
}

TEST(SmrpTreeBuilder, SecondJoinPrefersLessSharedPath) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);  // default D_thresh = 0.3
  builder.join(fig.C);  // C → A → S
  SmrpConfig wide;
  wide.d_thresh = 1.0;  // admit the B detour
  SmrpTreeBuilder builder2(fig.graph, fig.S, wide);
  builder2.join(fig.C);
  builder2.join(fig.D);
  // With a generous bound D merges at the source via B (SHR 0) instead of
  // sharing A (SHR 1): the Figure-2 disjoint tree.
  EXPECT_EQ(builder2.tree().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
}

TEST(SmrpTreeBuilder, TightBoundForcesSharedPath) {
  const Fig1Topology fig;
  SmrpConfig tight;
  tight.d_thresh = 0.0;
  SmrpTreeBuilder builder(fig.graph, fig.S, tight);
  builder.join(fig.C);
  builder.join(fig.D);
  // D's only bound-satisfying path is its SPF path through A.
  EXPECT_EQ(builder.tree().path_to_source(fig.D),
            (std::vector<net::NodeId>{fig.D, fig.A, fig.S}));
  EXPECT_EQ(builder.fallback_join_count(), 0);
}

TEST(SmrpTreeBuilder, LeaveRemovesMemberAndBaseline) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  builder.join(fig.C);
  builder.join(fig.D);
  builder.leave(fig.C);
  builder.tree().validate();
  EXPECT_FALSE(builder.tree().is_member(fig.C));
  EXPECT_EQ(builder.tree().member_count(), 1);
}

TEST(SmrpTreeBuilder, JoinAlongExplicitGraft) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  const JoinOutcome out =
      builder.join_along(fig.D, {fig.D, fig.B, fig.S});
  EXPECT_TRUE(out.joined);
  EXPECT_EQ(out.merge_node, fig.S);
  EXPECT_EQ(builder.tree().parent(fig.D), fig.B);
  builder.tree().validate();
}

TEST(SmrpTreeBuilder, JoinAlongEmptyGraftIsRejected) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  const JoinOutcome out = builder.join_along(fig.D, {});
  EXPECT_FALSE(out.joined);
  EXPECT_FALSE(builder.tree().is_member(fig.D));
  EXPECT_EQ(builder.tree().member_count(), 0);
  builder.tree().validate();
}

TEST(SmrpTreeBuilder, JoinAlongOffTreeEndpointIsRejected) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  // B is reachable but not on the (so far trivial) tree: the graft never
  // reaches the session and must be refused, not spliced into thin air.
  const JoinOutcome out = builder.join_along(fig.D, {fig.D, fig.B});
  EXPECT_FALSE(out.joined);
  EXPECT_FALSE(builder.tree().is_member(fig.D));
  builder.tree().validate();
  // A well-formed graft for the same member still works afterwards.
  EXPECT_TRUE(builder.join_along(fig.D, {fig.D, fig.B, fig.S}).joined);
  builder.tree().validate();
}

TEST(SmrpTreeBuilder, JoinAlongSingletonOffTreeGraftIsRejected) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  const JoinOutcome out = builder.join_along(fig.D, {fig.D});
  EXPECT_FALSE(out.joined);
  EXPECT_FALSE(builder.tree().is_member(fig.D));
}

TEST(GraftRewalksAttachment, RecognisesSingleAndMultiHopRewalks) {
  const Fig1Topology fig;
  SmrpTreeBuilder builder(fig.graph, fig.S);
  ASSERT_TRUE(builder.join_along(fig.D, {fig.D, fig.A, fig.S}).joined);
  const MulticastTree& tree = builder.tree();
  // D currently attaches via D–A–S.
  EXPECT_TRUE(graft_rewalks_attachment(tree, fig.D, {fig.D, fig.A}));
  EXPECT_TRUE(graft_rewalks_attachment(tree, fig.D, {fig.D, fig.A, fig.S}));
  // A genuinely different attachment is not a re-walk.
  EXPECT_FALSE(graft_rewalks_attachment(tree, fig.D, {fig.D, fig.B, fig.S}));
  // Degenerate grafts, or ones that do not start at the member, are not.
  EXPECT_FALSE(graft_rewalks_attachment(tree, fig.D, {}));
  EXPECT_FALSE(graft_rewalks_attachment(tree, fig.D, {fig.D}));
  EXPECT_FALSE(graft_rewalks_attachment(tree, fig.D, {fig.A, fig.S}));
  // Walking past the root cannot be a re-walk of the upstream chain.
  EXPECT_FALSE(
      graft_rewalks_attachment(tree, fig.D, {fig.D, fig.A, fig.S, fig.B}));
}

// ---- Randomised properties -------------------------------------------------

struct ChurnCase {
  std::uint64_t seed;
  double d_thresh;
};

class BuilderProperty : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(BuilderProperty, DelayBoundHoldsForNonFallbackJoins) {
  const auto [seed, d_thresh] = GetParam();
  net::Rng rng(seed);
  net::WaxmanParams wax;
  wax.node_count = 60;
  const net::Graph g = net::waxman_graph(wax, rng);
  SmrpConfig config;
  config.d_thresh = d_thresh;
  SmrpTreeBuilder builder(g, 0, config);

  for (int i = 0; i < 25; ++i) {
    const auto member = static_cast<net::NodeId>(1 + rng.below(59));
    if (builder.tree().is_member(member)) continue;
    const JoinOutcome out = builder.join(member);
    ASSERT_TRUE(out.joined);
    if (!out.used_fallback) {
      // The bound must hold at join time...
      EXPECT_LE(out.total_delay,
                (1.0 + d_thresh) * builder.spf_delay(member) + 1e-6);
    }
    builder.tree().validate();
  }
  // ...and every member's delay stays bounded after reshaping, because
  // reshaping only accepts bound-satisfying candidates.
  for (const net::NodeId m : builder.tree().members()) {
    const double bound = (1.0 + d_thresh) * builder.spf_delay(m) + 1e-6;
    if (builder.fallback_join_count() == 0) {
      EXPECT_LE(builder.tree().delay_to_source(m), bound) << "member " << m;
    }
  }
}

TEST_P(BuilderProperty, ChurnKeepsTreeValid) {
  const auto [seed, d_thresh] = GetParam();
  net::Rng rng(seed ^ 0xc0ffee);
  net::WaxmanParams wax;
  wax.node_count = 50;
  const net::Graph g = net::waxman_graph(wax, rng);
  SmrpConfig config;
  config.d_thresh = d_thresh;
  SmrpTreeBuilder builder(g, 0, config);

  std::vector<net::NodeId> members;
  for (int step = 0; step < 120; ++step) {
    if (members.empty() || rng.uniform() < 0.6) {
      const auto m = static_cast<net::NodeId>(1 + rng.below(49));
      if (builder.tree().is_member(m)) continue;
      ASSERT_TRUE(builder.join(m).joined);
      members.push_back(m);
    } else {
      const std::size_t idx = rng.below(members.size());
      builder.leave(members[idx]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_NO_THROW(builder.tree().validate()) << "step " << step;
  }
}

TEST_P(BuilderProperty, ReshapeToFixpointNeverWorsensMeanShr) {
  const auto [seed, d_thresh] = GetParam();
  net::Rng rng(seed ^ 0xbeef);
  net::WaxmanParams wax;
  wax.node_count = 60;
  const net::Graph g = net::waxman_graph(wax, rng);
  SmrpConfig config;
  config.d_thresh = d_thresh;
  config.enable_reshaping = false;  // build naively, then reshape once
  SmrpTreeBuilder builder(g, 0, config);
  for (int i = 0; i < 20; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(59)));
  }
  const auto mean_shr = [&]() {
    double total = 0;
    for (const net::NodeId m : builder.tree().members()) {
      total += builder.tree().shr(m);
    }
    return total / builder.tree().member_count();
  };
  const double before = mean_shr();
  // Condition II until quiescent, at most ten passes.
  for (int pass = 0; pass < 10 && builder.reshape_pass() > 0; ++pass) {
  }
  builder.tree().validate();
  EXPECT_LE(mean_shr(), before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BuilderProperty,
    ::testing::Values(ChurnCase{1, 0.1}, ChurnCase{2, 0.3}, ChurnCase{3, 0.5},
                      ChurnCase{4, 0.3}, ChurnCase{5, 1.0}));

}  // namespace
}  // namespace smrp::proto
