#include "smrp/query_scheme.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "net/waxman.hpp"
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

TEST(QueryScheme, DiscoversOneCandidatePerNeighborRelay) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  SmrpConfig config;
  // B's neighbors are S (on-tree: direct candidate) and D (on-tree:
  // direct candidate).
  const auto candidates =
      enumerate_query_candidates(fig.graph, tree, fig.B, 1.0, config.d_thresh);
  ASSERT_EQ(candidates.size(), 2u);
  for (const auto& c : candidates) {
    EXPECT_TRUE(c.merge_node == fig.S || c.merge_node == fig.D);
    EXPECT_EQ(c.graft.front(), fig.B);
    EXPECT_EQ(c.graft.back(), c.merge_node);
    EXPECT_NEAR(net::path_weight(fig.graph, c.graft), c.graft_delay, 1e-9);
  }
}

TEST(QueryScheme, OffTreeNeighborRelaysTowardSource) {
  // G's only neighbors in Fig4 are F (off-tree) and B (off-tree): queries
  // travel along the relays' SPF paths until an on-tree node answers.
  const testing::Fig4Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.E, net::path_links(fig.graph, {fig.E, fig.D, fig.A, fig.S}));
  SmrpConfig config;
  const auto candidates =
      enumerate_query_candidates(fig.graph, tree, fig.G, 5.0, config.d_thresh);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates) {
    EXPECT_TRUE(tree.on_tree(c.merge_node));
    // Interior hops must all be off-tree (the first on-tree node answers).
    for (std::size_t i = 0; i + 1 < c.graft.size(); ++i) {
      EXPECT_FALSE(tree.on_tree(c.graft[i]));
    }
  }
}

TEST(QueryScheme, CandidateSetIsSubsetOfFullKnowledgeMerges) {
  net::Rng rng(99);
  net::WaxmanParams wax;
  wax.node_count = 50;
  const net::Graph g = net::waxman_graph(wax, rng);
  SmrpConfig config;
  SmrpTreeBuilder builder(g, 0, config);
  for (int i = 0; i < 10; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(49)));
  }
  for (net::NodeId joiner = 1; joiner < g.node_count(); ++joiner) {
    if (builder.tree().on_tree(joiner)) continue;
    const double spf = builder.spf_delay(joiner);
    const auto query =
        enumerate_query_candidates(g, builder.tree(), joiner, spf,
                                   config.d_thresh);
    for (const auto& c : query) {
      ASSERT_TRUE(builder.tree().on_tree(c.merge_node));
      ASSERT_TRUE(net::is_simple_path(g, c.graft));
    }
  }
}

TEST(QueryScheme, SelectionRespectsCriterion) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  SmrpConfig config;
  config.d_thresh = 1.0;
  // B: SPF(S,B) = 1. Candidates: merge S (delay 1, SHR 0), merge D
  // (delay 2 + tree 2 = 4, SHR 3). Criterion must choose S.
  const auto sel =
      select_join_path_via_query(fig.graph, tree, fig.B, 1.0, config);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->chosen.merge_node, fig.S);
  EXPECT_FALSE(sel->used_fallback);
}

TEST(QueryScheme, OnTreeJoinerSelfCandidate) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  SmrpConfig config;
  const auto candidates =
      enumerate_query_candidates(fig.graph, tree, fig.A, 1.0, config.d_thresh);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].merge_node, fig.A);
}

}  // namespace
}  // namespace smrp::proto
