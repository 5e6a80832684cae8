#include "net/shortest_path.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/routing_oracle.hpp"
#include "net/waxman.hpp"
#include "testing_topologies.hpp"

namespace smrp::net {
namespace {

TEST(Dijkstra, GridDistancesAreManhattan) {
  const Graph g = testing::grid3x3();
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[8], 4.0);
  EXPECT_DOUBLE_EQ(t.dist[4], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_EQ(t.hops[8], 4);
}

TEST(Dijkstra, PathReconstructionEndsAtTarget) {
  const Graph g = testing::grid3x3();
  const ShortestPathTree t = dijkstra(g, 0);
  const std::vector<NodeId> path = t.path_from_source(8);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 8);
  EXPECT_EQ(path.size(), 5u);
  const std::vector<LinkId> links = t.link_path_from_source(8);
  EXPECT_EQ(links.size(), 4u);
}

TEST(Dijkstra, PathToSourceIsReversed) {
  const Graph g = testing::grid3x3();
  const ShortestPathTree t = dijkstra(g, 0);
  const auto fwd = t.path_from_source(8);
  auto bwd = t.path_to_source(8);
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);
}

TEST(Dijkstra, RespectsWeights) {
  const testing::Fig1Topology fig;
  const ShortestPathTree t = dijkstra(fig.graph, fig.S);
  EXPECT_DOUBLE_EQ(t.dist[fig.D], 2.0);  // S–A–D, not S–B–D (3)
  EXPECT_EQ(t.path_from_source(fig.D),
            (std::vector<NodeId>{fig.S, fig.A, fig.D}));
}

TEST(Dijkstra, UnreachableNodesReportInfinity) {
  const Graph g(3, {{0, 1, 1.0}});
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_EQ(t.dist[2], kInfinity);
  EXPECT_TRUE(t.path_from_source(2).empty());
  EXPECT_TRUE(t.link_path_from_source(2).empty());
}

TEST(Dijkstra, BannedLinkForcesDetour) {
  const testing::Fig1Topology fig;
  ExclusionSet excl(fig.graph);
  excl.ban_link(fig.AD);
  const ShortestPathTree t = dijkstra(fig.graph, fig.S, excl);
  EXPECT_DOUBLE_EQ(t.dist[fig.D], 3.0);  // S–B–D
  EXPECT_EQ(t.path_from_source(fig.D),
            (std::vector<NodeId>{fig.S, fig.B, fig.D}));
}

TEST(Dijkstra, BannedNodeIsNeverTraversed) {
  const testing::Fig1Topology fig;
  ExclusionSet excl(fig.graph);
  excl.ban_node(fig.A);
  const ShortestPathTree t = dijkstra(fig.graph, fig.S, excl);
  EXPECT_FALSE(t.reachable(fig.A));
  EXPECT_DOUBLE_EQ(t.dist[fig.C], 5.0);  // S–B–D–C
}

TEST(Dijkstra, BannedSourceThrows) {
  const Graph g = testing::grid3x3();
  ExclusionSet excl(g);
  excl.ban_node(0);
  EXPECT_THROW(dijkstra(g, 0, excl), std::invalid_argument);
}

TEST(Dijkstra, InvalidSourceThrows) {
  const Graph g = testing::grid3x3();
  EXPECT_THROW(dijkstra(g, 99), std::out_of_range);
}

// ---- ExclusionSet sizing and signature ------------------------------------

TEST(ExclusionSet, OutOfRangeIdsAreHardErrors) {
  const Graph g = testing::grid3x3();
  ExclusionSet excl(g);
  // Ids beyond the graph the set was built for must throw, not silently
  // resize (the old auto-resize masked graph/set mismatches).
  EXPECT_THROW(excl.ban_node(static_cast<NodeId>(g.node_count())),
               std::out_of_range);
  EXPECT_THROW(excl.ban_node(-1), std::out_of_range);
  EXPECT_THROW(excl.ban_link(static_cast<LinkId>(g.link_count())),
               std::out_of_range);
  EXPECT_THROW(excl.allow_link(-1), std::out_of_range);
  // Probes stay tolerant: asking about a foreign id is just "not banned".
  EXPECT_FALSE(excl.node_banned(99));
  EXPECT_FALSE(excl.link_banned(99));
}

TEST(ExclusionSet, DefaultConstructedSetRejectsAllBans) {
  ExclusionSet excl;
  EXPECT_TRUE(excl.empty());
  EXPECT_THROW(excl.ban_node(0), std::out_of_range);
  EXPECT_THROW(excl.ban_link(0), std::out_of_range);
}

TEST(ExclusionSet, SignatureIsOrderIndependent) {
  const Graph g = testing::grid3x3();
  ExclusionSet a(g);
  a.ban_node(2);
  a.ban_link(0);
  a.ban_link(3);
  ExclusionSet b(g);
  b.ban_link(3);
  b.ban_node(2);
  b.ban_link(0);
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_NE(a.signature(), 0u);

  // Ban/allow round-trips restore the signature exactly.
  const std::uint64_t before = a.signature();
  a.ban_node(5);
  EXPECT_NE(a.signature(), before);
  a.allow_node(5);
  EXPECT_EQ(a.signature(), before);
  // Re-banning an already banned id is a no-op, not a signature flip.
  a.ban_node(2);
  EXPECT_EQ(a.signature(), before);
}

TEST(ExclusionSet, NodeAndLinkIdsHashApart) {
  const Graph g = testing::grid3x3();
  ExclusionSet node_ban(g);
  node_ban.ban_node(1);
  ExclusionSet link_ban(g);
  link_ban.ban_link(1);
  EXPECT_NE(node_ban.signature(), link_ban.signature());
}

TEST(ExclusionSet, BannedIdListsAreSortedAscending) {
  const Graph g = testing::grid3x3();
  ExclusionSet excl(g);
  excl.ban_node(7);
  excl.ban_node(2);
  excl.ban_link(5);
  excl.ban_link(1);
  EXPECT_EQ(excl.banned_nodes(), (std::vector<NodeId>{2, 7}));
  EXPECT_EQ(excl.banned_links(), (std::vector<LinkId>{1, 5}));
  EXPECT_EQ(excl.banned_node_count(), 2);
  EXPECT_EQ(excl.banned_link_count(), 2);
}

TEST(DijkstraAbsorbing, AbsorbingNodesDoNotRelay) {
  // 0 –1– 1 –1– 2, plus a long direct 0–2 of weight 10: with 1 absorbing,
  // node 2 must be reached via the direct link.
  const Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 10.0}});
  std::vector<char> absorbing{0, 1, 0};
  const ShortestPathTree t = dijkstra_absorbing(g, 0, absorbing);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);   // reachable as a destination
  EXPECT_DOUBLE_EQ(t.dist[2], 10.0);  // but never expanded
}

TEST(DijkstraAbsorbing, SizesMustMatch) {
  const Graph g = testing::grid3x3();
  EXPECT_THROW(dijkstra_absorbing(g, 0, std::vector<char>(3, 0)),
               std::invalid_argument);
}

TEST(DijkstraAbsorbing, AbsorbingSourceThrows) {
  const Graph g = testing::grid3x3();
  std::vector<char> absorbing(9, 0);
  absorbing[0] = 1;
  EXPECT_THROW(dijkstra_absorbing(g, 0, absorbing), std::invalid_argument);
}

// ---- Deterministic equal-cost tie-breaks ----------------------------------

TEST(DijkstraTieBreak, EqualCostPrefersFewerHops) {
  // Diamond: 0–1–3 and 0–2–3 both cost 2.0; a direct 0–3 link also costs
  // 2.0 but takes one hop. The tie-break must settle on the direct link.
  const Graph g(
      4, {{0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}, {0, 3, 2.0}});
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[3], 2.0);
  EXPECT_EQ(t.hops[3], 1);
  EXPECT_EQ(t.parent[3], 0);
}

TEST(DijkstraTieBreak, EqualCostEqualHopsPrefersLowestPredecessor) {
  // Equal-weight diamond: two 2-hop, cost-2 paths to node 3 (via 1 and
  // via 2). The deterministic tie-break picks the lowest predecessor id,
  // independent of link insertion order, and never disturbs the source's
  // kNoNode parent sentinel.
  for (const bool reversed : {false, true}) {
    const std::vector<Link> via_1_first{
        {0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}};
    const std::vector<Link> via_2_first{
        {0, 2, 1.0}, {2, 3, 1.0}, {0, 1, 1.0}, {1, 3, 1.0}};
    const Graph g(4, reversed ? via_2_first : via_1_first);
    const ShortestPathTree t = dijkstra(g, 0);
    EXPECT_DOUBLE_EQ(t.dist[3], 2.0);
    EXPECT_EQ(t.hops[3], 2);
    EXPECT_EQ(t.parent[3], 1) << "insertion order reversed=" << reversed;
    EXPECT_EQ(t.parent[0], kNoNode);
    EXPECT_EQ(t.hops[0], 0);
  }
}

TEST(DijkstraTieBreak, LadderOfDiamondsIsStableEndToEnd) {
  // Chain three equal-weight diamonds; every stage must resolve to the
  // lower-id middle node so the full path is reproducible.
  std::vector<Link> links;
  NodeId entry = 0;
  for (int stage = 0; stage < 3; ++stage) {
    const NodeId lo = static_cast<NodeId>(3 * stage + 1);
    const NodeId hi = static_cast<NodeId>(3 * stage + 2);
    const NodeId exit = static_cast<NodeId>(3 * stage + 3);
    links.push_back({entry, hi, 1.0});
    links.push_back({hi, exit, 1.0});
    links.push_back({entry, lo, 1.0});
    links.push_back({lo, exit, 1.0});
    entry = exit;
  }
  const Graph g(10, std::move(links));
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_EQ(t.path_from_source(9), (std::vector<NodeId>{0, 1, 3, 4, 6, 7, 9}));
}

// ---- DijkstraWorkspace equivalence ----------------------------------------

namespace {
void expect_same_tree(const ShortestPathTree& a, const ShortestPathTree& b) {
  ASSERT_EQ(a.source, b.source);
  ASSERT_EQ(a.dist, b.dist);
  ASSERT_EQ(a.parent, b.parent);
  ASSERT_EQ(a.parent_link, b.parent_link);
  ASSERT_EQ(a.hops, b.hops);
}
}  // namespace

TEST(DijkstraWorkspaceTest, MatchesFreshRunWithExclusions) {
  const testing::Fig1Topology fig;
  DijkstraWorkspace workspace;
  expect_same_tree(workspace.run(fig.graph, fig.S), dijkstra(fig.graph, fig.S));
  ExclusionSet excl(fig.graph);
  excl.ban_link(fig.AD);
  expect_same_tree(workspace.run(fig.graph, fig.S, excl),
                   dijkstra(fig.graph, fig.S, excl));
  // run_into fills a caller-owned tree with the identical result.
  ShortestPathTree out;
  workspace.run_into(fig.graph, fig.S, excl, out);
  expect_same_tree(out, dijkstra(fig.graph, fig.S, excl));
}

TEST(DijkstraWorkspaceTest, RejectsBadSourcesLikeFreeFunction) {
  const Graph g = testing::grid3x3();
  DijkstraWorkspace workspace;
  EXPECT_THROW(workspace.run(g, 99), std::out_of_range);
  ExclusionSet excl(g);
  excl.ban_node(0);
  EXPECT_THROW(workspace.run(g, 0, excl), std::invalid_argument);
  std::vector<char> absorbing(9, 0);
  absorbing[0] = 1;
  EXPECT_THROW(workspace.run_absorbing(g, 0, absorbing),
               std::invalid_argument);
}

/// A node the last run never labelled must read exactly as a fresh tree's
/// unreachable node — no leftovers from an earlier run.
void expect_unlabelled(const ShortestPathTree& t, NodeId v) {
  const auto i = static_cast<std::size_t>(v);
  ASSERT_EQ(t.dist[i], kInfinity) << "node " << v;
  ASSERT_EQ(t.parent[i], kNoNode) << "node " << v;
  ASSERT_EQ(t.parent_link[i], kNoLink) << "node " << v;
  ASSERT_EQ(t.hops[i], -1) << "node " << v;
}

// A bounded or early-stopped run leaves labels in the workspace's own tree
// and settled flags, and the next run resets only those. Alternate full,
// bounded and early-stopped runs on one leased workspace, so each run
// follows one that labelled more or fewer nodes: each must match a fresh
// search, and whatever a run did not reach must read as unreached.
TEST(DijkstraWorkspaceTest, SparseResetLeavesNoStaleState) {
  Rng rng(77);
  WaxmanParams params;
  params.node_count = 150;
  const Graph g = waxman_graph(params, rng);
  RoutingOracle oracle(g);
  const RoutingOracle::WorkspaceLease lease = oracle.workspace();
  // Any SPF distance is a consistent potential.
  const ShortestPathTree potential = dijkstra(g, 0);

  std::vector<char> absorbing(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId n = 1; n < g.node_count(); n += 11) {
    absorbing[static_cast<std::size_t>(n)] = 1;
  }
  for (int round = 0; round < 12; ++round) {
    NodeId origin = kNoNode;
    while (origin == kNoNode || absorbing[static_cast<std::size_t>(origin)]) {
      origin = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(g.node_count())));
    }
    const ShortestPathTree fresh = dijkstra_absorbing(g, origin, absorbing);

    expect_same_tree(lease->run(g, origin), dijkstra(g, origin));

    // Bounded, after a run that labelled every node: whatever the bound
    // admits keeps its unbounded label, nothing it excludes is labelled.
    const double limit = potential.dist[static_cast<std::size_t>(origin)] *
                         (1.05 + 0.1 * static_cast<double>(round % 4));
    const ShortestPathTree& bounded = lease->run_absorbing(
        g, origin, absorbing, ExclusionSet{},
        SearchBound{&potential.dist, limit});
    int admitted = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (bounded.reachable(v)) {
        ASSERT_LE(bounded.dist[i] + potential.dist[i], limit);
      } else {
        expect_unlabelled(bounded, v);
      }
      if (!fresh.reachable(v) ||
          fresh.dist[i] + potential.dist[i] > limit * (1.0 - 1e-9)) {
        continue;
      }
      ++admitted;
      ASSERT_EQ(bounded.dist[i], fresh.dist[i]) << "node " << v;
      ASSERT_EQ(bounded.parent[i], fresh.parent[i]) << "node " << v;
      ASSERT_EQ(bounded.hops[i], fresh.hops[i]) << "node " << v;
    }
    EXPECT_GT(admitted, 1);
    EXPECT_LT(admitted, g.node_count());

    // Unbounded after bounded: a fresh run, bit for bit.
    expect_same_tree(lease->run_absorbing(g, origin, absorbing), fresh);

    // Early stop: the nearest absorbing node, ties to the lowest id; the
    // nodes it never labelled read as unreached.
    NodeId nearest = kNoNode;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!absorbing[static_cast<std::size_t>(v)] || !fresh.reachable(v)) {
        continue;
      }
      if (nearest == kNoNode ||
          fresh.dist[static_cast<std::size_t>(v)] <
              fresh.dist[static_cast<std::size_t>(nearest)]) {
        nearest = v;
      }
    }
    EXPECT_EQ(lease->run_to_first_absorbed(g, origin, absorbing), nearest);
    std::vector<char> labelled(static_cast<std::size_t>(g.node_count()), 0);
    for (const NodeId v : lease->labelled()) {
      labelled[static_cast<std::size_t>(v)] = 1;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!labelled[static_cast<std::size_t>(v)]) {
        expect_unlabelled(lease->result(), v);
      }
    }

    // Into a caller-owned tree after the early stop: again fresh.
    ShortestPathTree out;
    lease->run_absorbing_into(g, origin, absorbing, ExclusionSet{}, out);
    expect_same_tree(out, fresh);
  }
}

// ---- Property-style sweeps over random graphs -----------------------------

class DijkstraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraProperty, TriangleInequalityOverEveryLink) {
  Rng rng(GetParam());
  WaxmanParams params;
  params.node_count = 60;
  const Graph g = waxman_graph(params, rng);
  const ShortestPathTree t = dijkstra(g, 0);
  for (const Link& l : g.links()) {
    ASSERT_LE(t.dist[l.a], t.dist[l.b] + l.weight + 1e-9);
    ASSERT_LE(t.dist[l.b], t.dist[l.a] + l.weight + 1e-9);
  }
}

TEST_P(DijkstraProperty, ParentEdgeIsTight) {
  Rng rng(GetParam());
  WaxmanParams params;
  params.node_count = 60;
  const Graph g = waxman_graph(params, rng);
  const ShortestPathTree t = dijkstra(g, 0);
  for (NodeId n = 1; n < g.node_count(); ++n) {
    ASSERT_TRUE(t.reachable(n));
    const NodeId p = t.parent[static_cast<std::size_t>(n)];
    const LinkId pl = t.parent_link[static_cast<std::size_t>(n)];
    ASSERT_NE(p, kNoNode);
    ASSERT_NEAR(t.dist[static_cast<std::size_t>(n)],
                t.dist[static_cast<std::size_t>(p)] + g.link(pl).weight,
                1e-9);
  }
}

TEST_P(DijkstraProperty, PathWeightMatchesDistance) {
  Rng rng(GetParam() ^ 0x9e37ULL);
  WaxmanParams params;
  params.node_count = 40;
  const Graph g = waxman_graph(params, rng);
  const ShortestPathTree t = dijkstra(g, 3 % g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const auto path = t.path_from_source(n);
    double w = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      w += g.link(*g.link_between(path[i - 1], path[i])).weight;
    }
    ASSERT_NEAR(w, t.dist[static_cast<std::size_t>(n)], 1e-9);
  }
}

TEST_P(DijkstraProperty, AbsorbingDistancesNeverBeatPlain) {
  Rng rng(GetParam() ^ 0xabcdULL);
  WaxmanParams params;
  params.node_count = 50;
  const Graph g = waxman_graph(params, rng);
  std::vector<char> absorbing(static_cast<std::size_t>(g.node_count()), 0);
  // Absorb every 5th node (but not the source).
  for (NodeId n = 1; n < g.node_count(); n += 5) {
    absorbing[static_cast<std::size_t>(n)] = 1;
  }
  const ShortestPathTree plain = dijkstra(g, 0);
  const ShortestPathTree absorbed = dijkstra_absorbing(g, 0, absorbing);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    if (!absorbed.reachable(n)) continue;
    ASSERT_GE(absorbed.dist[static_cast<std::size_t>(n)],
              plain.dist[static_cast<std::size_t>(n)] - 1e-9);
  }
}

TEST_P(DijkstraProperty, WorkspaceReuseMatchesFreshRuns) {
  // One workspace recycled across graphs of different sizes, sources,
  // exclusions and absorbing sets must reproduce the free functions
  // exactly — the preallocated buffers may never leak state between runs.
  Rng rng(GetParam() ^ 0x5eedULL);
  DijkstraWorkspace workspace;
  for (const int nodes : {30, 70, 40}) {
    WaxmanParams params;
    params.node_count = nodes;
    const Graph g = waxman_graph(params, rng);
    for (int round = 0; round < 3; ++round) {
      const auto source =
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
      expect_same_tree(workspace.run(g, source), dijkstra(g, source));

      ExclusionSet excl(g);
      excl.ban_link(static_cast<LinkId>(
          rng.below(static_cast<std::uint64_t>(g.link_count()))));
      for (NodeId n = 0; n < g.node_count(); n += 7) {
        if (n != source) excl.ban_node(n);
      }
      expect_same_tree(workspace.run(g, source, excl),
                       dijkstra(g, source, excl));

      std::vector<char> absorbing(static_cast<std::size_t>(nodes), 0);
      for (NodeId n = 0; n < g.node_count(); n += 3) {
        if (n != source) absorbing[static_cast<std::size_t>(n)] = 1;
      }
      expect_same_tree(workspace.run_absorbing(g, source, absorbing),
                       dijkstra_absorbing(g, source, absorbing));
      ShortestPathTree out;
      workspace.run_absorbing_into(g, source, absorbing, ExclusionSet{}, out);
      expect_same_tree(out, dijkstra_absorbing(g, source, absorbing));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace smrp::net
