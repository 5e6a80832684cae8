// Graph::bridge_tree() and the dead-end marks built on it (DESIGN.md §17,
// "Dead-end regions"): bridges against the brute-force rule, the roots,
// and pruned absorbing searches against the free dijkstra_absorbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/graph.hpp"
#include "net/random_graphs.hpp"
#include "net/rng.hpp"
#include "net/shortest_path.hpp"
#include "net/transit_stub.hpp"
#include "testing_topologies.hpp"

namespace smrp::net {
namespace {

/// A bridge joins two components; every other link lies inside one.
bool is_bridge(const BridgeTree& t, const Link& l) {
  return t.component[static_cast<std::size_t>(l.a)] !=
         t.component[static_cast<std::size_t>(l.b)];
}

int bridge_count(const Graph& g) {
  const BridgeTree& t = g.bridge_tree();
  int bridges = 0;
  for (const Link& l : g.links()) bridges += is_bridge(t, l) ? 1 : 0;
  return bridges;
}

/// A graph of `nodes` nodes and unit-weight links.
Graph unit_graph(int nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& ends) {
  std::vector<Link> links;
  for (const auto& [a, b] : ends) links.push_back(Link{a, b, 1.0});
  return Graph(nodes, std::move(links));
}

/// The path 0 – 1 – … – nodes-1.
Graph path_graph(int nodes) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId n = 0; n + 1 < nodes; ++n) ends.emplace_back(n, n + 1);
  return unit_graph(nodes, ends);
}

/// The star with centre 0 and leaves 1..nodes-1.
Graph star_graph(int nodes) {
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId leaf = 1; leaf < nodes; ++leaf) ends.emplace_back(0, leaf);
  return unit_graph(nodes, ends);
}

/// Every structural claim of BridgeTree, checked from first principles.
void expect_valid_bridge_tree(const Graph& g) {
  const BridgeTree& t = g.bridge_tree();
  const auto nodes = static_cast<std::size_t>(g.node_count());
  ASSERT_EQ(t.component.size(), nodes);
  ASSERT_EQ(t.has_child_bridge.size(), nodes);
  const auto comps = static_cast<std::size_t>(t.component_count());
  ASSERT_EQ(t.parent.size(), comps);
  ASSERT_EQ(t.parent_link.size(), comps);

  // A link is a bridge iff removing it adds a connected component.
  const int parts = g.component_count();
  for (LinkId id = 0; id < g.link_count(); ++id) {
    EXPECT_EQ(is_bridge(t, g.link(id)), g.component_count(id) > parts)
        << "link " << id;
  }

  // Components are exactly the classes the non-bridge links join: flood
  // each one without crossing a bridge and compare labels.
  std::vector<std::int32_t> flood(nodes, -1);
  std::int32_t classes = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (flood[static_cast<std::size_t>(s)] >= 0) continue;
    std::vector<NodeId> stack{s};
    flood[static_cast<std::size_t>(s)] = classes;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const Adjacency& adj : g.neighbors(u)) {
        if (is_bridge(t, g.link(adj.link))) continue;
        if (flood[static_cast<std::size_t>(adj.neighbor)] < 0) {
          flood[static_cast<std::size_t>(adj.neighbor)] = classes;
          stack.push_back(adj.neighbor);
        }
      }
    }
    ++classes;
  }
  ASSERT_EQ(static_cast<std::size_t>(classes), comps);
  for (std::size_t a = 0; a < nodes; ++a) {
    ASSERT_GE(t.component[a], 0);
    ASSERT_LT(static_cast<std::size_t>(t.component[a]), comps);
  }
  for (const Link& l : g.links()) {
    EXPECT_EQ(flood[static_cast<std::size_t>(l.a)] ==
                  flood[static_cast<std::size_t>(l.b)],
              !is_bridge(t, l));
  }
  // Same partition: component ids and flood classes map one-to-one.
  std::vector<std::int32_t> class_of(comps, -1);
  for (std::size_t n = 0; n < nodes; ++n) {
    auto& seen = class_of[static_cast<std::size_t>(t.component[n])];
    if (seen < 0) seen = flood[n];
    EXPECT_EQ(seen, flood[n]) << "node " << n;
  }

  // Each bridge is the parent link of exactly one component, and joins it
  // to its parent; one root per connected part.
  int roots = 0;
  std::vector<int> uses(static_cast<std::size_t>(g.link_count()), 0);
  std::vector<char> child_side(nodes, 0);
  for (std::size_t c = 0; c < comps; ++c) {
    if (t.parent[c] == -1) {
      EXPECT_EQ(t.parent_link[c], kNoLink);
      ++roots;
      continue;
    }
    const LinkId b = t.parent_link[c];
    ASSERT_NE(b, kNoLink);
    ++uses[static_cast<std::size_t>(b)];
    const Link& l = g.link(b);
    const std::int32_t ca = t.component[static_cast<std::size_t>(l.a)];
    const std::int32_t cb = t.component[static_cast<std::size_t>(l.b)];
    const auto self = static_cast<std::int32_t>(c);
    EXPECT_TRUE((ca == self && cb == t.parent[c]) ||
                (cb == self && ca == t.parent[c]));
    child_side[static_cast<std::size_t>(ca == self ? l.b : l.a)] = 1;
  }
  EXPECT_EQ(roots, parts);
  for (LinkId id = 0; id < g.link_count(); ++id) {
    EXPECT_EQ(uses[static_cast<std::size_t>(id)],
              is_bridge(t, g.link(id)) ? 1 : 0);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    EXPECT_EQ(t.has_child_bridge[n] != 0, child_side[n] != 0) << "node " << n;
  }

  // The parents form a forest rooted at the component of each part's
  // lowest-numbered node.
  std::vector<char> part_seen(comps, 0);  ///< indexed by root component
  for (std::size_t n = 0; n < nodes; ++n) {
    std::int32_t root = t.component[n];
    for (int depth = 0; t.parent[static_cast<std::size_t>(root)] != -1;
         ++depth) {
      ASSERT_LE(depth, static_cast<int>(comps)) << "parent cycle";
      root = t.parent[static_cast<std::size_t>(root)];
    }
    if (part_seen[static_cast<std::size_t>(root)] == 0) {
      EXPECT_EQ(root, t.component[n]) << "part of node " << n;
      part_seen[static_cast<std::size_t>(root)] = 1;
    }
  }
}

TEST(BridgeTree, PathIsAllBridges) {
  const Graph g = path_graph(5);
  expect_valid_bridge_tree(g);
  const BridgeTree& t = g.bridge_tree();
  EXPECT_EQ(t.component_count(), 5);
  EXPECT_EQ(bridge_count(g), 4);
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[n])],
              t.component[n - 1]);
  }
}

TEST(BridgeTree, CycleHasNoBridge) {
  const Graph g =
      unit_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  expect_valid_bridge_tree(g);
  EXPECT_EQ(g.bridge_tree().component_count(), 1);
  EXPECT_EQ(bridge_count(g), 0);
  EXPECT_EQ(g.bridge_tree().has_child_bridge, std::vector<char>(6, 0));
}

TEST(BridgeTree, StarHangsEveryLeafOffTheCentre) {
  const Graph g = star_graph(8);
  expect_valid_bridge_tree(g);
  const BridgeTree& t = g.bridge_tree();
  EXPECT_EQ(t.component_count(), 8);
  EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[0])], -1);
  EXPECT_TRUE(t.has_child_bridge[0]);
  for (NodeId leaf = 1; leaf < 8; ++leaf) {
    EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[leaf])],
              t.component[0]);
    EXPECT_FALSE(t.has_child_bridge[static_cast<std::size_t>(leaf)]);
  }
}

TEST(BridgeTree, BarbellSplitsAtItsHandle) {
  // Two 4-cliques {0..3} and {4..7} joined by the path 3 – 8 – 4.
  std::vector<std::pair<NodeId, NodeId>> ends;
  for (NodeId base : {0, 4}) {
    for (NodeId a = base; a < base + 4; ++a) {
      for (NodeId b = a + 1; b < base + 4; ++b) ends.emplace_back(a, b);
    }
  }
  const auto left = static_cast<LinkId>(ends.size());
  ends.emplace_back(3, 8);
  const auto right = static_cast<LinkId>(ends.size());
  ends.emplace_back(8, 4);
  const Graph g = unit_graph(9, ends);
  expect_valid_bridge_tree(g);
  const BridgeTree& t = g.bridge_tree();
  EXPECT_EQ(t.component_count(), 3);
  EXPECT_EQ(bridge_count(g), 2);
  EXPECT_TRUE(is_bridge(t, g.link(left)));
  EXPECT_TRUE(is_bridge(t, g.link(right)));
  // Rooted at the left clique: the handle hangs off node 3, the right
  // clique off the handle.
  EXPECT_EQ(t.component[0], t.component[3]);
  EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[8])],
            t.component[3]);
  EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[4])],
            t.component[8]);
  EXPECT_TRUE(t.has_child_bridge[3]);
  EXPECT_TRUE(t.has_child_bridge[8]);
  EXPECT_FALSE(t.has_child_bridge[4]);
}

TEST(BridgeTree, DisconnectedGraphRootsEveryPart) {
  // A path 0–1–2, a triangle 3–4–5 and the isolated node 6.
  const Graph g = unit_graph(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}});
  expect_valid_bridge_tree(g);
  const BridgeTree& t = g.bridge_tree();
  EXPECT_EQ(t.component_count(), 5);
  EXPECT_EQ(std::count(t.parent.begin(), t.parent.end(), -1), 3);
  for (const NodeId root : {0, 3, 6}) {
    EXPECT_EQ(t.parent[static_cast<std::size_t>(t.component[root])], -1);
  }
}

TEST(BridgeTree, EmptyAndSingleNodeGraphs) {
  const Graph empty;
  EXPECT_EQ(empty.bridge_tree().component_count(), 0);
  const Graph one(1, {});
  expect_valid_bridge_tree(one);
  EXPECT_EQ(one.bridge_tree().component_count(), 1);
}

TEST(BridgeTree, BarabasiAlbertTreeIsAllBridges) {
  Rng rng(71);
  BarabasiAlbertParams ba;
  ba.node_count = 300;
  ba.edges_per_node = 1;
  const Graph g = barabasi_albert_graph(ba, rng);
  ASSERT_EQ(g.link_count(), g.node_count() - 1);
  expect_valid_bridge_tree(g);
  EXPECT_EQ(g.bridge_tree().component_count(), g.node_count());
  EXPECT_EQ(bridge_count(g), g.link_count());
}

TEST(BridgeTree, TransitStubHangsEveryStubBelowItsAccessLink) {
  for (const double stub_alpha : {0.9, 0.05}) {
    Rng rng(stub_alpha > 0.5 ? 5 : 6);
    TransitStubParams ts;
    ts.transit_nodes = 8;
    ts.stubs_per_transit = 3;
    ts.stub_size = 6;
    ts.stub_alpha = stub_alpha;
    const TransitStubTopology topo = generate_transit_stub(ts, rng);
    const Graph& g = topo.graph;
    expect_valid_bridge_tree(g);
    const BridgeTree& t = g.bridge_tree();
    for (DomainId d = 1; d < topo.domain_count(); ++d) {
      // The stub's first node is the child end of its access link, and
      // every node of the stub lies below that bridge.
      const NodeId head = topo.nodes_of_domain[static_cast<std::size_t>(d)][0];
      const std::int32_t top = t.component[static_cast<std::size_t>(head)];
      const LinkId access =
          g.link_between(topo.gateway_of_domain[static_cast<std::size_t>(d)],
                         head)
              .value();
      EXPECT_EQ(t.parent_link[static_cast<std::size_t>(top)], access);
      for (const NodeId n : topo.nodes_of_domain[static_cast<std::size_t>(d)]) {
        std::int32_t c = t.component[static_cast<std::size_t>(n)];
        while (c != -1 && c != top) c = t.parent[static_cast<std::size_t>(c)];
        EXPECT_EQ(c, top) << "node " << n << " escapes its stub";
      }
    }
  }
}

// Random bridge-rich graphs against the brute-force bridge rule.
TEST(BridgeTree, MatchesBruteForceOnBridgeRichGraphs) {
  int bridges = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 104729);
    for (const Graph& g : testing::bridge_rich_graphs(rng)) {
      expect_valid_bridge_tree(g);
      bridges += bridge_count(g);
    }
    // A sparse random graph, possibly disconnected.
    std::vector<std::pair<NodeId, NodeId>> ends;
    for (int k = 0; k < 45; ++k) {
      const auto a = static_cast<NodeId>(rng.below(40));
      const auto b = static_cast<NodeId>(rng.below(40));
      const auto same = [a, b](const std::pair<NodeId, NodeId>& e) {
        return (e.first == a && e.second == b) ||
               (e.first == b && e.second == a);
      };
      if (a != b && std::none_of(ends.begin(), ends.end(), same)) {
        ends.emplace_back(a, b);
      }
    }
    expect_valid_bridge_tree(unit_graph(40, ends));
  }
  EXPECT_GT(bridges, 1000);
}

TEST(DeadEndMarks, MarkWalksUpAndResetUndoes) {
  // Star: centre 0, leaves 1..5 each their own component.
  const Graph g = star_graph(6);
  DeadEndMarks marks;
  EXPECT_THROW(marks.mark(0), std::out_of_range);
  marks.reset(g);
  marks.mark(3);
  EXPECT_TRUE(marks.covered(3));
  EXPECT_TRUE(marks.covered(0));  // the root, on 3's way up
  EXPECT_FALSE(marks.covered(1));
  EXPECT_THROW(marks.mark(6), std::out_of_range);
  marks.reset(g);
  for (NodeId n = 0; n < 6; ++n) EXPECT_FALSE(marks.covered(n));
}

TEST(DeadEndMarks, PrunedRunSkipsUnmarkedLeavesOnly) {
  const Graph g = star_graph(6);
  std::vector<char> absorbing(6, 0);
  absorbing[4] = 1;
  DijkstraWorkspace ws;
  DeadEndMarks& marks = ws.dead_end_marks(g);
  // The source must be covered, and the marks must belong to the graph.
  EXPECT_THROW((void)ws.run_absorbing(g, 2, absorbing, {}, {}, &marks),
               std::invalid_argument);
  marks.mark(2);
  marks.mark(4);
  const Graph other = g;
  EXPECT_THROW((void)ws.run_absorbing(other, 2, absorbing, {}, {}, &marks),
               std::invalid_argument);

  const ShortestPathTree& pruned = ws.run_absorbing(g, 2, absorbing, {}, {},
                                                    &marks);
  std::vector<NodeId> labelled = ws.labelled();
  std::sort(labelled.begin(), labelled.end());
  EXPECT_EQ(labelled, (std::vector<NodeId>{0, 2, 4}));
  const ShortestPathTree full = dijkstra_absorbing(g, 2, absorbing);
  for (const NodeId n : {0, 2, 4}) {
    EXPECT_EQ(pruned.dist[static_cast<std::size_t>(n)],
              full.dist[static_cast<std::size_t>(n)]);
    EXPECT_EQ(pruned.parent[static_cast<std::size_t>(n)],
              full.parent[static_cast<std::size_t>(n)]);
  }
  EXPECT_EQ(ws.run_to_first_absorbed(g, 2, absorbing, {}, &marks), 4);
}

// Pruned absorbing runs on random bridge-rich graphs: every label a
// covered node gets is the free function's, bit for bit; no uncovered
// node is labelled; and the pruning really skips nodes.
TEST(DeadEndMarks, PrunedRunsMatchTheFreeSearchOnCoveredNodes) {
  std::int64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 7411);
    for (const Graph& g : testing::bridge_rich_graphs(rng)) {
      const auto n = static_cast<std::uint64_t>(g.node_count());
      DijkstraWorkspace ws;
      for (int trial = 0; trial < 10; ++trial) {
        std::vector<char> absorbing(static_cast<std::size_t>(n), 0);
        const auto source = static_cast<NodeId>(rng.below(n));
        DeadEndMarks& marks = ws.dead_end_marks(g);
        marks.mark(source);
        for (int k = 0; k < 4; ++k) {
          const auto t = static_cast<NodeId>(rng.below(n));
          if (t == source) continue;
          absorbing[static_cast<std::size_t>(t)] = 1;
          marks.mark(t);
        }
        ExclusionSet excluded(g);
        if (trial % 2 == 1) {
          excluded.ban_link(static_cast<LinkId>(
              rng.below(static_cast<std::uint64_t>(g.link_count()))));
        }
        const ShortestPathTree full =
            dijkstra_absorbing(g, source, absorbing, excluded);
        const ShortestPathTree& pruned =
            ws.run_absorbing(g, source, absorbing, excluded, {}, &marks);
        for (NodeId v = 0; v < g.node_count(); ++v) {
          const auto i = static_cast<std::size_t>(v);
          if (!marks.covered(v)) {
            EXPECT_FALSE(pruned.reachable(v)) << "node " << v;
            skipped += full.reachable(v) ? 1 : 0;
            continue;
          }
          EXPECT_EQ(pruned.dist[i], full.dist[i]) << "node " << v;
          EXPECT_EQ(pruned.hops[i], full.hops[i]) << "node " << v;
          EXPECT_EQ(pruned.parent[i], full.parent[i]) << "node " << v;
          EXPECT_EQ(pruned.parent_link[i], full.parent_link[i]) << "node " << v;
        }
      }
    }
  }
  EXPECT_GT(skipped, 1000) << "the marks never pruned";
}

}  // namespace
}  // namespace smrp::net
