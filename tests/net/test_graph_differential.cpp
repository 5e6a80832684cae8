// Differential property suite for the CSR graph layout (DESIGN.md §14).
//
// The legacy substrate stored one std::vector<Adjacency> per node, filled
// by push_back as each link was added. The CSR layout must be
// observationally identical: same neighbor enumeration order per node,
// same link ids, same SPF trees, same oracle cache behaviour. The
// reference model here IS the legacy layout (per-node vectors built by the
// same insertion rule), so any divergence is a real layout bug, not a test
// artifact.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/graph.hpp"
#include "net/random_graphs.hpp"
#include "net/rng.hpp"
#include "net/routing_oracle.hpp"
#include "net/shortest_path.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"

namespace smrp::net {
namespace {

/// The retired per-node-vector layout, rebuilt from the link list by the
/// exact legacy insertion rule (append to both endpoints in link-id order).
std::vector<std::vector<Adjacency>> legacy_adjacency(const Graph& g) {
  std::vector<std::vector<Adjacency>> adj(
      static_cast<std::size_t>(g.node_count()));
  for (LinkId id = 0; id < g.link_count(); ++id) {
    const Link& l = g.link(id);
    adj[static_cast<std::size_t>(l.a)].push_back(Adjacency{l.b, id});
    adj[static_cast<std::size_t>(l.b)].push_back(Adjacency{l.a, id});
  }
  return adj;
}

void expect_csr_matches_legacy(const Graph& g) {
  const auto legacy = legacy_adjacency(g);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const auto csr = g.neighbors(n);
    const auto& ref = legacy[static_cast<std::size_t>(n)];
    ASSERT_EQ(csr.size(), ref.size()) << "node " << n;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(csr[i].neighbor, ref[i].neighbor)
          << "node " << n << " slot " << i;
      EXPECT_EQ(csr[i].link, ref[i].link) << "node " << n << " slot " << i;
    }
    EXPECT_EQ(g.degree(n), static_cast<int>(ref.size()));
  }
}

TEST(GraphDifferential, CsrMatchesLegacyOrderOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    WaxmanParams wp;
    wp.node_count = 60;
    expect_csr_matches_legacy(waxman_graph(wp, rng));

    ErdosRenyiParams ep;
    ep.node_count = 50;
    expect_csr_matches_legacy(erdos_renyi_graph(ep, rng));

    BarabasiAlbertParams bp;
    bp.node_count = 80;
    bp.edges_per_node = 3;
    expect_csr_matches_legacy(barabasi_albert_graph(bp, rng));

    TransitStubParams tp;
    expect_csr_matches_legacy(generate_transit_stub(tp, rng).graph);
  }
}

TEST(GraphDifferential, SpfBitIdenticalOnCsr) {
  // SPF consumes the graph exclusively through neighbors(); with the
  // enumeration order pinned above, trees must match a run over an
  // explicitly legacy-ordered rebuild of the same topology.
  Rng rng(7);
  WaxmanParams wp;
  wp.node_count = 80;
  const Graph g = waxman_graph(wp, rng);

  // A graph built again from the same link list: same CSR, same trees.
  const Graph bulk(g.node_count(),
                   std::vector<Link>(g.links().begin(), g.links().end()));

  for (NodeId src = 0; src < g.node_count(); src += 7) {
    const ShortestPathTree a = dijkstra(g, src);
    const ShortestPathTree b = dijkstra(bulk, src);
    EXPECT_EQ(a.dist, b.dist);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.parent_link, b.parent_link);
    EXPECT_EQ(a.hops, b.hops);
  }
}

TEST(GraphDifferential, OracleCountersUnchangedByBulkConstruction) {
  Rng rng(11);
  WaxmanParams wp;
  wp.node_count = 40;
  const Graph g = waxman_graph(wp, rng);
  const Graph bulk(g.node_count(),
                   std::vector<Link>(g.links().begin(), g.links().end()));

  RoutingOracle incremental_oracle(g);
  RoutingOracle bulk_oracle(bulk);
  ExclusionSet none;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId src = 0; src < g.node_count(); src += 5) {
      const auto a = incremental_oracle.spf(src, none);
      const auto b = bulk_oracle.spf(src, none);
      EXPECT_EQ(a->dist, b->dist);
      EXPECT_EQ(a->parent, b->parent);
    }
  }
  const auto sa = incremental_oracle.stats();
  const auto sb = bulk_oracle.stats();
  EXPECT_EQ(sa.lookups, sb.lookups);
  EXPECT_EQ(sa.cache_hits, sb.cache_hits);
  EXPECT_EQ(sa.cache_misses, sb.cache_misses);
}

TEST(GraphDifferential, FromLinksValidatesLikeAddLink) {
  const Graph g(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  EXPECT_EQ(g.link_count(), 2);
  EXPECT_EQ(g.link_between(1, 0), std::optional<LinkId>{0});

  EXPECT_THROW(Graph(3, {{0, 3, 1.0}}), std::out_of_range);
  EXPECT_THROW(Graph(3, {{1, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1, 1.0}, {1, 0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(Graph(-1, {}), std::invalid_argument);
}

// -- Satellite: duplicate checks on hub graphs -------------------------------
//
// Checking each new link with link_between — a linear adjacency scan —
// made hub-heavy construction cost O(Σ deg²) comparisons. The
// constructor's stamp scan checks each link once by construction; these
// build the hub graphs that scan exists for, in both link orientations.

TEST(GraphDuplicateCheck, OneProbePerInsertionOnHubGraphs) {
  constexpr int kSpokes = 50'000;
  std::vector<Link> links;
  for (NodeId spoke = 1; spoke <= kSpokes; ++spoke) {
    links.push_back(Link{0, spoke, 1.0});
  }
  const Graph g(kSpokes + 1, std::move(links));
  EXPECT_EQ(g.degree(0), kSpokes);
}

TEST(GraphDuplicateCheck, BulkPathCountsIdentically) {
  // The same star with the hub listed second in every link.
  std::vector<Link> links;
  constexpr int kSpokes = 10'000;
  links.reserve(kSpokes);
  for (NodeId spoke = 1; spoke <= kSpokes; ++spoke) {
    links.push_back(Link{spoke, 0, 1.0});
  }
  const Graph g(kSpokes + 1, std::move(links));
  EXPECT_EQ(g.degree(0), kSpokes);
}

// -- Satellite: reachable_count_from / connectivity contract ----------------

TEST(GraphComponents, ReachableCountReturnsTheCount) {
  const Graph g(5, {{0, 1, 1.0}, {1, 2, 1.0}, {3, 4, 1.0}});
  EXPECT_EQ(g.reachable_count_from(0), 3);
  EXPECT_EQ(g.reachable_count_from(2), 3);
  EXPECT_EQ(g.reachable_count_from(3), 2);
  const LinkId mid = g.link_between(1, 2).value();
  EXPECT_EQ(g.reachable_count_from(0, mid), 2);
  EXPECT_EQ(g.reachable_count_from(2, mid), 1);
}

TEST(GraphComponents, ReachableCountValidatesItsArguments) {
  const Graph g(2, {{0, 1, 1.0}});
  EXPECT_THROW((void)g.reachable_count_from(-1), std::out_of_range);
  EXPECT_THROW((void)g.reachable_count_from(2), std::out_of_range);
  EXPECT_THROW((void)g.reachable_count_from(0, 5), std::invalid_argument);
  Graph empty;
  EXPECT_THROW((void)empty.reachable_count_from(0), std::out_of_range);
}

TEST(GraphComponents, ComponentCountMachinery) {
  const Graph pairs(6, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(pairs.component_count(), 4);  // {0,1} {2,3} {4} {5}
  const Graph g(6, {{0, 1, 1.0}, {2, 3, 1.0}, {1, 2, 1.0}, {4, 5, 1.0}});
  EXPECT_EQ(g.component_count(), 2);
  const LinkId bridge = g.link_between(1, 2).value();
  EXPECT_EQ(g.component_count(bridge), 3);
  EXPECT_EQ(Graph{}.component_count(), 0);
}

TEST(GraphComponents, ConnectedHandlesDegenerateGraphs) {
  // The legacy implementation silently pivoted on node 0; the component
  // machinery has no pivot, so empty and single-node graphs are exact.
  EXPECT_TRUE(Graph{}.connected());
  EXPECT_TRUE(Graph(1, {}).connected());
  EXPECT_FALSE(Graph(2, {}).connected());
  EXPECT_TRUE(Graph{}.connected_without(kNoLink));
}

}  // namespace
}  // namespace smrp::net
