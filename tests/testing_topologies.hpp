// Shared fixture topologies, including concrete realisations of the
// paper's illustrative figures. Node letters map to dense ids.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/random_graphs.hpp"
#include "net/rng.hpp"
#include "net/transit_stub.hpp"

namespace smrp::testing {

using net::Graph;
using net::NodeId;

/// Figure 1/2 topology (5 nodes). Weights are chosen so that every claim
/// the paper makes about the figure holds:
///  * SPF multicast tree for members {C, D}: S–A–C and S–A–D,
///  * SHR(S,C) = 3 on that tree (Eq. 1 example in §3.1),
///  * after L_AD fails, D's local detour is D→C (RD = 2) and the
///    SPF/global detour is D→B→S (RD = 3, longer),
///  * the disjoint Figure-2 tree routes D via B.
struct Fig1Topology {
  static constexpr NodeId S = 0;
  static constexpr NodeId A = 1;
  static constexpr NodeId B = 2;
  static constexpr NodeId C = 3;
  static constexpr NodeId D = 4;

  Graph graph{5};
  net::LinkId SA, SB, AC, AD, BD, CD;

  Fig1Topology() {
    SA = graph.add_link(S, A, 1.0);
    SB = graph.add_link(S, B, 1.0);
    AC = graph.add_link(A, C, 1.0);
    AD = graph.add_link(A, D, 1.0);
    BD = graph.add_link(B, D, 2.0);
    CD = graph.add_link(C, D, 2.0);
  }
};

/// Figure 4/5 topology (8 nodes). Weights are chosen so that the paper's
/// entire join-and-reshape walkthrough holds with D_thresh = 0.3:
///  * E (first member) joins along its SPF path E→D→A→S; SHR(S,D) = 2,
///  * G prefers merging at the source via G→B→S (SHR 0) even though
///    G→F→D→A→S is shorter end-to-end,
///  * F joins F→D→A→S; F→B→S and F→G→B→S break the delay bound;
///    afterwards SHR(S,D) = 4,
///  * E's Condition-I reshape then moves it to E→C→A→S (merge node A).
struct Fig4Topology {
  static constexpr NodeId S = 0;
  static constexpr NodeId A = 1;
  static constexpr NodeId B = 2;
  static constexpr NodeId C = 3;
  static constexpr NodeId D = 4;
  static constexpr NodeId E = 5;
  static constexpr NodeId F = 6;
  static constexpr NodeId G = 7;

  Graph graph{8};
  net::LinkId SA, AD, DE, DF, FG, GB, BS, AC, CE, FB;

  Fig4Topology() {
    SA = graph.add_link(S, A, 2.0);
    AD = graph.add_link(A, D, 1.0);
    DE = graph.add_link(D, E, 1.0);
    DF = graph.add_link(D, F, 1.0);
    FG = graph.add_link(F, G, 1.0);
    GB = graph.add_link(G, B, 3.0);
    BS = graph.add_link(B, S, 3.0);
    AC = graph.add_link(A, C, 1.0);
    CE = graph.add_link(C, E, 1.2);
    FB = graph.add_link(F, B, 4.0);
  }
};

/// A 3x3 grid with unit weights: predictable shortest paths for exercising
/// algorithms where hand-checking matters.
///
///   0 - 1 - 2
///   |   |   |
///   3 - 4 - 5
///   |   |   |
///   6 - 7 - 8
inline Graph grid3x3() {
  Graph g(9);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const NodeId n = r * 3 + c;
      if (c < 2) g.add_link(n, n + 1, 1.0);
      if (r < 2) g.add_link(n, n + 3, 1.0);
    }
  }
  return g;
}

/// A random tree (each node hangs off a uniformly drawn earlier one) plus
/// up to `chords` short chords, each from a node to its grandparent or
/// great-grandparent: a few triangles and squares, and every other link a
/// bridge. Weights are uniform in [1, 10).
inline Graph tree_with_chords(int nodes, int chords, net::Rng& rng) {
  Graph g(nodes);
  std::vector<NodeId> parent(static_cast<std::size_t>(nodes), net::kNoNode);
  for (NodeId v = 1; v < nodes; ++v) {
    parent[static_cast<std::size_t>(v)] =
        static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(v)));
    g.add_link(v, parent[static_cast<std::size_t>(v)], rng.uniform(1.0, 10.0));
  }
  // A node's own chord is the only link between it and that ancestor.
  std::vector<char> has_chord(static_cast<std::size_t>(nodes), 0);
  for (int k = 0; k < chords && nodes > 1; ++k) {
    const auto v = static_cast<NodeId>(
        1 + rng.below(static_cast<std::uint64_t>(nodes - 1)));
    NodeId up = v;
    const int climb = 2 + static_cast<int>(rng.below(2));
    for (int i = 0; i < climb && up != net::kNoNode; ++i) {
      up = parent[static_cast<std::size_t>(up)];
    }
    if (up == net::kNoNode || has_chord[static_cast<std::size_t>(v)]) continue;
    has_chord[static_cast<std::size_t>(v)] = 1;
    g.add_link(v, up, rng.uniform(1.0, 10.0));
  }
  return g;
}

/// Bridge-rich graphs for the dead-end pruning tests (DESIGN.md §17),
/// each drawn from `rng`: a random tree with short chords, a
/// Barabási–Albert m = 1 graph (a tree), and a transit-stub graph whose
/// 1–7-node stubs are sparse (stub α = 0.05), so each hangs off its access
/// bridge with further bridges inside.
inline std::vector<Graph> bridge_rich_graphs(net::Rng& rng) {
  std::vector<Graph> out;
  out.push_back(tree_with_chords(
      60 + static_cast<int>(rng.below(60)), 12, rng));
  net::BarabasiAlbertParams ba;
  ba.node_count = 50 + static_cast<int>(rng.below(50));
  ba.edges_per_node = 1;
  out.push_back(net::barabasi_albert_graph(ba, rng));
  net::TransitStubParams ts;
  ts.transit_nodes = 4 + static_cast<int>(rng.below(4));
  ts.stubs_per_transit = 2 + static_cast<int>(rng.below(3));
  ts.stub_size = 1 + static_cast<int>(rng.below(7));
  ts.stub_alpha = 0.05;
  out.push_back(net::generate_transit_stub(ts, rng).graph);
  return out;
}

}  // namespace smrp::testing
