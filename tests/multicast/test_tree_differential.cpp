// Differential property suite for the sparse MulticastTree (DESIGN.md
// §14): the production tree and the retired per-node-struct
// implementation (reference_tree.hpp) are driven through identical
// operation sequences and must agree on every observable after every
// mutation — roles, parents, child *order* (message send order in the
// distributed engine depends on it), N_R, SHR, sever results, and the id
// order of every listing. Child-order agreement is the load-bearing
// claim: it is what keeps the storage layout invisible to the
// byte-determinism gates on telemetry digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "multicast/reference_tree.hpp"
#include "multicast/tree.hpp"
#include "net/paths.hpp"
#include "net/rng.hpp"
#include "net/shortest_path.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"

namespace smrp::mcast {
namespace {

using testing::ReferenceTree;

void expect_identical(const net::Graph& g, const MulticastTree& tree,
                      const ReferenceTree& ref, int step) {
  ASSERT_EQ(tree.member_count(), ref.member_count()) << "step " << step;
  ASSERT_EQ(tree.on_tree_count(), ref.on_tree_count()) << "step " << step;
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    ASSERT_EQ(tree.role(n), ref.role(n)) << "node " << n << " step " << step;
    ASSERT_EQ(tree.parent(n), ref.parent(n)) << "node " << n << " step " << step;
    ASSERT_EQ(tree.parent_link(n), ref.parent_link(n))
        << "node " << n << " step " << step;
    ASSERT_EQ(tree.subtree_members(n), ref.subtree_members(n))
        << "node " << n << " step " << step;
    // The order of the child walk must match the legacy vectors exactly.
    ASSERT_EQ(tree.children(n).to_vector(), ref.children(n))
        << "node " << n << " step " << step;
    if (ref.on_tree(n)) {
      ASSERT_EQ(tree.shr(n), ref.shr(n)) << "node " << n << " step " << step;
    }
  }
  ASSERT_EQ(tree.members(), ref.members()) << "step " << step;
  std::vector<net::NodeId> on_tree;
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    if (ref.on_tree(n)) on_tree.push_back(n);
  }
  ASSERT_EQ(tree.on_tree_nodes(), on_tree) << "step " << step;
  ASSERT_EQ(tree.tree_links(), ref.tree_links()) << "step " << step;
}

/// SPF-path graft onto whatever part of the tree the path first touches.
/// Both trees see the exact same path vector.
std::vector<net::NodeId> graft_path(const net::ShortestPathTree& spf,
                                    const ReferenceTree& ref,
                                    net::NodeId member) {
  std::vector<net::NodeId> path;
  for (net::NodeId cur = member;;
       cur = spf.parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (ref.on_tree(cur)) break;
  }
  return path;
}

/// How long a differential run churns, and what it does besides.
struct ChurnPlan {
  int steps = 400;
  /// Leading steps that only join, so the tree grows large before churn.
  int grow_steps = 0;
  /// Both trees are copied after the first completed step from this one
  /// on; the copies must keep that snapshot while the originals churn on.
  /// -1: no copy.
  int copy_at = -1;
};

/// Drives the production tree and the reference through identical random
/// joins, leaves, one-hop reshapes, tree-link failures and node failures,
/// and checks every observable after every step. `peak` receives the
/// largest on-tree count reached.
void churn_in_lockstep(const net::Graph& g, net::NodeId source, net::Rng& rng,
                       const ChurnPlan& plan, int& peak) {
  const net::ShortestPathTree spf = net::dijkstra(g, source);

  MulticastTree tree(g, source);
  ReferenceTree ref(g, source);
  std::optional<MulticastTree> tree_copy;
  std::optional<ReferenceTree> ref_copy;
  std::vector<net::NodeId> joined;
  peak = tree.on_tree_count();

  for (int step = 0; step < plan.steps; ++step) {
    const double dice = rng.uniform();
    if (step < plan.grow_steps || dice < 0.45 || joined.empty()) {
      // Join.
      const auto member =
          static_cast<net::NodeId>(1 + rng.below(g.node_count() - 1));
      if (ref.is_member(member)) continue;
      const std::vector<net::NodeId> path =
          ref.on_tree(member) ? std::vector<net::NodeId>{member}
                              : graft_path(spf, ref, member);
      tree.graft(member, net::path_links(g, path));
      ref.graft(member, path);
      joined.push_back(member);
    } else if (dice < 0.65) {
      // Leave.
      const std::size_t idx = rng.below(joined.size());
      tree.leave(joined[idx]);
      ref.leave(joined[idx]);
      joined.erase(joined.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.80) {
      // Reshape: move a random on-tree node to a random adjacent on-tree
      // node outside its own subtree (the one-hop move every reshaping
      // step in the protocol reduces to).
      const auto on_tree = tree.on_tree_nodes();
      const net::NodeId n =
          on_tree[rng.below(on_tree.size())];
      if (n == source) continue;
      net::NodeId merge = net::kNoNode;
      net::LinkId merge_link = net::kNoLink;
      for (const auto [nbr, link] : g.neighbors(n)) {
        if (ref.on_tree(nbr) && !ref.is_ancestor_or_self(n, nbr) &&
            nbr != ref.parent(n)) {
          merge = nbr;
          merge_link = link;
          break;
        }
      }
      if (merge == net::kNoNode) continue;
      // Cross-check the §3.2.3 SHR adjustment on the candidate first.
      if (ref.is_member(n)) {
        ASSERT_EQ(tree.shr_excluding_subtree(merge, n),
                  ref.shr_excluding_subtree(merge, n))
            << "step " << step;
      }
      tree.move_subtree(n, std::array{merge_link});
      ref.move_subtree(n, {n, merge});
    } else if (dice < 0.92) {
      // Link failure on a random tree link.
      const auto links = ref.tree_links();
      if (links.empty()) continue;
      const net::LinkId dead = links[rng.below(links.size())];
      ASSERT_EQ(tree.surviving_after_link(dead), ref.surviving_after_link(dead))
          << "step " << step;
      const auto lost_tree = tree.sever(dead);
      const auto lost_ref = ref.sever(dead);
      ASSERT_EQ(lost_tree, lost_ref) << "step " << step;
      for (const net::NodeId m : lost_tree) {
        joined.erase(std::remove(joined.begin(), joined.end(), m),
                     joined.end());
      }
    } else {
      // Node failure on a random non-source on-tree node.
      const auto on_tree = tree.on_tree_nodes();
      const net::NodeId dead = on_tree[rng.below(on_tree.size())];
      if (dead == source) continue;
      const auto lost_tree = tree.sever_node(dead);
      const auto lost_ref = ref.sever_node(dead);
      ASSERT_EQ(lost_tree, lost_ref) << "step " << step;
      joined.erase(std::remove(joined.begin(), joined.end(), dead),
                   joined.end());
      for (const net::NodeId m : lost_tree) {
        joined.erase(std::remove(joined.begin(), joined.end(), m),
                     joined.end());
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_identical(g, tree, ref, step));
    ASSERT_NO_THROW(tree.validate()) << "step " << step;
    peak = std::max(peak, tree.on_tree_count());
    if (plan.copy_at >= 0 && step >= plan.copy_at && !tree_copy) {
      tree_copy.emplace(tree);
      ref_copy.emplace(ref);
    }
  }
  if (plan.copy_at >= 0) {
    // The originals churned on; the copies must not have noticed.
    ASSERT_TRUE(tree_copy.has_value()) << "no step completed after copy_at";
    ASSERT_NO_FATAL_FAILURE(
        expect_identical(g, *tree_copy, *ref_copy, plan.steps));
    ASSERT_NO_THROW(tree_copy->validate());
  }
}

class TreeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeDifferential, SoaMatchesLegacyUnderChurnAndFailures) {
  net::Rng rng(GetParam());
  net::WaxmanParams wax;
  wax.node_count = 60;
  const net::Graph g = net::waxman_graph(wax, rng);
  int peak = 0;
  churn_in_lockstep(g, 0, rng, ChurnPlan{}, peak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeDifferential,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// A 1,020-node transit-stub graph and a tree of hundreds of nodes: the
// node→slot index doubles several times, leaves and failures free slots
// that later joins reuse, and backward-shift deletions wrap around the
// table. A copy taken mid-run must keep its snapshot while the original
// churns on.
TEST(TreeDifferentialScale, TransitStubChurnWithCopy) {
  net::Rng rng(2005);
  net::TransitStubParams ts;
  ts.transit_nodes = 20;
  ts.stubs_per_transit = 5;
  ts.stub_size = 10;
  const net::TransitStubTopology topo = net::generate_transit_stub(ts, rng);
  ASSERT_GE(topo.graph.node_count(), 1000);
  int peak = 0;
  ASSERT_NO_FATAL_FAILURE(churn_in_lockstep(
      topo.graph, 0, rng,
      ChurnPlan{.steps = 2000, .grow_steps = 400, .copy_at = 1000}, peak));
  EXPECT_GT(peak, 256) << "the tree never grew the index past 512 cells";
}

TEST(TreeDifferentialEdge, SourceNodeFailureClearsBothIdentically) {
  net::Rng rng(7);
  net::WaxmanParams wax;
  wax.node_count = 30;
  const net::Graph g = net::waxman_graph(wax, rng);
  const net::ShortestPathTree spf = net::dijkstra(g, 0);
  MulticastTree tree(g, 0);
  ReferenceTree ref(g, 0);
  for (net::NodeId m = 1; m < 10; ++m) {
    if (ref.is_member(m)) continue;
    const auto path = ref.on_tree(m) ? std::vector<net::NodeId>{m}
                                     : graft_path(spf, ref, m);
    tree.graft(m, net::path_links(g, path));
    ref.graft(m, path);
  }
  ASSERT_EQ(tree.sever_node(0), ref.sever_node(0));
  EXPECT_EQ(tree.on_tree_count(), 0);
  EXPECT_EQ(ref.on_tree_count(), 0);
  EXPECT_EQ(tree.member_count(), ref.member_count());
}

}  // namespace
}  // namespace smrp::mcast
