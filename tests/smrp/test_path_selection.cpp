#include "smrp/path_selection.hpp"

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "net/routing_oracle.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "smrp/tree_builder.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::Fig1Topology;
using testing::Fig4Topology;

mcast::MulticastTree fig1_tree(const Fig1Topology& fig) {
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.C, net::path_links(fig.graph, {fig.C, fig.A, fig.S}));
  tree.graft(fig.D, net::path_links(fig.graph, {fig.D, fig.A}));
  return tree;
}

TEST(EnumerateCandidates, OneCandidatePerReachableMergeNode) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  SmrpConfig config;
  const double spf = 2.0;  // S–B = 1 then B... B joins: SPF(S,B) = 1
  const auto candidates =
      enumerate_candidates(fig.graph, tree, fig.B, 1.0, config);
  // B can reach S directly and D directly; A and C only through other
  // on-tree nodes (avoid-tree mode forbids that).
  ASSERT_EQ(candidates.size(), 2u);
  (void)spf;
  for (const auto& c : candidates) {
    EXPECT_TRUE(c.merge_node == fig.S || c.merge_node == fig.D);
    EXPECT_EQ(c.graft.front(), fig.B);
    EXPECT_EQ(c.graft.back(), c.merge_node);
  }
}

TEST(EnumerateCandidates, GraftNeverCrossesTreeEarly) {
  const Fig4Topology fig;
  mcast::MulticastTree tree(fig.graph, fig.S);
  tree.graft(fig.E, net::path_links(fig.graph, {fig.E, fig.D, fig.A, fig.S}));
  SmrpConfig config;
  const auto candidates =
      enumerate_candidates(fig.graph, tree, fig.G, 5.0, config);
  for (const auto& c : candidates) {
    for (std::size_t i = 0; i + 1 < c.graft.size(); ++i) {
      EXPECT_FALSE(tree.on_tree(c.graft[i]) && c.graft[i] != fig.G)
          << "graft to " << c.merge_node << " crosses the tree early";
    }
    EXPECT_NEAR(net::path_weight(fig.graph, c.graft), c.graft_delay, 1e-9);
    EXPECT_NEAR(c.total_delay,
                c.graft_delay + tree.delay_to_source(c.merge_node), 1e-9);
  }
}

TEST(EnumerateCandidates, OnTreeJoinerJoinsInPlace) {
  const Fig1Topology fig;
  const mcast::MulticastTree tree = fig1_tree(fig);
  SmrpConfig config;
  const auto candidates =
      enumerate_candidates(fig.graph, tree, fig.A, 1.0, config);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].merge_node, fig.A);
  EXPECT_EQ(candidates[0].graft, (std::vector<net::NodeId>{fig.A}));
  EXPECT_DOUBLE_EQ(candidates[0].graft_delay, 0.0);
}

TEST(SelectPath, PicksMinimumShr) {
  SmrpConfig config;
  std::vector<JoinCandidate> candidates(2);
  candidates[0].merge_node = 1;
  candidates[0].shr = 5;
  candidates[0].total_delay = 1.0;
  candidates[0].within_bound = true;
  candidates[1].merge_node = 2;
  candidates[1].shr = 2;
  candidates[1].total_delay = 3.0;
  candidates[1].within_bound = true;
  const auto sel = select_path(candidates, 10.0, config);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->chosen.merge_node, 2);
  EXPECT_FALSE(sel->used_fallback);
}

TEST(SelectPath, BreaksShrTiesByDelay) {
  SmrpConfig config;
  std::vector<JoinCandidate> candidates(2);
  candidates[0].merge_node = 1;
  candidates[0].shr = 2;
  candidates[0].total_delay = 4.0;
  candidates[0].within_bound = true;
  candidates[1].merge_node = 2;
  candidates[1].shr = 2;
  candidates[1].total_delay = 3.0;
  candidates[1].within_bound = true;
  const auto sel = select_path(candidates, 10.0, config);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->chosen.merge_node, 2);
}

TEST(SelectPath, FallsBackToMinDelayWhenNothingFits) {
  SmrpConfig config;
  std::vector<JoinCandidate> candidates(2);
  candidates[0].merge_node = 1;
  candidates[0].shr = 0;
  candidates[0].total_delay = 9.0;
  candidates[0].within_bound = false;
  candidates[1].merge_node = 2;
  candidates[1].shr = 7;
  candidates[1].total_delay = 8.0;
  candidates[1].within_bound = false;
  const auto sel = select_path(candidates, 1.0, config);
  ASSERT_TRUE(sel.has_value());
  EXPECT_TRUE(sel->used_fallback);
  EXPECT_EQ(sel->chosen.merge_node, 2);  // min delay, SHR ignored
}

TEST(SelectPath, FallbackCanBeDisabled) {
  SmrpConfig config;
  config.fallback_when_infeasible = false;
  std::vector<JoinCandidate> candidates(1);
  candidates[0].within_bound = false;
  EXPECT_FALSE(select_path(candidates, 1.0, config).has_value());
  EXPECT_FALSE(select_path({}, 1.0, config).has_value());
}

TEST(SelectPath, EmptyCandidateListYieldsNothing) {
  SmrpConfig config;
  EXPECT_FALSE(select_path({}, 1.0, config).has_value());
}

// The criterion as a whole, on random instances: the chosen merge node
// must have minimal SHR among bound-satisfying candidates.
class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionProperty, ChosenMergeMinimisesShrWithinBound) {
  net::Rng rng(GetParam());
  net::WaxmanParams wax;
  wax.node_count = 40;
  const net::Graph g = net::waxman_graph(wax, rng);
  SmrpConfig config;
  SmrpTreeBuilder builder(g, 0, config);
  for (int i = 0; i < 12; ++i) {
    const auto member = static_cast<net::NodeId>(1 + rng.below(39));
    if (builder.tree().is_member(member)) continue;

    const auto candidates = enumerate_candidates(
        g, builder.tree(), member, builder.spf_delay(member), config);
    const auto sel =
        select_path(candidates, builder.spf_delay(member), config);
    ASSERT_TRUE(sel.has_value());
    if (!sel->used_fallback) {
      for (const auto& c : candidates) {
        if (!c.within_bound) continue;
        ASSERT_GE(c.shr, sel->chosen.shr);
      }
      ASSERT_LE(sel->chosen.total_delay,
                (1.0 + config.d_thresh) * builder.spf_delay(member) + 1e-6);
    }
    builder.join(member);
    builder.tree().validate();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Values(7, 14, 21, 28, 35));

// ---- Bounded vs unbounded enumeration ----------------------------------------

void expect_same_candidate(const JoinCandidate& a, const JoinCandidate& b) {
  EXPECT_EQ(a.merge_node, b.merge_node);
  EXPECT_EQ(a.graft, b.graft);
  EXPECT_EQ(a.shr, b.shr);
  EXPECT_EQ(a.graft_delay, b.graft_delay);
  EXPECT_EQ(a.total_delay, b.total_delay);
  EXPECT_EQ(a.within_bound, b.within_bound);
}

/// The choice a reshape makes: the first within-bound candidate of least
/// (SHR, total delay), as SmrpTreeBuilder::try_reshape picks it.
const JoinCandidate* best_reshape(const std::vector<JoinCandidate>& cs) {
  const JoinCandidate* best = nullptr;
  for (const JoinCandidate& c : cs) {
    if (!c.within_bound) continue;
    if (best == nullptr || c.shr < best->shr ||
        (c.shr == best->shr && c.total_delay < best->total_delay)) {
      best = &c;
    }
  }
  return best;
}

std::vector<JoinCandidate> within_bound(const std::vector<JoinCandidate>& cs) {
  std::vector<JoinCandidate> out;
  for (const JoinCandidate& c : cs) {
    if (c.within_bound) out.push_back(c);
  }
  return out;
}

void expect_same_lists(const std::vector<JoinCandidate>& a,
                       const std::vector<JoinCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_candidate(a[i], b[i]);
}

/// enumerate_candidates' avoid-tree result recomputed from the free,
/// unpruned dijkstra_absorbing (the reference): every on-tree node
/// absorbs, a reshaping member's own subtree is no merge node, and each
/// reached merge node is one candidate, in ascending id order.
std::vector<JoinCandidate> reference_candidates(
    const net::Graph& g, const MulticastTree& tree, NodeId joiner,
    double spf_delay, const SmrpConfig& config, bool reshaping,
    const net::ExclusionSet* unusable, int& reached) {
  const double bound = (1.0 + config.d_thresh) * spf_delay + 1e-9;
  const auto candidate = [&](NodeId merge, std::vector<NodeId> graft,
                             double graft_delay) {
    JoinCandidate c;
    c.merge_node = merge;
    c.graft = std::move(graft);
    c.graft_delay = graft_delay;
    c.total_delay = graft_delay + tree.delay_to_source(merge);
    c.shr = reshaping ? tree.shr_excluding_subtree(merge, joiner)
                      : tree.shr(merge);
    c.within_bound = c.total_delay <= bound;
    return c;
  };
  reached = 0;
  if (!reshaping && tree.on_tree(joiner)) {
    return {candidate(joiner, {joiner}, 0.0)};
  }
  std::vector<char> absorbing(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId n : tree.on_tree_nodes()) {
    absorbing[static_cast<std::size_t>(n)] = n != joiner ? 1 : 0;
  }
  const net::ShortestPathTree search = net::dijkstra_absorbing(
      g, joiner, absorbing,
      unusable != nullptr ? *unusable : net::ExclusionSet{});
  for (NodeId n = 0; n < g.node_count(); ++n) reached += search.reachable(n);
  std::vector<JoinCandidate> out;
  for (const NodeId m : tree.on_tree_nodes()) {
    if (!search.reachable(m) || m == joiner) continue;
    if (reshaping && tree.is_ancestor_or_self(joiner, m)) continue;
    out.push_back(candidate(m, search.path_from_source(m),
                            search.dist[static_cast<std::size_t>(m)]));
  }
  return out;
}

struct DifferentialTally {
  int joins = 0;
  int fallbacks = 0;
  int reshape_checks = 0;
  int pruned = 0;  ///< candidates the bound left out
  int dead_end_skips = 0;  ///< nodes the reference labelled, pruned runs not
};

/// The node count the oracle's last pooled search labelled (single
/// threaded, the pool hands back the workspace enumerate_candidates used).
int last_labelled(net::RoutingOracle& oracle) {
  return static_cast<int>(oracle.workspace()->labelled().size());
}

/// Grow a session on `g`, and before every join compare the bounded and
/// the unbounded enumeration for the joiner and for a reshaping member,
/// optionally with random failed links passed as `unusable`. Both prune
/// dead ends; the unbounded one must return exactly the reference list.
void run_bound_differential(const net::Graph& g, double d_thresh,
                            bool failed_links, std::uint64_t seed,
                            DifferentialTally& tally) {
  net::Rng rng(seed);
  SmrpConfig config;
  config.d_thresh = d_thresh;
  net::RoutingOracle oracle(g);
  SmrpTreeBuilder builder(g, 0, config, &oracle);
  const net::RoutingOracle::TreePtr source_spf = oracle.spf(0);
  const auto nodes = static_cast<std::uint64_t>(g.node_count());
  const auto links = static_cast<std::uint64_t>(g.link_count());

  for (int step = 0; step < 25; ++step) {
    const auto joiner = static_cast<net::NodeId>(1 + rng.below(nodes - 1));
    net::ExclusionSet failed(g);
    for (int k = 0; k < 3; ++k) {
      failed.ban_link(static_cast<net::LinkId>(rng.below(links)));
    }
    const net::ExclusionSet* unusable = failed_links ? &failed : nullptr;
    const MulticastTree& tree = builder.tree();
    const double spf = builder.spf_delay(joiner);

    const auto plain = enumerate_candidates(g, tree, joiner, spf, config,
                                            std::nullopt, unusable, &oracle);
    int reached = 0;
    expect_same_lists(reference_candidates(g, tree, joiner, spf, config,
                                           false, unusable, reached),
                      plain);
    if (!tree.on_tree(joiner)) {
      tally.dead_end_skips += reached - last_labelled(oracle);
    }
    const auto bounded =
        enumerate_candidates(g, tree, joiner, spf, config, std::nullopt,
                             unusable, &oracle, source_spf.get());
    expect_same_lists(within_bound(plain), within_bound(bounded));
    const auto sel_plain = select_path(plain, spf, config);
    const auto sel_bounded = select_path(bounded, spf, config);
    ASSERT_EQ(sel_plain.has_value(), sel_bounded.has_value());
    if (sel_plain) {
      expect_same_candidate(sel_plain->chosen, sel_bounded->chosen);
      EXPECT_EQ(sel_plain->used_fallback, sel_bounded->used_fallback);
      if (sel_plain->used_fallback) ++tally.fallbacks;
    }
    ++tally.joins;
    tally.pruned += static_cast<int>(plain.size() - bounded.size());

    const std::vector<net::NodeId> members = tree.members();
    if (!members.empty()) {
      const net::NodeId m = members[rng.below(members.size())];
      const double m_spf = builder.spf_delay(m);
      const auto plain_moves = enumerate_candidates(g, tree, m, m_spf, config,
                                                    m, unusable, &oracle);
      expect_same_lists(reference_candidates(g, tree, m, m_spf, config, true,
                                             unusable, reached),
                        plain_moves);
      const auto bounded_moves =
          enumerate_candidates(g, tree, m, m_spf, config, m, unusable, &oracle,
                               source_spf.get());
      expect_same_lists(within_bound(plain_moves), within_bound(bounded_moves));
      const JoinCandidate* a = best_reshape(plain_moves);
      const JoinCandidate* b = best_reshape(bounded_moves);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) expect_same_candidate(*a, *b);
      ++tally.reshape_checks;
    }
    builder.join(joiner);
  }
}

// The delay bound and the dead-end marks prune the candidate search
// (DESIGN.md §17); they must never change a selection: the unbounded
// search returns exactly the free search's candidates, every within-bound
// candidate comes back from the bounded one with the same graft and
// delays, so select_path and the reshape choice agree, and a join that no
// candidate fits falls back over the full list. Bridge-rich graphs give
// the marks plenty to skip.
TEST(BoundedEnumeration, SelectsExactlyWhatTheFullSearchSelects) {
  DifferentialTally tally;
  for (const double d_thresh : {0.0, 0.05, 0.3, 1.0}) {
    for (const bool failed_links : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        net::Rng rng(seed * 7919 + 13);
        net::WaxmanParams wax;
        wax.node_count = 80;
        const net::Graph waxman = net::waxman_graph(wax, rng);
        run_bound_differential(waxman, d_thresh, failed_links, seed, tally);

        net::TransitStubParams ts;
        ts.transit_nodes = 6;
        ts.stubs_per_transit = 3;
        ts.stub_size = 8;
        const net::TransitStubTopology topo =
            net::generate_transit_stub(ts, rng);
        run_bound_differential(topo.graph, d_thresh, failed_links, seed + 100,
                               tally);

        for (const net::Graph& g : testing::bridge_rich_graphs(rng)) {
          run_bound_differential(g, d_thresh, failed_links, seed + 200, tally);
        }
      }
    }
  }
  EXPECT_EQ(tally.joins, 4 * 2 * 3 * 5 * 25);
  EXPECT_GT(tally.reshape_checks, tally.joins / 2);
  EXPECT_GT(tally.fallbacks, 0) << "the unbounded re-run was never taken";
  EXPECT_GT(tally.pruned, 0) << "the bound never pruned a candidate";
  EXPECT_GT(tally.dead_end_skips, tally.joins)
      << "the dead-end marks never pruned";
}

}  // namespace
}  // namespace smrp::proto
