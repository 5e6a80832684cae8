// Whole-session repair (repair_session) and multi-failure sequences.
#include <gtest/gtest.h>

#include <memory>

#include "eval/failure_sequence.hpp"
#include "multicast/tree_equality.hpp"
#include "net/paths.hpp"
#include "net/shortest_path.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "smrp/recovery.hpp"
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

TEST(RepairSession, RepairsEveryVictimOfAWorstCaseCut) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_link(fig.SA), DetourPolicy::kLocal);
  EXPECT_EQ(report.disconnected_members, 2);
  EXPECT_EQ(report.repaired_members, 2);
  EXPECT_EQ(report.unrecoverable_members, 0);
  tree.validate();
  EXPECT_TRUE(tree.is_member(fig.C));
  EXPECT_TRUE(tree.is_member(fig.D));
  for (const net::LinkId l : tree.tree_links()) EXPECT_NE(l, fig.SA);
}

TEST(RepairSession, NearestFirstOrderAndNeighborAssist) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_link(fig.SA), DetourPolicy::kLocal);
  // Round 1: with L_SA dead, C's best detour costs 5 (C–D–B–S) while D's
  // costs 3 (D–B–S), so D repairs first. Round 2: D's restored branch
  // assists C, whose repair is now just C–D at cost 2 — cheaper than any
  // option it had alone. This is the neighbor-assisted recovery of §1.
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].member, fig.D);
  EXPECT_DOUBLE_EQ(report.outcomes[0].recovery_distance, 3.0);
  EXPECT_EQ(report.outcomes[1].member, fig.C);
  EXPECT_DOUBLE_EQ(report.outcomes[1].recovery_distance, 2.0);
  EXPECT_EQ(report.outcomes[1].reattach_node, fig.D);
}

// A default Failure{} names kNoLink, which is no tree link: the repair
// may reject it or report nothing, but must not touch the tree.
TEST(RepairSession, DefaultFailureLeavesTreeUnchanged) {
  const Fig1Topology fig;
  for (const DetourPolicy policy :
       {DetourPolicy::kLocal, DetourPolicy::kGlobal}) {
    mcast::MulticastTree tree = fig1_tree(fig);
    const mcast::MulticastTree before = tree;
    try {
      const SessionRepairReport report =
          repair_session(fig.graph, tree, Failure{}, policy);
      EXPECT_EQ(report.disconnected_members, 0);
      EXPECT_TRUE(report.outcomes.empty());
    } catch (const std::exception&) {
      // Rejecting the failure is fine too.
    }
    EXPECT_NO_THROW(tree.validate());
    testing::expect_same_tree(tree, before);
  }
}

TEST(RepairSession, GlobalPolicyAlsoHeals) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_link(fig.SA), DetourPolicy::kGlobal);
  EXPECT_EQ(report.repaired_members, 2);
  tree.validate();
}

TEST(RepairSession, NodeFailureRepair) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_node(fig.A), DetourPolicy::kLocal);
  EXPECT_EQ(report.disconnected_members, 2);
  EXPECT_EQ(report.repaired_members, 2);
  tree.validate();
  // Nothing may route through the dead router A.
  EXPECT_FALSE(tree.on_tree(fig.A));
  for (const net::NodeId m : {fig.C, fig.D}) {
    for (const net::NodeId hop : tree.path_to_source(m)) {
      EXPECT_NE(hop, fig.A);
    }
  }
}

TEST(RepairSession, CountsUnrecoverableMembers) {
  // Chain 0–1–2: cutting 1–2 strands member 2 permanently.
  net::Graph g(3);
  g.add_link(0, 1, 1.0);
  const net::LinkId last = g.add_link(1, 2, 1.0);
  mcast::MulticastTree tree(g, 0);
  tree.graft(2, net::path_links(g, {2, 1, 0}));
  const SessionRepairReport report =
      repair_session(g, tree, Failure::of_link(last));
  EXPECT_EQ(report.disconnected_members, 1);
  EXPECT_EQ(report.repaired_members, 0);
  EXPECT_EQ(report.unrecoverable_members, 1);
  tree.validate();
  EXPECT_EQ(tree.member_count(), 0);
}

TEST(RepairSession, RespectsPreviouslyFailedLinks) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  // With C–D already dead, D's local detour after losing A–D cannot use
  // it and must fall back to D–B–S.
  net::ExclusionSet dead(fig.graph);
  dead.ban_link(fig.CD);
  const SessionRepairReport report = repair_session(
      fig.graph, tree, Failure::of_link(fig.AD), DetourPolicy::kLocal, &dead);
  ASSERT_EQ(report.repaired_members, 1);
  EXPECT_EQ(report.outcomes[0].restoration_path,
            (std::vector<net::NodeId>{fig.D, fig.B, fig.S}));
}

TEST(SeverNode, DropsSubtreeAndReportsRecoverableMembers) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const auto lost = tree.sever_node(fig.A);
  tree.validate();
  EXPECT_EQ(lost, (std::vector<net::NodeId>{fig.C, fig.D}));
  EXPECT_FALSE(tree.on_tree(fig.A));
  EXPECT_EQ(tree.member_count(), 0);
}

TEST(SeverNode, DeadMemberIsNotListedForRecovery) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  const auto lost = tree.sever_node(fig.C);  // a member dies itself
  tree.validate();
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(tree.member_count(), 1);  // D keeps its service
  EXPECT_TRUE(tree.is_member(fig.D));
}

TEST(SeverNode, OffTreeNodeIsNoOp) {
  const Fig1Topology fig;
  mcast::MulticastTree tree = fig1_tree(fig);
  EXPECT_TRUE(tree.sever_node(fig.B).empty());
  EXPECT_EQ(tree.member_count(), 2);
}

class RepairSessionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RepairSessionProperty, TreeValidAndFailureFreeAfterEveryRepair) {
  net::Rng rng(GetParam());
  net::WaxmanParams wax;
  wax.node_count = 60;
  auto g = std::make_unique<net::Graph>(net::waxman_graph(wax, rng));
  SmrpTreeBuilder builder(*g, 0);
  for (int i = 0; i < 15; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(59)));
  }
  mcast::MulticastTree tree = builder.tree();
  const int members_before = tree.member_count();

  // Fail the busiest source-incident link.
  net::LinkId victim = net::kNoLink;
  int worst = -1;
  for (const net::NodeId child : tree.children(0)) {
    if (tree.subtree_members(child) > worst) {
      worst = tree.subtree_members(child);
      victim = tree.parent_link(child);
    }
  }
  ASSERT_NE(victim, net::kNoLink);
  const SessionRepairReport report =
      repair_session(*g, tree, Failure::of_link(victim));
  tree.validate();
  EXPECT_EQ(report.disconnected_members,
            report.repaired_members + report.unrecoverable_members);
  EXPECT_EQ(tree.member_count(),
            members_before - report.unrecoverable_members);
  for (const net::LinkId l : tree.tree_links()) EXPECT_NE(l, victim);
}

// repair_session caches one early-exit absorbing search per lost member
// and updates each cached candidate only against the nodes the latest
// repair grafted. This replays the pre-optimization algorithm — a full
// recompute of every pending member's detour before every round — and
// checks the optimized pass picked the exact same nearest member,
// reattach point, distance and restoration path each round.
void expect_cached_repair_matches_full_recompute(
    const net::Graph& g, const mcast::MulticastTree& original,
    const Failure& failure, const net::ExclusionSet* already_failed = nullptr) {
  mcast::MulticastTree fast = original;
  const SessionRepairReport report = repair_session(
      g, fast, failure, DetourPolicy::kLocal, already_failed);

  mcast::MulticastTree ref = original;
  net::ExclusionSet excluded =
      already_failed != nullptr ? *already_failed : net::ExclusionSet(g);
  std::vector<net::NodeId> lost;
  if (failure.kind == Failure::Kind::kLink) {
    lost = ref.sever(failure.link);
    excluded.ban_link(failure.link);
  } else {
    lost = ref.sever_node(failure.node);
    excluded.ban_node(failure.node);
  }
  ASSERT_EQ(report.disconnected_members, static_cast<int>(lost.size()));
  std::vector<char> pending(static_cast<std::size_t>(g.node_count()), 0);
  for (const net::NodeId m : lost) pending[static_cast<std::size_t>(m)] = 1;

  const auto rejoin_in_place = [&] {
    for (const net::NodeId m : lost) {
      if (pending[static_cast<std::size_t>(m)] && ref.on_tree(m)) {
        ref.graft(m, {});
        pending[static_cast<std::size_t>(m)] = 0;
      }
    }
  };
  const auto best_for = [&](net::NodeId member, net::ShortestPathTree& search,
                            net::NodeId& reattach) {
    std::vector<char> on_tree(static_cast<std::size_t>(g.node_count()), 0);
    for (const net::NodeId n : ref.on_tree_nodes()) {
      on_tree[static_cast<std::size_t>(n)] = 1;
    }
    search = net::dijkstra_absorbing(g, member, on_tree, excluded);
    reattach = net::kNoNode;
    for (const net::NodeId n : ref.on_tree_nodes()) {
      if (!search.reachable(n)) continue;
      if (reattach == net::kNoNode ||
          search.dist[static_cast<std::size_t>(n)] <
              search.dist[static_cast<std::size_t>(reattach)]) {
        reattach = n;
      }
    }
    return reattach != net::kNoNode;
  };

  for (const RecoveryOutcome& out : report.outcomes) {
    rejoin_in_place();
    net::NodeId expect_member = net::kNoNode;
    net::NodeId expect_at = net::kNoNode;
    net::ShortestPathTree expect_search;
    for (const net::NodeId m : lost) {
      if (!pending[static_cast<std::size_t>(m)]) continue;
      net::ShortestPathTree search;
      net::NodeId at = net::kNoNode;
      if (!best_for(m, search, at)) continue;
      if (expect_member == net::kNoNode ||
          search.dist[static_cast<std::size_t>(at)] <
              expect_search.dist[static_cast<std::size_t>(expect_at)]) {
        expect_member = m;
        expect_at = at;
        expect_search = std::move(search);
      }
    }
    ASSERT_NE(expect_member, net::kNoNode);
    EXPECT_EQ(out.member, expect_member);
    EXPECT_EQ(out.reattach_node, expect_at);
    EXPECT_DOUBLE_EQ(out.recovery_distance,
                     expect_search.dist[static_cast<std::size_t>(expect_at)]);
    EXPECT_EQ(out.recovery_hops,
              expect_search.hops[static_cast<std::size_t>(expect_at)]);
    EXPECT_EQ(out.restoration_path, expect_search.path_from_source(expect_at));
    EXPECT_EQ(out.restoration_links,
              expect_search.link_path_from_source(expect_at));
    apply_recovery(ref, out);
    pending[static_cast<std::size_t>(out.member)] = 0;
  }
  rejoin_in_place();
  // Whoever the repair gave up on has no detour left.
  for (const net::NodeId m : lost) {
    if (!pending[static_cast<std::size_t>(m)]) continue;
    net::ShortestPathTree search;
    net::NodeId at = net::kNoNode;
    EXPECT_FALSE(best_for(m, search, at)) << "member " << m;
  }
  EXPECT_EQ(fast.member_count(), ref.member_count());
}

/// The source-incident tree link above the most members (the worst case).
net::LinkId busiest_source_link(const mcast::MulticastTree& tree) {
  net::LinkId victim = net::kNoLink;
  int worst = -1;
  for (const net::NodeId child : tree.children(tree.source())) {
    if (tree.subtree_members(child) > worst) {
      worst = tree.subtree_members(child);
      victim = tree.parent_link(child);
    }
  }
  return victim;
}

TEST_P(RepairSessionProperty, CachedRepairMatchesPerRoundFullRecompute) {
  net::Rng rng(GetParam() + 1000);
  net::WaxmanParams wax;
  wax.node_count = 40;
  auto g = std::make_unique<net::Graph>(net::waxman_graph(wax, rng));
  SmrpTreeBuilder builder(*g, 0);
  for (int i = 0; i < 12; ++i) {
    builder.join(static_cast<net::NodeId>(1 + rng.below(39)));
  }
  const net::LinkId victim = busiest_source_link(builder.tree());
  ASSERT_NE(victim, net::kNoLink);
  expect_cached_repair_matches_full_recompute(*g, builder.tree(),
                                              Failure::of_link(victim));

  // On a transit-stub graph the nearest survivor is usually inside the
  // member's own stub, so the early exit really truncates each search.
  // Fail the worst-case link and, separately, the node below it.
  net::TransitStubParams ts;
  ts.transit_nodes = 6;
  ts.stubs_per_transit = 3;
  ts.stub_size = 10;
  const net::TransitStubTopology topo = net::generate_transit_stub(ts, rng);
  const auto nodes = static_cast<std::uint64_t>(topo.graph.node_count());
  SmrpTreeBuilder ts_builder(topo.graph, 0);
  for (int i = 0; i < 30; ++i) {
    ts_builder.join(static_cast<net::NodeId>(1 + rng.below(nodes - 1)));
  }
  const mcast::MulticastTree& tree = ts_builder.tree();
  const net::LinkId ts_victim = busiest_source_link(tree);
  ASSERT_NE(ts_victim, net::kNoLink);
  expect_cached_repair_matches_full_recompute(topo.graph, tree,
                                              Failure::of_link(ts_victim));
  const net::NodeId below = topo.graph.link(ts_victim).a == 0
                                ? topo.graph.link(ts_victim).b
                                : topo.graph.link(ts_victim).a;
  expect_cached_repair_matches_full_recompute(topo.graph, tree,
                                              Failure::of_node(below));

  // Bridge-rich graphs (DESIGN.md §17, "Dead-end regions"): every detour
  // search skips the regions behind bridges that hold neither a survivor
  // nor a lost member, and must still pick exactly what the unpruned
  // per-round recompute picks, with and without earlier failures.
  for (const net::Graph& bridged : testing::bridge_rich_graphs(rng)) {
    const auto n = static_cast<std::uint64_t>(bridged.node_count());
    SmrpTreeBuilder b(bridged, 0);
    for (int i = 0; i < 16; ++i) {
      b.join(static_cast<net::NodeId>(1 + rng.below(n - 1)));
    }
    const mcast::MulticastTree& t = b.tree();
    const net::LinkId cut = busiest_source_link(t);
    ASSERT_NE(cut, net::kNoLink);
    expect_cached_repair_matches_full_recompute(bridged, t,
                                                Failure::of_link(cut));
    const net::NodeId head = bridged.link(cut).a == 0 ? bridged.link(cut).b
                                                      : bridged.link(cut).a;
    expect_cached_repair_matches_full_recompute(bridged, t,
                                                Failure::of_node(head));
    // Earlier failures off the tree: a few links and one node.
    net::ExclusionSet earlier(bridged);
    for (int k = 0; k < 3; ++k) {
      const auto l = static_cast<net::LinkId>(
          rng.below(static_cast<std::uint64_t>(bridged.link_count())));
      const net::Link& link = bridged.link(l);
      if (t.parent_link(link.a) != l && t.parent_link(link.b) != l) {
        earlier.ban_link(l);
      }
    }
    const auto dead = static_cast<net::NodeId>(rng.below(n));
    if (!t.on_tree(dead)) earlier.ban_node(dead);
    expect_cached_repair_matches_full_recompute(
        bridged, t, Failure::of_link(cut), &earlier);
    expect_cached_repair_matches_full_recompute(
        bridged, t, Failure::of_node(head), &earlier);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSessionProperty,
                         ::testing::Values(10, 20, 30, 40));

/// Nodes the last search of each of the oracle's pooled workspaces
/// labelled (a workspace keeps its labels until its next run).
std::vector<net::NodeId> pooled_labels(net::RoutingOracle& oracle) {
  std::vector<net::RoutingOracle::WorkspaceLease> leases;
  for (int k = 0; k < 4; ++k) leases.push_back(oracle.workspace());
  std::vector<net::NodeId> out;
  for (const auto& lease : leases) {
    out.insert(out.end(), lease->labelled().begin(), lease->labelled().end());
  }
  return out;
}

// Every stub of a transit-stub graph hangs off one access bridge, so a
// detour search out of a stub has no reason to enter a stub that holds no
// tree node and no lost member (DESIGN.md §17, "Dead-end regions").
TEST(DeadEndPruning, DetourFromAStubSkipsStubsWithoutTreeNodes) {
  net::Rng rng(2718);
  net::TransitStubParams ts;
  ts.transit_nodes = 6;
  ts.stubs_per_transit = 4;
  ts.stub_size = 8;
  const net::TransitStubTopology topo = net::generate_transit_stub(ts, rng);
  const net::Graph& g = topo.graph;
  const auto stub_nodes = static_cast<std::uint64_t>(
      g.node_count() - ts.transit_nodes);
  SmrpTreeBuilder builder(g, 0);
  for (int i = 0; i < 8; ++i) {
    builder.join(static_cast<net::NodeId>(ts.transit_nodes +
                                          rng.below(stub_nodes)));
  }
  const mcast::MulticastTree& tree = builder.tree();
  // Stubs the session touches; the lost members lie in these too.
  std::vector<char> touched(static_cast<std::size_t>(topo.domain_count()), 0);
  for (const net::NodeId n : tree.on_tree_nodes()) {
    touched[static_cast<std::size_t>(
        topo.domain_of_node[static_cast<std::size_t>(n)])] = 1;
  }
  int searches = 0;
  int labels = 0;
  const auto expect_only_touched_stubs = [&](net::RoutingOracle& oracle) {
    for (const net::NodeId v : pooled_labels(oracle)) {
      const net::DomainId d = topo.domain_of_node[static_cast<std::size_t>(v)];
      EXPECT_TRUE(touched[static_cast<std::size_t>(d)])
          << "node " << v << " of untouched stub " << d << " was labelled";
      ++labels;
    }
  };
  for (const net::NodeId m : tree.members()) {
    net::RoutingOracle oracle(g);
    const RecoveryOutcome out = local_detour_recovery(
        g, tree, m, Failure::of_link(worst_case_failure_link(tree, m)),
        &oracle);
    ASSERT_TRUE(out.disconnected);
    expect_only_touched_stubs(oracle);
    ++searches;
  }
  net::RoutingOracle oracle(g);
  mcast::MulticastTree repaired = tree;
  const SessionRepairReport report = repair_session(
      g, repaired, Failure::of_link(busiest_source_link(tree)),
      DetourPolicy::kLocal, nullptr, nullptr, &oracle);
  EXPECT_GT(report.disconnected_members, 0);
  expect_only_touched_stubs(oracle);
  EXPECT_GT(searches, 4);
  EXPECT_GT(labels, 8 * searches) << "the searches left their stubs";
}

}  // namespace
}  // namespace smrp::proto

namespace smrp::eval {
namespace {

TEST(FailureSequence, RunsAndStaysConsistent) {
  FailureSequenceParams params;
  params.scenario.node_count = 60;
  params.scenario.group_size = 12;
  params.failures = 4;
  net::Rng rng(99);
  const FailureSequenceResult r = run_failure_sequence(params, rng);
  EXPECT_LE(static_cast<int>(r.steps.size()), 4);
  EXPECT_GE(r.final_members_smrp, 0);
  double total = 0.0;
  for (const FailureStep& s : r.steps) {
    EXPECT_GE(s.rd_smrp, 0.0);
    EXPECT_GE(s.lost_smrp, 0);
    total += s.rd_smrp;
  }
  EXPECT_DOUBLE_EQ(total, r.total_rd_smrp);
}

TEST(FailureSequence, DeterministicUnderSeed) {
  FailureSequenceParams params;
  params.scenario.node_count = 50;
  params.scenario.group_size = 10;
  params.failures = 3;
  net::Rng a(7);
  net::Rng b(7);
  const FailureSequenceResult ra = run_failure_sequence(params, a);
  const FailureSequenceResult rb = run_failure_sequence(params, b);
  ASSERT_EQ(ra.steps.size(), rb.steps.size());
  for (std::size_t i = 0; i < ra.steps.size(); ++i) {
    EXPECT_EQ(ra.steps[i].failed_link, rb.steps[i].failed_link);
    EXPECT_DOUBLE_EQ(ra.steps[i].rd_smrp, rb.steps[i].rd_smrp);
  }
}

}  // namespace
}  // namespace smrp::eval
