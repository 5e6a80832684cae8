// Invariant-checker tests: steady-state sessions audit clean, the
// quiescent audit catches real protocol failures (legacy give-up leaving
// a reachable member dark), and the hardened repair path fixes exactly
// those failures (routed-join fallback, partition stranding + rejoin).
#include "smrp/invariants.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::Fig1Topology;
using testing::ring_graph;

TEST(InvariantChecker, SteadyStateAuditsClean) {
  const Fig1Topology fig;
  SimulationHarness h(fig.graph, fig.S);
  h.start();
  h.session().join(fig.C);
  h.session().join(fig.D);
  h.simulator().run_until(3'000.0);

  const InvariantChecker checker(h.session(), h.network());
  const InvariantReport live = checker.audit();
  EXPECT_TRUE(live.ok()) << live.to_string();
  const InvariantReport quiescent = checker.audit_quiescent(0.0);
  EXPECT_TRUE(quiescent.ok()) << quiescent.to_string();
}

TEST(InvariantChecker, LiveAuditToleratesChurn) {
  const Fig1Topology fig;
  SimulationHarness h(fig.graph, fig.S);
  h.start();
  h.session().join(fig.C);
  h.session().join(fig.D);
  h.fail_link_at(fig.AD, 2'000.0);
  const InvariantChecker checker(h.session(), h.network());
  // Audit every 50ms straight through failure detection and repair.
  for (sim::Time t = 100.0; t <= 5'000.0; t += 50.0) {
    h.simulator().run_until(t);
    const InvariantReport report = checker.audit();
    EXPECT_TRUE(report.ok()) << "t=" << t << ": " << report.to_string();
  }
}

// The A/B pair at the heart of the hardening: a ring where the only
// surviving detour is farther than max_repair_ttl hops. The legacy
// protocol floods rings forever and never restores service — which the
// quiescent audit reports — while the hardened protocol falls back to a
// routed join and audits clean.
class RingGiveUp : public ::testing::Test {
 protected:
  static constexpr net::NodeId kSource = 0;
  static constexpr net::NodeId kMember = 5;
  static constexpr sim::Time kCutAt = 2'000.0;

  InvariantReport run(bool legacy_repair) {
    const net::Graph g = ring_graph(10);
    SessionConfig config;
    config.mutations.legacy_repair = legacy_repair;
    config.max_repair_ttl = 4;  // the way around the ring is 5 hops
    SimulationHarness h(g, kSource, config);
    h.start();
    h.session().join(kMember);
    // Cut the member's upstream link 4–5: the nearest serving node the
    // other way around (the source itself) is beyond the ring budget.
    const auto link = g.link_between(4, 5);
    h.fail_link_at(*link, kCutAt);

    const sim::Time bound = service_restoration_bound(
        h.session().config(), routing::RoutingConfig{}, g);
    h.simulator().run_until(kCutAt + bound);
    const InvariantChecker checker(h.session(), h.network());
    return checker.audit_quiescent(kCutAt);
  }
};

TEST_F(RingGiveUp, LegacyProtocolLeavesReachableMemberDark) {
  const InvariantReport report = run(/*legacy_repair=*/true);
  EXPECT_FALSE(report.ok())
      << "legacy give-up should strand the member beyond the ring budget";
}

TEST_F(RingGiveUp, HardenedProtocolFallsBackToRoutedJoin) {
  const InvariantReport report = run(/*legacy_repair=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(InvariantChecker, PartitionStrandsThenHealsMember) {
  const Fig1Topology fig;
  SessionConfig config;
  config.max_repair_ttl = 2;  // exhaust the ring search quickly
  SimulationHarness h(fig.graph, fig.S, config);
  h.start();
  h.session().join(fig.C);
  h.session().join(fig.D);

  // Isolate D completely from 2000ms to 5000ms.
  const std::vector<net::LinkId> cut =
      sim::boundary_links(fig.graph, {Fig1Topology::D});
  for (const net::LinkId l : cut) {
    h.fail_link_at(l, 2'000.0);
    h.restore_link_at(l, 5'000.0);
  }

  h.simulator().run_until(4'500.0);
  EXPECT_TRUE(h.session().is_stranded(fig.D))
      << "D should give up flooding once the IGP confirms the partition";
  // Stranded is not a violation while D really is cut off.
  const InvariantChecker checker(h.session(), h.network());
  EXPECT_TRUE(checker.audit().ok()) << checker.audit().to_string();

  const sim::Time bound = service_restoration_bound(
      h.session().config(), routing::RoutingConfig{}, fig.graph);
  h.simulator().run_until(5'000.0 + bound);
  EXPECT_FALSE(h.session().is_stranded(fig.D));
  const InvariantReport report = checker.audit_quiescent(5'000.0);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Negative suite: the checker must actually detect every invariant it
// claims to check. Each test runs a healthy session to steady state,
// corrupts exactly one aspect of the raw protocol state through the
// test-only backdoor, and asserts the matching violation message appears.
// Without these, a checker that silently stopped checking something would
// keep passing every positive test above.
class InvariantNegative : public ::testing::Test {
 protected:
  InvariantNegative()
      : harness_(fig_.graph, fig_.S) {
    harness_.start();
    harness_.session().join(Fig1Topology::C);
    harness_.session().join(Fig1Topology::D);
    harness_.simulator().run_until(3'000.0);
  }

  /// The steady state really is clean before each test corrupts it.
  void assert_clean_baseline() {
    const InvariantChecker checker(harness_.session(), harness_.network());
    ASSERT_TRUE(checker.audit_quiescent(0.0).ok());
  }

  [[nodiscard]] InvariantReport audit() {
    const InvariantChecker checker(harness_.session(), harness_.network());
    return checker.audit();
  }
  [[nodiscard]] InvariantReport audit_quiescent() {
    const InvariantChecker checker(harness_.session(), harness_.network());
    return checker.audit_quiescent(0.0);
  }

  static void expect_violation(const InvariantReport& report,
                               const std::string& needle) {
    EXPECT_FALSE(report.ok()) << "expected a violation matching: " << needle;
    bool found = false;
    for (const std::string& v : report.violations) {
      if (v.find(needle) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "no violation matching \"" << needle
                       << "\" in:\n" << report.to_string();
  }

  Fig1Topology fig_;
  SimulationHarness harness_;
};

TEST_F(InvariantNegative, SourceClaimsAParent) {
  assert_clean_baseline();
  harness_.session().agent_state_for_tests(Fig1Topology::S).parent =
      Fig1Topology::A;
  expect_violation(audit(), "source claims a parent");
}

TEST_F(InvariantNegative, ParentWithoutOnTree) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::B);
  state.parent = Fig1Topology::S;
  state.on_tree = false;
  expect_violation(audit(), "has a parent but is not on-tree");
}

TEST_F(InvariantNegative, ParentIsNotAGraphNeighbor) {
  assert_clean_baseline();
  // D's only neighbors are A, B and C; the source is not adjacent.
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::D);
  state.parent = Fig1Topology::S;
  expect_violation(audit(), "is not a graph neighbor");
}

TEST_F(InvariantNegative, ChildIsNotAGraphNeighbor) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::S);
  state.children[Fig1Topology::D] = {};  // S–D are not adjacent
  expect_violation(audit(), "child " + std::to_string(Fig1Topology::D) +
                                " is not a graph neighbor");
}

TEST_F(InvariantNegative, NonceStateOverCap) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::B);
  for (std::uint64_t nonce = 0;
       nonce <= DistributedSession::kSeenNonceCap; ++nonce) {
    state.seen_nonces.insert(nonce);
    state.nonce_order.push_back(nonce);
  }
  expect_violation(audit(), "repair nonces (cap");
}

TEST_F(InvariantNegative, NegativeShr) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::D);
  state.shr_upstream = -7;
  expect_violation(audit(), "believes a negative SHR");
}

TEST_F(InvariantNegative, ParentCycle) {
  assert_clean_baseline();
  // A 2-cycle over a real edge (A–D); tolerated live, hard at quiescence.
  auto& a = harness_.session().agent_state_for_tests(Fig1Topology::A);
  auto& d = harness_.session().agent_state_for_tests(Fig1Topology::D);
  a.on_tree = true;
  a.parent = Fig1Topology::D;
  d.on_tree = true;
  d.parent = Fig1Topology::A;
  EXPECT_TRUE(audit().ok()) << "live audit must tolerate transient cycles";
  expect_violation(audit_quiescent(), "parent cycle through");
}

TEST_F(InvariantNegative, ReachableMemberOffTree) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::C);
  state.on_tree = false;
  state.parent = net::kNoNode;
  expect_violation(audit_quiescent(), "is a reachable member but off-tree");
}

TEST_F(InvariantNegative, StrandedDespiteALivePath) {
  assert_clean_baseline();
  harness_.session().agent_state_for_tests(Fig1Topology::D).stranded = true;
  expect_violation(audit_quiescent(), "is stranded despite a live path");
}

TEST_F(InvariantNegative, ChainOrphans) {
  assert_clean_baseline();
  // D's upstream loses ITS parent: the member's chain no longer reaches
  // the source.
  const net::NodeId upstream =
      harness_.session().parent_of(Fig1Topology::D);
  ASSERT_NE(upstream, net::kNoNode);
  ASSERT_NE(upstream, Fig1Topology::S);
  harness_.session().agent_state_for_tests(upstream).parent = net::kNoNode;
  expect_violation(audit_quiescent(), "chain orphans at");
}

TEST_F(InvariantNegative, ChainCrossesADeadHop) {
  assert_clean_baseline();
  const net::NodeId upstream =
      harness_.session().parent_of(Fig1Topology::D);
  const auto link = fig_.graph.link_between(Fig1Topology::D, upstream);
  ASSERT_TRUE(link.has_value());
  harness_.network().set_link_up(*link, false);
  expect_violation(audit_quiescent(), "chain crosses a dead hop at");
}

TEST_F(InvariantNegative, ParentDoesNotListItsChild) {
  assert_clean_baseline();
  const net::NodeId upstream =
      harness_.session().parent_of(Fig1Topology::D);
  harness_.session().agent_state_for_tests(upstream).children.erase(
      Fig1Topology::D);
  expect_violation(audit_quiescent(), "does not list its child");
}

TEST_F(InvariantNegative, RetainsDeadChild) {
  assert_clean_baseline();
  const net::NodeId upstream =
      harness_.session().parent_of(Fig1Topology::D);
  harness_.network().set_node_up(Fig1Topology::D, false);
  // The corrupt claim: the upstream keeps forwarding to a dead node.
  ASSERT_NE(harness_.session()
                .agent_state_for_tests(upstream)
                .children.count(Fig1Topology::D),
            0u);
  expect_violation(audit_quiescent(), "retains dead child");
}

TEST_F(InvariantNegative, ChildClaimsADifferentParent) {
  assert_clean_baseline();
  const net::NodeId upstream =
      harness_.session().parent_of(Fig1Topology::D);
  // D defects to another neighbor while the old upstream still lists it.
  for (const net::NodeId other : {Fig1Topology::A, Fig1Topology::B,
                                  Fig1Topology::C}) {
    if (other == upstream) continue;
    harness_.session().agent_state_for_tests(Fig1Topology::D).parent = other;
    break;
  }
  expect_violation(audit_quiescent(),
                   "which claims a different parent");
}

TEST_F(InvariantNegative, NoDataSinceQuiescence) {
  assert_clean_baseline();
  harness_.session().agent_state_for_tests(Fig1Topology::C).last_data = -1.0;
  const InvariantChecker checker(harness_.session(), harness_.network());
  expect_violation(checker.audit_quiescent(1'000.0),
                   "has received no data since quiescence");
}

TEST_F(InvariantNegative, ShrDisagreesWithTheTree) {
  assert_clean_baseline();
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::D);
  state.shr_upstream += 5;
  expect_violation(audit_quiescent(), "but the tree computes");
}

TEST_F(InvariantNegative, NoConsistentTreeSnapshot) {
  assert_clean_baseline();
  // A member whose parent chain dead-ends off the source makes the
  // distributed state impossible to express as an analytic tree.
  auto& state = harness_.session().agent_state_for_tests(Fig1Topology::C);
  state.parent = net::kNoNode;
  expect_violation(audit_quiescent(),
                   "no consistent tree snapshot at quiescence");
}

TEST(ServiceRestorationBound, IsFiniteAndScalesWithTheConfig) {
  const Fig1Topology fig;
  const SessionConfig config;
  const routing::RoutingConfig routing;
  const sim::Time bound =
      service_restoration_bound(config, routing, fig.graph);
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, 60'000.0);  // stays practical for test budgets

  SessionConfig deeper = config;
  deeper.max_repair_ttl = config.max_repair_ttl * 4;
  EXPECT_GT(service_restoration_bound(deeper, routing, fig.graph), bound);

  const net::Graph bigger(4 * fig.graph.node_count(), {});
  EXPECT_GT(service_restoration_bound(config, routing, bigger), bound);
}

}  // namespace
}  // namespace smrp::proto
