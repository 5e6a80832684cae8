#include "eval/scenario.hpp"

#include <gtest/gtest.h>

#include <set>

namespace smrp::eval {
namespace {

TEST(PickMembers, DistinctAndExcludesSource) {
  net::Rng rng(1);
  net::WaxmanParams wax;
  wax.node_count = 30;
  const net::Graph g = net::waxman_graph(wax, rng);
  const auto members = pick_members(g, 7, 10, rng);
  EXPECT_EQ(members.size(), 10u);
  std::set<net::NodeId> unique(members.begin(), members.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_EQ(unique.count(7), 0u);
}

TEST(PickMembers, RejectsOversizedGroup) {
  net::Rng rng(2);
  net::WaxmanParams wax;
  wax.node_count = 10;
  const net::Graph g = net::waxman_graph(wax, rng);
  EXPECT_THROW(pick_members(g, 0, 10, rng), std::invalid_argument);
}

TEST(Scenario, ProducesComparisonPerMember) {
  net::Rng rng(3);
  ScenarioParams p;
  p.node_count = 60;
  p.group_size = 12;
  const ScenarioResult r = run_scenario(p, rng);
  EXPECT_EQ(r.members.size(), 12u);
  EXPECT_GT(r.cost_spf, 0.0);
  EXPECT_GT(r.cost_smrp, 0.0);
  EXPECT_GT(r.valid_member_count(), 0);
  for (const MemberComparison& m : r.members) {
    if (!m.valid) continue;
    EXPECT_GT(m.rd_spf, 0.0);
    EXPECT_GE(m.rd_smrp, 0.0);
    EXPECT_GT(m.delay_spf, 0.0);
    EXPECT_GT(m.delay_smrp, 0.0);
  }
}

TEST(Scenario, SmrpDelayNeverBelowSpf) {
  // The SPF tree gives every member its shortest-path delay, so the SMRP
  // delay can only be equal or larger.
  net::Rng rng(4);
  ScenarioParams p;
  p.node_count = 80;
  p.group_size = 20;
  const ScenarioResult r = run_scenario(p, rng);
  for (const MemberComparison& m : r.members) {
    EXPECT_GE(m.delay_smrp + 1e-9, m.delay_spf);
    EXPECT_GE(m.delay_relative(), -1e-12);
  }
  EXPECT_GE(r.cost_relative(), -1e-9);
}

TEST(Scenario, DeterministicUnderSameSeed) {
  ScenarioParams p;
  p.node_count = 50;
  p.group_size = 10;
  net::Rng a(42);
  net::Rng b(42);
  const ScenarioResult ra = run_scenario(p, a);
  const ScenarioResult rb = run_scenario(p, b);
  ASSERT_EQ(ra.members.size(), rb.members.size());
  for (std::size_t i = 0; i < ra.members.size(); ++i) {
    EXPECT_EQ(ra.members[i].member, rb.members[i].member);
    EXPECT_DOUBLE_EQ(ra.members[i].rd_spf, rb.members[i].rd_spf);
    EXPECT_DOUBLE_EQ(ra.members[i].rd_smrp, rb.members[i].rd_smrp);
  }
  EXPECT_DOUBLE_EQ(ra.cost_smrp, rb.cost_smrp);
}

TEST(Scenario, LocalOnSpfPolicyRuns) {
  net::Rng rng(5);
  ScenarioParams p;
  p.node_count = 60;
  p.group_size = 10;
  p.spf_policy = RecoveryPolicy::kLocalDetour;
  const ScenarioResult r = run_scenario(p, rng);
  EXPECT_GT(r.valid_member_count(), 0);
}

TEST(Scenario, QuerySchemeRuns) {
  net::Rng rng(6);
  ScenarioParams p;
  p.node_count = 60;
  p.group_size = 10;
  p.use_query_scheme = true;
  const ScenarioResult r = run_scenario(p, rng);
  EXPECT_EQ(r.members.size(), 10u);
  EXPECT_GT(r.valid_member_count(), 0);
}

TEST(Scenario, NodeFailureModelRuns) {
  net::Rng rng(8);
  ScenarioParams p;
  p.node_count = 60;
  p.group_size = 12;
  p.failure_model = FailureModel::kWorstCaseNode;
  const ScenarioResult r = run_scenario(p, rng);
  EXPECT_EQ(r.members.size(), 12u);
  // Some members may be their own worst-case node (invalid); the rest
  // must produce positive recovery distances.
  for (const MemberComparison& m : r.members) {
    if (m.valid) {
      EXPECT_GT(m.rd_spf, 0.0);
    }
  }
}

TEST(Scenario, SteinerBaselineCheaperTree) {
  net::Rng rng(9);
  ScenarioParams spf_params;
  spf_params.node_count = 60;
  spf_params.group_size = 15;
  ScenarioParams steiner_params = spf_params;
  steiner_params.baseline = BaselineKind::kSteiner;
  net::Rng rng2(9);
  const ScenarioResult with_spf = run_scenario(spf_params, rng);
  const ScenarioResult with_steiner = run_scenario(steiner_params, rng2);
  // Same seed → same topology/members; the Steiner baseline tree must
  // not cost more than the SPF baseline tree.
  EXPECT_LE(with_steiner.cost_spf, with_spf.cost_spf + 1e-9);
}

TEST(Scenario, TopologyModelsProduceConnectedGraphs) {
  for (const auto model :
       {TopologyModel::kWaxman, TopologyModel::kErdosRenyi,
        TopologyModel::kBarabasiAlbert}) {
    net::Rng rng(10);
    ScenarioParams p;
    p.node_count = 80;   // enough density for recoverable failures in all
    p.alpha = 0.3;       // three families (sparse Waxman corners can make
    p.group_size = 10;   // every source link a bridge, which is valid=0)
    p.topology = model;
    const ScenarioResult r = run_scenario(p, rng);
    EXPECT_EQ(r.members.size(), 10u);
    EXPECT_GT(r.valid_member_count(), 0);
  }
}

TEST(Sweep, AggregatesRequestedGrid) {
  ScenarioParams p;
  p.node_count = 50;
  p.group_size = 8;
  const SweepCell cell = run_sweep(p, 3, 2, 99);
  EXPECT_EQ(cell.scenarios, 6);
  EXPECT_EQ(cell.rd_relative.count, 6);
  EXPECT_EQ(cell.cost_relative.count, 6);
  EXPECT_GT(cell.avg_degree, 1.0);
}

TEST(Sweep, DeterministicUnderSameSeed) {
  ScenarioParams p;
  p.node_count = 50;
  p.group_size = 8;
  const SweepCell a = run_sweep(p, 2, 2, 1234);
  const SweepCell b = run_sweep(p, 2, 2, 1234);
  EXPECT_DOUBLE_EQ(a.rd_relative.mean, b.rd_relative.mean);
  EXPECT_DOUBLE_EQ(a.cost_relative.mean, b.cost_relative.mean);
}

TEST(Sweep, HigherDthreshBuysMoreRdReduction) {
  // The headline monotonicity of Fig. 8, as a regression guard (coarse
  // grid to stay fast).
  ScenarioParams lo;
  lo.node_count = 60;
  lo.group_size = 15;
  lo.smrp.d_thresh = 0.05;
  ScenarioParams hi = lo;
  hi.smrp.d_thresh = 0.5;
  const SweepCell cl = run_sweep(lo, 4, 3, 777);
  const SweepCell ch = run_sweep(hi, 4, 3, 777);
  EXPECT_GT(ch.rd_relative.mean, cl.rd_relative.mean);
  EXPECT_GT(ch.cost_relative.mean, cl.cost_relative.mean);
  EXPECT_GT(ch.delay_relative.mean, cl.delay_relative.mean);
}

}  // namespace
}  // namespace smrp::eval
