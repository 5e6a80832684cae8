// The expectations gate over the standard 50-fault chaos soak
// (tests/smrp/test_chaos.cpp): the hardened protocol satisfies the full
// core ruleset online, the online judgement and the offline replay of the
// run's own JSONL export are byte-identical, and each seeded protocol
// mutation — the pre-hardening legacy path, the forward-everything guard
// drop, and the ring-budget-ignoring repair — trips at least one rule.
// This is what makes the ruleset load-bearing: a rule no mutant can
// violate would be dead weight.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/expect/offline.hpp"
#include "obs/expect/rules.hpp"
#include "obs/jsonl.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/invariants.hpp"

namespace smrp::proto {
namespace {

constexpr std::uint64_t kSoakSeed = 20050628;  // DSN'05 publication date

net::Graph soak_ring(int n) {
  net::Graph g(n);
  for (net::NodeId i = 0; i < n; ++i) {
    g.add_link(i, (i + 1) % n, 1.0);
  }
  return g;
}

struct GateRun {
  obs::expect::ExpectReport report;  ///< online judgement
  std::string jsonl;                 ///< the run's own export
  double end_time = 0.0;
};

/// The standard 50-fault soak with the core ruleset tapped online and the
/// telemetry exported at end-of-run, under an arbitrary SessionConfig.
GateRun run_gated_soak(const SessionConfig& config) {
  const net::Graph g = soak_ring(12);
  const net::NodeId source = 0;
  const std::vector<net::NodeId> members{3, 6, 9};

  obs::Telemetry telemetry;
  obs::expect::ExpectationChecker checker(
      obs::expect::RuleSet::smrp_core());
  checker.attach(telemetry);

  SimulationHarness h(g, source, config);
  h.attach_telemetry(&telemetry);

  sim::FaultPlan::RandomParams params;
  params.link_flaps = 47;
  params.node_restarts = 2;
  params.loss_bursts = 1;
  params.start = 2'000.0;
  params.window = 20'000.0;
  params.protected_nodes = {source};
  net::Rng rng(kSoakSeed);
  sim::ChaosController chaos(h.simulator(), h.network(),
                             sim::FaultPlan::randomized(g, params, rng));
  h.start();
  for (const net::NodeId m : members) h.session().join(m);
  chaos.arm();

  const sim::Time bound = service_restoration_bound(
      h.session().config(), routing::RoutingConfig{}, g);
  h.simulator().run_until(chaos.quiescent_time() + bound);

  GateRun run;
  run.end_time = h.simulator().now();
  telemetry.finish(run.end_time);  // flush open spans through the tap
  run.report = checker.report();
  std::ostringstream out;
  obs::JsonlSink sink(out);
  sink.write_snapshot(telemetry, run.end_time, "soak");
  run.jsonl = out.str();
  return run;
}

SessionConfig soak_config() {
  SessionConfig config;
  config.max_repair_ttl = 4;  // exhaustion + fallback are reachable
  return config;
}

/// Rules with at least one violation, by name.
std::vector<std::string> violated_rules(const obs::expect::ExpectReport& r) {
  std::vector<std::string> names;
  for (const obs::expect::RuleOutcome& rule : r.rules) {
    if (!rule.ok()) names.push_back(rule.name);
  }
  return names;
}

bool violates(const obs::expect::ExpectReport& report,
              std::string_view rule_name) {
  for (const obs::expect::RuleOutcome& rule : report.rules) {
    if (rule.name == rule_name) return !rule.ok();
  }
  return false;
}

TEST(ExpectationsGate, HardenedSoakPassesTheFullCoreRuleset) {
  const GateRun run = run_gated_soak(soak_config());
  EXPECT_TRUE(run.report.ok()) << run.report.render();

  // The pass is not vacuous: the soak exercised the episode rules and the
  // per-message rules alike.
  const auto checked = [&](std::string_view name) -> std::uint64_t {
    for (const obs::expect::RuleOutcome& rule : run.report.rules) {
      if (rule.name == name) return rule.checked;
    }
    return 0;
  };
  EXPECT_GT(checked("outage-resolves"), 0u);
  EXPECT_GT(checked("repair-resolves"), 0u);
  EXPECT_GT(checked("ring-within-budget"), 0u);
  EXPECT_GT(checked("outage-has-recovery"), 0u);
  EXPECT_GT(checked("forward-on-tree"), 0u);
  EXPECT_GT(checked("no-duplicate-delivery"), 0u);
}

TEST(ExpectationsGate, OnlineAndOfflineReportsAreByteIdentical) {
  const GateRun run = run_gated_soak(soak_config());
  std::istringstream replay(run.jsonl);
  const obs::expect::OfflineResult offline = obs::expect::check_stream(
      replay, obs::expect::RuleSet::smrp_core());
  ASSERT_EQ(offline.runs.size(), 1u);
  EXPECT_EQ(offline.runs[0].run, "soak");
  EXPECT_EQ(offline.runs[0].report.render(), run.report.render());
}

TEST(ExpectationsGate, LegacyProtocolTripsTheRuleset) {
  // The pre-hardening protocol gives up ring searches silently and trusts
  // stale state across restarts: under the soak it strands members, whose
  // outage spans the end-of-run flush then truncates.
  SessionConfig config = soak_config();
  config.mutations.legacy_repair = true;
  const GateRun run = run_gated_soak(config);
  EXPECT_FALSE(run.report.ok())
      << "the legacy mutant passed the core ruleset; the expectations "
         "gate is no longer load-bearing";
  EXPECT_TRUE(violates(run.report, "outage-resolves"))
      << run.report.render();
}

TEST(ExpectationsGate, ForwardEverythingMutantTripsTheForwardRules) {
  // Dropping the on-tree/from-parent acceptance guard floods payloads to
  // every neighbor; the forward events record the ground truth and the
  // flag rules catch it on the first off-tree hop.
  SessionConfig config = soak_config();
  config.mutations.forward_off_tree = true;
  const GateRun run = run_gated_soak(config);
  EXPECT_FALSE(run.report.ok());
  EXPECT_TRUE(violates(run.report, "forward-on-tree") ||
              violates(run.report, "forward-from-parent"))
      << run.report.render();
}

TEST(ExpectationsGate, RingBudgetMutantTripsTheBudgetRule) {
  // Ignoring max_repair_ttl keeps the expanding-ring search widening past
  // the configured cap; every ring span carries its ttl and the cap, so
  // the attr-le rule catches the first over-budget flood.
  SessionConfig config = soak_config();
  config.mutations.ignore_ring_budget = true;
  const GateRun run = run_gated_soak(config);
  EXPECT_TRUE(violates(run.report, "ring-within-budget"))
      << run.report.render();
}

TEST(ExpectationsGate, MutantViolationsReplayIdenticallyOffline) {
  // The byte-identical guarantee holds for failing runs too — CI's
  // offline trace gate must agree with the online one about violations,
  // not just about clean passes.
  SessionConfig config = soak_config();
  config.mutations.ignore_ring_budget = true;
  const GateRun run = run_gated_soak(config);
  std::istringstream replay(run.jsonl);
  const obs::expect::OfflineResult offline = obs::expect::check_stream(
      replay, obs::expect::RuleSet::smrp_core());
  ASSERT_EQ(offline.runs.size(), 1u);
  EXPECT_EQ(offline.runs[0].report.render(), run.report.render());
  EXPECT_EQ(violated_rules(offline.runs[0].report),
            violated_rules(run.report));
}

}  // namespace
}  // namespace smrp::proto
