// Randomized chaos soak: a seeded 50-fault plan (link flaps, two node
// crash/restarts, one loss burst) against a full protocol stack on a 3x3
// grid. The run must reach quiescence with the invariant checker finding
// zero violations — live audits throughout, the strict quiescent audit at
// the end — and every member the surviving topology still connects to the
// source receiving data. The same drill against the pre-hardening
// protocol (the test-only SessionConfig::Mutations::legacy_repair) fails,
// which is the regression guarantee this suite exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/invariants.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::ring_graph;

constexpr std::uint64_t kSoakSeed = 20050628;  // DSN'05 publication date

struct SoakResult {
  InvariantReport quiescent;
  std::vector<std::string> live_violations;
  bool plan_drained = false;
  int starving_members = 0;
};

/// Run the standard 50-fault soak: 47 link flaps + 2 node crash/restarts
/// + 1 loss burst on a 12-node ring, members at 3/6/9, source at 0.
SoakResult run_soak(bool legacy_repair, std::uint64_t seed = kSoakSeed) {
  const net::Graph g = ring_graph(12);
  const net::NodeId source = 0;
  const std::vector<net::NodeId> members{3, 6, 9};

  SessionConfig config;
  config.mutations.legacy_repair = legacy_repair;
  // Keep the ring search short of the worst-case detour (up to 11 hops
  // around) so exhausting it is a scenario the plan actually produces.
  config.max_repair_ttl = 4;
  SimulationHarness h(g, source, config);

  sim::FaultPlan::RandomParams params;
  params.link_flaps = 47;
  params.node_restarts = 2;
  params.loss_bursts = 1;
  params.start = 2'000.0;   // let the session settle first
  params.window = 20'000.0;
  params.protected_nodes = {source};
  net::Rng rng(seed);
  const sim::FaultPlan plan = sim::FaultPlan::randomized(g, params, rng);
  EXPECT_EQ(plan.fault_count(), 50);

  sim::ChaosController chaos(h.simulator(), h.network(), plan);
  h.start();
  for (const net::NodeId m : members) h.session().join(m);
  chaos.arm();

  const InvariantChecker checker(h.session(), h.network());
  SoakResult result;

  // Drive through the fault window with live audits every 100ms.
  const sim::Time quiescent_at = plan.quiescent_time();
  for (sim::Time t = 100.0; t < quiescent_at; t += 100.0) {
    h.simulator().run_until(t);
    const InvariantReport live = checker.audit();
    for (const std::string& v : live.violations) {
      result.live_violations.push_back("t=" + std::to_string(t) + ": " + v);
    }
  }

  // Let the protocol settle past its own computable restoration bound,
  // then apply the strict audit.
  const sim::Time bound = service_restoration_bound(
      h.session().config(), routing::RoutingConfig{}, g);
  h.simulator().run_until(quiescent_at + bound);
  result.plan_drained = chaos.quiescent();
  result.quiescent = checker.audit_quiescent(quiescent_at);

  // Independent service check (not via the checker): every member in the
  // source's surviving component gets fresh data.
  const sim::Time now = h.simulator().now();
  for (const net::NodeId m : members) {
    if (!h.network().node_up(m)) continue;
    const sim::Time last = h.session().last_data_at(m);
    if (last < quiescent_at ||
        now - last > h.session().config().upstream_timeout) {
      ++result.starving_members;
    }
  }
  return result;
}

TEST(ChaosSoak, HardenedProtocolSurvivesFiftyFaults) {
  const SoakResult result = run_soak(/*legacy_repair=*/false);
  EXPECT_TRUE(result.plan_drained);
  EXPECT_TRUE(result.live_violations.empty())
      << result.live_violations.front();
  EXPECT_TRUE(result.quiescent.ok()) << result.quiescent.to_string();
  EXPECT_EQ(result.starving_members, 0);
}

TEST(ChaosSoak, LegacyProtocolFailsTheSameDrill) {
  // The pre-hardening protocol trusts stale soft state across a
  // crash-restart and gives up ring searches silently; under the same
  // 50-fault plan it ends with members dark or state inconsistent.
  const SoakResult result = run_soak(/*legacy_repair=*/true);
  const bool failed = !result.quiescent.ok() || result.starving_members > 0 ||
                      !result.live_violations.empty();
  EXPECT_TRUE(failed)
      << "the legacy protocol unexpectedly survived the chaos drill; the "
         "hardened path is no longer load-bearing";
}

TEST(ChaosSoak, SoakIsDeterministicInTheSeed) {
  const SoakResult a = run_soak(/*legacy_repair=*/false);
  const SoakResult b = run_soak(/*legacy_repair=*/false);
  EXPECT_EQ(a.quiescent.violations, b.quiescent.violations);
  EXPECT_EQ(a.live_violations, b.live_violations);
  EXPECT_EQ(a.starving_members, b.starving_members);
}

TEST(ChaosSoak, HardenedSurvivesAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const SoakResult result = run_soak(/*legacy_repair=*/false, seed);
    EXPECT_TRUE(result.quiescent.ok())
        << "seed " << seed << ": " << result.quiescent.to_string();
    EXPECT_EQ(result.starving_members, 0) << "seed " << seed;
  }
}

TEST(ChaosSoak, OracleCountersBalanceThroughTheSoak) {
  // Same drill as the hardened soak, but with telemetry attached: the
  // session's RoutingOracle must publish balanced cache counters (every
  // lookup is exactly one hit or one miss, every miss exactly one full
  // run) no matter what the fault plan
  // does to the topology underneath it.
  const net::Graph g = ring_graph(12);
  SessionConfig config;
  config.max_repair_ttl = 4;
  SimulationHarness h(g, 0, config);
  obs::Telemetry telemetry;
  h.attach_telemetry(&telemetry);

  sim::FaultPlan::RandomParams params;
  params.link_flaps = 47;
  params.node_restarts = 2;
  params.loss_bursts = 1;
  params.start = 2'000.0;
  params.window = 20'000.0;
  params.protected_nodes = {net::NodeId{0}};
  net::Rng rng(kSoakSeed);
  sim::ChaosController chaos(h.simulator(), h.network(),
                             sim::FaultPlan::randomized(g, params, rng));
  h.start();
  for (const net::NodeId m : {3, 6, 9}) h.session().join(m);
  chaos.arm();
  h.simulator().run_until(chaos.quiescent_time() + 5'000.0);

  auto& m = telemetry.metrics;
  const std::uint64_t lookups = m.counter("smrp.routing.lookups").value();
  const std::uint64_t hits = m.counter("smrp.routing.cache_hit").value();
  const std::uint64_t misses = m.counter("smrp.routing.cache_miss").value();
  const std::uint64_t fallback =
      m.counter("smrp.routing.cache_fallback").value();
  EXPECT_GT(lookups, 0u);  // the soak actually routed through the oracle
  EXPECT_EQ(lookups, hits + misses);
  EXPECT_EQ(misses, fallback);
}

TEST(ChaosSoak, NonceStateStaysBoundedThroughTheSoak) {
  const net::Graph g = testing::grid3x3();
  SessionConfig config;
  SimulationHarness h(g, 0, config);
  sim::FaultPlan::RandomParams params;
  params.link_flaps = 60;  // repair-heavy plan: lots of ring floods
  params.node_restarts = 0;
  params.loss_bursts = 0;
  params.start = 1'000.0;
  params.window = 30'000.0;
  params.protected_nodes = {0};
  net::Rng rng(kSoakSeed);
  sim::ChaosController chaos(h.simulator(), h.network(),
                             sim::FaultPlan::randomized(g, params, rng));
  h.start();
  for (const net::NodeId m : {2, 6, 8}) h.session().join(m);
  chaos.arm();
  h.simulator().run_until(chaos.quiescent_time() + 2'000.0);
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    EXPECT_LE(h.session().seen_nonce_count(n), DistributedSession::kSeenNonceCap)
        << "node " << n;
  }
}

}  // namespace
}  // namespace smrp::proto
