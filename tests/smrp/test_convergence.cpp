// End-to-end convergence detection (DESIGN.md §13) under the standard
// 50-fault chaos soak: every outage the protocol restored must carry a
// `convergence` child span confirming the restoration in-protocol, the
// confirmation must never be early (detected_ms >= total_ms), and the
// detection machinery — including the opt-in adaptive triggers — must be
// pure computation on protocol state: seeded runs are bit-identical with
// telemetry attached or detached.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/invariants.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::ring_graph;

constexpr std::uint64_t kSoakSeed = 20050628;  // DSN'05 publication date

const std::vector<net::NodeId> kMembers{3, 6, 9};

/// Everything the protocol computed that an observer could compare:
/// bit-identity across telemetry attach states is judged on this.
struct ProtocolDigest {
  std::size_t events_processed = 0;
  double end_time = 0.0;
  std::uint64_t detections = 0;
  bool converged = false;
  std::vector<double> last_data_ms;
};

/// The standard 50-fault soak (tests/smrp/test_chaos.cpp), optionally
/// observed. Returns the protocol-side digest; the telemetry bundle (when
/// given) is finished at end-of-run so spans are flushed for scanning.
ProtocolDigest run_soak(const SessionConfig& config,
                        obs::Telemetry* telemetry) {
  const net::Graph g = ring_graph(12);
  SimulationHarness h(g, /*source=*/0, config);
  if (telemetry != nullptr) h.attach_telemetry(telemetry);

  sim::FaultPlan::RandomParams params;
  params.link_flaps = 47;
  params.node_restarts = 2;
  params.loss_bursts = 1;
  params.start = 2'000.0;
  params.window = 20'000.0;
  params.protected_nodes = {0};
  net::Rng rng(kSoakSeed);
  sim::ChaosController chaos(h.simulator(), h.network(),
                             sim::FaultPlan::randomized(g, params, rng));
  h.start();
  for (const net::NodeId m : kMembers) h.session().join(m);
  chaos.arm();

  const sim::Time bound = service_restoration_bound(
      h.session().config(), routing::RoutingConfig{}, g);
  h.simulator().run_until(chaos.quiescent_time() + bound);

  ProtocolDigest digest;
  digest.events_processed = h.simulator().processed();
  digest.end_time = h.simulator().now();
  digest.detections = h.session().convergence_detections();
  digest.converged = h.session().convergence_detected();
  for (const net::NodeId m : kMembers) {
    digest.last_data_ms.push_back(h.session().last_data_at(m));
  }
  if (telemetry != nullptr) telemetry->finish(digest.end_time);
  return digest;
}

SessionConfig soak_config() {
  SessionConfig config;
  config.max_repair_ttl = 4;  // exhaustion + fallback are reachable
  return config;
}

TEST(ConvergenceSoak, EveryRestoredOutageIsConfirmedInProtocolNeverEarly) {
  obs::Telemetry telemetry;
  run_soak(soak_config(), &telemetry);

  // Scan the flushed trace: restored (ok-closed) outages on one side,
  // convergence confirmations keyed by their outage parent on the other.
  std::set<obs::SpanId> restored;
  std::map<obs::SpanId, const obs::Span*> confirmations;
  for (const obs::Span& span : telemetry.spans.spans()) {
    if (span.kind == "outage" && span.status == obs::SpanStatus::kOk) {
      restored.insert(span.id);
    }
    if (span.kind == "convergence") {
      // One confirmation per episode: a duplicate would mean the
      // detector re-confirmed an already-paired outage.
      EXPECT_EQ(confirmations.count(span.parent), 0u);
      confirmations[span.parent] = &span;
    }
  }
  ASSERT_GT(restored.size(), 0u) << "the soak restored no outages; the "
                                    "coverage claim would be vacuous";

  // 100% coverage: the acceptance bar is every restored outage, not most.
  for (const obs::SpanId outage : restored) {
    const auto it = confirmations.find(outage);
    ASSERT_NE(it, confirmations.end())
        << "restored outage span " << outage
        << " was never confirmed in-protocol";
    const obs::Span& conv = *it->second;
    EXPECT_EQ(conv.status, obs::SpanStatus::kOk);
    const double* total = conv.attr("total_ms");
    const double* detected = conv.attr("detected_ms");
    const double* skew = conv.attr("skew_ms");
    ASSERT_NE(total, nullptr);
    ASSERT_NE(detected, nullptr);
    ASSERT_NE(skew, nullptr);
    // Never early: the source cannot honestly claim a restoration before
    // the omniscient clock says it happened.
    EXPECT_GE(*detected, *total);
    EXPECT_EQ(*skew, *detected - *total);
    EXPECT_GE(*skew, 0.0);
  }
  // Every confirmation points at a real restored outage (no orphans).
  for (const auto& [parent, conv] : confirmations) {
    EXPECT_EQ(restored.count(parent), 1u)
        << "convergence span " << conv->id
        << " confirms a span that is not a restored outage";
  }
}

TEST(ConvergenceSoak, QuietSessionDeclaresTheFirstEpoch) {
  // No faults at all: once the joins settle, the wave reaches the source
  // and the first epoch is declared — detection is not outage-triggered,
  // it is a standing verdict over the refresh traffic.
  const net::Graph g = ring_graph(12);
  SimulationHarness h(g, /*source=*/0, soak_config());
  h.start();
  for (const net::NodeId m : kMembers) h.session().join(m);
  h.simulator().run_until(8'000.0);
  EXPECT_TRUE(h.session().convergence_detected());
  EXPECT_GE(h.session().convergence_detections(), 1u);
}

TEST(ConvergenceSoak, AdaptiveTriggersSurviveTheSoak) {
  // The adaptive mode changes protocol behaviour (early ring aborts,
  // gated reshapes), so it gets its own pass through the invariant
  // checker and the service check — same drill as the hardened baseline.
  SessionConfig config = soak_config();
  config.adaptive_triggers = true;

  const net::Graph g = ring_graph(12);
  SimulationHarness h(g, /*source=*/0, config);
  sim::FaultPlan::RandomParams params;
  params.link_flaps = 47;
  params.node_restarts = 2;
  params.loss_bursts = 1;
  params.start = 2'000.0;
  params.window = 20'000.0;
  params.protected_nodes = {0};
  net::Rng rng(kSoakSeed);
  const sim::FaultPlan plan = sim::FaultPlan::randomized(g, params, rng);
  sim::ChaosController chaos(h.simulator(), h.network(), plan);
  h.start();
  for (const net::NodeId m : kMembers) h.session().join(m);
  chaos.arm();
  const InvariantChecker checker(h.session(), h.network());
  const sim::Time bound = service_restoration_bound(
      h.session().config(), routing::RoutingConfig{}, g);
  h.simulator().run_until(plan.quiescent_time() + bound);

  const InvariantReport report = checker.audit_quiescent(
      plan.quiescent_time());
  EXPECT_TRUE(report.ok()) << report.to_string();
  const sim::Time now = h.simulator().now();
  for (const net::NodeId m : kMembers) {
    if (!h.network().node_up(m)) continue;
    const sim::Time last = h.session().last_data_at(m);
    EXPECT_GT(last, plan.quiescent_time()) << "member " << m << " is dark";
    EXPECT_LE(now - last, h.session().config().upstream_timeout)
        << "member " << m << " is starving";
  }
}

TEST(ConvergenceSoak, DetectionIsBitIdenticalAttachedOrDetached) {
  // The detector (and the adaptive triggers acting on it) is pure
  // computation on protocol state — no events, no randomness. Attaching
  // telemetry must therefore not move a single simulator event, in either
  // the baseline or the adaptive configuration.
  for (const bool adaptive : {false, true}) {
    SessionConfig config = soak_config();
    config.adaptive_triggers = adaptive;
    obs::Telemetry telemetry;
    const ProtocolDigest observed = run_soak(config, &telemetry);
    const ProtocolDigest blind = run_soak(config, nullptr);
    EXPECT_EQ(observed.events_processed, blind.events_processed)
        << "adaptive=" << adaptive;
    EXPECT_EQ(observed.end_time, blind.end_time);
    EXPECT_EQ(observed.detections, blind.detections);
    EXPECT_EQ(observed.converged, blind.converged);
    EXPECT_EQ(observed.last_data_ms, blind.last_data_ms);
    EXPECT_GT(observed.detections, 0u);
  }
}

TEST(ConvergenceSoak, AdaptiveModeActuallyFiresUnderTheSoak) {
  // A/B honesty check: if the soak never exercises an adaptive fallback
  // or a converged-gated reshape, the A/B bench compares identical runs.
  // Divergence in the digest is the cheapest proof the knob is live.
  SessionConfig baseline = soak_config();
  SessionConfig adaptive = soak_config();
  adaptive.adaptive_triggers = true;
  const ProtocolDigest a = run_soak(baseline, nullptr);
  const ProtocolDigest b = run_soak(adaptive, nullptr);
  EXPECT_NE(a.events_processed, b.events_processed)
      << "adaptive triggers never changed the run; the A/B comparison "
         "is vacuous";
}

}  // namespace
}  // namespace smrp::proto
