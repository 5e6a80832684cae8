// Full-stack telemetry guarantees, asserted under the same seeded 50-fault
// chaos soak as tests/smrp/test_chaos.cpp:
//
//  * span discipline — every repair span is closed by the protocol exactly
//    once, children nest inside their parents, and the span count equals
//    the session's own repair-episode counter;
//  * determinism — attaching telemetry does not change a seeded run
//    (bit-identical tree, counters, and message totals vs. detached);
//  * measurement agreement — an outage span's total matches the payload
//    gap an external observer measures, which is what ties trace_report's
//    waterfall totals to bench_chaos_recovery's interruption gaps;
//  * a pinned export — the soak's JSONL snapshot hashes to a recorded
//    value, so a storage change in the span or event log that moves one
//    exported byte fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/invariants.hpp"
#include "testing_topologies.hpp"

namespace smrp::proto {
namespace {

using testing::ring_graph;

constexpr std::uint64_t kSoakSeed = 20050628;  // DSN'05 publication date

/// Outcome fingerprint of a soak run: everything the protocol and the
/// message layer can disagree on if telemetry perturbed the simulation.
struct SoakFingerprint {
  std::vector<net::NodeId> parents;
  std::vector<sim::Time> last_data;
  int repairs_started = 0;
  int repairs_completed = 0;
  int reshapes = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  bool operator==(const SoakFingerprint&) const = default;
};

struct SoakRun {
  SoakFingerprint fingerprint;
  int repairs_started = 0;
  sim::Time end_time = 0.0;
};

/// The standard 50-fault soak (12-node ring, members 3/6/9, source 0),
/// optionally with `telemetry` attached for the whole run.
SoakRun run_soak(obs::Telemetry* telemetry) {
  const net::Graph g = ring_graph(12);
  const net::NodeId source = 0;
  const std::vector<net::NodeId> members{3, 6, 9};

  SessionConfig config;
  config.max_repair_ttl = 4;  // exhaustion + fallback are reachable
  SimulationHarness h(g, source, config);
  h.attach_telemetry(telemetry);

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

  SoakRun run;
  run.end_time = h.simulator().now();
  run.repairs_started = h.session().repairs_started();
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    run.fingerprint.parents.push_back(h.session().parent_of(n));
    run.fingerprint.last_data.push_back(h.session().last_data_at(n));
  }
  run.fingerprint.repairs_started = h.session().repairs_started();
  run.fingerprint.repairs_completed = h.session().repairs_completed();
  run.fingerprint.reshapes = h.session().reshapes_performed();
  run.fingerprint.sent = h.network().messages_sent();
  run.fingerprint.delivered = h.network().messages_delivered();
  run.fingerprint.dropped = h.network().messages_dropped();
  return run;
}

TEST(TelemetrySoak, EveryRepairSpanClosesExactlyOnceAndNestsInItsOutage) {
  obs::Telemetry telemetry;
  const SoakRun run = run_soak(&telemetry);
  telemetry.finish(run.end_time);

  const obs::SpanCollector& spans = telemetry.spans;
  EXPECT_EQ(spans.double_closes(), 0u)
      << "some instrumentation site closed a span twice";
  EXPECT_EQ(spans.open_count(), 0u);

  // The soak produces real work to observe.
  ASSERT_GT(run.repairs_started, 0);
  EXPECT_GT(spans.count("outage"), 0u);
  EXPECT_GE(spans.count("ring"), spans.count("repair"));

  // One repair span per repair episode, no more, no less: repair spans are
  // opened only at start_repair, adjacent to the episode counter.
  EXPECT_EQ(spans.count("repair"),
            static_cast<std::size_t>(run.repairs_started));

  for (const obs::Span& span : spans.spans()) {
    EXPECT_FALSE(span.open()) << "span " << span.id << " left open";

    // The protocol — not the end-of-run flush — must resolve every repair
    // episode: adopted (ok), exhausted or crash-wiped (failed), or mooted
    // by a prune/restart (superseded).
    if (span.kind == "repair") {
      EXPECT_NE(span.status, obs::SpanStatus::kTruncated)
          << "repair span " << span.id << " only closed by the flush";
      EXPECT_NE(span.attr("rings"), nullptr)
          << "repair span " << span.id << " closed without its ring count";
    }

    if (span.parent == obs::kNoSpan) continue;
    const obs::Span* parent = spans.find(span.parent);
    ASSERT_NE(parent, nullptr) << "span " << span.id << " has ghost parent";
    EXPECT_LE(parent->start, span.start)
        << span.kind << " span " << span.id << " starts before its parent";
    // Convergence spans are the one sanctioned exception to nesting: they
    // measure how long the in-protocol detector lagged the oracle close,
    // so they end after their outage parent by construction.
    if (span.kind != "convergence") {
      EXPECT_GE(parent->end, span.end)
          << span.kind << " span " << span.id << " outlives its parent";
    }
    // The taxonomy is fixed: rings hang off repairs; repairs, grafts,
    // fallbacks, rejoin legs and convergence confirmations hang off
    // outages.
    if (span.kind == "ring") {
      EXPECT_EQ(parent->kind, "repair");
    } else if (span.kind == "repair" || span.kind == "graft" ||
               span.kind == "fallback" || span.kind == "rejoin" ||
               span.kind == "convergence") {
      EXPECT_EQ(parent->kind, "outage");
    }
  }
}

TEST(TelemetrySoak, AttachedAndDetachedRunsAreBitIdentical) {
  obs::Telemetry telemetry;
  const SoakRun with = run_soak(&telemetry);
  const SoakRun without = run_soak(nullptr);

  // Telemetry never touches the RNG or the event queue, so the seeded run
  // must not notice it: same tree, same episode counters, same message
  // totals, payload-for-payload.
  EXPECT_EQ(with.fingerprint, without.fingerprint);

  // And the attached run actually observed something (the guard is not
  // vacuous because telemetry silently detached).
  EXPECT_GT(telemetry.spans.spans().size(), 0u);
  EXPECT_GT(telemetry.metrics.counters().size(), 0u);
}

TEST(TelemetrySoak, DetachedSoakRecordsNothing) {
  obs::Telemetry telemetry;
  const net::Graph g = ring_graph(8);  // harness layers reference the graph
  SimulationHarness h(g, 0);
  h.attach_telemetry(&telemetry);
  h.attach_telemetry(nullptr);  // detach again before anything runs
  h.start();
  h.session().join(4);
  h.simulator().run_until(2'000.0);
  // Attaching registers instrument names (handles are resolved eagerly),
  // but after the detach nothing may be recorded through them.
  EXPECT_TRUE(telemetry.spans.spans().empty());
  EXPECT_EQ(telemetry.events.size(), 0u);
  for (const auto& [name, counter] : telemetry.metrics.counters()) {
    EXPECT_EQ(counter.value(), 0u) << name;
  }
  for (const auto& [name, hist] : telemetry.metrics.histograms()) {
    EXPECT_EQ(hist.count(), 0u) << name;
  }
}

/// FNV-1a 64 over the bytes of `text`.
std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(TelemetrySoak, AttachedSoakExportIsPinned) {
  obs::Telemetry telemetry;
  const SoakRun run = run_soak(&telemetry);
  telemetry.finish(run.end_time);
  std::ostringstream out;
  obs::JsonlSink(out).write_snapshot(telemetry, run.end_time, "soak");
  const std::string text = out.str();

  // First recorded from this soak's export with the heap-object event log
  // the block log replaced, so the block log reproduces it byte for byte;
  // re-recorded when the oracle stopped repairing trees incrementally
  // (that counter's line is gone and cache_fallback counts every miss),
  // and when graphs stopped changing after construction (the
  // smrp.routing.invalidations counter's line is gone).
  // A change that moves an exported byte on purpose re-records both.
  constexpr std::uint64_t kLines = 11150;
  constexpr std::uint64_t kHash = 0xc68686511fd3c54aull;
  EXPECT_EQ(static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n')),
            kLines);
  EXPECT_EQ(fnv1a64(text), kHash);
  EXPECT_GT(telemetry.events.count("forward"), 0u);
  EXPECT_GT(telemetry.events.count("deliver"), 0u);
}

TEST(TelemetrySoak, OutageSpanTotalMatchesExternallyMeasuredPayloadGap) {
  // One deterministic flap of the member's tree link, with the payload gap
  // measured the way bench_chaos_recovery measures it: watch last_data_at
  // from outside and take the largest inter-payload interval.
  const net::Graph g = ring_graph(8);
  const net::NodeId member = 4;
  obs::Telemetry telemetry;
  SimulationHarness h(g, 0);
  h.attach_telemetry(&telemetry);
  h.start();
  h.session().join(member);
  h.simulator().run_until(2'000.0);

  const net::NodeId parent = h.session().parent_of(member);
  ASSERT_NE(parent, net::kNoNode);
  const auto link = g.link_between(member, parent);
  ASSERT_TRUE(link.has_value());
  h.fail_link_at(*link, 2'000.0);
  h.restore_link_at(*link, 3'200.0);

  sim::Time prev_payload = h.session().last_data_at(member);
  double measured_gap = 0.0;
  for (sim::Time t = 2'001.0; t <= 8'000.0; t += 1.0) {
    h.simulator().run_until(t);
    const sim::Time at = h.session().last_data_at(member);
    if (at != prev_payload) {
      measured_gap = std::max(measured_gap, at - prev_payload);
      prev_payload = at;
    }
  }
  telemetry.finish(h.simulator().now());

  std::vector<const obs::Span*> outages;
  for (const obs::Span& span : telemetry.spans.spans()) {
    if (span.kind == "outage" && span.node == member &&
        span.status == obs::SpanStatus::kOk) {
      outages.push_back(&span);
    }
  }
  ASSERT_EQ(outages.size(), 1u)
      << "expected exactly one restored outage at the member";
  const double* total = outages.front()->attr("total_ms");
  ASSERT_NE(total, nullptr);
  // The span carries the same payload-to-payload interval the external
  // observer saw: its service_lost_at anchor is the last payload before
  // the failure and its close is the first payload after restoration.
  EXPECT_GT(*total, 100.0);  // a real interruption, not sampling noise
  EXPECT_NEAR(*total, measured_gap, 1e-6);
}

}  // namespace
}  // namespace smrp::proto
