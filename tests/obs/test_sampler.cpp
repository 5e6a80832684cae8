// Periodic gauge sampling and end-of-run sealing:
//
//  * maybe_sample() snapshots every gauge when sim time crosses a period
//    boundary, re-anchoring across event gaps (one snapshot per gap, not a
//    back-filled burst);
//  * finish() is idempotent, takes a closing snapshot, and seals the span
//    and event collectors — late emission is counted, never recorded;
//  * the JSONL export of a run killed mid-outage is byte-identical whether
//    the open spans were truncated by the online exporter or flushed by
//    finish() first (events interleaved with truncated spans included) —
//    modulo the meta line's open-span count, which is the one honest
//    difference between a live and a flushed bundle.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.hpp"
#include "obs/telemetry.hpp"

namespace smrp::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string snapshot(const Telemetry& telemetry, double now) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.write_snapshot(telemetry, now, "kill-test");
  return out.str();
}

TEST(GaugeSampler, DisarmedByDefaultAndOnNonPositivePeriods) {
  Telemetry t;
  t.metrics.gauge("g").set(1.0);
  EXPECT_FALSE(t.sampling_enabled());
  t.enable_sampling(0.0);
  t.enable_sampling(-5.0);
  EXPECT_FALSE(t.sampling_enabled());
  t.maybe_sample(10'000.0);
  EXPECT_TRUE(t.samples().empty());
}

TEST(GaugeSampler, SnapshotsEveryGaugeAtPeriodBoundaries) {
  Telemetry t;
  t.enable_sampling(100.0);
  t.metrics.gauge("smrp.sim.queue_depth").set(3.0);
  t.metrics.gauge("smrp.sim.pool_free").set(7.0);

  t.maybe_sample(50.0);  // before the first boundary
  EXPECT_TRUE(t.samples().empty());

  t.maybe_sample(100.0);  // due exactly on the boundary
  ASSERT_EQ(t.samples().size(), 2u);  // one row per gauge, name-ordered
  EXPECT_EQ(t.samples()[0].name, "smrp.sim.pool_free");
  EXPECT_EQ(t.samples()[0].t, 100.0);
  EXPECT_EQ(t.samples()[0].value, 7.0);
  EXPECT_EQ(t.samples()[1].name, "smrp.sim.queue_depth");
  EXPECT_EQ(t.samples()[1].value, 3.0);

  t.maybe_sample(150.0);  // not due again until 200
  EXPECT_EQ(t.samples().size(), 2u);
}

TEST(GaugeSampler, LongEventGapYieldsOneSnapshotNotABurst) {
  Telemetry t;
  t.enable_sampling(100.0);
  t.metrics.gauge("g").set(1.0);
  // Sim time jumps straight from 0 to 750: gauges cannot have changed in
  // between (they only move at events), so back-filling 7 identical rows
  // would be noise. One row, stamped at the event that crossed the
  // boundary; the next due time re-anchors past `now`.
  t.maybe_sample(750.0);
  ASSERT_EQ(t.samples().size(), 1u);
  EXPECT_EQ(t.samples()[0].t, 750.0);
  t.maybe_sample(799.0);
  EXPECT_EQ(t.samples().size(), 1u);
  t.maybe_sample(800.0);
  EXPECT_EQ(t.samples().size(), 2u);
}

TEST(GaugeSampler, FinishTakesAClosingSnapshotExactlyOnce) {
  Telemetry t;
  t.enable_sampling(100.0);
  t.metrics.gauge("g").set(2.0);
  t.maybe_sample(100.0);
  ASSERT_EQ(t.samples().size(), 1u);
  t.finish(130.0);  // closing snapshot at an off-boundary instant
  ASSERT_EQ(t.samples().size(), 2u);
  EXPECT_EQ(t.samples()[1].t, 130.0);
  // Idempotent: a second finish (exporter convenience path) adds nothing.
  t.finish(130.0);
  t.finish(500.0);
  EXPECT_EQ(t.samples().size(), 2u);
  // And the sampler is dead after the run ended.
  t.maybe_sample(1'000.0);
  EXPECT_EQ(t.samples().size(), 2u);
}

TEST(GaugeSampler, FinishSkipsTheClosingSnapshotWhenAlreadyCurrent) {
  Telemetry t;
  t.enable_sampling(100.0);
  t.metrics.gauge("g").set(2.0);
  t.maybe_sample(200.0);
  ASSERT_EQ(t.samples().size(), 1u);
  t.finish(200.0);  // the last sample is already stamped at `now`
  EXPECT_EQ(t.samples().size(), 1u);
}

TEST(TelemetryFinish, IsIdempotentAndSealsAgainstLateEmission) {
  Telemetry t;
  const SpanId outage = t.spans.open("outage", 3, 100.0);
  t.events.record(t.events.shape("deliver", {"seq"}), 3, 150.0, {1.0});
  t.finish(200.0);

  // The flush truncated the open span exactly once.
  const Span* span = t.spans.find(outage);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->status, SpanStatus::kTruncated);
  EXPECT_EQ(span->end, 200.0);
  EXPECT_TRUE(t.finished());
  EXPECT_TRUE(t.spans.sealed());
  EXPECT_TRUE(t.events.sealed());

  // A second finish must not re-truncate or double-close anything.
  t.finish(300.0);
  EXPECT_EQ(t.spans.find(outage)->end, 200.0);
  EXPECT_EQ(t.spans.double_closes(), 0u);

  // Emission after the flush is a discipline bug: counted, not recorded.
  EXPECT_EQ(t.spans.open("outage", 4, 300.0), kNoSpan);
  t.events.record(t.events.shape("deliver", {}), 4, 300.0, {});
  EXPECT_EQ(t.spans.spans().size(), 1u);
  EXPECT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.spans.late_opens(), 1u);
  EXPECT_EQ(t.events.late_records(), 1u);
}

TEST(JsonlRoundTrip, KilledMidOutageExportsIdenticallyOnlineAndFlushed) {
  // A run cut off mid-outage: a closed repair inside a still-open outage,
  // with events interleaved around the truncation point.
  const double killed_at = 900.0;
  Telemetry t;
  t.enable_sampling(250.0);
  t.metrics.counter("smrp.sim.events").add(41);
  t.metrics.gauge("smrp.sim.queue_depth").set(5.0);
  t.metrics.histogram("smrp.proto.outage_ms").record(320.0);
  t.events.record(t.events.shape("forward", {"on_tree"}), 2, 180.0, {1.0});
  const SpanId outage = t.spans.open("outage", 6, 200.0);
  const SpanId repair = t.spans.open("repair", 6, 240.0, outage);
  t.spans.attr(repair, "rings", 2.0);
  t.spans.close(repair, 410.0, SpanStatus::kOk);
  t.events.record(t.events.shape("deliver", {"seq"}), 6, 420.0, {7.0});
  t.maybe_sample(500.0);
  const SpanId graft = t.spans.open("graft", 6, 800.0, outage);
  (void)graft;  // left open: the kill truncates it mid-flight

  // Online: the exporter snapshots the LIVE bundle the instant the run is
  // killed — open spans are emitted as truncated at `killed_at`. The
  // simulator pumps maybe_sample() at every event, so the due sample at
  // the kill instant has already been taken when the exporter runs.
  t.maybe_sample(killed_at);
  const std::string online = snapshot(t, killed_at);

  // Offline: the bundle is flushed first (finish truncates the same spans
  // at the same instant), then exported.
  t.finish(killed_at);
  const std::string flushed = snapshot(t, killed_at);

  const std::vector<std::string> online_lines = lines_of(online);
  const std::vector<std::string> flushed_lines = lines_of(flushed);
  ASSERT_EQ(online_lines.size(), flushed_lines.size());
  ASSERT_GT(online_lines.size(), 1u);

  // Every record line is byte-identical: same span truncation judgement,
  // same event interleaving, same samples (finish skips its closing
  // snapshot because the last sample is already stamped at `killed_at`).
  for (std::size_t i = 1; i < online_lines.size(); ++i) {
    EXPECT_EQ(online_lines[i], flushed_lines[i]) << "line " << i;
  }

  // The meta line may only disagree on the open-span count: 2 live vs 0
  // after the flush. That is the one honest difference.
  EXPECT_NE(online_lines[0].find("\"open_spans\":2"), std::string::npos)
      << online_lines[0];
  EXPECT_NE(flushed_lines[0].find("\"open_spans\":0"), std::string::npos)
      << flushed_lines[0];
  std::string normalized = flushed_lines[0];
  const auto pos = normalized.find("\"open_spans\":0");
  ASSERT_NE(pos, std::string::npos);
  normalized.replace(pos, 14, "\"open_spans\":2");
  EXPECT_EQ(online_lines[0], normalized);
}

}  // namespace
}  // namespace smrp::obs
