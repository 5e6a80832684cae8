// Offline replay: recorded JSONL fed back through the same checker the
// simulation taps online. The headline property — replaying a telemetry
// bundle's own export yields a byte-identical report — plus the run-label
// glob filter, multi-section files, and line-numbered input errors.
#include "obs/expect/offline.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/jsonl.hpp"

namespace smrp::obs::expect {
namespace {

TEST(ExpectGlob, MatchesShellStylePatterns) {
  EXPECT_TRUE(glob_match("", "anything"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("smrp", "smrp"));
  EXPECT_FALSE(glob_match("smrp", "pim"));
  EXPECT_TRUE(glob_match("smrp*", "smrp seed=7"));
  EXPECT_FALSE(glob_match("smrp*", "pim seed=7"));
  EXPECT_TRUE(glob_match("*seed=7", "smrp seed=7"));
  EXPECT_TRUE(glob_match("*seed*", "smrp seed=7"));
  EXPECT_TRUE(glob_match("seed=?", "seed=7"));
  EXPECT_FALSE(glob_match("seed=?", "seed=77"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-c"));
  EXPECT_FALSE(glob_match("abc", "ab"));
}

/// A telemetry bundle with something for every rule shape to judge.
Telemetry make_bundle() {
  Telemetry t;
  const SpanId outage = t.spans.open("outage", 3, 100.0);
  const SpanId ring = t.spans.open("ring", 3, 120.0, outage);
  t.spans.attr(ring, "ttl", 8.0);
  t.spans.attr(ring, "ttl_cap", 4.0);  // over budget: one violation
  t.spans.close(ring, 140.0, SpanStatus::kFailed);
  t.spans.close(outage, 200.0, SpanStatus::kOk);  // ok but no repair child
  (void)t.spans.open("outage", 5, 300.0);  // left open: truncated at export

  const EventShape forward = t.events.shape("forward", {"seq", "on_tree"});
  const EventShape deliver = t.events.shape("deliver", {"seq"});
  const EventShape restart = t.events.shape("restart", {"member"});
  t.events.record(forward, 3, 110.0, {1.0, 1.0});
  t.events.record(forward, 4, 115.0, {1.0, 0.0});
  t.events.record(deliver, 3, 118.0, {1.0});
  t.events.record(deliver, 3, 119.0, {1.0});  // duplicate
  t.events.record(restart, 6, 150.0, {1.0});  // never rejoins
  return t;
}

RuleSet bundle_rules() {
  RuleSet rules;
  rules.require_status("outage-resolves", "outage", {"ok", "superseded"})
      .require_child("outage-has-recovery", "outage", 1, {"repair"})
      .require_attr_le("ring-within-budget", "ring", "ttl", "ttl_cap")
      .require_flag("forward-on-tree", "forward", "on_tree")
      .require_monotone("no-duplicate-delivery", "deliver", "seq")
      .require_follows("restart-rejoins", "restart", "deliver", "member");
  return rules;
}

TEST(ExpectOffline, ReplayOfOwnExportIsByteIdenticalToOnline) {
  Telemetry telemetry = make_bundle();

  // Online: tap a fresh checker with the same stream the bundle recorded.
  // (Replaying through the collector's own structures keeps this purely
  // a checker/exporter test; the full-simulation version lives in
  // tests/smrp/test_expectations.cpp.)
  ExpectationChecker online(bundle_rules());
  for (const Span& span : telemetry.spans.spans()) {
    if (span.open()) continue;
    online.on_span_closed(span);
  }
  // The exporter truncates still-open spans at the snapshot time.
  for (const Span& span : telemetry.spans.spans()) {
    if (!span.open()) continue;
    Span cut = span;
    cut.end = 1'000.0;
    cut.status = SpanStatus::kTruncated;
    online.on_span_closed(cut);
  }
  telemetry.events.for_each(
      [&](const Event& event) { online.on_event(event); });

  std::ostringstream jsonl;
  JsonlSink sink(jsonl);
  sink.write_snapshot(telemetry, 1'000.0, "bundle");

  std::istringstream replay(jsonl.str());
  const OfflineResult offline = check_stream(replay, bundle_rules());
  ASSERT_EQ(offline.runs.size(), 1u);
  EXPECT_EQ(offline.runs[0].run, "bundle");
  EXPECT_EQ(offline.runs[0].report.render(), online.report().render());

  // And the stream really exercised every rule: one violation each.
  EXPECT_EQ(offline.total_violations(), 6u);
  for (const RuleOutcome& rule : offline.runs[0].report.rules) {
    EXPECT_EQ(rule.violations, 1u) << rule.name;
    EXPECT_GT(rule.checked, 0u) << rule.name;
  }
}

TEST(ExpectOffline, FiltersSectionsByRunLabelGlob) {
  Telemetry clean;
  const SpanId span = clean.spans.open("outage", 1, 10.0);
  clean.spans.close(span, 20.0, SpanStatus::kOk);
  Telemetry dirty;
  const SpanId bad = dirty.spans.open("outage", 1, 10.0);
  dirty.spans.close(bad, 20.0, SpanStatus::kFailed);

  std::ostringstream jsonl;
  JsonlSink sink(jsonl);
  sink.write_snapshot(clean, 100.0, "smrp seed=7");
  sink.write_snapshot(dirty, 100.0, "pim seed=7");

  RuleSet rules;
  rules.require_status("outage-resolves", "outage", {"ok"});

  std::istringstream all(jsonl.str());
  const OfflineResult both = check_stream(all, rules);
  ASSERT_EQ(both.runs.size(), 2u);
  EXPECT_FALSE(both.ok());

  std::istringstream smrp_only(jsonl.str());
  const OfflineResult filtered = check_stream(smrp_only, rules, "smrp*");
  ASSERT_EQ(filtered.runs.size(), 1u);
  EXPECT_EQ(filtered.runs[0].run, "smrp seed=7");
  EXPECT_TRUE(filtered.ok());
}

TEST(ExpectOffline, RejectsMalformedInputWithLineNumbers) {
  RuleSet rules;
  rules.require_status("a", "outage", {"ok"});

  const auto expect_error = [&](const std::string& text,
                                const std::string& needle) {
    std::istringstream in(text);
    try {
      (void)check_stream(in, rules);
      FAIL() << "expected a parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  expect_error(
      R"({"type":"span","id":1,"parent":0,"kind":"outage","node":1,)"
      R"("start":0,"end":1,"status":"ok"})"
      "\n",
      "line 1");
  expect_error("{\"type\":\"meta\",\"version\":1,\"run\":\"r\"}\nnot json\n",
               "line 2");

  // Ids and nodes must be integers their types can hold: a cast of
  // anything else is undefined, so it fails with its line number.
  const std::string meta = R"({"type":"meta","version":1,"run":"r"})"
                           "\n";
  const auto span_with = [](const std::string& id, const std::string& parent,
                            const std::string& node) {
    return R"({"type":"span","id":)" + id + R"(,"parent":)" + parent +
           R"(,"kind":"outage","node":)" + node +
           R"(,"start":0,"end":1,"status":"ok"})"
           "\n";
  };
  expect_error(meta +
                   R"({"type":"event","kind":"deliver","node":1e300,)"
                   R"("t":1,"seq":1})"
                   "\n",
               "line 2: node 1.0000000000000001e+300 is not an integer");
  expect_error(meta + span_with("-1", "0", "1"),
               "line 2: id -1 is not an integer");
  expect_error(meta + span_with("2", "0", "1") + span_with("3", "0.5", "1"),
               "line 3: parent 0.5 is not an integer");
  expect_error(meta + span_with("2", "0", "nan"),
               "line 2: node nan is not an integer");
  // The same shapes with in-range integers replay cleanly.
  std::istringstream good(meta + span_with("2", "0", "1") +
                          R"({"type":"event","kind":"deliver","node":1,)"
                          R"("t":1,"seq":1})"
                          "\n");
  EXPECT_EQ(check_stream(good, rules).runs.size(), 1u);
}

TEST(ExpectOffline, CheckFileThrowsOnMissingFile) {
  RuleSet rules;
  rules.require_status("a", "outage", {"ok"});
  EXPECT_THROW((void)check_file("/no/such/trace.jsonl", rules),
               std::runtime_error);
}

}  // namespace
}  // namespace smrp::obs::expect
