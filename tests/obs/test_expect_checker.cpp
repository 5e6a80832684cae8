// Incremental evaluator: one test per predicate shape, fed through a real
// Telemetry bundle (the same SpanCollector / EventLog taps the simulation
// drives), plus the report-shape guarantees the online/offline identity
// rests on: order-independent first violations, repeatable report(), and
// truncated-span flagging via Telemetry::finish().
#include "obs/expect/checker.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/expect/rules.hpp"

namespace smrp::obs::expect {
namespace {

RuleSet status_rule() {
  RuleSet set;
  set.require_status("outage-resolves", "outage", {"ok", "superseded"});
  return set;
}

TEST(ExpectChecker, StatusRuleFlagsDisallowedStatuses) {
  ExpectationChecker checker(status_rule());
  Telemetry telemetry;
  checker.attach(telemetry);

  const SpanId ok = telemetry.spans.open("outage", 3, 100.0);
  telemetry.spans.close(ok, 200.0, SpanStatus::kOk);
  const SpanId failed = telemetry.spans.open("outage", 4, 150.0);
  telemetry.spans.close(failed, 300.0, SpanStatus::kFailed);
  const SpanId other = telemetry.spans.open("repair", 4, 150.0);
  telemetry.spans.close(other, 310.0, SpanStatus::kFailed);  // not an outage

  const ExpectReport report = checker.report();
  ASSERT_EQ(report.rules.size(), 1u);
  EXPECT_EQ(report.rules[0].checked, 2u);
  EXPECT_EQ(report.rules[0].violations, 1u);
  ASSERT_TRUE(report.rules[0].first.has_value());
  EXPECT_EQ(report.rules[0].first->ref, failed);
  EXPECT_EQ(report.rules[0].first->node, 4);
  EXPECT_EQ(report.rules[0].first->detail, "status=failed");
  EXPECT_FALSE(report.ok());
}

TEST(ExpectChecker, FinishFlushesOpenSpansAsTruncatedViolations) {
  ExpectationChecker checker(status_rule());
  Telemetry telemetry;
  checker.attach(telemetry);

  (void)telemetry.spans.open("outage", 7, 500.0);  // never closed
  EXPECT_TRUE(checker.report().ok()) << "open spans are not judged yet";
  telemetry.finish(2'000.0);

  const ExpectReport report = checker.report();
  EXPECT_EQ(report.rules[0].violations, 1u);
  ASSERT_TRUE(report.rules[0].first.has_value());
  EXPECT_EQ(report.rules[0].first->detail, "status=truncated");
  EXPECT_DOUBLE_EQ(report.rules[0].first->at, 2'000.0);
}

TEST(ExpectChecker, AttrLeChecksLiteralAndAttributeCaps) {
  RuleSet rules;
  rules.require_attr_le("budget", "ring", "ttl", "ttl_cap")
      .require_attr_le("lit", "ring", "ttl", 2.0);
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);

  const SpanId fine = telemetry.spans.open("ring", 1, 10.0);
  telemetry.spans.attr(fine, "ttl", 2.0);
  telemetry.spans.attr(fine, "ttl_cap", 4.0);
  telemetry.spans.close(fine, 20.0);

  const SpanId over = telemetry.spans.open("ring", 2, 30.0);
  telemetry.spans.attr(over, "ttl", 8.0);
  telemetry.spans.attr(over, "ttl_cap", 4.0);
  telemetry.spans.close(over, 40.0);

  const SpanId missing = telemetry.spans.open("ring", 3, 50.0);
  telemetry.spans.close(missing, 60.0);  // no attrs at all

  const ExpectReport report = checker.report();
  const RuleOutcome& budget = report.rules[0];
  EXPECT_EQ(budget.checked, 3u);
  EXPECT_EQ(budget.violations, 2u);  // over-cap + missing attr
  ASSERT_TRUE(budget.first.has_value());
  EXPECT_EQ(budget.first->detail, "ttl=8 exceeds ttl_cap=4");
  const RuleOutcome& lit = report.rules[1];
  EXPECT_EQ(lit.violations, 2u);  // ttl=8 > 2, plus the missing attr
  EXPECT_EQ(lit.first->detail, "ttl=8 exceeds cap=2");
}

TEST(ExpectChecker, ChildRuleIsOrderIndependentAndBindsOkParentsOnly) {
  RuleSet rules;
  rules.require_child("recovery", "outage", 1, {"repair", "graft"});
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);

  // Parent closes BEFORE its child: the judgement must wait for report().
  const SpanId healed = telemetry.spans.open("outage", 1, 100.0);
  const SpanId repair = telemetry.spans.open("repair", 1, 110.0, healed);
  telemetry.spans.close(healed, 200.0, SpanStatus::kOk);
  telemetry.spans.close(repair, 210.0, SpanStatus::kOk);

  // Ok-closed with no matching child: the one violation.
  const SpanId bare = telemetry.spans.open("outage", 2, 300.0);
  const SpanId noise = telemetry.spans.open("rejoin", 2, 310.0, bare);
  telemetry.spans.close(noise, 320.0, SpanStatus::kOk);  // not a listed kind
  telemetry.spans.close(bare, 400.0, SpanStatus::kOk);

  // Superseded parents are exempt (the episode was mooted, not healed).
  const SpanId mooted = telemetry.spans.open("outage", 3, 500.0);
  telemetry.spans.close(mooted, 600.0, SpanStatus::kSuperseded);

  const ExpectReport report = checker.report();
  const RuleOutcome& outcome = report.rules[0];
  EXPECT_EQ(outcome.checked, 2u);  // the two ok-closed outages
  EXPECT_EQ(outcome.violations, 1u);
  ASSERT_TRUE(outcome.first.has_value());
  EXPECT_EQ(outcome.first->ref, bare);
  EXPECT_EQ(outcome.first->detail, "has 0 matching children, needs 1");
}

TEST(ExpectChecker, FlagRuleRequiresPresentNonzeroAttr) {
  RuleSet rules;
  rules.require_flag("on-tree", "forward", "on_tree");
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);

  EventLog& events = telemetry.events;
  const EventShape forward = events.shape("forward", {"on_tree"});
  events.record(forward, 1, 10.0, {1.0});
  events.record(forward, 2, 20.0, {0.0});
  events.record(events.shape("forward", {}), 3, 30.0, {});
  events.record(events.shape("deliver", {}), 4, 40.0, {});  // different kind

  const ExpectReport report = checker.report();
  const RuleOutcome& outcome = report.rules[0];
  EXPECT_EQ(outcome.checked, 3u);
  EXPECT_EQ(outcome.violations, 2u);
  ASSERT_TRUE(outcome.first.has_value());
  EXPECT_TRUE(outcome.first->is_event);
  EXPECT_EQ(outcome.first->ref, 2u);  // 1-based stream index
  EXPECT_EQ(outcome.first->detail, "on_tree=0");
}

TEST(ExpectChecker, MonotoneRuleIsStrictAndPerNode) {
  RuleSet rules;
  rules.require_monotone("no-dup", "deliver", "seq");
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);

  const EventShape deliver = telemetry.events.shape("deliver", {"seq"});
  telemetry.events.record(deliver, 1, 10.0, {5.0});
  telemetry.events.record(deliver, 2, 11.0, {5.0});  // other node ok
  telemetry.events.record(deliver, 1, 12.0, {6.0});
  telemetry.events.record(deliver, 1, 13.0, {6.0});  // duplicate
  telemetry.events.record(deliver, 2, 14.0, {4.0});  // regression

  const ExpectReport report = checker.report();
  const RuleOutcome& outcome = report.rules[0];
  EXPECT_EQ(outcome.checked, 5u);
  EXPECT_EQ(outcome.violations, 2u);
  ASSERT_TRUE(outcome.first.has_value());
  EXPECT_EQ(outcome.first->node, 1);
  EXPECT_EQ(outcome.first->detail, "seq=6 does not exceed previous 6");
}

TEST(ExpectChecker, FollowsRuleGatesSubjectsAndCatchesUnanswered) {
  RuleSet rules;
  rules.require_follows("rejoins", "restart", "deliver", "member");
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);

  const EventShape restart = telemetry.events.shape("restart", {"member"});
  const EventShape deliver = telemetry.events.shape("deliver", {"seq"});
  // Non-member restart: the gate excludes it entirely.
  telemetry.events.record(restart, 1, 10.0, {0.0});
  // Member restart answered by a later deliver at the same node.
  telemetry.events.record(restart, 2, 20.0, {1.0});
  telemetry.events.record(deliver, 2, 30.0, {1.0});
  // Member restart never answered (a deliver elsewhere does not count).
  telemetry.events.record(restart, 3, 40.0, {1.0});
  telemetry.events.record(deliver, 4, 50.0, {2.0});

  const ExpectReport report = checker.report();
  const RuleOutcome& outcome = report.rules[0];
  EXPECT_EQ(outcome.checked, 2u);  // the two member restarts
  EXPECT_EQ(outcome.violations, 1u);
  ASSERT_TRUE(outcome.first.has_value());
  EXPECT_EQ(outcome.first->node, 3);
  EXPECT_EQ(outcome.first->detail, "no deliver before end of run");
  // The violation anchors at the unanswered restart, not end-of-stream.
  EXPECT_DOUBLE_EQ(outcome.first->at, 40.0);
}

TEST(ExpectChecker, FirstViolationIsEarliestByTimeNotArrival) {
  ExpectationChecker checker(status_rule());
  Telemetry telemetry;
  checker.attach(telemetry);

  // The later-closing span violates first in arrival order, but the span
  // that ends earlier in sim time must win the "first violation" slot —
  // that is what makes online and offline replays agree.
  const SpanId late = telemetry.spans.open("outage", 1, 100.0);
  const SpanId early = telemetry.spans.open("outage", 2, 100.0);
  telemetry.spans.close(late, 900.0, SpanStatus::kFailed);
  telemetry.spans.close(early, 400.0, SpanStatus::kFailed);

  const ExpectReport report = checker.report();
  ASSERT_TRUE(report.rules[0].first.has_value());
  EXPECT_EQ(report.rules[0].first->ref, early);
  EXPECT_DOUBLE_EQ(report.rules[0].first->at, 400.0);
}

TEST(ExpectChecker, ReportIsRepeatableAndRendersTheTable) {
  RuleSet rules;
  rules.require_status("outage-resolves", "outage", {"ok"})
      .require_flag("on-tree", "forward", "on_tree");
  ExpectationChecker checker(std::move(rules));
  Telemetry telemetry;
  checker.attach(telemetry);
  const SpanId s = telemetry.spans.open("outage", 5, 10.0);
  telemetry.spans.close(s, 20.0, SpanStatus::kFailed);
  telemetry.events.record(telemetry.events.shape("forward", {"on_tree"}), 5,
                          15.0, {1.0});

  const ExpectReport once = checker.report();
  const ExpectReport twice = checker.report();
  EXPECT_EQ(once.render(), twice.render());
  EXPECT_EQ(once.total_violations(), 1u);

  const std::string table = once.render();
  EXPECT_NE(table.find("expect: 2 rules, 1 violations"), std::string::npos);
  EXPECT_NE(table.find("outage-resolves"), std::string::npos);
  EXPECT_NE(table.find("t=20 span 1 node 5: status=failed"),
            std::string::npos);
  // Passing rules render a dash in the first-violation column.
  EXPECT_NE(table.find("  -"), std::string::npos);
}

TEST(ExpectChecker, DetachStopsObservation) {
  ExpectationChecker checker(status_rule());
  Telemetry telemetry;
  checker.attach(telemetry);
  checker.detach(telemetry);
  const SpanId s = telemetry.spans.open("outage", 1, 10.0);
  telemetry.spans.close(s, 20.0, SpanStatus::kFailed);
  EXPECT_TRUE(checker.report().ok());
  EXPECT_EQ(checker.report().rules[0].checked, 0u);
}

}  // namespace
}  // namespace smrp::obs::expect
