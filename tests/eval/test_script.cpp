#include "eval/script.hpp"

#include <gtest/gtest.h>

namespace smrp::eval {
namespace {

constexpr const char* kBasicScenario = R"(
# A small drill on the deterministic seed-7 Waxman graph.
topology waxman n=40 alpha=0.25 seed=7
mode smrp
dthresh 0.3
source 0
at 0    join 5
at 0    join 9
at 100  join 17
at 2500 report
run 4000
)";

TEST(ScenarioScript, ParsesBasicScenario) {
  const ScenarioScript script = ScenarioScript::parse_string(kBasicScenario);
  EXPECT_EQ(script.source(), 0);
  EXPECT_DOUBLE_EQ(script.run_until(), 4000.0);
  ASSERT_EQ(script.events().size(), 4u);
  EXPECT_EQ(script.events()[0].kind, ScriptEvent::Kind::kJoin);
  EXPECT_EQ(script.events()[3].kind, ScriptEvent::Kind::kReport);
}

TEST(ScenarioScript, EventsSortedByTime) {
  const ScenarioScript script = ScenarioScript::parse_string(R"(
topology waxman n=30 seed=1
at 500 join 3
at 100 join 4
run 1000
)");
  ASSERT_EQ(script.events().size(), 2u);
  EXPECT_EQ(script.events()[0].a, 4);
  EXPECT_EQ(script.events()[1].a, 3);
}

TEST(ScenarioScript, ExecutesAndServesMembers) {
  const ScenarioScript script = ScenarioScript::parse_string(kBasicScenario);
  const auto report = script.execute();
  EXPECT_EQ(report.members_at_end, 3);
  EXPECT_EQ(report.starved_members_at_end, 0);
  // The report directive logged one line per member plus the join lines.
  EXPECT_GE(report.log.size(), 6u);
}

TEST(ScenarioScript, FailureAndRepairScenario) {
  // Join on the Fig-1-like 5-node graph is too small for Waxman; use a
  // modest graph and cut a link on some member's path, then verify the
  // protocol kept everyone served by the end.
  const ScenarioScript script = ScenarioScript::parse_string(R"(
topology waxman n=40 alpha=0.3 seed=11
mode smrp
source 0
at 0    join 7
at 0    join 13
at 0    join 22
at 3000 fail-node 0   # dead source: everyone must starve...
at 4500 restore-node 0
run 9000
)");
  const auto report = script.execute();
  EXPECT_EQ(report.members_at_end, 3);
  // After the source comes back and soft state refreshes, members recover.
  EXPECT_EQ(report.starved_members_at_end, 0);
}

TEST(ScenarioScript, DeterministicExecution) {
  const ScenarioScript script = ScenarioScript::parse_string(kBasicScenario);
  const auto a = script.execute();
  const auto b = script.execute();
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.starved_members_at_end, b.starved_members_at_end);
}

TEST(ScenarioScript, ParseErrorsCarryLineNumbers) {
  try {
    ScenarioScript::parse_string("topology waxman n=30\nbogus 1\nrun 100\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioScript, RejectsMissingRun) {
  EXPECT_THROW(ScenarioScript::parse_string("topology waxman n=30\n"),
               std::invalid_argument);
}

TEST(ScenarioScript, RejectsUnknownSettings) {
  EXPECT_THROW(
      ScenarioScript::parse_string("topology waxman n=30 bananas=1\nrun 10\n"),
      std::invalid_argument);
}

// n, seed and m are integers: a non-finite, fractional or out-of-range
// value, or a count below 1, is a line-numbered parse error, never a
// float-to-integer cast (undefined behaviour for such values).
TEST(ScenarioScript, RejectsNonIntegerTopologySettings) {
  for (const std::string bad :
       {"waxman n=1e300", "waxman n=2.5", "waxman n=0", "waxman n=-3",
        "waxman n=nan", "waxman n=inf", "waxman n=2147483648",
        "waxman seed=-1", "waxman seed=1.5", "waxman seed=1e20",
        "waxman seed=nan", "erdos seed=-inf", "ba m=nan", "ba m=0",
        "ba m=1e300", "ba n=30 m=2.5"}) {
    const std::string key = bad.substr(bad.rfind(' ') + 1,
                                       bad.rfind('=') - bad.rfind(' ') - 1);
    try {
      ScenarioScript::parse_string("# settings\ntopology " + bad +
                                   "\nrun 10\n");
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(key + " needs an integer"), std::string::npos)
          << what;
    }
  }
  // Integral values in range, written any way stod reads them, still
  // parse.
  EXPECT_NO_THROW(ScenarioScript::parse_string(
      "topology waxman n=3e1 seed=0\nrun 10\n"));
  EXPECT_NO_THROW(ScenarioScript::parse_string(
      "topology ba n=30 m=1 seed=9007199254740992\nrun 10\n"));
}

TEST(ScenarioScript, RejectsEventsPastHorizon) {
  EXPECT_THROW(ScenarioScript::parse_string(R"(
topology waxman n=30
at 500 join 3
run 100
)"),
               std::invalid_argument);
}

TEST(ScenarioScript, RejectsUnknownLink) {
  const ScenarioScript script = ScenarioScript::parse_string(R"(
topology ba n=30 m=2 seed=3
at 10 fail-link 0 29
run 100
)");
  // Node 29 attaches preferentially; a 0–29 link may or may not exist.
  // Either the script runs, or it reports the missing link cleanly.
  try {
    (void)script.execute();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no link"), std::string::npos);
  }
}

TEST(ScenarioScript, SupportsAllTopologyModels) {
  for (const char* line :
       {"topology waxman n=30 alpha=0.3 seed=2",
        "topology erdos n=30 degree=6 seed=2", "topology ba n=30 m=2 seed=2"}) {
    const std::string text = std::string(line) +
                             "\nsource 0\nat 0 join 5\nrun 1500\n";
    const auto report = ScenarioScript::parse_string(text).execute();
    EXPECT_EQ(report.members_at_end, 1) << line;
    EXPECT_EQ(report.starved_members_at_end, 0) << line;
  }
}

TEST(ScenarioScript, ChaosDirectivesParse) {
  const ScenarioScript script = ScenarioScript::parse_string(R"(
topology waxman n=40 seed=7
source 0
at 0    join 5
at 1000 flap-link 0 5 400
at 1500 crash-node 9 600
at 2000 loss-burst 1000 0.15 0.01
at 3500 audit
run 5000
)");
  ASSERT_EQ(script.events().size(), 5u);
  EXPECT_EQ(script.events()[1].kind, ScriptEvent::Kind::kFlapLink);
  EXPECT_DOUBLE_EQ(script.events()[1].hold, 400.0);
  EXPECT_EQ(script.events()[2].kind, ScriptEvent::Kind::kCrashRestart);
  EXPECT_EQ(script.events()[3].kind, ScriptEvent::Kind::kLossBurst);
  EXPECT_DOUBLE_EQ(script.events()[3].loss, 0.15);
  EXPECT_DOUBLE_EQ(script.events()[3].base_loss, 0.01);
  EXPECT_EQ(script.events()[4].kind, ScriptEvent::Kind::kAudit);
}

TEST(ScenarioScript, ChaosDrillRunsAndAuditsClean) {
  // Flap a member's link, crash/restart another node, end with an audit:
  // transient faults must heal on their own and leave the state clean.
  const auto report = ScenarioScript::parse_string(R"(
topology waxman n=40 alpha=0.3 seed=11
mode smrp
source 0
at 0    join 7
at 0    join 13
at 2000 crash-node 22 500
at 3000 loss-burst 800 0.10
at 7000 audit
at 7000 report
run 8000
)").execute();
  EXPECT_EQ(report.members_at_end, 2);
  EXPECT_EQ(report.starved_members_at_end, 0);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(ScenarioScript, ChaosDirectiveValidation) {
  // Bad hold / probability values fail at parse time with line numbers.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30\nat 10 flap-link 0 1 0\nrun 100\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30\nat 10 loss-burst 100 1.5\nrun 500\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30\nat 10 crash-node 4\nrun 100\n"),
               std::invalid_argument);
  // Crashing the source is refused at execute time.
  const ScenarioScript script = ScenarioScript::parse_string(
      "topology waxman n=30 seed=2\nsource 0\nat 10 crash-node 0 100\nrun "
      "500\n");
  EXPECT_THROW((void)script.execute(), std::invalid_argument);
}

TEST(ScenarioScript, ExpectAndSrlgDirectivesParse) {
  const ScenarioScript script = ScenarioScript::parse_string(R"(
topology waxman n=40 alpha=0.25 seed=7
source 0
expect core
srlg conduit 0-5 0-9
at 0    join 5
at 1500 srlg-cut conduit 800
at 3000 srlg-cut conduit
run 5000
)");
  EXPECT_EQ(script.expect_rules(), "core");
  ASSERT_EQ(script.events().size(), 3u);
  EXPECT_EQ(script.events()[1].kind, ScriptEvent::Kind::kSrlgCut);
  EXPECT_EQ(script.events()[1].srlg, "conduit");
  EXPECT_DOUBLE_EQ(script.events()[1].hold, 800.0);
  EXPECT_DOUBLE_EQ(script.events()[2].hold, 0.0);  // permanent
}

TEST(ScenarioScript, SrlgDirectiveValidation) {
  // Undefined group referenced by srlg-cut.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30 seed=7\nat 10 srlg-cut ghost\n"
                   "run 100\n"),
               std::invalid_argument);
  // Bad endpoint-pair syntax.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30 seed=7\nsrlg c 0:5\nrun 100\n"),
               std::invalid_argument);
  // Duplicate group name.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30 seed=7\nsrlg c 0-5\nsrlg c 0-9\n"
                   "run 100\n"),
               std::invalid_argument);
  // Empty group.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30 seed=7\nsrlg c\nrun 100\n"),
               std::invalid_argument);
  // Negative heal time.
  EXPECT_THROW(ScenarioScript::parse_string(
                   "topology waxman n=30 seed=7\nsrlg c 0-5\n"
                   "at 10 srlg-cut c -5\nrun 100\n"),
               std::invalid_argument);
}

TEST(ScenarioScript, SrlgCutExecutesAndHeals) {
  // Cut a source-side risk group at once (the link the example scenarios
  // flap); the protocol must keep everyone served after the group heals.
  const auto report = ScenarioScript::parse_string(R"(
topology waxman n=60 alpha=0.2 beta=0.3 seed=2005
mode smrp
source 0
srlg conduit 0-22
at 0    join 12
at 0    join 25
at 2000 srlg-cut conduit 1000
at 7000 report
run 8000
)").execute();
  EXPECT_EQ(report.members_at_end, 2);
  EXPECT_EQ(report.starved_members_at_end, 0);
  bool logged = false;
  for (const std::string& line : report.log) {
    if (line.find("srlg-cut conduit (1 links, heal") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

TEST(ScenarioScript, ExpectDirectiveChecksTheCoreRulesetOnline) {
  const auto report = ScenarioScript::parse_string(R"(
topology waxman n=40 alpha=0.25 seed=7
mode smrp
source 0
expect core
at 0    join 5
at 0    join 9
at 2000 crash-node 9 500
at 6000 report
run 7000
)").execute();
  EXPECT_EQ(report.starved_members_at_end, 0);
  EXPECT_EQ(report.expect_violations, 0) << report.expect_table;
  EXPECT_NE(report.expect_table.find("expect: 11 rules"), std::string::npos);
  bool summarized = false;
  for (const std::string& line : report.log) {
    if (line.find("expect: 11 rules, 0 violations") != std::string::npos) {
      summarized = true;
    }
  }
  EXPECT_TRUE(summarized);
}

TEST(ScenarioScript, ScenariosWithoutExpectReportNoTable) {
  const auto report =
      ScenarioScript::parse_string(kBasicScenario).execute();
  EXPECT_EQ(report.expect_violations, -1);
  EXPECT_TRUE(report.expect_table.empty());
}

TEST(ScenarioScript, PimModeRuns) {
  const auto report = ScenarioScript::parse_string(R"(
topology waxman n=40 seed=5
mode pim
source 0
at 0 join 11
run 2500
)").execute();
  EXPECT_EQ(report.members_at_end, 1);
  EXPECT_EQ(report.starved_members_at_end, 0);
}

}  // namespace
}  // namespace smrp::eval
