// Differential property test for the timing-wheel event core: drive the
// production Simulator and the retained reference heap implementation
// (src/sim/reference_simulator.hpp — the exact pre-wheel code) through
// identical randomized schedule/cancel/run scripts and require
// bit-identical firing order, firing times, and final clock state.
// The script machinery lives in differential_script.hpp; the soak pushes
// ≥1e6 events through both cores.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/differential_script.hpp"
#include "sim/reference_simulator.hpp"
#include "sim/simulator.hpp"

namespace smrp::sim {
namespace {

using difftest::Driver;
using difftest::Script;
using difftest::make_script;

void expect_identical_outcomes(const Script& script) {
  Driver<Simulator> wheel(script);
  Driver<ReferenceSimulator> reference(script);
  wheel.run();
  reference.run();

  ASSERT_EQ(wheel.log.size(), reference.log.size());
  for (std::size_t i = 0; i < wheel.log.size(); ++i) {
    ASSERT_EQ(wheel.log[i].first, reference.log[i].first)
        << "firing order diverged at position " << i;
    // Bit-identical times: both cores compute when = now + delay through
    // the same arithmetic, so == (not near) is the contract.
    ASSERT_EQ(wheel.log[i].second, reference.log[i].second)
        << "firing time diverged at position " << i;
  }
  EXPECT_EQ(wheel.sim.processed(), reference.sim.processed());
  EXPECT_EQ(wheel.sim.pending(), reference.sim.pending());
  EXPECT_EQ(wheel.sim.pending(), 0u);
  EXPECT_EQ(wheel.sim.now(), reference.sim.now());
}

TEST(SimulatorDifferential, ManySeedsMatchReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical_outcomes(make_script(seed, 5'000));
  }
}

TEST(SimulatorDifferential, MillionEventChurnSoakMatchesReference) {
  // The acceptance-scale soak: ≥1e6 events with cancel churn, rollover
  // boundaries, ties, and reentrancy, bit-identical end to end.
  const Script script = make_script(0x5EEDF00DULL, 1'000'000);
  ASSERT_GE(script.event_count, 1'000'000u);
  expect_identical_outcomes(script);
}

TEST(SimulatorDifferential, QueueDepthStaysBoundedUnderScriptChurn) {
  // The wheel frees cancelled bucket residents immediately and compacts
  // dead heap residents, so the backlog tracks the live count just like
  // the reference's compaction contract.
  const Script script = make_script(99, 50'000);
  Driver<Simulator> wheel(script);
  for (std::uint32_t i = 0; i < script.top_count; ++i) {
    wheel.exec(i);
    ASSERT_LE(wheel.sim.queue_depth(), 2 * wheel.sim.pending() + 64);
  }
  wheel.sim.run_all(20'000'000);
  EXPECT_EQ(wheel.sim.pending(), 0u);
}

}  // namespace
}  // namespace smrp::sim
