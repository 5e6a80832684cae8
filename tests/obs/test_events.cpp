// EventLog storage edge cases: shape interning (one kind may carry
// several key sets, each exported exactly as recorded), the value-count
// guard on record(), and a record too large for one block.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/jsonl.hpp"
#include "obs/telemetry.hpp"

namespace smrp::obs {
namespace {

/// The `event` lines of a JSONL snapshot of `t`, in file order.
std::vector<std::string> event_lines(const Telemetry& t) {
  std::ostringstream out;
  JsonlSink(out).write_snapshot(t, 100.0, "events");
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"type\":\"event\"", 0) == 0) lines.push_back(line);
  }
  return lines;
}

TEST(EventLog, ShapeIsInternedPerKindAndOrderedKeys) {
  EventLog log;
  const EventShape a = log.shape("forward", {"seq", "on_tree"});
  EXPECT_EQ(log.shape("forward", {"seq", "on_tree"}).id, a.id);
  EXPECT_NE(log.shape("forward", {"on_tree", "seq"}).id, a.id);
  EXPECT_NE(log.shape("forward", {"seq"}).id, a.id);
  EXPECT_NE(log.shape("forward", {}).id, a.id);
  EXPECT_NE(log.shape("deliver", {"seq", "on_tree"}).id, a.id);
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, OneKindWithTwoKeySetsExportsEachAsRecorded) {
  Telemetry t;
  const EventShape flagged = t.events.shape("forward", {"on_tree"});
  const EventShape bare = t.events.shape("forward", {});
  t.events.record(flagged, 1, 10.0, {1.0});
  t.events.record(bare, 3, 30.0, {});
  t.events.record(flagged, 2, 20.5, {0.0});

  EXPECT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.events.count("forward"), 3u);
  EXPECT_EQ(t.events.count("deliver"), 0u);
  const std::vector<std::string> lines = event_lines(t);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], R"({"type":"event","kind":"forward","node":1,)"
                      R"("t":10,"on_tree":1})");
  EXPECT_EQ(lines[1], R"({"type":"event","kind":"forward","node":3,)"
                      R"("t":30})");
  EXPECT_EQ(lines[2], R"({"type":"event","kind":"forward","node":2,)"
                      R"("t":20.5,"on_tree":0})");

  std::vector<std::size_t> attrs;
  t.events.for_each([&](const Event& event) {
    attrs.push_back(event.keys.size());
    EXPECT_EQ(event.keys.size(), event.values.size());
  });
  EXPECT_EQ(attrs, (std::vector<std::size_t>{1, 0, 1}));
}

TEST(EventLog, AttrFindsTheFirstMatchingKey) {
  EventLog log;
  log.record(log.shape("forward", {"seq", "epoch", "seq"}), 4, 1.0,
             {7.0, 2.0, 9.0});
  log.for_each([](const Event& event) {
    ASSERT_NE(event.attr("seq"), nullptr);
    EXPECT_EQ(*event.attr("seq"), 7.0);
    EXPECT_EQ(*event.attr("epoch"), 2.0);
    EXPECT_EQ(event.attr("member"), nullptr);
  });
}

TEST(EventLog, ValueCountMismatchThrowsAndStoresNothing) {
  EventLog log;
  const EventShape forward = log.shape("forward", {"seq", "on_tree"});
  EXPECT_THROW(log.record(forward, 1, 1.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(log.record(forward, 1, 1.0, {1.0, 1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(log.record(EventShape{7}, 1, 1.0, {}), std::invalid_argument);
  EXPECT_EQ(log.size(), 0u);

  log.record(forward, 1, 1.0, {1.0, 1.0});
  EXPECT_EQ(log.size(), 1u);
  // The guard is the caller's, so a sealed log still applies it.
  log.seal();
  EXPECT_THROW(log.record(forward, 1, 2.0, {1.0}), std::invalid_argument);
  log.record(forward, 1, 2.0, {1.0, 1.0});
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.late_records(), 1u);
}

constexpr std::string_view kWideKey = "v";

/// Intern a "wide" shape of one "v" key per index and record one event of
/// it, value i + 0.25 at index i. Both lists are constants, so they compile
/// to static data rather than 8,192 element stores.
template <std::size_t... I>
void record_wide(EventLog& log, std::index_sequence<I...>) {
  const EventShape wide =
      log.shape("wide", {(static_cast<void>(I), kWideKey)...});
  log.record(wide, 9, 5.0, {(static_cast<double>(I) + 0.25)...});
}

TEST(EventLog, RecordLargerThanABlockRoundTripsIntact) {
  // 16 + 8 * 8192 bytes: more than one 64 KiB block, so the record gets a
  // block of its own between two ordinary ones.
  constexpr std::size_t kKeys = 8192;
  Telemetry t;
  const EventShape deliver = t.events.shape("deliver", {"seq"});
  t.events.record(deliver, 1, 4.0, {1.0});
  record_wide(t.events, std::make_index_sequence<kKeys>{});
  t.events.record(deliver, 2, 6.0, {2.0});

  std::vector<Event> seen;
  t.events.for_each([&](const Event& event) { seen.push_back(event); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, "deliver");
  EXPECT_EQ(*seen[0].attr("seq"), 1.0);
  EXPECT_EQ(seen[2].kind, "deliver");
  EXPECT_EQ(seen[2].node, 2);
  EXPECT_EQ(*seen[2].attr("seq"), 2.0);

  const Event& wide = seen[1];
  EXPECT_EQ(wide.kind, "wide");
  EXPECT_EQ(wide.node, 9);
  EXPECT_EQ(wide.t, 5.0);
  ASSERT_EQ(wide.keys.size(), kKeys);
  ASSERT_EQ(wide.values.size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(wide.keys[i], kWideKey);
    ASSERT_EQ(wide.values[i], static_cast<double>(i) + 0.25);
  }

  const std::vector<std::string> lines = event_lines(t);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], R"({"type":"event","kind":"deliver","node":1,)"
                      R"("t":4,"seq":1})");
  EXPECT_EQ(lines[2], R"({"type":"event","kind":"deliver","node":2,)"
                      R"("t":6,"seq":2})");
  EXPECT_NE(lines[1].find(R"("t":5,"v":0.25,"v":1.25,)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"(,"v":8191.25})"), std::string::npos);
}

}  // namespace
}  // namespace smrp::obs
