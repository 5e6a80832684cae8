// Discrete-event simulation core (the ns-2 stand-in): a clock plus an
// ordered event queue. Events fire in (time, insertion-order) order, so a
// run is fully deterministic for a given schedule of calls.
//
// Internally this is a hierarchical timing wheel over a slab-allocated
// event pool (DESIGN.md §11): a near wheel of fixed-width buckets covers
// the next ~second of simulated time, a far overflow heap holds everything
// beyond the horizon and cascades into the wheel as the cursor advances,
// and a tiny ready heap totally orders the single bucket being drained.
// Events live in a freelist arena; EventId is a generation-tagged slot
// index, so cancel() is an O(1) unlink (wheel residents) or an O(1) dead
// mark (heap residents, compacted when they dominate) with no id set and
// no per-event allocation. Firing order is bit-identical to a plain
// (time, id) binary heap — tests/sim/test_simulator_differential.cpp
// proves it against the retained reference implementation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"

namespace smrp::obs {
class Counter;
class Gauge;
class Histogram;
struct Telemetry;
}  // namespace smrp::obs

namespace smrp::sim {

/// Simulated time in milliseconds.
using Time = double;

/// Generation-tagged pool handle: the low 32 bits hold slot_index + 1 (so
/// the zero id stays invalid / kNoEvent), the high 32 bits the slot's
/// generation when the event was scheduled. A fired or cancelled event
/// frees its slot and bumps the generation, so stale ids fail the tag
/// check and cancel() on them is a harmless O(1) no-op.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Scheduled actions are stored inline in the event pool: 64 bytes of
/// small-buffer storage covers every timer capture in the tree, so the
/// steady-state schedule/fire path performs zero heap allocations.
using EventAction = InplaceFunction<64>;

class Simulator {
 public:
  Simulator();

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `action` to run `delay` ms from now. `delay` must be finite
  /// and ≥ 0 (NaN or negative throws std::invalid_argument).
  EventId schedule(Time delay, EventAction action);

  /// Schedule `action` at absolute time `when`. `when` must be finite and
  /// ≥ now (NaN, ±inf, or the past throws std::invalid_argument — a NaN
  /// used to corrupt the queue ordering silently).
  EventId schedule_at(Time when, EventAction action);

  /// Cancel a pending event; cancelling an already-fired or unknown id is
  /// a harmless no-op.
  void cancel(EventId id);

  /// Run events until the queue empties or the clock passes `until`.
  /// Events scheduled exactly at `until` still run. Returns the number of
  /// events processed by this call.
  std::size_t run_until(Time until);

  /// Run everything (with a safety cap to catch runaway schedules).
  std::size_t run_all(std::size_t max_events = 10'000'000);

  [[nodiscard]] bool idle() const noexcept { return live_pending_ == 0; }
  [[nodiscard]] std::size_t processed() const noexcept { return processed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_pending_; }

  /// Queue entries currently held, live *and* cancelled-but-not-yet-freed.
  /// Wheel-resident events are unlinked (and their slot freed) the moment
  /// they are cancelled; heap residents are dead-marked and compacted once
  /// they dominate, so this stays within a small factor of pending() even
  /// under schedule/cancel churn that never lets the clock reach the
  /// cancelled events (long chaos runs do exactly that).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return near_count_ + far_.size() + ready_.size();
  }

  /// Event-pool occupancy, for tests and capacity planning. The slab only
  /// ever grows to the peak number of simultaneously pending events;
  /// heap_actions counts SBO overflows (captures larger than EventAction's
  /// inline buffer) and stays 0 on every protocol workload.
  struct PoolStats {
    std::size_t slots = 0;        ///< slab capacity (peak concurrent events)
    std::size_t free_slots = 0;   ///< slots on the freelist right now
    std::uint64_t heap_actions = 0;  ///< actions that overflowed the SBO
  };
  [[nodiscard]] PoolStats pool_stats() const noexcept {
    return PoolStats{slots_.size(), free_count_, heap_actions_};
  }

  /// Attach (or detach with nullptr) the telemetry bundle; not owned.
  /// Records per-event clock advances (`smrp.sim.event_gap_ms` — the event
  /// loop's stall distribution), the live/heap queue depths, the event
  /// count, and the pool gauges (`smrp.sim.pool_events{,_free}`,
  /// `smrp.sim.pool_action_heap`). Pure observation: attaching never
  /// changes a run's outcome.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  // Wheel geometry: 2048 buckets of 0.5 ms give a ~1 s near horizon —
  // wide enough that every soft-state refresh, backoff ring, and in-flight
  // hop lands in the wheel, while chaos plans and long reshape timers
  // overflow to the far heap. The bucket width is a power of two so
  // tick = floor(when · 2) is exact in floating point and therefore
  // monotone in `when` (the ordering proof relies on it).
  static constexpr std::uint64_t kWheelBuckets = 2048;
  static constexpr std::uint64_t kWheelMask = kWheelBuckets - 1;
  static constexpr double kTicksPerMs = 2.0;  // bucket width 0.5 ms
  static constexpr std::uint32_t kNull = 0xffffffffu;

  enum class State : std::uint8_t {
    kFree,   ///< on the freelist
    kWheel,  ///< linked into a near-wheel bucket
    kReady,  ///< referenced by the ready heap (current bucket, total order)
    kFar,    ///< referenced by the far overflow heap
    kDead,   ///< cancelled while heap-resident; freed when popped/compacted
  };

  struct Event {
    Time when = 0.0;
    std::uint64_t seq = 0;  ///< schedule order, the FIFO tie-break
    EventAction action;
    std::uint32_t generation = 0;
    State state = State::kFree;
    std::uint32_t prev = kNull;  ///< wheel bucket back-link
    std::uint32_t next = kNull;  ///< wheel bucket / freelist forward link
  };

  /// Heap entry for ready_/far_: ordering key plus the slot it points at.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static std::uint64_t tick_of(Time when) noexcept {
    return static_cast<std::uint64_t>(when * kTicksPerMs);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           static_cast<EventId>(slot + 1);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void place(std::uint32_t slot);
  void unlink_from_wheel(std::uint32_t slot);
  void push_heap_entry(std::vector<HeapEntry>& heap, std::uint32_t slot);
  void pop_heap_entry(std::vector<HeapEntry>& heap);
  void drain_bucket(std::uint32_t bucket);
  void pull_far();
  [[nodiscard]] std::uint64_t next_occupied_tick() const;
  bool advance();
  bool fire_next(Time limit);
  void compact();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  std::size_t live_pending_ = 0;

  // Event pool: slab + freelist (stable indices, recycled slots).
  std::vector<Event> slots_;
  std::uint32_t free_head_ = kNull;
  std::size_t free_count_ = 0;
  std::uint64_t heap_actions_ = 0;

  // Near wheel: per-bucket doubly-linked slot lists plus an occupancy
  // bitmap for O(buckets/64) next-bucket scans.
  std::uint64_t cursor_tick_ = 0;  ///< all events are at tick ≥ cursor
  std::size_t near_count_ = 0;
  std::array<std::uint32_t, kWheelBuckets> bucket_head_;
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};

  // Ready heap (the bucket being drained, totally ordered) and far
  // overflow heap (beyond the wheel horizon), both min-heaps on (when, seq).
  std::vector<HeapEntry> ready_;
  std::vector<HeapEntry> far_;

  // Telemetry handles, cached at attach time (null when detached).
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* gap_hist_ = nullptr;
  obs::Gauge* pool_slots_gauge_ = nullptr;
  obs::Gauge* pool_free_gauge_ = nullptr;
  obs::Counter* pool_heap_counter_ = nullptr;
};

}  // namespace smrp::sim
