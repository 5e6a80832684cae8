#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace smrp::sim {

namespace {

/// Min-heap order on (when, seq): std::*_heap build a max-heap, so the
/// comparator is the reverse of the firing order.
struct HeapLater {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

}  // namespace

Simulator::Simulator() { bucket_head_.fill(kNull); }

void Simulator::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    events_counter_ = nullptr;
    depth_gauge_ = nullptr;
    gap_hist_ = nullptr;
    pool_slots_gauge_ = nullptr;
    pool_free_gauge_ = nullptr;
    pool_heap_counter_ = nullptr;
    return;
  }
  events_counter_ = &telemetry->metrics.counter("smrp.sim.events");
  depth_gauge_ = &telemetry->metrics.gauge("smrp.sim.queue_depth");
  gap_hist_ = &telemetry->metrics.histogram("smrp.sim.event_gap_ms");
  pool_slots_gauge_ = &telemetry->metrics.gauge("smrp.sim.pool_events");
  pool_free_gauge_ = &telemetry->metrics.gauge("smrp.sim.pool_events_free");
  pool_heap_counter_ = &telemetry->metrics.counter("smrp.sim.pool_action_heap");
}

EventId Simulator::schedule(Time delay, EventAction action) {
  if (std::isnan(delay) || delay < 0.0) {
    throw std::invalid_argument("event delay must be a number >= 0");
  }
  return schedule_at(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(Time when, EventAction action) {
  if (!std::isfinite(when) || when < now_) {
    throw std::invalid_argument(
        "event time must be finite and not in the past");
  }
  if (!action) throw std::invalid_argument("empty action");
  const std::uint32_t slot = acquire_slot();
  Event& ev = slots_[slot];
  ev.when = when;
  ev.seq = next_seq_++;
  ev.action = std::move(action);
  if (ev.action.uses_heap()) {
    ++heap_actions_;
    if (pool_heap_counter_ != nullptr) pool_heap_counter_->add(1);
  }
  place(slot);
  ++live_pending_;
  return make_id(slot, ev.generation);
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNull) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    --free_count_;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Event& ev = slots_[slot];
  ev.action.reset();  // drop captures now, not at slab destruction
  ++ev.generation;    // invalidates every outstanding id for this slot
  ev.state = State::kFree;
  ev.prev = kNull;
  ev.next = free_head_;
  free_head_ = slot;
  ++free_count_;
}

void Simulator::place(std::uint32_t slot) {
  Event& ev = slots_[slot];
  const std::uint64_t t = tick_of(ev.when);
  if (t <= cursor_tick_) {
    // At or behind the bucket being drained: join its total order directly.
    ev.state = State::kReady;
    push_heap_entry(ready_, slot);
  } else if (t - cursor_tick_ < kWheelBuckets) {
    ev.state = State::kWheel;
    const auto bucket = static_cast<std::uint32_t>(t & kWheelMask);
    const std::uint32_t head = bucket_head_[bucket];
    ev.prev = kNull;
    ev.next = head;
    if (head != kNull) slots_[head].prev = slot;
    bucket_head_[bucket] = slot;
    occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    ++near_count_;
  } else {
    ev.state = State::kFar;
    push_heap_entry(far_, slot);
  }
}

void Simulator::push_heap_entry(std::vector<HeapEntry>& heap,
                                std::uint32_t slot) {
  const Event& ev = slots_[slot];
  heap.push_back(HeapEntry{ev.when, ev.seq, slot});
  std::push_heap(heap.begin(), heap.end(), HeapLater{});
}

void Simulator::pop_heap_entry(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), HeapLater{});
  heap.pop_back();
}

void Simulator::unlink_from_wheel(std::uint32_t slot) {
  Event& ev = slots_[slot];
  const auto bucket =
      static_cast<std::uint32_t>(tick_of(ev.when) & kWheelMask);
  if (ev.prev != kNull) {
    slots_[ev.prev].next = ev.next;
  } else {
    bucket_head_[bucket] = ev.next;
  }
  if (ev.next != kNull) slots_[ev.next].prev = ev.prev;
  if (bucket_head_[bucket] == kNull) {
    occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
  --near_count_;
}

void Simulator::cancel(EventId id) {
  const auto raw = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > slots_.size()) return;  // kNoEvent or unknown
  const std::uint32_t slot = raw - 1;
  Event& ev = slots_[slot];
  if (ev.generation != static_cast<std::uint32_t>(id >> 32)) {
    return;  // stale id: the event fired or was cancelled already
  }
  switch (ev.state) {
    case State::kWheel:
      // O(1): unlink from the bucket list and recycle the slot now.
      unlink_from_wheel(slot);
      release_slot(slot);
      --live_pending_;
      break;
    case State::kReady:
    case State::kFar:
      // Heap residents cannot be removed in O(1); mark dead and let the
      // pop path (or compaction, once the dead dominate) free the slot.
      ev.state = State::kDead;
      --live_pending_;
      if (queue_depth() > 64 && queue_depth() > 2 * live_pending_) compact();
      break;
    default:
      break;  // kFree/kDead cannot carry a matching generation
  }
}

void Simulator::compact() {
  for (std::vector<HeapEntry>* heap : {&ready_, &far_}) {
    auto dead = std::remove_if(
        heap->begin(), heap->end(), [this](const HeapEntry& e) {
          if (slots_[e.slot].state != State::kDead) return false;
          release_slot(e.slot);
          return true;
        });
    if (dead == heap->end()) continue;
    heap->erase(dead, heap->end());
    std::make_heap(heap->begin(), heap->end(), HeapLater{});
  }
}

void Simulator::drain_bucket(std::uint32_t bucket) {
  std::uint32_t slot = bucket_head_[bucket];
  bucket_head_[bucket] = kNull;
  occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  while (slot != kNull) {
    Event& ev = slots_[slot];
    const std::uint32_t next = ev.next;
    ev.state = State::kReady;
    ev.prev = kNull;
    ev.next = kNull;
    push_heap_entry(ready_, slot);
    --near_count_;
    slot = next;
  }
}

void Simulator::pull_far() {
  // Cascade newly eligible far events into the window [cursor, horizon).
  while (!far_.empty()) {
    const HeapEntry top = far_.front();
    Event& ev = slots_[top.slot];
    if (ev.state == State::kDead) {
      pop_heap_entry(far_);
      release_slot(top.slot);
      continue;
    }
    const std::uint64_t t = tick_of(top.when);
    if (t >= cursor_tick_ + kWheelBuckets) break;  // still beyond horizon
    pop_heap_entry(far_);
    if (t <= cursor_tick_) {
      ev.state = State::kReady;
      ready_.push_back(top);
      std::push_heap(ready_.begin(), ready_.end(), HeapLater{});
    } else {
      ev.state = State::kWheel;
      const auto bucket = static_cast<std::uint32_t>(t & kWheelMask);
      const std::uint32_t head = bucket_head_[bucket];
      ev.prev = kNull;
      ev.next = head;
      if (head != kNull) slots_[head].prev = top.slot;
      bucket_head_[bucket] = top.slot;
      occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
      ++near_count_;
    }
  }
}

std::uint64_t Simulator::next_occupied_tick() const {
  // Circular bitmap scan for the first occupied bucket strictly after the
  // cursor; the caller guarantees near_count_ > 0, so a hit exists within
  // one revolution. Wheel ticks live in (cursor, cursor + kWheelBuckets),
  // so circular distance from the cursor recovers the absolute tick.
  const auto start =
      static_cast<std::uint32_t>((cursor_tick_ + 1) & kWheelMask);
  std::uint32_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::uint32_t scanned = 0;; ++scanned) {
    if (bits != 0) {
      const auto bucket = static_cast<std::uint32_t>(
          (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits)));
      const std::uint64_t dist =
          ((bucket - start) & kWheelMask) + 1;  // ≥ 1 past the cursor
      return cursor_tick_ + dist;
    }
    word = (word + 1) & ((kWheelBuckets >> 6) - 1);
    bits = occupied_[word];
    if (scanned > (kWheelBuckets >> 6)) break;  // unreachable by invariant
  }
  return cursor_tick_ + 1;
}

bool Simulator::advance() {
  // Called with ready_ empty: slide the window to the next occupied
  // bucket (or jump it straight to the far heap's head when the wheel is
  // empty) and refill the ready heap.
  for (;;) {
    if (near_count_ == 0) {
      while (!far_.empty() &&
             slots_[far_.front().slot].state == State::kDead) {
        const std::uint32_t slot = far_.front().slot;
        pop_heap_entry(far_);
        release_slot(slot);
      }
      if (far_.empty()) return false;
      cursor_tick_ = tick_of(far_.front().when);
    } else {
      cursor_tick_ = next_occupied_tick();
    }
    pull_far();
    drain_bucket(static_cast<std::uint32_t>(cursor_tick_ & kWheelMask));
    if (!ready_.empty()) return true;
  }
}

bool Simulator::fire_next(Time limit) {
  for (;;) {
    if (ready_.empty() && !advance()) return false;
    const HeapEntry top = ready_.front();
    Event& ev = slots_[top.slot];
    if (ev.state == State::kDead) {
      pop_heap_entry(ready_);
      release_slot(top.slot);
      continue;
    }
    if (top.when > limit) return false;
    pop_heap_entry(ready_);
    // Move the action out and free the slot *before* invoking, so the
    // action may schedule/cancel freely (including reusing this slot) and
    // a cancel of the firing id is a no-op, exactly as before.
    EventAction action = std::move(ev.action);
    release_slot(top.slot);
    if (telemetry_ != nullptr) {
      gap_hist_->record(top.when - now_);
      depth_gauge_->set(static_cast<double>(live_pending_));
      events_counter_->add(1);
      pool_slots_gauge_->set(static_cast<double>(slots_.size()));
      pool_free_gauge_->set(static_cast<double>(free_count_));
      // Gauges above are current as of this event; snapshot them if a
      // sampling period boundary passed (no-op unless enabled).
      telemetry_->maybe_sample(top.when);
    }
    now_ = top.when;
    --live_pending_;
    ++processed_;
    action();
    return true;
  }
}

std::size_t Simulator::run_until(Time until) {
  std::size_t fired = 0;
  while (fire_next(until)) ++fired;
  if (now_ < until) now_ = until;
  // With nothing queued ahead of the cursor, drag it up to the clock so
  // post-gap schedules land in the wheel instead of the far heap.
  if (ready_.empty() && near_count_ == 0 && std::isfinite(now_)) {
    cursor_tick_ = std::max(cursor_tick_, tick_of(now_));
  }
  return fired;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events &&
         fire_next(std::numeric_limits<Time>::infinity())) {
    ++fired;
  }
  return fired;
}

}  // namespace smrp::sim
