// The telemetry bundle every instrumented layer accepts: one metrics
// registry, one span collector, one event log. A layer holds a
// `Telemetry*` that may be null (telemetry detached — the default); all
// instrumentation is behind that null check, and nothing here feeds back
// into simulation state, so attached vs. detached runs are bit-identical
// (asserted by tests/obs/test_telemetry.cpp).
//
// Gauges are last-value instruments, so a snapshot alone cannot show how
// queue depth or pool occupancy evolved. enable_sampling(period) arms a
// sim-time sampler: the simulator's event loop calls maybe_sample(now)
// (already inside its telemetry null-check, so sampling costs nothing
// when detached), and whenever `now` crosses the next due time every
// gauge's current value is recorded as a Sample. The JSONL export emits
// them as `sample` records, making the series plottable over time.
// Sampling is pull-based — no simulator events are scheduled — so an
// armed sampler cannot perturb a seeded run.
#pragma once

#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace smrp::obs {

/// One periodic gauge observation (`sample` JSONL record).
struct Sample {
  double t = 0.0;      ///< sim time (ms) the snapshot was taken
  std::string name;    ///< gauge name (smrp.<layer>.<name>)
  double value = 0.0;  ///< gauge value at `t`
};

struct Telemetry {
  MetricsRegistry metrics;
  SpanCollector spans;
  EventLog events;

  /// Arm periodic gauge sampling with the given sim-time period (ms).
  /// Ignored when `period_ms` is not positive. The first snapshot is taken
  /// at the first maybe_sample() call at or after `period_ms`.
  void enable_sampling(double period_ms) {
    if (!(period_ms > 0.0)) return;
    sample_period_ = period_ms;
    next_sample_ = period_ms;
  }
  [[nodiscard]] bool sampling_enabled() const noexcept {
    return sample_period_ > 0.0;
  }
  [[nodiscard]] double sample_period() const noexcept {
    return sample_period_;
  }

  /// Take a gauge snapshot if the sampler is armed and due. Called by the
  /// simulator event loop with the event's fire time; snapshots are
  /// stamped at `now` (gauges only change at events, so values between
  /// events are constant and nothing is missed).
  void maybe_sample(double now) {
    if (sample_period_ <= 0.0 || finished_ || now < next_sample_) return;
    take_sample(now);
    // Re-anchor on the grid so a long event gap yields one snapshot, not a
    // burst of identical back-filled ones.
    while (next_sample_ <= now) next_sample_ += sample_period_;
  }

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// End-of-run flush: close anything still open so every exported span
  /// has an end time (status kTruncated marks the ones the run cut off),
  /// take a final gauge snapshot, and seal the collectors so late
  /// emission cannot corrupt the truncated-span accounting. Idempotent —
  /// only the first call has any effect (exporter convenience paths may
  /// finish a bundle the harness already finished).
  void finish(double now) {
    if (finished_) return;
    if (sample_period_ > 0.0 && last_sample_t_ != now) take_sample(now);
    finished_ = true;
    spans.close_open(now);
    spans.seal();
    events.seal();
  }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  void take_sample(double now) {
    for (const auto& [name, gauge] : metrics.gauges()) {
      samples_.push_back(Sample{now, name, gauge.value()});
    }
    last_sample_t_ = now;
  }

  std::vector<Sample> samples_;
  double sample_period_ = 0.0;  ///< <= 0 means sampling disarmed
  double next_sample_ = 0.0;
  double last_sample_t_ = -1.0;
  bool finished_ = false;
};

}  // namespace smrp::obs
