// Zero-dependency metrics substrate for the whole stack: a registry of
// named counters, gauges, and fixed-bucket histograms. Everything here is
// pure observation — recording never allocates on the hot path (handles
// are looked up once and cached by the instrumented layer), never touches
// an RNG, and never schedules work, so attaching a registry to a seeded
// simulation cannot change its outcome.
//
// Histograms carry the repository's single summary implementation: Welford
// moments (the same accumulation eval::RunningStats re-exports) plus
// bucket counts, from which the one shared percentile definition
// interpolates p50/p90/p99. Registries merge, so per-run distributions
// fold into campaign-level ones without re-deriving statistics.
//
// Naming convention: `smrp.<layer>.<name>` (see DESIGN.md §8), e.g.
// `smrp.sim.tx.DATA`, `smrp.proto.outage_ms`, `smrp.recovery.rd_weight`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace smrp::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value instrument (queue depths, loss levels); remembers its peak.
class Gauge {
 public:
  void set(double value) noexcept {
    if (!seen_ || value > max_) max_ = value;
    seen_ = true;
    value_ = value;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Merging gauges keeps the other run's last value and the joint peak.
  void merge(const Gauge& other) noexcept {
    if (!other.seen_) return;
    set(other.max_);
    value_ = other.value_;
  }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// Point-in-time digest of a histogram (what the JSONL snapshot carries).
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Fixed-bucket histogram with exact moments. Buckets are defined by their
/// ascending upper bounds; values above the last bound land in an implicit
/// overflow bucket. Two histograms merge iff their bounds are identical.
class Histogram {
 public:
  /// Default: log-spaced latency buckets in milliseconds (0.1 .. 60 000).
  Histogram() : Histogram(default_latency_bounds()) {}
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample standard deviation; 0 with fewer than two samples.
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

  /// THE percentile definition (quantile `q` in [0, 1]): find the bucket
  /// holding the q·count-th sample, interpolate linearly inside it, clamp
  /// to the observed [min, max]. Every percentile this repository reports
  /// comes from here.
  [[nodiscard]] double percentile(double q) const noexcept;

  [[nodiscard]] HistogramSummary summary() const noexcept;

  /// Fold `other` into this histogram (same bounds required; throws
  /// std::invalid_argument otherwise). Moments merge exactly.
  void merge(const Histogram& other);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }

  [[nodiscard]] static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name-addressed instrument store. Lookup is O(log n) and intended for
/// attach time only: instrumented layers cache the returned references
/// (stable for the registry's lifetime — node-based storage) and record
/// through them. Iteration order is the name order, so snapshots are
/// deterministic.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First caller fixes the bucket bounds; later callers get the existing
  /// instrument (their bounds argument is ignored). Empty bounds mean the
  /// default latency buckets.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = {});

  /// Fold another run's registry into this one, instrument by instrument.
  void merge(const MetricsRegistry& other);

  [[nodiscard]] const std::map<std::string, Counter>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace smrp::obs
