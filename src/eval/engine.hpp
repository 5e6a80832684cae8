// Deterministic parallel experiment engine (DESIGN.md §9).
//
// A bench describes its workload as N independent trials; the engine runs
// them on a fixed-size thread pool and folds the results back together so
// that the output is bit-identical at any thread count:
//
//  * each trial derives its own seed from the bench seed via splitmix64
//    (`trial_seed`), so trial i sees the same random stream no matter
//    which worker runs it or in which order;
//  * each trial records into its own TrialRecorder (no shared mutable
//    state on the hot path), and after the pool joins, per-trial
//    RunningStats are merged in trial-index order through the exact
//    mergeable moments of obs::Histogram;
//  * per-trial telemetry snapshots are buffered and exported in trial
//    order, never in completion order.
//
// The only thread-count-dependent outputs are the wall clock and the
// derived trials/sec, which `write_bench_json` confines to a single
// trailing "timing" line so consumers (and the determinism tests) can
// strip it and compare the rest byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/stats.hpp"
#include "obs/telemetry.hpp"

namespace smrp::eval {

/// Version tag of the machine-readable bench output; bump when the JSON
/// layout changes incompatibly.
inline constexpr std::string_view kBenchJsonSchema = "smrp.bench.v1";

/// Seed for trial `trial` of a bench run seeded with `bench_seed`:
/// splitmix64 of the golden-ratio sequence, the standard recipe for
/// statistically independent per-stream seeds from one root seed.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t bench_seed, int trial);

/// One buffered telemetry snapshot: what TelemetryExport::add would have
/// written immediately in a serial bench, captured for in-order export.
struct TelemetrySnapshot {
  std::string label;
  double now = 0.0;  ///< sim-time stamp of the snapshot
  std::unique_ptr<obs::Telemetry> telemetry;
};

/// Per-trial sink. Each trial owns exactly one recorder; recording never
/// synchronizes with other trials.
class TrialRecorder {
 public:
  /// Record one sample into the named series (created on first use).
  void add(std::string_view series, double value);

  /// Direct access to a series accumulator, for callers that cache it
  /// across an inner loop.
  RunningStats& series(std::string_view name);

  /// A telemetry bundle to instrument this trial with, or nullptr when
  /// the run does not collect telemetry (the usual nullable-Telemetry
  /// convention; callers guard on it). Snapshots surface in
  /// EngineResult::telemetry in trial order, then creation order.
  [[nodiscard]] obs::Telemetry* telemetry(std::string label);

  /// Stamp a bundle obtained from telemetry() with its snapshot time and
  /// close still-open spans. Call once per bundle, when its run ends.
  void close_telemetry(obs::Telemetry* t, double now);

 private:
  friend struct EngineAccess;

  std::map<std::string, RunningStats, std::less<>> series_;
  std::vector<TelemetrySnapshot> telemetry_;
  bool collect_telemetry_ = false;
  double sample_period_ = 0.0;  ///< gauge sampling period for new bundles
};

/// What a trial body receives.
struct TrialContext {
  int trial = 0;           ///< 0-based trial index
  std::uint64_t seed = 0;  ///< trial_seed(bench_seed, trial)
  TrialRecorder& recorder;
};

struct EngineOptions {
  std::uint64_t seed = 0;
  int trials = 1;
  /// Worker count; 0 means std::thread::hardware_concurrency(). The
  /// pool never outnumbers the trials, and `threads == 1` runs inline on
  /// the calling thread.
  int threads = 0;
  bool collect_telemetry = false;
  /// Periodic gauge-sampling period (ms) applied to every telemetry
  /// bundle a trial creates; 0 (the default) leaves sampling off.
  double sample_period = 0.0;
};

struct EngineResult {
  std::uint64_t seed = 0;
  int trials = 0;
  int threads = 0;    ///< workers actually used
  double wall_ms = 0.0;
  std::map<std::string, RunningStats> series;
  std::vector<TelemetrySnapshot> telemetry;  ///< trial order

  /// The named series, or nullptr when no trial recorded into it.
  [[nodiscard]] const RunningStats* find(std::string_view name) const;
  /// Summary of the named series; a zeroed Summary (count 0) when absent.
  [[nodiscard]] Summary summary(std::string_view name) const;
};

/// Run `options.trials` independent trials of `body` and merge their
/// recorders. The body must confine all mutation to its TrialContext (and
/// RNGs seeded from ctx.seed): that is the whole determinism contract.
/// A trial that throws aborts the run; the first exception is rethrown
/// after the pool drains.
EngineResult run_trials(const EngineOptions& options,
                        const std::function<void(TrialContext&)>& body);

/// Typed key/value list for the "config" JSON object, preserving
/// insertion order so the file layout is stable.
class BenchConfig {
 public:
  void set(std::string key, double value);
  void set(std::string key, int value);
  void set(std::string key, std::int64_t value);
  void set(std::string key, bool value);
  void set(std::string key, std::string_view value);
  void set(std::string key, const char* value) {
    set(std::move(key), std::string_view(value));
  }

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const noexcept {
    return entries_;
  }

 private:
  void put(std::string key, std::string rendered);
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Emit the versioned machine-readable bench report. Everything above the
/// final single-line "timing" object is a pure function of (experiment,
/// title, config, seed, trials, merged series) — byte-identical across
/// thread counts. Doubles print with shortest round-trip precision;
/// non-finite values print as null.
void write_bench_json(std::ostream& out, std::string_view experiment,
                      std::string_view title, const BenchConfig& config,
                      const EngineResult& result);

}  // namespace smrp::eval
