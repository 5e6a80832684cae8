// Shared harness for the figure-reproduction bench binaries.
//
// Every bench is expressed as N independent seeded trials run through the
// deterministic parallel engine (src/eval/engine.hpp, DESIGN.md §9).
// bench::Runner owns the flag surface all the binaries share:
//
//   --trials N        trial count (each bench has its own default)
//   --seed S          root seed (default kDefaultSeed)
//   --threads T       worker count (0 = hardware concurrency); the output
//                     is byte-identical for any T at a fixed seed
//   --json PATH       write the machine-readable BENCH_<experiment>.json
//   --telemetry PATH  JSONL snapshot export (unchanged trace schema)
//   --sample-period M periodic gauge sampling every M ms of sim time in
//                     the exported telemetry (requires --telemetry)
//
// Flag owners parse their own flags (TelemetryExport::try_parse_flag);
// the Runner alone rejects what nobody claimed, so adding a flag to one
// owner cannot break another owner's parsing. Every integer flag, the
// Runner's and any bench's own, goes through int_flag().
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "eval/engine.hpp"
#include "obs/jsonl.hpp"

namespace smrp::bench {

/// Every bench announces what it reproduces and under which seed, so a run
/// is self-describing and replayable.
inline void banner(std::string_view experiment_id, std::string_view title,
                   std::uint64_t seed) {
  std::cout << "==================================================================\n"
            << experiment_id << ": " << title << "\n"
            << "seed=" << seed << "\n"
            << "==================================================================\n";
}

inline constexpr std::uint64_t kDefaultSeed = 20050628;  // DSN 2005 week

/// Consume the value after the integer flag argv[i] (advancing i) and
/// parse it into the flag's own type T. Decimal digits only: a sign,
/// trailing junk, or a value T cannot hold is an error naming the flag —
/// never a wrap (`--seed -1`) or a truncation (`--trials 4294967297`).
template <typename T>
T int_flag(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
  const std::string_view text = argv[++i];
  const char* const end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || text.front() == '-' || stop != end) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" +
                                std::string(text) + "'");
  }
  if (error != std::errc{}) {  // all digits, so: too large for T
    throw std::invalid_argument(flag + " is out of range, got '" +
                                std::string(text) + "'");
  }
  return value;
}

/// JSONL telemetry export for bench binaries. Inactive (every call a
/// no-op) when `--telemetry` was absent, so instrumented benches run
/// unchanged by default. Each instrumented run appends its own snapshot
/// section (delimited by a `meta` line) to the same file;
/// tools/trace_report renders them per run label.
class TelemetryExport {
 public:
  /// Per-flag parser for a shared argv loop: when argv[i] is
  /// `--telemetry`, consume it and its path argument (advancing i) and
  /// return true; return false for any flag this exporter does not own.
  /// Unknown-flag rejection is the caller's job (bench::Runner), not
  /// this owner's — flag owners must compose.
  bool try_parse_flag(int argc, char** argv, int& i) {
    if (std::string_view(argv[i]) != "--telemetry") return false;
    if (i + 1 >= argc) {
      throw std::invalid_argument("--telemetry needs a file path");
    }
    open(argv[++i]);
    return true;
  }

  [[nodiscard]] bool active() const noexcept { return sink_ != nullptr; }

  /// Append one run's snapshot section. Closes still-open spans as
  /// kTruncated first (the run is over; anything open is a finding).
  void add(obs::Telemetry& telemetry, double now, std::string_view run_label) {
    if (sink_ == nullptr) return;
    telemetry.finish(now);
    sink_->write_snapshot(telemetry, now, run_label);
    if (!*out_) {
      throw std::runtime_error("failed writing telemetry output: " + path_);
    }
  }

 private:
  void open(std::string path) {
    path_ = std::move(path);
    out_ = std::make_unique<std::ofstream>(path_, std::ios::trunc);
    if (!*out_) {
      throw std::runtime_error("cannot open telemetry output: " + path_);
    }
    sink_ = std::make_unique<obs::JsonlSink>(*out_);
  }

  std::string path_;
  std::unique_ptr<std::ofstream> out_;
  std::unique_ptr<obs::JsonlSink> sink_;
};

/// The shared bench driver: parses the common flags, runs the trial body
/// through the parallel engine, flushes buffered telemetry in trial
/// order, and emits the BENCH_<experiment>.json report when asked.
///
///   bench::Runner runner(argc, argv, "fig8", "Effect of D_thresh", 100);
///   runner.config().set("node_count", 100);
///   const eval::EngineResult& r = runner.run([&](eval::TrialContext& ctx) {
///     net::Rng rng(ctx.seed);
///     ...
///     ctx.recorder.add("rd_rel_weight", value);
///   });
///   // render human tables from r / runner.summary("rd_rel_weight")
class Runner {
 public:
  Runner(int argc, char** argv, std::string experiment, std::string title,
         int default_trials)
      : experiment_(std::move(experiment)),
        title_(std::move(title)),
        program_(argc > 0 ? argv[0] : "bench") {
    options_.seed = kDefaultSeed;
    options_.trials = default_trials;
    parse(argc, argv);
    banner(experiment_, title_, options_.seed);
  }

  [[nodiscard]] eval::EngineOptions& options() noexcept { return options_; }
  [[nodiscard]] eval::BenchConfig& config() noexcept { return config_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return options_.seed; }
  [[nodiscard]] int trials() const noexcept { return options_.trials; }
  [[nodiscard]] bool telemetry_active() const noexcept {
    return telemetry_.active();
  }

  /// Run the trials and post-process: telemetry flush (trial order, so
  /// the trace file is thread-count independent too), JSON report,
  /// timing footer. Returns the merged result, also kept on the Runner.
  const eval::EngineResult& run(
      const std::function<void(eval::TrialContext&)>& body) {
    options_.collect_telemetry = telemetry_.active();
    result_ = eval::run_trials(options_, body);

    for (eval::TelemetrySnapshot& snap : result_.telemetry) {
      telemetry_.add(*snap.telemetry, snap.now, snap.label);
    }
    if (!json_path_.empty()) {
      std::ofstream out(json_path_, std::ios::trunc);
      if (!out) {
        throw std::runtime_error("cannot open JSON output: " + json_path_);
      }
      eval::write_bench_json(out, experiment_, title_, config_, result_);
      if (!out) {
        throw std::runtime_error("failed writing JSON output: " + json_path_);
      }
      std::cout << "[engine] wrote " << json_path_ << "\n";
    }
    const double secs = result_.wall_ms / 1000.0;
    std::cout << "[engine] trials=" << result_.trials
              << " threads=" << result_.threads
              << " wall_ms=" << result_.wall_ms
              << (secs > 0.0
                      ? " trials_per_sec=" +
                            std::to_string(result_.trials / secs)
                      : std::string{})
              << "\n";
    return result_;
  }

  [[nodiscard]] const eval::EngineResult& result() const noexcept {
    return result_;
  }
  [[nodiscard]] eval::Summary summary(std::string_view series) const {
    return result_.summary(series);
  }

 private:
  void parse(int argc, char** argv) {
    try {
      for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (telemetry_.try_parse_flag(argc, argv, i)) continue;
        if (arg == "--trials") {
          options_.trials = int_flag<int>(argc, argv, i);
          if (options_.trials < 1) {
            throw std::invalid_argument("--trials needs a positive integer");
          }
        } else if (arg == "--seed") {
          options_.seed = int_flag<std::uint64_t>(argc, argv, i);
        } else if (arg == "--threads") {
          options_.threads = int_flag<int>(argc, argv, i);
        } else if (arg == "--json") {
          if (i + 1 >= argc) {
            throw std::invalid_argument("--json needs a file path");
          }
          json_path_ = argv[++i];
        } else if (arg == "--sample-period") {
          options_.sample_period =
              static_cast<double>(int_flag<int>(argc, argv, i));
          if (options_.sample_period <= 0.0) {
            throw std::invalid_argument(
                "--sample-period needs a positive integer (ms)");
          }
        } else if (arg == "--help" || arg == "-h") {
          usage(std::cout);
          std::exit(0);
        } else {
          throw std::invalid_argument("unknown argument: " + std::string(arg));
        }
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << program_ << ": " << e.what() << "\n";
      usage(std::cerr);
      std::exit(2);
    }
  }

  void usage(std::ostream& out) const {
    out << "usage: " << program_
        << " [--trials N] [--seed S] [--threads T]"
           " [--json PATH] [--telemetry PATH]\n"
           "  --trials N        trials to run (default "
        << options_.trials << " for this bench)\n"
           "  --seed S          root seed (default " << kDefaultSeed << ")\n"
           "  --threads T       worker threads, 0 = hardware concurrency;\n"
           "                    results are identical for any T\n"
           "  --json PATH       write machine-readable results (schema "
        << eval::kBenchJsonSchema << ")\n"
           "  --telemetry PATH  write JSONL trace snapshots\n"
           "  --sample-period M sample gauges every M ms of sim time into\n"
           "                    the telemetry trace (needs --telemetry)\n";
  }

  std::string experiment_;
  std::string title_;
  std::string program_;
  eval::EngineOptions options_;
  eval::BenchConfig config_;
  TelemetryExport telemetry_;
  std::string json_path_;
  eval::EngineResult result_;
};

}  // namespace smrp::bench
