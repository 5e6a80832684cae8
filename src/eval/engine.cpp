#include "eval/engine.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "net/rng.hpp"

namespace smrp::eval {

std::uint64_t trial_seed(std::uint64_t bench_seed, int trial) {
  // Offset the splitmix state by trial · γ (the same golden-ratio gamma
  // splitmix itself steps by), then mix once. Nearby bench seeds and
  // nearby trial indices land in unrelated streams.
  std::uint64_t state =
      bench_seed + static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL;
  return net::splitmix64(state);
}

void TrialRecorder::add(std::string_view name, double value) {
  series(name).add(value);
}

RunningStats& TrialRecorder::series(std::string_view name) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(std::string(name), RunningStats{}).first->second;
}

obs::Telemetry* TrialRecorder::telemetry(std::string label) {
  if (!collect_telemetry_) return nullptr;
  TelemetrySnapshot& slot = telemetry_.emplace_back();
  slot.label = std::move(label);
  slot.telemetry = std::make_unique<obs::Telemetry>();
  if (sample_period_ > 0.0) slot.telemetry->enable_sampling(sample_period_);
  return slot.telemetry.get();
}

void TrialRecorder::close_telemetry(obs::Telemetry* t, double now) {
  if (t == nullptr) return;
  for (TelemetrySnapshot& slot : telemetry_) {
    if (slot.telemetry.get() == t) {
      slot.now = now;
      t->finish(now);
      return;
    }
  }
  throw std::invalid_argument(
      "close_telemetry: bundle does not belong to this recorder");
}

/// Private bridge into TrialRecorder for the engine itself.
struct EngineAccess {
  static void enable_telemetry(TrialRecorder& r, double sample_period) {
    r.collect_telemetry_ = true;
    r.sample_period_ = sample_period;
  }
  static void fold(EngineResult& out, TrialRecorder& r) {
    for (auto& [name, stats] : r.series_) {
      out.series[name].merge(stats);
    }
    for (TelemetrySnapshot& snap : r.telemetry_) {
      out.telemetry.push_back(std::move(snap));
    }
  }
};

const RunningStats* EngineResult::find(std::string_view name) const {
  // std::map<std::string, ...> without std::less<>: materialize the key.
  const auto it = series.find(std::string(name));
  return it == series.end() ? nullptr : &it->second;
}

Summary EngineResult::summary(std::string_view name) const {
  const RunningStats* s = find(name);
  return s != nullptr ? s->summary() : Summary{};
}

EngineResult run_trials(const EngineOptions& options,
                        const std::function<void(TrialContext&)>& body) {
  if (options.trials < 0) {
    throw std::invalid_argument("run_trials: negative trial count");
  }
  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (threads > options.trials) threads = options.trials;
  if (threads < 1) threads = 1;

  std::vector<TrialRecorder> recorders(
      static_cast<std::size_t>(options.trials));
  if (options.collect_telemetry) {
    for (TrialRecorder& r : recorders) {
      EngineAccess::enable_telemetry(r, options.sample_period);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Work-stealing by atomic counter: workers claim the next unclaimed
  // trial index. Which worker runs which trial is scheduling noise; the
  // per-trial recorders and the in-order fold below erase it.
  std::atomic<int> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;

  const auto worker = [&]() {
    while (true) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= options.trials) return;
      TrialContext ctx{i, trial_seed(options.seed, i),
                       recorders[static_cast<std::size_t>(i)]};
      try {
        body(ctx);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        // Drain the remaining trials so every worker exits promptly.
        next.store(options.trials, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);

  const auto t1 = std::chrono::steady_clock::now();

  EngineResult result;
  result.seed = options.seed;
  result.trials = options.trials;
  result.threads = threads;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (TrialRecorder& r : recorders) EngineAccess::fold(result, r);
  return result;
}

// ---------------------------------------------------------------------------
// JSON emission

namespace {

/// Shortest round-trip decimal form (std::to_chars); non-finite values
/// become null, which JSON can actually carry.
std::string render_double(double value) {
  if (value != value || value == std::numeric_limits<double>::infinity() ||
      value == -std::numeric_limits<double>::infinity()) {
    return "null";
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) return "null";
  return std::string(buf, ptr);
}

std::string render_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

void BenchConfig::put(std::string key, std::string rendered) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  }
  entries_.emplace_back(std::move(key), std::move(rendered));
}

void BenchConfig::set(std::string key, double value) {
  put(std::move(key), render_double(value));
}
void BenchConfig::set(std::string key, int value) {
  put(std::move(key), std::to_string(value));
}
void BenchConfig::set(std::string key, std::int64_t value) {
  put(std::move(key), std::to_string(value));
}
void BenchConfig::set(std::string key, bool value) {
  put(std::move(key), value ? "true" : "false");
}
void BenchConfig::set(std::string key, std::string_view value) {
  put(std::move(key), render_string(value));
}

void write_bench_json(std::ostream& out, std::string_view experiment,
                      std::string_view title, const BenchConfig& config,
                      const EngineResult& result) {
  out << "{\n";
  out << "  \"schema\": " << render_string(kBenchJsonSchema) << ",\n";
  out << "  \"experiment\": " << render_string(experiment) << ",\n";
  out << "  \"title\": " << render_string(title) << ",\n";
  out << "  \"seed\": " << result.seed << ",\n";
  out << "  \"trials\": " << result.trials << ",\n";

  out << "  \"config\": {";
  bool first = true;
  for (const auto& [key, rendered] : config.entries()) {
    if (!first) out << ", ";
    first = false;
    out << render_string(key) << ": " << rendered;
  }
  out << "},\n";

  out << "  \"series\": {";
  first = true;
  for (const auto& [name, stats] : result.series) {
    if (!first) out << ",";
    first = false;
    const Summary s = stats.summary();
    out << "\n    " << render_string(name) << ": {"
        << "\"count\": " << s.count
        << ", \"sum\": " << render_double(stats.sum())
        << ", \"mean\": " << render_double(s.mean)
        << ", \"stddev\": " << render_double(s.stddev)
        << ", \"ci95_half\": " << render_double(s.ci95_half)
        << ", \"min\": " << render_double(s.min)
        << ", \"max\": " << render_double(s.max)
        << ", \"p50\": " << render_double(stats.percentile(0.50))
        << ", \"p90\": " << render_double(stats.percentile(0.90))
        << ", \"p99\": " << render_double(stats.percentile(0.99)) << "}";
  }
  out << "\n  },\n";

  // The one thread-count-dependent line, kept to a single line at the end
  // so determinism checks can strip it (grep -v '"timing"') and compare
  // the rest byte for byte.
  const double secs = result.wall_ms / 1000.0;
  const double rate = secs > 0.0 ? result.trials / secs : 0.0;
  out << "  \"timing\": {\"threads\": " << result.threads
      << ", \"wall_ms\": " << render_double(result.wall_ms)
      << ", \"trials_per_sec\": " << render_double(rate) << "}\n";
  out << "}\n";
}

}  // namespace smrp::eval
