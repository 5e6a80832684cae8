// Offline renderer for the telemetry JSONL traces the benches and the
// scenario scripting layer export (DESIGN.md §8): validates every line
// against the flat schema, reassembles the causal span tree, and prints —
// per run section — a per-repair-episode latency table (detection →
// ring search/backoff → graft → total service interruption, with the
// in-protocol convergence skew when the trace carries convergence spans)
// plus the registry's counters and distributions. `--samples` appends a
// per-gauge envelope table of the sampler's periodic snapshots.
//
//   trace_report [--samples] <trace.jsonl>
//   trace_report --expect <rules|core> [--runs <glob>] <trace.jsonl>
//
// The second form replays the trace through the protocol-expectations
// checker (DESIGN.md §12) instead of rendering the episode report: it
// prints a per-rule pass/violation table per run section and exits 1 on
// any violation. `--runs` filters sections by their meta "run" label
// (shell-style glob) — e.g. scope the SMRP core ruleset to the smrp
// halves of an A/B bench trace.
//
// Exit codes: 0 ok, 1 malformed trace (line number on stderr) or expect
// violations, 2 usage. CI runs a seeded chaos soak through this binary,
// so a schema drift in the exporter fails the build instead of silently
// corrupting analyses.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/table.hpp"
#include "obs/expect/offline.hpp"
#include "obs/jsonl.hpp"

namespace {

using smrp::eval::Table;

using smrp::obs::JsonlField;
using Fields = std::vector<JsonlField>;

struct SpanRow {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string kind;
  std::int64_t node = -1;
  double start = 0.0;
  double end = 0.0;
  std::string status;
  std::map<std::string, double> attrs;

  [[nodiscard]] double attr(const std::string& key, double fallback) const {
    const auto it = attrs.find(key);
    return it != attrs.end() ? it->second : fallback;
  }
};

struct HistRow {
  std::uint64_t count = 0;
  double sum = 0.0, mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
};

/// One periodic gauge snapshot row (the sampler's `sample` records).
struct SampleRow {
  double t = 0.0;
  std::string name;
  double value = 0.0;
};

/// One `meta`-delimited section of the file (one instrumented run).
struct RunSection {
  std::string label;
  double at = 0.0;
  std::uint64_t declared_spans = 0;
  /// Declared event count; absent in traces from before the event stream.
  std::optional<std::uint64_t> declared_events;
  /// Declared sample count; absent in traces from before the sampler.
  std::optional<std::uint64_t> declared_samples;
  std::uint64_t events = 0;
  std::vector<SpanRow> spans;
  std::vector<SampleRow> samples;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;  ///< final value per gauge
  std::map<std::string, HistRow> hists;
};

[[noreturn]] void malformed(int line, const std::string& what) {
  std::cerr << "trace_report: line " << line << ": " << what << "\n";
  std::exit(1);
}

/// The numeric field named `key`, or nullopt when it is absent or a string.
std::optional<double> num(const Fields& obj, const char* key) {
  const JsonlField* f = smrp::obs::find_field(obj, key);
  if (f == nullptr || f->is_string) return std::nullopt;
  return f->num;
}

double require_num(const Fields& obj, const char* key, int line) {
  const auto v = num(obj, key);
  if (!v) malformed(line, std::string("missing numeric field \"") + key + "\"");
  return *v;
}

/// A numeric field as an integer of type T. Non-finite, fractional and
/// out-of-range values are malformed: a float-to-integer cast of them is
/// undefined.
template <class T>
T to_integer(double value, const char* key, int line) {
  // 2^digits: the first value past T's range, exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double low = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(value >= low && value < limit) || value != std::trunc(value)) {
    malformed(line, std::string("field \"") + key +
                        "\" is not an integer in range");
  }
  return static_cast<T>(value);
}

template <class T>
T require_integer(const Fields& obj, const char* key, int line) {
  return to_integer<T>(require_num(obj, key, line), key, line);
}

const std::string& require_str(const Fields& obj, const char* key,
                               int line) {
  const JsonlField* f = smrp::obs::find_field(obj, key);
  if (f == nullptr || !f->is_string) {
    malformed(line, std::string("missing string field \"") + key + "\"");
  }
  return f->str;
}

std::string ms(double v) { return Table::fixed(v, 1); }

void render_run(const RunSection& run, bool show_samples) {
  std::cout << "run \"" << run.label << "\" (snapshot at " << ms(run.at)
            << " ms): " << run.spans.size() << " spans\n";
  if (run.declared_spans != run.spans.size()) {
    malformed(0, "meta declared " + std::to_string(run.declared_spans) +
                     " spans but section carries " +
                     std::to_string(run.spans.size()));
  }
  if (run.declared_events && *run.declared_events != run.events) {
    malformed(0, "meta declared " + std::to_string(*run.declared_events) +
                     " events but section carries " +
                     std::to_string(run.events));
  }
  if (run.declared_samples && *run.declared_samples != run.samples.size()) {
    malformed(0, "meta declared " + std::to_string(*run.declared_samples) +
                     " samples but section carries " +
                     std::to_string(run.samples.size()));
  }

  // Reassemble the causal structure: children grouped under each outage.
  std::map<std::uint64_t, const SpanRow*> by_id;
  for (const SpanRow& s : run.spans) by_id[s.id] = &s;
  std::map<std::uint64_t, std::vector<const SpanRow*>> children;
  for (const SpanRow& s : run.spans) {
    if (s.parent == 0) continue;
    if (by_id.find(s.parent) == by_id.end()) {
      malformed(0, "span " + std::to_string(s.id) + " references missing parent " +
                       std::to_string(s.parent));
    }
    children[s.parent].push_back(&s);
  }

  Table episodes({"node", "t0 (ms)", "detect (ms)", "repairs", "rings",
                  "search (ms)", "graft (ms)", "total (ms)", "skew (ms)",
                  "status"});
  int outages = 0;
  int ok_outages = 0;
  int confirmed = 0;
  std::vector<double> skews;
  double total_interruption = 0.0;
  for (const SpanRow& s : run.spans) {
    if (s.kind != "outage") continue;
    ++outages;
    int repairs = 0;
    // A double: the attr is read from the file, and casting an
    // out-of-range value to an integer is undefined.
    double rings = 0.0;
    double search_ms = 0.0;
    double graft_ms = 0.0;
    const SpanRow* convergence = nullptr;
    for (const SpanRow* child : children[s.id]) {
      if (child->kind == "repair") {
        ++repairs;
        rings += child->attr("rings", 0.0);
        search_ms += child->end - child->start;
      } else if (child->kind == "graft" || child->kind == "fallback") {
        graft_ms += child->end - child->start;
      } else if (child->kind == "convergence") {
        convergence = child;
      }
    }
    const double lost_at = s.attr("service_lost_at", s.start);
    const double total = s.attr("total_ms", s.end - lost_at);
    if (s.status == "ok") {
      total_interruption += total;
      ++ok_outages;
      if (convergence != nullptr) ++confirmed;
    }
    std::string skew = "-";
    if (convergence != nullptr) {
      const double skew_ms = convergence->attr(
          "skew_ms", convergence->attr("detected_ms", total) - total);
      skews.push_back(skew_ms);
      skew = ms(skew_ms);
    }
    episodes.add_row({std::to_string(s.node), ms(s.start),
                      ms(s.attr("silence_ms", s.start - lost_at)),
                      std::to_string(repairs), Table::fixed(rings, 0),
                      ms(search_ms), ms(graft_ms), ms(total), skew, s.status});
  }
  if (outages > 0) {
    std::cout << "\n  repair episodes (" << outages
              << " outages, total interruption " << ms(total_interruption)
              << " ms over closed episodes):\n"
              << episodes.render();
  } else {
    std::cout << "  no outage episodes recorded\n";
  }

  // In-protocol convergence coverage (DESIGN.md §13): how many restored
  // outages the source confirmed from protocol messages alone, and how far
  // the honest clock lagged the omniscient one.
  if (ok_outages > 0 && !skews.empty()) {
    std::sort(skews.begin(), skews.end());
    const double median = skews[skews.size() / 2];
    std::cout << "\n  convergence: " << confirmed << "/" << ok_outages
              << " restored outages confirmed in-protocol, median skew "
              << ms(median) << " ms (max " << ms(skews.back()) << " ms)\n";
  }

  if (!run.hists.empty()) {
    Table hists({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : run.hists) {
      hists.add_row({name, std::to_string(h.count), ms(h.mean), ms(h.p50),
                     ms(h.p90), ms(h.p99), ms(h.max)});
    }
    std::cout << "\n  distributions:\n" << hists.render();
  }

  // Headline counters: protocol + recovery, and sim-layer aggregates.
  std::uint64_t tx = 0, rx = 0, drop = 0;
  Table counters({"counter", "value"});
  bool any_counter = false;
  for (const auto& [name, value] : run.counters) {
    if (name.rfind("smrp.sim.tx.", 0) == 0) {
      tx += value;
    } else if (name.rfind("smrp.sim.rx.", 0) == 0) {
      rx += value;
    } else if (name.rfind("smrp.sim.drop.", 0) == 0) {
      drop += value;
    } else if (name.rfind("smrp.proto.", 0) == 0 ||
               name.rfind("smrp.recovery.", 0) == 0) {
      counters.add_row({name, std::to_string(value)});
      any_counter = true;
    }
  }
  if (tx + rx + drop > 0) {
    counters.add_row({"smrp.sim.{tx,rx,drop}.* (total)",
                      std::to_string(tx) + "/" + std::to_string(rx) + "/" +
                          std::to_string(drop)});
    any_counter = true;
  }
  if (any_counter) std::cout << "\n  counters:\n" << counters.render();

  // Routing-oracle summary: one line turning the smrp.routing.* counters
  // into the hit rate the cache design is judged by.
  const auto routing = [&run](const char* name) -> std::uint64_t {
    const auto it = run.counters.find(std::string("smrp.routing.") + name);
    return it != run.counters.end() ? it->second : 0;
  };
  const std::uint64_t lookups = routing("lookups");
  if (lookups > 0) {
    const std::uint64_t hits = routing("cache_hit");
    const std::uint64_t misses = routing("cache_miss");
    if (hits + misses != lookups) {
      malformed(0, "routing cache counters do not balance: " +
                       std::to_string(hits) + " hits + " +
                       std::to_string(misses) + " misses != " +
                       std::to_string(lookups) + " lookups");
    }
    std::cout << "\n  routing cache: " << lookups << " lookups, "
              << Table::fixed(100.0 * static_cast<double>(hits) /
                                  static_cast<double>(lookups),
                              1)
              << "% hit rate (" << hits << " hits, " << misses
              << " misses, " << routing("cache_fallback") << " full runs)";
    // Resident snapshot footprint, when the run carries the gauges.
    const auto count_it = run.gauges.find("smrp.routing.snapshot_count");
    const auto bytes_it = run.gauges.find("smrp.routing.snapshot_bytes");
    if (count_it != run.gauges.end() || bytes_it != run.gauges.end()) {
      std::cout << "; "
                << (count_it != run.gauges.end()
                        ? Table::fixed(count_it->second, 0)
                        : "0")
                << " snapshots resident";
      if (bytes_it != run.gauges.end()) {
        std::cout << " (~"
                  << Table::fixed(bytes_it->second / (1024.0 * 1024.0), 1)
                  << " MiB)";
      }
    }
    std::cout << "\n";
  }

  // Periodic gauge samples (opt-in: the raw rows are a time series, so the
  // default report compresses each gauge to its envelope).
  if (show_samples && !run.samples.empty()) {
    struct SampleSummary {
      std::uint64_t count = 0;
      double first_t = 0.0, last_t = 0.0;
      double first = 0.0, last = 0.0, min = 0.0, max = 0.0;
    };
    std::map<std::string, SampleSummary> by_name;
    for (const SampleRow& sample : run.samples) {
      auto [it, inserted] = by_name.emplace(sample.name, SampleSummary{});
      SampleSummary& s = it->second;
      if (inserted) {
        s.first_t = sample.t;
        s.first = s.min = s.max = sample.value;
      }
      ++s.count;
      s.last_t = sample.t;
      s.last = sample.value;
      s.min = std::min(s.min, sample.value);
      s.max = std::max(s.max, sample.value);
    }
    Table samples({"gauge", "samples", "t0 (ms)", "t1 (ms)", "first", "last",
                   "min", "max"});
    for (const auto& [name, s] : by_name) {
      samples.add_row({name, std::to_string(s.count), ms(s.first_t),
                       ms(s.last_t), ms(s.first), ms(s.last), ms(s.min),
                       ms(s.max)});
    }
    std::cout << "\n  gauge samples (" << run.samples.size() << " rows):\n"
              << samples.render();
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::cerr << "usage: trace_report [--expect <rules|core>] "
                 "[--runs <glob>] [--samples] <trace.jsonl>\n";
    return 2;
  };
  std::string expect_rules;
  std::string runs_filter;
  std::string path;
  bool show_samples = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expect") {
      if (++i >= argc) return usage();
      expect_rules = argv[i];
    } else if (arg == "--runs") {
      if (++i >= argc) return usage();
      runs_filter = argv[i];
    } else if (arg == "--samples") {
      show_samples = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_report: cannot open " << path << "\n";
    return 2;
  }

  std::vector<RunSection> runs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) malformed(line_no, "empty line");
    Fields obj;
    try {
      obj = smrp::obs::parse_jsonl_line(line);
    } catch (const std::invalid_argument& e) {
      malformed(line_no, e.what());
    }
    const std::string& type = require_str(obj, "type", line_no);
    if (type == "meta") {
      const double version = require_num(obj, "version", line_no);
      if (version != 1.0) {
        malformed(line_no, "unsupported trace version " + ms(version));
      }
      RunSection run;
      run.label = require_str(obj, "run", line_no);
      run.at = require_num(obj, "at", line_no);
      run.declared_spans =
          require_integer<std::uint64_t>(obj, "spans", line_no);
      if (const auto events = num(obj, "events")) {
        run.declared_events =
            to_integer<std::uint64_t>(*events, "events", line_no);
      }
      if (const auto samples = num(obj, "samples")) {
        run.declared_samples =
            to_integer<std::uint64_t>(*samples, "samples", line_no);
      }
      runs.push_back(std::move(run));
      continue;
    }
    if (runs.empty()) malformed(line_no, "record before any meta line");
    RunSection& run = runs.back();
    if (type == "span") {
      SpanRow span;
      span.id = require_integer<std::uint64_t>(obj, "id", line_no);
      span.parent = require_integer<std::uint64_t>(obj, "parent", line_no);
      span.kind = require_str(obj, "kind", line_no);
      span.node = require_integer<std::int64_t>(obj, "node", line_no);
      span.start = require_num(obj, "start", line_no);
      span.end = require_num(obj, "end", line_no);
      span.status = require_str(obj, "status", line_no);
      if (span.id == 0) malformed(line_no, "span id 0 is reserved");
      if (span.end + 1e-9 < span.start) {
        malformed(line_no, "span ends before it starts");
      }
      for (const JsonlField& f : obj) {
        if (f.is_string || f.key == "id" || f.key == "parent" ||
            f.key == "node" || f.key == "start" || f.key == "end") {
          continue;
        }
        span.attrs.emplace(f.key, f.num);
      }
      run.spans.push_back(std::move(span));
    } else if (type == "event") {
      require_str(obj, "kind", line_no);
      // Events are recorded with 32-bit node ids.
      require_integer<std::int32_t>(obj, "node", line_no);
      require_num(obj, "t", line_no);
      ++run.events;
    } else if (type == "counter") {
      run.counters[require_str(obj, "name", line_no)] =
          require_integer<std::uint64_t>(obj, "value", line_no);
    } else if (type == "gauge") {
      require_num(obj, "max", line_no);  // schema check
      run.gauges[require_str(obj, "name", line_no)] =
          require_num(obj, "value", line_no);
    } else if (type == "sample") {
      SampleRow sample;
      sample.t = require_num(obj, "t", line_no);
      sample.name = require_str(obj, "name", line_no);
      sample.value = require_num(obj, "value", line_no);
      run.samples.push_back(std::move(sample));
    } else if (type == "hist") {
      HistRow h;
      h.count = require_integer<std::uint64_t>(obj, "count", line_no);
      h.sum = require_num(obj, "sum", line_no);
      h.mean = require_num(obj, "mean", line_no);
      h.p50 = require_num(obj, "p50", line_no);
      h.p90 = require_num(obj, "p90", line_no);
      h.p99 = require_num(obj, "p99", line_no);
      h.max = require_num(obj, "max", line_no);
      run.hists[require_str(obj, "name", line_no)] = h;
    } else {
      malformed(line_no, "unknown record type \"" + type + "\"");
    }
  }
  if (runs.empty()) {
    std::cerr << "trace_report: no runs in " << path << "\n";
    return 1;
  }
  for (const RunSection& run : runs) {
    if (run.declared_events && *run.declared_events != run.events) {
      malformed(0, "meta declared " + std::to_string(*run.declared_events) +
                       " events but section \"" + run.label + "\" carries " +
                       std::to_string(run.events));
    }
  }

  if (!expect_rules.empty()) {
    // Expectation mode: the strict schema pass above already validated the
    // file; now replay it through the same checker the simulation taps
    // online and render the per-rule tables.
    try {
      const smrp::obs::expect::RuleSet rules =
          smrp::obs::expect::RuleSet::load(expect_rules);
      const smrp::obs::expect::OfflineResult result =
          smrp::obs::expect::check_file(path, rules, runs_filter);
      if (result.runs.empty()) {
        std::cerr << "trace_report: no run sections match \"" << runs_filter
                  << "\"\n";
        return 1;
      }
      for (const smrp::obs::expect::RunExpectation& r : result.runs) {
        std::cout << "run \"" << r.run << "\"\n" << r.report.render() << "\n";
      }
      return result.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "trace_report: " << e.what() << "\n";
      return 2;
    }
  }

  for (const RunSection& run : runs) render_run(run, show_samples);
  return 0;
}
