// Regression diff for two smrp.bench.v1 JSON reports (DESIGN.md §9).
//
//   bench_diff [--threshold R] [--metrics m1,m2] [--series GLOB]
//              <baseline.json> <candidate.json>
//
// Compares the summary statistics of every watched series — every series
// by default, or those whose name matches `--series`, a shell-style glob
// (obs::expect::glob_match, the same matcher trace_report's --runs uses)
// — and fails when any watched metric drifts by more than the relative
// threshold:
//
//   delta = (candidate - baseline) / |baseline|
//
// A zero baseline against a non-zero candidate counts as infinite drift,
// and a watched baseline series the candidate lacks counts as drift too:
// a gate that passed when a series vanished would pass a bench that
// stopped reporting it. Series only the candidate carries are listed,
// never judged — benches grow series over time. Watched metrics default
// to mean and p99. The default threshold of 0.25 suits deterministic
// series; loosen it for wall-clock-like ones.
//
// Exit codes: 0 within threshold, 1 drift detected (a DRIFT table names
// each metric that moved and each series that went missing), 2
// usage/parse error.
// CI diffs freshly-regenerated bench JSON against the committed baseline,
// so a silent perf or behaviour regression fails the build with a table
// naming the series that moved.
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "eval/table.hpp"
#include "obs/expect/offline.hpp"

namespace {

using smrp::eval::Table;

// ---------------------------------------------------------------------------
// Minimal recursive JSON reader: just enough for the bench schema (objects,
// strings, numbers, bools, null; arrays tolerated and skipped). Throws
// std::runtime_error with an offset on malformed input, and on nesting
// deeper than kMaxDepth, so hostile input cannot recurse off the stack.

struct JsonValue {
  enum class Kind { kObject, kString, kNumber, kBool, kNull } kind =
      Kind::kNull;
  std::map<std::string, JsonValue> object;
  std::string string;
  double number = 0.0;
  bool boolean = false;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  /// The bench schema nests three deep.
  static constexpr int kMaxDepth = 64;

  JsonValue parse_value() {
    skip_space();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      default: {
        JsonValue v;
        if (literal("true")) {
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
        } else if (literal("false")) {
          v.kind = JsonValue::Kind::kBool;
        } else if (literal("null")) {
          v.kind = JsonValue::Kind::kNull;
        } else {
          v.kind = JsonValue::Kind::kNumber;
          v.number = parse_number();
        }
        return v;
      }
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  /// Arrays do not appear in the bench schema; parse and discard the
  /// elements so a future schema addition cannot break the diff.
  JsonValue parse_array() {
    expect('[');
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{};
    }
    while (true) {
      parse_value();
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u':
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          pos_ += 4;  // bench strings are ASCII; keep the placeholder
          out += '?';
          break;
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      return std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---------------------------------------------------------------------------

/// Per-series summary statistics lifted out of one report.
using SeriesTable = std::map<std::string, std::map<std::string, double>>;

struct BenchReport {
  std::string experiment;
  SeriesTable series;
};

BenchReport load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root = JsonReader(buffer.str()).parse();

  const JsonValue* schema = root.get("schema");
  if (schema == nullptr || schema->string != "smrp.bench.v1") {
    throw std::runtime_error(path + ": not an smrp.bench.v1 report");
  }
  BenchReport report;
  if (const JsonValue* experiment = root.get("experiment")) {
    report.experiment = experiment->string;
  }
  const JsonValue* series = root.get("series");
  if (series == nullptr || series->kind != JsonValue::Kind::kObject) {
    throw std::runtime_error(path + ": missing series object");
  }
  for (const auto& [name, stats] : series->object) {
    if (stats.kind != JsonValue::Kind::kObject) continue;
    auto& row = report.series[name];
    for (const auto& [metric, value] : stats.object) {
      if (value.kind == JsonValue::Kind::kNumber) row[metric] = value.number;
    }
  }
  return report;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

std::string percent(double delta) {
  if (std::isinf(delta)) return delta > 0 ? "+inf" : "-inf";
  std::string text = Table::fixed(100.0 * delta, 1) + "%";
  if (delta > 0) text = "+" + text;
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::cerr << "usage: bench_diff [--threshold R] [--metrics m1,m2]"
                 " [--series GLOB] <baseline.json> <candidate.json>\n";
    return 2;
  };
  double threshold = 0.25;
  std::vector<std::string> metrics{"mean", "p99"};
  std::string series_glob;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (++i >= argc) return usage();
      char* end = nullptr;
      threshold = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' || threshold <= 0.0) {
        std::cerr << "bench_diff: --threshold needs a positive number\n";
        return 2;
      }
    } else if (arg == "--metrics") {
      if (++i >= argc) return usage();
      metrics = split_commas(argv[i]);
      if (metrics.empty()) return usage();
    } else if (arg == "--series") {
      if (++i >= argc) return usage();
      series_glob = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  BenchReport baseline;
  BenchReport candidate;
  try {
    baseline = load_report(paths[0]);
    candidate = load_report(paths[1]);
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 2;
  }
  if (!baseline.experiment.empty() &&
      baseline.experiment != candidate.experiment) {
    std::cerr << "bench_diff: experiments differ (" << baseline.experiment
              << " vs " << candidate.experiment << ")\n";
    return 2;
  }

  Table table({"series", "metric", "baseline", "candidate", "delta", "ok"});
  int compared = 0;
  int drifted = 0;
  int missing = 0;
  for (const auto& [name, base_stats] : baseline.series) {
    if (!series_glob.empty() &&
        !smrp::obs::expect::glob_match(series_glob, name)) {
      continue;
    }
    const auto cand_it = candidate.series.find(name);
    if (cand_it == candidate.series.end()) {
      ++missing;
      table.add_row({name, "(series)", "present", "missing", "-", "DRIFT"});
      continue;
    }
    for (const std::string& metric : metrics) {
      const auto base_it = base_stats.find(metric);
      const auto cand_stat = cand_it->second.find(metric);
      if (base_it == base_stats.end() ||
          cand_stat == cand_it->second.end()) {
        continue;  // e.g. a null (non-finite) stat on either side
      }
      const double base = base_it->second;
      const double cand = cand_stat->second;
      double delta = 0.0;
      if (base != 0.0) {
        delta = (cand - base) / std::fabs(base);
      } else if (cand != 0.0) {
        delta = std::numeric_limits<double>::infinity();
      }
      const bool ok = std::fabs(delta) <= threshold;
      ++compared;
      if (!ok) ++drifted;
      // Passing rows stay out of the table unless something failed later;
      // print only drifting rows to keep CI logs scannable.
      if (!ok) {
        table.add_row({name, metric, Table::fixed(base, 4),
                       Table::fixed(cand, 4), percent(delta), "DRIFT"});
      }
    }
  }
  int candidate_only = 0;
  for (const auto& [name, stats] : candidate.series) {
    if (!series_glob.empty() &&
        !smrp::obs::expect::glob_match(series_glob, name)) {
      continue;
    }
    if (baseline.series.find(name) == baseline.series.end()) {
      ++candidate_only;
    }
  }

  std::cout << "bench_diff: " << compared << " metric comparisons, "
            << drifted << " over the " << Table::fixed(100.0 * threshold, 0)
            << "% threshold";
  if (missing > 0) {
    std::cout << "; " << missing << " watched series missing from candidate";
  }
  if (candidate_only > 0) {
    std::cout << "; " << candidate_only << " series only in candidate";
  }
  std::cout << "\n";
  if (compared == 0 && missing == 0) {
    std::cerr << "bench_diff: no comparable series"
              << (series_glob.empty() ? ""
                                      : " matching \"" + series_glob + "\"")
              << "\n";
    return 2;
  }
  if (drifted > 0 || missing > 0) {
    std::cout << table.render();
    return 1;
  }
  return 0;
}
