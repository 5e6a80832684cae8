// Offline expectations: replay a recorded JSONL trace (obs/jsonl.hpp)
// through the same ExpectationChecker the simulation taps online. Span
// judgements are order-independent and events are exported in emission
// order, so checking a run's own export yields a report byte-identical
// to the online one (asserted in tests). A file may hold several run
// sections (one meta line each, e.g. one bench / many topologies); each
// section gets its own checker and its own table.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/expect/checker.hpp"

namespace smrp::obs::expect {

struct RunExpectation {
  std::string run;  ///< the section's meta "run" label
  ExpectReport report;
};

struct OfflineResult {
  std::vector<RunExpectation> runs;  ///< file order, post filter

  [[nodiscard]] bool ok() const noexcept {
    for (const RunExpectation& r : runs) {
      if (!r.report.ok()) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    std::uint64_t n = 0;
    for (const RunExpectation& r : runs) n += r.report.total_violations();
    return n;
  }
};

/// Shell-style glob over run labels: `*` matches any run, `?` one
/// character. An empty pattern matches everything.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

/// Replay recorded JSONL against `rules`. `run_filter` is a glob over the
/// meta "run" labels (empty = check every section); filtered-out sections
/// are skipped entirely. Throws std::runtime_error with a line number on
/// malformed input (a line obs::parse_jsonl_line rejects, or a missing or
/// mistyped field) or when a span/event record precedes any meta line.
[[nodiscard]] OfflineResult check_stream(std::istream& in,
                                         const RuleSet& rules,
                                         std::string_view run_filter = {});

/// check_stream over a file; also throws when the file cannot be opened.
[[nodiscard]] OfflineResult check_file(const std::string& path,
                                       const RuleSet& rules,
                                       std::string_view run_filter = {});

}  // namespace smrp::obs::expect
