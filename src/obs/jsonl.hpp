// JSONL trace export: one flat JSON object per line, streamed to any
// ostream. A snapshot section is
//
//   {"type":"meta","version":1,"run":"<label>","at":<ms>,...}
//   {"type":"span","id":1,"parent":0,"kind":"outage","node":6,...}   × N
//   {"type":"event","kind":"forward","node":6,"t":2100,"seq":41,...} × N
//   {"type":"sample","t":500,"name":"smrp.sim.queue_depth","value":3} × N
//   {"type":"counter","name":"smrp.sim.tx.DATA","value":1234}        × N
//   {"type":"gauge","name":"smrp.sim.queue_depth",...}               × N
//   {"type":"hist","name":"smrp.proto.outage_ms","count":9,...}      × N
//
// Every value is a string or a number (span attributes are flattened into
// the span line), so consumers need no recursive JSON parser. Doubles are
// printed with round-trip precision: two exports of the same seeded run
// diff bit-for-bit. parse_jsonl_line is the one reader of this format:
// tools/trace_report validates the schema (DESIGN.md §8) with it, which CI
// runs against a chaos soak, and the offline expectations replay
// (obs/expect/offline.hpp) reads traces with it.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"

namespace smrp::obs {

inline constexpr int kJsonlVersion = 1;

/// Streams snapshot sections to an ostream it does not own.
class JsonlSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

  /// Append one full snapshot (meta + all spans + all metrics). `now` is
  /// the sim time of the snapshot; `run_label` distinguishes sections when
  /// several runs share a file (e.g. one bench, many topologies).
  void write_snapshot(const Telemetry& telemetry, double now,
                      std::string_view run_label = "run");

 private:
  std::ostream* out_;
};

/// One key/value of an exported line.
struct JsonlField {
  std::string key;
  bool is_string = false;
  std::string str;   ///< the value, when is_string
  double num = 0.0;  ///< the value, otherwise
};

/// Parse one exported line: one JSON object whose keys are strings and
/// whose values are strings or JSON numbers, nothing nested. Returns the
/// fields in file order. Throws std::invalid_argument naming the column
/// on anything else: a duplicate key, a number outside JSON's grammar
/// (nan, inf, hex, a leading '+' or zero) or a double's range, a raw
/// control character or unknown escape in a string, a non-ASCII \u
/// escape, trailing characters.
[[nodiscard]] std::vector<JsonlField> parse_jsonl_line(std::string_view line);

/// The field named `key` in `fields`, or null.
[[nodiscard]] const JsonlField* find_field(
    const std::vector<JsonlField>& fields, std::string_view key);

/// One-shot convenience: write a single snapshot to `path` (truncating).
/// Throws std::runtime_error when the file cannot be written.
void write_jsonl_file(const Telemetry& telemetry, double now,
                      const std::string& path,
                      std::string_view run_label = "run");

}  // namespace smrp::obs
