#include "obs/jsonl.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace smrp::obs {

namespace {

/// Round-trip double formatting (%.17g) so a re-export of the same run
/// diffs bit-for-bit. Integral values print without an exponent or
/// trailing zeros because %g trims them.
void append_number(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_number(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out += buffer;
}

void append_string(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Line {
 public:
  explicit Line(std::string_view type) {
    text_ = "{\"type\":";
    append_string(text_, type);
  }
  Line& field(std::string_view key, double value) {
    text_ += ',';
    append_string(text_, key);
    text_ += ':';
    append_number(text_, value);
    return *this;
  }
  Line& field(std::string_view key, std::uint64_t value) {
    text_ += ',';
    append_string(text_, key);
    text_ += ':';
    append_number(text_, value);
    return *this;
  }
  Line& field(std::string_view key, std::string_view value) {
    text_ += ',';
    append_string(text_, key);
    text_ += ':';
    append_string(text_, value);
    return *this;
  }
  void emit(std::ostream& out) {
    text_ += "}\n";
    out << text_;
  }

 private:
  std::string text_;
};

/// Cursor over one line for parse_jsonl_line.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  std::vector<JsonlField> parse() {
    std::vector<JsonlField> fields;
    skip_space();
    expect('{');
    skip_space();
    if (!consume('}')) {
      for (;;) {
        JsonlField field;
        field.key = parse_string();
        for (const JsonlField& f : fields) {
          if (f.key == field.key) fail("duplicate key \"" + field.key + "\"");
        }
        skip_space();
        expect(':');
        skip_space();
        if (peek() == '"') {
          field.is_string = true;
          field.str = parse_string();
        } else {
          field.num = parse_number(field.key);
        }
        fields.push_back(std::move(field));
        skip_space();
        if (consume('}')) break;
        expect(',');
        skip_space();
      }
    }
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return fields;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(what + " at column " +
                                std::to_string(pos_ + 1));
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  [[nodiscard]] bool at_digit() const { return peek() >= '0' && peek() <= '9'; }
  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  void skip_space() {
    while (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
           peek() == '\n') {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = peek();
            int digit = -1;
            if (h >= '0' && h <= '9') digit = h - '0';
            if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
            if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
            if (digit < 0) fail("bad \\u escape");
            code = code * 16 + static_cast<unsigned>(digit);
            ++pos_;
          }
          if (code > 0x7f) fail("non-ASCII \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail(std::string("bad escape '\\") + esc + "'");
      }
    }
  }

  /// A JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  double parse_number(const std::string& key) {
    const std::size_t start = pos_;
    const auto digits = [&] {
      if (!at_digit()) fail("bad number for \"" + key + "\"");
      while (at_digit()) ++pos_;
    };
    consume('-');
    if (!consume('0')) digits();
    if (consume('.')) digits();
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      digits();
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc() || end != last) {
      fail("number out of range for \"" + key + "\"");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<JsonlField> parse_jsonl_line(std::string_view line) {
  return LineReader(line).parse();
}

const JsonlField* find_field(const std::vector<JsonlField>& fields,
                             std::string_view key) {
  for (const JsonlField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

void JsonlSink::write_snapshot(const Telemetry& telemetry, double now,
                               std::string_view run_label) {
  const SpanCollector& spans = telemetry.spans;
  const MetricsRegistry& metrics = telemetry.metrics;

  Line meta("meta");
  meta.field("version", static_cast<std::uint64_t>(kJsonlVersion))
      .field("run", run_label)
      .field("at", now)
      .field("spans", static_cast<std::uint64_t>(spans.spans().size()))
      .field("open_spans", static_cast<std::uint64_t>(spans.open_count()))
      .field("events",
             static_cast<std::uint64_t>(telemetry.events.size()))
      .field("samples",
             static_cast<std::uint64_t>(telemetry.samples().size()));
  meta.emit(*out_);

  for (const Span& span : spans.spans()) {
    // A span still open at export time was cut off by the end of the run:
    // record that explicitly (same status Telemetry::finish would assign)
    // instead of pretending the episode is healthy and in flight.
    Line line("span");
    line.field("id", span.id)
        .field("parent", span.parent)
        .field("kind", span.kind)
        .field("node", static_cast<double>(span.node))
        .field("start", span.start)
        .field("end", span.open() ? now : span.end)
        .field("status", span.open()
                             ? span_status_name(SpanStatus::kTruncated)
                             : span_status_name(span.status));
    for (const auto& [key, value] : span.attrs) line.field(key, value);
    line.emit(*out_);
  }

  telemetry.events.for_each([&](const Event& event) {
    Line line("event");
    line.field("kind", event.kind)
        .field("node", static_cast<double>(event.node))
        .field("t", event.t);
    for (std::size_t i = 0; i < event.keys.size(); ++i) {
      line.field(event.keys[i], event.values[i]);
    }
    line.emit(*out_);
  });

  for (const Sample& sample : telemetry.samples()) {
    Line line("sample");
    line.field("t", sample.t)
        .field("name", sample.name)
        .field("value", sample.value);
    line.emit(*out_);
  }

  for (const auto& [name, counter] : metrics.counters()) {
    Line line("counter");
    line.field("name", name).field("value", counter.value());
    line.emit(*out_);
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    Line line("gauge");
    line.field("name", name)
        .field("value", gauge.value())
        .field("max", gauge.max());
    line.emit(*out_);
  }
  for (const auto& [name, histogram] : metrics.histograms()) {
    const HistogramSummary s = histogram.summary();
    Line line("hist");
    line.field("name", name)
        .field("count", s.count)
        .field("sum", s.sum)
        .field("mean", s.mean)
        .field("stddev", s.stddev)
        .field("min", s.min)
        .field("max", s.max)
        .field("p50", s.p50)
        .field("p90", s.p90)
        .field("p99", s.p99);
    line.emit(*out_);
  }
  out_->flush();
}

void write_jsonl_file(const Telemetry& telemetry, double now,
                      const std::string& path, std::string_view run_label) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot open telemetry output: " + path);
  }
  JsonlSink sink(file);
  sink.write_snapshot(telemetry, now, run_label);
  if (!file) {
    throw std::runtime_error("failed writing telemetry output: " + path);
  }
}

}  // namespace smrp::obs
