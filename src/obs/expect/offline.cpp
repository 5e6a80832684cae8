#include "obs/expect/offline.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace smrp::obs::expect {

namespace {

/// One key/value of a flat JSONL record, in file order (order matters:
/// span/event attributes replay in attachment order).
struct Field {
  std::string key;
  bool is_string = false;
  std::string str;
  double num = 0.0;
};

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + what);
}

/// Minimal parser for the exporter's flat schema: one object per line,
/// string or numeric values only. Lenient about field sets (forward
/// compatible), strict about shape.
std::vector<Field> parse_flat(const std::string& text, std::size_t line) {
  std::vector<Field> fields;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\r')) {
      ++i;
    }
  };
  const auto expect_char = [&](char c) {
    skip_ws();
    if (i >= text.size() || text[i] != c) {
      fail(line, std::string("expected '") + c + "'");
    }
    ++i;
  };
  const auto parse_string = [&] {
    expect_char('"');
    std::string out;
    while (i < text.size() && text[i] != '"') {
      char c = text[i++];
      if (c == '\\') {
        if (i >= text.size()) fail(line, "dangling escape");
        const char esc = text[i++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (i + 4 > text.size()) fail(line, "short \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail(line, "bad \\u escape");
              }
            }
            if (code > 0x7f) fail(line, "non-ASCII \\u escape");
            out += static_cast<char>(code);
            break;
          }
          default:
            fail(line, std::string("unknown escape \\") + esc);
        }
      } else {
        out += c;
      }
    }
    if (i >= text.size()) fail(line, "unterminated string");
    ++i;  // closing quote
    return out;
  };

  expect_char('{');
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    while (true) {
      Field field;
      field.key = parse_string();
      expect_char(':');
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        field.is_string = true;
        field.str = parse_string();
      } else {
        const std::size_t start = i;
        while (i < text.size() && text[i] != ',' && text[i] != '}') ++i;
        const std::string token = text.substr(start, i - start);
        char* end = nullptr;
        field.num = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') {
          fail(line, "bad numeric value for " + field.key);
        }
      }
      fields.push_back(std::move(field));
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      expect_char('}');
      break;
    }
  }
  skip_ws();
  if (i != text.size()) fail(line, "trailing characters");
  return fields;
}

const Field* find(const std::vector<Field>& fields, std::string_view key) {
  for (const Field& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

double require_num(const std::vector<Field>& fields, std::string_view key,
                   std::size_t line) {
  const Field* f = find(fields, key);
  if (f == nullptr || f->is_string) {
    fail(line, "missing numeric field " + std::string(key));
  }
  return f->num;
}

/// A numeric field as an integer of type T. Non-finite, fractional and
/// out-of-range values fail with the line number instead of reaching a
/// float-to-integer cast, which is undefined for them.
template <class T>
T require_integer(const std::vector<Field>& fields, std::string_view key,
                  std::size_t line) {
  const double value = require_num(fields, key, line);
  // 2^digits: the first value past T's range, exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double low = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(value >= low && value < limit) || value != std::trunc(value)) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", value);
    fail(line, std::string(key) + " " + shown + " is not an integer in range");
  }
  return static_cast<T>(value);
}

const std::string& require_str(const std::vector<Field>& fields,
                               std::string_view key, std::size_t line) {
  const Field* f = find(fields, key);
  if (f == nullptr || !f->is_string) {
    fail(line, "missing string field " + std::string(key));
  }
  return f->str;
}

bool is_core_span_key(std::string_view key) {
  return key == "type" || key == "id" || key == "parent" || key == "kind" ||
         key == "node" || key == "start" || key == "end" || key == "status";
}

bool is_core_event_key(std::string_view key) {
  return key == "type" || key == "kind" || key == "node" || key == "t";
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return true;
  // Iterative *-backtracking: linear in |pattern| * |text|.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

OfflineResult check_stream(std::istream& in, const RuleSet& rules,
                           std::string_view run_filter) {
  OfflineResult result;
  std::unique_ptr<ExpectationChecker> checker;  // null while filtered out
  std::string run_label;
  bool saw_meta = false;
  const auto flush_section = [&] {
    if (checker) {
      result.runs.push_back(RunExpectation{run_label, checker->report()});
      checker.reset();
    }
  };

  // An event line's attributes, reused across lines: the view handed to
  // the checker points into them.
  std::vector<std::string_view> keys;
  std::vector<double> values;

  std::string text;
  std::size_t line = 0;
  while (std::getline(in, text)) {
    ++line;
    if (text.empty()) continue;
    const std::vector<Field> fields = parse_flat(text, line);
    const std::string type = require_str(fields, "type", line);
    if (type == "meta") {
      flush_section();
      saw_meta = true;
      run_label = require_str(fields, "run", line);
      if (glob_match(run_filter, run_label)) {
        checker = std::make_unique<ExpectationChecker>(rules);
      }
      continue;
    }
    if (!saw_meta && (type == "span" || type == "event")) {
      fail(line, "record before any meta line");
    }
    if (!checker) continue;  // section filtered out
    if (type == "span") {
      Span span;
      span.id = require_integer<SpanId>(fields, "id", line);
      span.parent = require_integer<SpanId>(fields, "parent", line);
      span.kind = require_str(fields, "kind", line);
      span.node = require_integer<std::int64_t>(fields, "node", line);
      span.start = require_num(fields, "start", line);
      span.end = require_num(fields, "end", line);
      span.status = span_status_from_name(require_str(fields, "status", line));
      if (span.status == SpanStatus::kOpen) {
        fail(line, "span with unknown status");  // exporter never writes open
      }
      for (const Field& f : fields) {
        if (f.is_string || is_core_span_key(f.key)) continue;
        span.attrs.emplace_back(f.key, f.num);
      }
      checker->on_span_closed(span);
    } else if (type == "event") {
      keys.clear();
      values.clear();
      for (const Field& f : fields) {
        if (f.is_string || is_core_event_key(f.key)) continue;
        keys.push_back(f.key);
        values.push_back(f.num);
      }
      Event event;
      event.kind = require_str(fields, "kind", line);
      // The event log stores nodes as 32 bits; so does its export.
      event.node = require_integer<std::int32_t>(fields, "node", line);
      event.t = require_num(fields, "t", line);
      event.keys = keys;
      event.values = values;
      checker->on_event(event);
    }
    // counter/gauge/hist and future record types carry no expectations.
  }
  flush_section();
  return result;
}

OfflineResult check_file(const std::string& path, const RuleSet& rules,
                         std::string_view run_filter) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace: " + path);
  return check_stream(in, rules, run_filter);
}

}  // namespace smrp::obs::expect
