#include "trace/chrome_trace.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

namespace smarth::trace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Formats simulated nanoseconds as the trace format's microseconds with
/// nanosecond precision preserved in the fraction.
std::string format_us(std::int64_t ns) {
  const std::int64_t whole = ns / 1000;
  const std::int64_t frac = ns % 1000;
  char buf[40];
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(whole));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(whole), static_cast<long long>(frac));
  }
  return buf;
}

/// Counter ('C') events carry pre-formatted numeric arg values (see
/// TraceRecorder::counter) that the trace format requires unquoted; every
/// other phase's args are plain strings.
void append_args(std::string& out, const Args& args, bool raw_values) {
  out += "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":";
    if (raw_values) {
      out += value;
    } else {
      out += '"';
      out += json_escape(value);
      out += '"';
    }
  }
  out += "}";
}

}  // namespace

std::string to_chrome_trace_json(TraceRecorder& recorder) {
  recorder.close_open_spans();
  std::string out;
  out.reserve(recorder.events().size() * 128 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& ev : recorder.events()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + json_escape(ev.name) + "\"";
    out += ",\"cat\":\"";
    out += category_name(ev.cat);
    out += "\",\"ph\":\"";
    out += ev.ph;
    out += "\"";
    if (ev.ph != 'M') {
      out += ",\"ts\":" + format_us(ev.ts);
    }
    if (ev.ph == 'X') {
      out += ",\"dur\":" + format_us(ev.dur < 0 ? 0 : ev.dur);
    }
    if (ev.ph == 'i') {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    out += ",\"pid\":" + std::to_string(ev.pid);
    out += ",\"tid\":" + std::to_string(ev.tid);
    out += ",\"args\":";
    append_args(out, ev.args, ev.ph == 'C');
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Validator: a strict, dependency-free recursive-descent JSON parser feeding
// the Chrome trace schema checks. Kept internal to this translation unit.
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing content at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(std::string& error, const std::string& what) {
    error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str, error);
    }
    if (c == 't' || c == 'f') return parse_literal(out, error);
    if (c == 'n') return parse_literal(out, error);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out, error);
    return fail(error, "unexpected character");
  }

  bool parse_literal(JsonValue& out, std::string& error) {
    auto matches = [&](const char* lit) {
      const std::size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) != 0) return false;
      pos_ += n;
      return true;
    };
    if (matches("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (matches("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (matches("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail(error, "invalid literal");
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (consume('.')) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail(error, "invalid number");
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (!consume('"')) return fail(error, "expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(error, "unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail(error, "dangling escape");
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
          if (pos_ + 4 > text_.size()) return fail(error, "short \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + static_cast<std::size_t>(i)]))) {
              return fail(error, "bad \\u escape");
            }
          }
          // Validated but stored verbatim; the schema checks never need the
          // decoded code point.
          out += "\\u" + text_.substr(pos_, 4);
          pos_ += 4;
          break;
        }
        default: return fail(error, "unknown escape");
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_array(JsonValue& out, std::string& error) {
    consume('[');
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(element, error)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, std::string& error) {
    consume('{');
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (!consume(':')) return fail(error, "expected ':'");
      JsonValue value;
      skip_ws();
      if (!parse_value(value, error)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail(error, "expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool check_event(const JsonValue& ev, std::size_t index, std::string& error) {
  auto bad = [&](const std::string& what) {
    error = "traceEvents[" + std::to_string(index) + "]: " + what;
    return false;
  };
  if (ev.kind != JsonValue::Kind::kObject) return bad("not an object");
  const JsonValue* name = ev.find("name");
  if (!name || name->kind != JsonValue::Kind::kString) {
    return bad("missing string \"name\"");
  }
  const JsonValue* ph = ev.find("ph");
  if (!ph || ph->kind != JsonValue::Kind::kString || ph->str.size() != 1) {
    return bad("missing one-character \"ph\"");
  }
  for (const char* key : {"pid", "tid"}) {
    const JsonValue* v = ev.find(key);
    if (!v || v->kind != JsonValue::Kind::kNumber) {
      return bad(std::string("missing numeric \"") + key + "\"");
    }
  }
  if (ph->str != "M") {
    const JsonValue* ts = ev.find("ts");
    if (!ts || ts->kind != JsonValue::Kind::kNumber) {
      return bad("missing numeric \"ts\"");
    }
    if (ts->number < 0) return bad("negative \"ts\"");
  }
  if (ph->str == "X") {
    const JsonValue* dur = ev.find("dur");
    if (!dur || dur->kind != JsonValue::Kind::kNumber) {
      return bad("'X' event missing numeric \"dur\"");
    }
    if (dur->number < 0) return bad("negative \"dur\"");
  }
  if (ph->str == "C") {
    // Counter samples are only renderable if every series value is numeric.
    const JsonValue* args = ev.find("args");
    if (!args || args->kind != JsonValue::Kind::kObject) {
      return bad("'C' event missing \"args\" object");
    }
    if (args->object.empty()) return bad("'C' event has no counter series");
    for (const auto& [key, value] : args->object) {
      if (value.kind != JsonValue::Kind::kNumber) {
        return bad("'C' event series \"" + key + "\" is not numeric");
      }
    }
  }
  return true;
}

}  // namespace

ValidationResult validate_chrome_trace(const std::string& json) {
  ValidationResult result;
  JsonValue root;
  Parser parser(json);
  if (!parser.parse(root, result.error)) return result;
  if (root.kind != JsonValue::Kind::kObject) {
    result.error = "top level is not an object";
    return result;
  }
  const JsonValue* events = root.find("traceEvents");
  if (!events || events->kind != JsonValue::Kind::kArray) {
    result.error = "missing \"traceEvents\" array";
    return result;
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    if (!check_event(events->array[i], i, result.error)) return result;
  }
  result.ok = true;
  result.event_count = events->array.size();
  return result;
}

}  // namespace smarth::trace
