#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace adapex {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return *v;
  }
  items_.emplace_back(key, std::make_shared<Json>());
  return *items_.back().second;
}

const Json& JsonObject::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw ParseError("JSON object has no key '" + key + "'");
  return *v;
}

bool JsonObject::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json* JsonObject::find(std::string_view key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return v.get();
  }
  return nullptr;
}

void Json::type_error(const char* expected) const {
  static constexpr const char* kNames[] = {"null",   "a bool",  "a number",
                                           "a string", "an array", "an object"};
  throw ParseError(std::string("expected ") + expected + ", got " +
                   kNames[value_.index()]);
}

double Json::whole_number(double lo, double hi) const {
  constexpr double kExact = 9007199254740991.0;  // 2^53 - 1
  lo = std::max(lo, -kExact);
  hi = std::min(hi, kExact);
  const double d = as_number();
  if (!(d >= lo && d <= hi && d == std::trunc(d))) {
    throw ParseError("expected an integer in [" + Json(lo).dump() + ", " +
                     Json(hi).dump() + "], got " + Json(d).dump());
  }
  return d;
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}

JsonObject& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<JsonObject>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  return as_object().at(key);
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().contains(key);
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(v));
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
}

/// Integral values below 1e15 as integers, everything else as "%.17g"
/// would print it: std::to_chars in general format at precision 17 is
/// defined to produce exactly printf's bytes, without the locale and
/// format-string work.
void append_number(std::string& out, double d) {
  char buf[40];
  const std::to_chars_result r =
      d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_number()) {
    append_number(out, std::get<double>(value_));
  } else if (is_string()) {
    append_escaped(out, std::get<std::string>(value_));
  } else if (is_array()) {
    const auto& arr = std::get<Array>(value_);
    out += '[';
    bool first = true;
    for (const auto& item : arr) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      item.dump_to(out, indent, depth + 1);
    }
    if (!arr.empty()) append_newline_indent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = std::get<JsonObject>(value_);
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      append_newline_indent(out, indent, depth + 1);
      append_escaped(out, k);
      out += indent < 0 ? ":" : ": ";
      v->dump_to(out, indent, depth + 1);
    }
    if (obj.size() > 0) append_newline_indent(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  /// Deepest array/object nesting a document may have. Parsing recurses
  /// once per level, so without a bound a hostile document of a few
  /// hundred KB of '[' overflows the stack; every artifact this project
  /// writes nests fewer than ten levels.
  static constexpr int kMaxDepth = 512;

  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (consume_literal("true")) return Json(true);
      fail("bad literal");
    }
    if (c == 'f') {
      if (consume_literal("false")) return Json(false);
      fail("bad literal");
    }
    if (c == 'n') {
      if (consume_literal("null")) return Json(nullptr);
      fail("bad literal");
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char e = next();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported — the
            // artifacts this parser handles are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  bool at_digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
  }

  /// Consumes one or more digits; fails with `what` when there are none.
  void digits(const char* what) {
    if (!at_digit()) fail(what);
    while (at_digit()) ++pos_;
  }

  // RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  // The token is validated before conversion, and the conversion must
  // consume all of it, so "1-2", "1.2.3", "01" and "1.5e" are errors
  // rather than silently truncated prefixes.
  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else {
      digits("expected a number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits("malformed number: expected a digit after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits("malformed number: expected an exponent digit");
    }
    if (at_digit() || (pos_ < text_.size() &&
                       (text_[pos_] == '.' || text_[pos_] == 'e' ||
                        text_[pos_] == 'E' || text_[pos_] == '+' ||
                        text_[pos_] == '-'))) {
      fail("malformed number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("malformed number");
    }
    if (used != token.size()) fail("malformed number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Arrays/objects open around pos_.
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ADAPEX_CHECK(in.good(), "cannot open file for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ADAPEX_CHECK(out.good(), "cannot open file for writing: " + path);
  out << contents;
  ADAPEX_CHECK(out.good(), "write failed: " + path);
}

}  // namespace adapex
