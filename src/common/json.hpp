// Minimal JSON value type, parser, and writer.
//
// Used for FINN-style folding configuration files, exits configuration, and
// library serialization. Supports the JSON subset those artifacts need:
// null, bool, number (double), string, array, object. Object key order is
// preserved on write (insertion order) so emitted configs diff cleanly.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace adapex {

class Json;

/// Ordered key/value storage for JSON objects (insertion order preserved).
class JsonObject {
 public:
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// The value of `key`, or null when the object has no such key.
  const Json* find(std::string_view key) const;
  std::size_t size() const { return items_.size(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::vector<std::pair<std::string, std::shared_ptr<Json>>> items_;
};

/// A JSON value.
class Json {
 public:
  using Array = std::vector<Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  // Typed accessors: a value of another type is a ParseError.
  bool as_bool() const;
  double as_number() const;
  /// The number as a T. A fraction, or a value outside T or outside the
  /// integers a double carries exactly (|n| <= 2^53 - 1), is a ParseError:
  /// never a narrowing cast.
  template <typename T = std::int64_t>
  T as_int() const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    return static_cast<T>(
        whole_number(static_cast<double>(std::numeric_limits<T>::min()),
                     static_cast<double>(std::numeric_limits<T>::max())));
  }
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object access; creates the object/key as needed when non-const.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Array append.
  void push_back(Json v);

  /// Serialize. indent < 0 emits compact single-line JSON.
  std::string dump(int indent = -1) const;

  /// Parse a JSON document; throws ParseError on malformed input.
  static Json parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  [[noreturn]] void type_error(const char* expected) const;
  double whole_number(double lo, double hi) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, JsonObject>
      value_;
};

/// Reads an entire file into a string; throws Error if unreadable.
std::string read_file(const std::string& path);

/// Writes a string to a file (overwrites); throws Error on failure.
void write_file(const std::string& path, const std::string& contents);

}  // namespace adapex
