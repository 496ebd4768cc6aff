// One field table per serialized struct. A row is a JSON key plus either a
// scalar member or a pair of captureless write/read functions (enums,
// nested objects, arrays of structs, computed and conditional keys).
// write_fields and read_fields walk a table in row order, so each key is
// spelled once and a reader cannot drift from its writer. Writes refuse NaN
// and Inf; integers are read with Json::as_int<T>, never a narrowing cast;
// errors name the key path ("tenants[1].workload.base_ips"). The metric
// tables (edge/metric_fields.hpp) extend a row with their pooling kind.

#pragma once

#include <cmath>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/json.hpp"

namespace adapex {

/// How a document treats a missing key, and the error a bad value raises.
enum class Presence {
  kRequired,   ///< Artifacts: every unconditional key, or ParseError.
  kDefaulted,  ///< Scenarios: missing keys keep defaults; ConfigError.
};

/// A document name and a chain of keys and array indices. Frames live on
/// the caller's stack; the text is built only for an error.
class KeyPath {
 public:
  KeyPath(const char* document, Presence presence = Presence::kRequired)
      : name_(document), presence_(presence) {}
  KeyPath key(const char* name) const { return {this, name, 0}; }
  KeyPath index(std::size_t i) const { return {this, nullptr, i}; }

  /// "FleetScenario: tenants[1].workload.base_ips"
  std::string str() const {
    if (parent_ == nullptr) return name_;
    const std::string up = parent_->str();
    if (name_ == nullptr) return up + "[" + std::to_string(index_) + "]";
    return up + (parent_->parent_ != nullptr ? "." : ": ") + name_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    if (presence_ == Presence::kRequired) throw ParseError(str() + ": " + what);
    throw ConfigError(str() + ": " + what);
  }

  /// Whether this key's value `v` is there; a missing key fails if required.
  bool present(const Json* v) const {
    if (v == nullptr && presence_ == Presence::kRequired) fail("missing key");
    return v != nullptr;
  }

  /// `read()` through Json's typed accessors, its error naming this path.
  template <typename Read>
  auto leaf(Read read) const {
    try {
      return read();
    } catch (const Error& e) {
      fail(e.what());
    }
  }

 private:
  KeyPath(const KeyPath* parent, const char* name, std::size_t index)
      : parent_(parent), name_(name), index_(index),
        presence_(parent->presence_) {}

  const KeyPath* parent_ = nullptr;
  const char* name_;  ///< Null for an array index.
  std::size_t index_ = 0;
  Presence presence_;
};

/// `value`, which must be finite: NaN/Inf never reach a JSON document.
inline double finite(double value, const KeyPath& at) {
  if (!std::isfinite(value)) {
    throw Error(at.str() + " = " + std::to_string(value) +
                " is not finite — refusing to serialize");
  }
  return value;
}

template <typename S>
struct Field {
  using Member =
      std::variant<std::monostate, bool S::*, int S::*, long S::*,
                   unsigned long S::*, double S::*, std::string S::*,
                   std::vector<double> S::*>;
  /// The key's value, or a null Json to leave the key out.
  using Write = Json (*)(const S&, const KeyPath&);
  /// Reads the key's value `v`, null when the key is absent.
  using Read = void (*)(const Json* v, S&, const KeyPath&);

  template <typename T>
  constexpr Field(const char* field_name, T S::*field_member)
      : name(field_name), member(field_member) {}
  /// A null `field_write` reads an alias that is never written; a null
  /// `field_read` writes a key that is never read back.
  constexpr Field(const char* field_name, Write field_write, Read field_read)
      : name(field_name), write(field_write), read(field_read) {}

  const char* name;
  Member member;
  Write write = nullptr;
  Read read = nullptr;
};

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// `v` as JSON: a vector element-wise, an enum by its to_string overload, a
/// struct through its `table`.
template <typename T, typename Table = std::nullptr_t>
Json write_json(const T& v, const KeyPath& at, const Table& table = nullptr) {
  Json out;
  if constexpr (kIsVector<T>) {
    out = Json::array();
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.push_back(write_json(v[i], at.index(i), table));
    }
  } else if constexpr (std::is_enum_v<T>) {
    out = to_string(v);
  } else if constexpr (!std::is_null_pointer_v<Table>) {
    out = Json::object();
    write_fields(out, v, table, at);
  } else if constexpr (std::is_same_v<T, double>) {
    out = finite(v, at);
  } else {
    out = Json(v);
  }
  return out;
}

/// Appends every written field of `s` to the JSON object `j`, in table
/// order. `table` is an array of Field<S> or of rows derived from it.
template <typename S, typename Table>
void write_fields(Json& j, const S& s, const Table& table, const KeyPath& at) {
  for (const Field<S>& f : table) {
    const KeyPath here = at.key(f.name);
    Json value = std::visit(
        [&](auto p) {
          if constexpr (std::is_same_v<decltype(p), std::monostate>) {
            return f.write != nullptr ? f.write(s, here) : Json();
          } else {
            return write_json(s.*p, here);
          }
        },
        f.member);
    if (!value.is_null()) j[f.name] = std::move(value);
  }
}

/// The inverse of write_json, where an enum's `table` is its from_string; a
/// vector is replaced, not appended to.
template <typename T, typename Table = std::nullptr_t>
void read_json(const Json& j, T& v, const KeyPath& at,
               const Table& table = nullptr) {
  if constexpr (kIsVector<T>) {
    const Json::Array& items = *at.leaf([&] { return &j.as_array(); });
    T values(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      read_json(items[i], values[i], at.index(i), table);
    }
    v = std::move(values);
  } else if constexpr (std::is_enum_v<T>) {
    v = at.leaf([&] { return table(j.as_string()); });
  } else if constexpr (!std::is_null_pointer_v<Table>) {
    read_fields(j, v, table, at);
  } else if constexpr (std::is_same_v<T, bool>) {
    v = at.leaf([&] { return j.as_bool(); });
  } else if constexpr (std::is_integral_v<T>) {
    v = at.leaf([&] { return j.as_int<T>(); });
  } else if constexpr (std::is_same_v<T, double>) {
    v = at.leaf([&] { return j.as_number(); });
  } else {
    v = at.leaf([&] { return j.as_string(); });
  }
}

/// Reads every field of `s` from the JSON object `j`, in table order.
template <typename S, typename Table>
void read_fields(const Json& j, S& s, const Table& table, const KeyPath& at) {
  const JsonObject& object = *at.leaf([&] { return &j.as_object(); });
  for (const Field<S>& f : table) {
    const KeyPath here = at.key(f.name);
    const Json* v = object.find(f.name);
    std::visit(
        [&](auto p) {
          if constexpr (std::is_same_v<decltype(p), std::monostate>) {
            if (f.read != nullptr) f.read(v, s, here);
          } else if (here.present(v)) {
            read_json(*v, s.*p, here);
          }
        },
        f.member);
  }
}

/// A whole document read through `table`.
template <typename S, std::size_t N>
S read_document(const Json& j, const Field<S> (&table)[N], const KeyPath& at) {
  S s;
  read_fields(j, s, table, at);
  return s;
}

// Row factories for what a member pointer cannot say. A predicate `kWhen`
// on the owner makes a key conditional: written only when kWhen holds, and
// required on read only when it holds for the keys read before it.

template <typename S, typename T>
S owner_of(T S::*);  // Unevaluated: names the struct a member belongs to.
template <auto kMember>
using OwnerOf = decltype(owner_of(kMember));

/// The table of a member that has none: a scalar or a vector of doubles.
inline constexpr std::nullptr_t kScalar = nullptr;

/// A member through its `kTable`: a struct's table (also for a vector of
/// them), an enum's from_string, or kScalar.
template <auto kMember, const auto& kTable, auto kWhen = nullptr>
constexpr Field<OwnerOf<kMember>> member_field(const char* name) {
  using S = OwnerOf<kMember>;
  constexpr bool kConditional = !std::is_null_pointer_v<decltype(kWhen)>;
  return Field<S>(
      name,
      [](const S& s, const KeyPath& at) {
        if constexpr (kConditional) {
          if (!kWhen(s)) return Json();
        }
        return write_json(s.*kMember, at, kTable);
      },
      [](const Json* v, S& s, const KeyPath& at) {
        if constexpr (kConditional) {
          if (v == nullptr && !kWhen(s)) return;
        }
        if (at.present(v)) read_json(*v, s.*kMember, at, kTable);
      });
}

template <auto kMember>
bool non_empty(const OwnerOf<kMember>& s) {
  return !(s.*kMember).empty();
}

/// A scalar member written only when `kWhen` holds (by default: when it is
/// non-empty).
template <auto kMember, auto kWhen = non_empty<kMember>>
constexpr Field<OwnerOf<kMember>> optional_field(const char* name) {
  return member_field<kMember, kScalar, kWhen>(name);
}

}  // namespace adapex
