// One field table per metrics struct (EdgeMetrics, FleetMetrics,
// TenantMetrics). Each row names one scalar's JSON/CSV key and its member;
// the writers below derive `to_json`, `csv_header` and `csv_row` from the
// table, in table order, and refuse non-finite values. EdgeMetrics rows also
// carry the pooling kind simulate_edge_runs applies across episodes, so a
// new metric is one table row and cannot be left out of a writer or of the
// pooling.

#pragma once

#include <cmath>
#include <cstddef>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <variant>

#include "common/json.hpp"
#include "edge/simulation.hpp"

namespace adapex {

/// How simulate_edge_runs pools one EdgeMetrics field over episodes.
enum class Pooling {
  kSum,           ///< Counters, energy, times, duration: summed.
  kServed,        ///< Mean over served requests: weighted by `served`.
  kPostRecovery,  ///< Mean over requests served after the last SEU
                  ///< recovery: weighted by `post_recovery_served`.
  kDerived,       ///< Ratio of pooled sums: recomputed by derive_ratios.
};

template <typename S>
struct MetricField {
  using Member = std::variant<int S::*, long S::*, double S::*>;

  constexpr MetricField(const char* field_name, Member field_member,
                        Pooling field_pooling = Pooling::kSum)
      : name(field_name), member(field_member), pooling(field_pooling) {}

  const char* name;
  Member member;
  Pooling pooling;  ///< Read for EdgeMetrics only.

  double get(const S& s) const {
    return std::visit([&](auto p) { return static_cast<double>(s.*p); },
                      member);
  }
  /// `to.member += from.member`, in the member's own type.
  void add(S& to, const S& from) const {
    std::visit([&](auto p) { to.*p += from.*p; }, member);
  }
  /// Only weighted rows, which are doubles, are ever assigned.
  void set(S& s, double value) const {
    s.*std::get<double S::*>(member) = value;
  }
  /// The value, which must be finite: NaN/Inf never reach an artifact.
  double finite(const S& s, const char* type) const {
    const double value = get(s);
    ADAPEX_CHECK(std::isfinite(value),
                 std::string(type) + "::" + name +
                     " is not finite — refusing to serialize");
    return value;
  }
};

/// The EdgeMetrics table (edge/simulation.cpp), in JSON/CSV order.
std::span<const MetricField<EdgeMetrics>> edge_metric_fields();

/// Appends every field of `s` to the JSON object `j`.
template <typename S, std::size_t N>
void write_fields(Json& j, const S& s, const MetricField<S> (&fields)[N],
                  const char* type) {
  for (const MetricField<S>& f : fields) j[f.name] = f.finite(s, type);
}

template <typename S, std::size_t N>
std::string fields_csv_header(const MetricField<S> (&fields)[N]) {
  std::string out;
  for (const MetricField<S>& f : fields) {
    if (!out.empty()) out += ",";
    out += f.name;
  }
  return out;
}

template <typename S, std::size_t N>
std::string fields_csv_row(const S& s, const MetricField<S> (&fields)[N],
                           const char* type) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  for (const MetricField<S>& f : fields) {
    const double value = f.finite(s, type);
    if (!first) os << ",";
    os << value;
    first = false;
  }
  return os.str();
}

}  // namespace adapex
