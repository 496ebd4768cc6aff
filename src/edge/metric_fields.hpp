// One field table per metrics struct (EdgeMetrics, FleetMetrics,
// TenantMetrics). A MetricField is a common/fields.hpp row over a numeric
// member: `to_json` goes through the shared write_fields, and the CSV
// writers below walk the same table in the same order under the same
// finite-only rule. EdgeMetrics rows also carry the pooling kind
// simulate_edge_runs applies across episodes, so a new metric is one table
// row and cannot be left out of a writer or of the pooling.

#pragma once

#include <cstddef>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <variant>

#include "common/fields.hpp"
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
struct MetricField : Field<S> {
  template <typename T>
  constexpr MetricField(const char* field_name, T S::*field_member,
                        Pooling field_pooling = Pooling::kSum)
      : Field<S>(field_name, field_member),
        number(field_member),
        pooling(field_pooling) {}

  std::variant<int S::*, long S::*, double S::*> number;  ///< The member.
  Pooling pooling;  ///< Read for EdgeMetrics only.

  double get(const S& s) const {
    return std::visit([&](auto p) { return static_cast<double>(s.*p); },
                      number);
  }
  /// `to.member += from.member`, in the member's own type.
  void add(S& to, const S& from) const {
    std::visit([&](auto p) { to.*p += from.*p; }, number);
  }
  /// Only weighted rows, which are doubles, are ever assigned.
  void set(S& s, double value) const {
    s.*std::get<double S::*>(number) = value;
  }
};

/// The EdgeMetrics table (edge/simulation.cpp), in JSON/CSV order.
std::span<const MetricField<EdgeMetrics>> edge_metric_fields();

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
    const double value = finite(f.get(s), KeyPath(type).key(f.name));
    if (!first) os << ",";
    os << value;
    first = false;
  }
  return os.str();
}

}  // namespace adapex
