#include "analysis/diagnostics.hpp"

#include <sstream>

#include "common/json.hpp"
#include "common/table.hpp"

namespace adapex {
namespace analysis {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::string s = rule_id + " " + to_string(severity) + " @ " + site + ": " +
                  message;
  if (!fix_hint.empty()) s += " (" + fix_hint + ")";
  return s;
}

void LintReport::add(std::string rule_id, Severity severity, std::string site,
                     std::string message, std::string fix_hint) {
  diagnostics.push_back(Diagnostic{std::move(rule_id), severity,
                                   std::move(site), std::move(message),
                                   std::move(fix_hint)});
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::vector<Diagnostic> LintReport::filtered(Severity min_severity) const {
  std::vector<Diagnostic> out;
  for (const auto& d : diagnostics) {
    if (static_cast<int>(d.severity) >= static_cast<int>(min_severity)) {
      out.push_back(d);
    }
  }
  return out;
}

void LintReport::merge(LintReport other) {
  for (auto& d : other.diagnostics) diagnostics.push_back(std::move(d));
}

std::string LintReport::summary() const {
  const std::size_t errors = count(Severity::kError);
  const std::size_t warnings = count(Severity::kWarning);
  const std::size_t infos = count(Severity::kInfo);
  auto plural = [](std::size_t n, const char* noun) {
    return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  return plural(errors, "error") + ", " + plural(warnings, "warning") + ", " +
         plural(infos, "info");
}

std::string LintReport::format_table(Severity min_severity) const {
  const auto shown = filtered(min_severity);
  if (shown.empty()) return "";
  TextTable table({"rule", "severity", "site", "message", "fix hint"});
  for (const auto& d : shown) {
    table.add_row({d.rule_id, to_string(d.severity), d.site, d.message,
                   d.fix_hint.empty() ? "-" : d.fix_hint});
  }
  return table.str();
}

Json Diagnostic::to_json() const {
  Json j = Json::object();
  j["rule"] = rule_id;
  j["severity"] = to_string(severity);
  j["site"] = site;
  j["message"] = message;
  if (!fix_hint.empty()) j["fix_hint"] = fix_hint;
  return j;
}

Json LintReport::to_json() const {
  Json j = Json::object();
  j["errors"] = count(Severity::kError);
  j["warnings"] = count(Severity::kWarning);
  j["infos"] = count(Severity::kInfo);
  Json list = Json::array();
  for (const auto& d : diagnostics) list.push_back(d.to_json());
  j["diagnostics"] = std::move(list);
  return j;
}

std::string LintReport::error_message() const {
  const auto errors = filtered(Severity::kError);
  if (errors.empty()) return "";
  std::string msg = "design verification failed with " +
                    std::to_string(errors.size()) + " violation" +
                    (errors.size() == 1 ? "" : "s") + ":";
  for (const auto& d : errors) msg += "\n  " + d.str();
  return msg;
}

void LintReport::throw_if_errors() const {
  if (has_errors()) throw ConfigError(error_message());
}

namespace {

/// Shortest natural rendering: 3, -1, 0.15, 1e+20, nan.
std::string format_value(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

bool SpecCheck::check(bool ok, const char* rule, const char* field,
                      double value, const std::string& range,
                      const char* hint) {
  if (!ok) {
    report_.add(rule, Severity::kError, site_,
                std::string(field) + " = " + format_value(value) +
                    " is not " + range,
                hint);
  }
  return ok;
}

bool SpecCheck::positive(const char* rule, const char* field, double value,
                         const char* hint) {
  return check(value > 0.0, rule, field, value, "> 0", hint);
}

bool SpecCheck::non_negative(const char* rule, const char* field,
                             double value, const char* hint) {
  return check(value >= 0.0, rule, field, value, ">= 0", hint);
}

bool SpecCheck::at_least(const char* rule, const char* field, double value,
                         double min, const char* hint) {
  return check(value >= min, rule, field, value, ">= " + format_value(min),
               hint);
}

bool SpecCheck::within(const char* rule, const char* field, double value,
                       double lo, double hi, const char* hint, Ends ends) {
  const bool above = ends == Ends::kOpenLow ? value > lo : value >= lo;
  const bool below = ends == Ends::kOpenHigh ? value < hi : value <= hi;
  const std::string range = std::string("in ") +
                            (ends == Ends::kOpenLow ? "(" : "[") +
                            format_value(lo) + ", " + format_value(hi) +
                            (ends == Ends::kOpenHigh ? ")" : "]");
  return check(above && below, rule, field, value, range, hint);
}

}  // namespace analysis
}  // namespace adapex
