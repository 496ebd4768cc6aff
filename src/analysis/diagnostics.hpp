// Structured diagnostics for the static design verifier.
//
// Every lint rule reports findings as Diagnostic values instead of aborting
// on the first violation (the ADAPEX_CHECK behaviour the verifier replaces):
// a rule identifier, a severity, the model/accelerator site the finding
// anchors to, a human-readable message, and a fix hint. A LintReport
// aggregates the findings of one verification run and offers severity
// filtering plus rendering helpers for CLI and error-path consumption.
// SpecCheck is the shared range-check vocabulary of the spec lints (edge
// scenario, runtime policy, fault spec, fleet scenario, generation spec).

#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace adapex {

class Json;

namespace analysis {

/// How bad a finding is.
enum class Severity {
  kInfo,     ///< Observation; no action required.
  kWarning,  ///< Legal design, but a hazard or inefficiency.
  kError,    ///< Illegal design point; synthesis/compilation must reject it.
};

const char* to_string(Severity severity);

/// One finding of one rule at one site.
struct Diagnostic {
  /// Stable rule identifier ("R1".."R7"; see lint.hpp for the catalog).
  std::string rule_id;
  Severity severity = Severity::kError;
  /// Where the finding anchors: a walk-order layer name
  /// ("backbone.b0.conv1"), a module name ("branch.exit0"), a link
  /// ("a -> b"), or a scope ("device", "folding", "model").
  std::string site;
  std::string message;
  /// Actionable suggestion ("use PE in {1,2,4,8}", "deepen the FIFO", ...).
  std::string fix_hint;

  /// One-line rendering: "R1 error @ backbone.b0.conv0: ... (hint)".
  std::string str() const;

  /// {"rule", "severity", "site", "message", "fix_hint"} object.
  Json to_json() const;
};

/// All findings of one lint run.
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  void add(std::string rule_id, Severity severity, std::string site,
           std::string message, std::string fix_hint = "");

  bool has_errors() const { return count(Severity::kError) > 0; }
  bool empty() const { return diagnostics.empty(); }
  std::size_t count(Severity severity) const;

  /// Findings at or above `min_severity`, preserving report order.
  std::vector<Diagnostic> filtered(Severity min_severity) const;

  /// Appends another report's findings (rule helpers compose reports).
  void merge(LintReport other);

  /// "3 errors, 1 warning, 0 infos".
  std::string summary() const;

  /// Column-aligned table of all findings (empty string when clean).
  std::string format_table(Severity min_severity = Severity::kInfo) const;

  /// Machine-readable report: severity counts plus a diagnostics array,
  /// for CI gating through `adapex_lint --json`.
  Json to_json() const;

  /// Aggregated single-failure message listing every error-severity finding,
  /// for embedding in a thrown ConfigError. Empty when there are no errors.
  std::string error_message() const;

  /// The precondition form of every lint: throws ConfigError carrying
  /// error_message() when any error-severity finding exists.
  void throw_if_errors() const;
};

/// Which ends of a SpecCheck::within range belong to the range.
enum class Ends { kClosed, kOpenLow, kOpenHigh };

/// Range checks over the fields of one spec struct, reporting into a
/// LintReport at one site. A failed check adds one error finding
/// "field = value is not <range>". Every check rejects NaN, like the
/// `!(x >= 0)` idiom, and returns whether the value passed, so `a && b`
/// reports only the first bad field of a group one rule checks jointly.
class SpecCheck {
 public:
  SpecCheck(LintReport& report, std::string site)
      : report_(report), site_(std::move(site)) {}

  bool positive(const char* rule, const char* field, double value,
                const char* hint);
  bool non_negative(const char* rule, const char* field, double value,
                    const char* hint);
  bool at_least(const char* rule, const char* field, double value, double min,
                const char* hint);
  bool within(const char* rule, const char* field, double value, double lo,
              double hi, const char* hint, Ends ends = Ends::kClosed);

 private:
  bool check(bool ok, const char* rule, const char* field, double value,
             const std::string& range, const char* hint);

  LintReport& report_;
  std::string site_;
};

}  // namespace analysis
}  // namespace adapex
