#include "edge/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace adapex {

namespace {

/// ES1–ES10: the scenario fields themselves, without the fault-spec merge
/// (shared by both lint_edge_scenario overloads).
analysis::LintReport lint_scenario_fields(const EdgeScenario& scenario) {
  analysis::LintReport report;
  auto bad = [&](const char* rule, const std::string& message,
                 const std::string& hint) {
    report.add(rule, analysis::Severity::kError, "edge-scenario", message,
               hint);
  };
  if (scenario.cameras <= 0) {
    bad("ES1", "cameras = " + std::to_string(scenario.cameras) +
                   " is not positive",
        "the fleet needs at least one camera");
  }
  if (!(scenario.ips_per_camera >= 0.0)) {
    bad("ES2", "ips_per_camera = " + std::to_string(scenario.ips_per_camera) +
                   " is negative",
        "use a non-negative request rate");
  }
  if (!(scenario.duration_s > 0.0)) {
    bad("ES3", "duration_s = " + std::to_string(scenario.duration_s) +
                   " is not positive",
        "the episode needs a positive length");
  }
  if (!(scenario.deviation >= 0.0)) {
    bad("ES4", "deviation = " + std::to_string(scenario.deviation) +
                   " is negative",
        "deviation is a +- amplitude");
  }
  if (!(scenario.deviation_period_s > 0.0)) {
    bad("ES5", "deviation_period_s = " +
                   std::to_string(scenario.deviation_period_s) +
                   " is not positive",
        "rate re-evaluation needs a positive period");
  }
  if (!(scenario.sample_period_s > 0.0)) {
    bad("ES6", "sample_period_s = " +
                   std::to_string(scenario.sample_period_s) +
                   " is not positive",
        "the monitor needs a positive cadence");
  }
  if (!(scenario.reselect_threshold >= 0.0)) {
    bad("ES7", "reselect_threshold = " +
                   std::to_string(scenario.reselect_threshold) +
                   " is negative",
        "use a non-negative change fraction");
  }
  if (scenario.queue_capacity <= 0) {
    bad("ES8", "queue_capacity = " + std::to_string(scenario.queue_capacity) +
                   " is not positive",
        "the request buffer needs capacity");
  }
  if (!(scenario.spike_start_s >= 0.0 && scenario.spike_duration_s >= 0.0 &&
        scenario.spike_multiplier >= 0.0)) {
    bad("ES9", "flash-crowd spike parameters must be non-negative",
        "check spike_start_s/spike_duration_s/spike_multiplier");
  }
  if (scenario.watchdog_periods < 1) {
    bad("ES10", "watchdog_periods = " +
                    std::to_string(scenario.watchdog_periods) +
                    " is below 1",
        "the watchdog needs at least one stagnant period");
  }
  return report;
}

/// Visits every scalar metric in one fixed order — the single source of
/// truth for both the JSON and CSV writers, so the two artifacts cannot
/// drift apart.
template <typename Fn>
void visit_metric_scalars(const EdgeMetrics& m, Fn&& fn) {
  fn("offered", static_cast<double>(m.offered));
  fn("served", static_cast<double>(m.served));
  fn("dropped", static_cast<double>(m.dropped));
  fn("inference_loss_pct", m.inference_loss_pct);
  fn("accuracy", m.accuracy);
  fn("avg_latency_ms", m.avg_latency_ms);
  fn("avg_power_w", m.avg_power_w);
  fn("energy_j", m.energy_j);
  fn("energy_per_inf_j", m.energy_per_inf_j);
  fn("edp", m.edp);
  fn("qoe", m.qoe);
  fn("reconfigurations", static_cast<double>(m.reconfigurations));
  fn("reconfig_failures", static_cast<double>(m.reconfig_failures));
  fn("reconfig_retries", static_cast<double>(m.reconfig_retries));
  fn("slow_reconfigs", static_cast<double>(m.slow_reconfigs));
  fn("stalls", static_cast<double>(m.stalls));
  fn("monitor_dropped", static_cast<double>(m.monitor_dropped));
  fn("monitor_delayed", static_cast<double>(m.monitor_delayed));
  fn("watchdog_recoveries", static_cast<double>(m.watchdog_recoveries));
  fn("recoveries", static_cast<double>(m.recoveries));
  fn("recovery_latency_s", m.recovery_latency_s);
  fn("degraded_time_s", m.degraded_time_s);
  fn("dead_time_s", m.dead_time_s);
  fn("availability_pct", m.availability_pct);
  fn("slo_violations", static_cast<double>(m.slo_violations));
  fn("seu_weight_upsets", static_cast<double>(m.seu_weight_upsets));
  fn("seu_config_upsets", static_cast<double>(m.seu_config_upsets));
  fn("seu_corrected", static_cast<double>(m.seu_corrected));
  fn("seu_detected", static_cast<double>(m.seu_detected));
  fn("seu_undetected", static_cast<double>(m.seu_undetected));
  fn("silent_corruptions", static_cast<double>(m.silent_corruptions));
  fn("seu_detection_latency_s", m.seu_detection_latency_s);
  fn("drift_detections", static_cast<double>(m.drift_detections));
  fn("seu_scrubs", static_cast<double>(m.seu_scrubs));
  fn("seu_reloads", static_cast<double>(m.seu_reloads));
  fn("scrub_overhead_s", m.scrub_overhead_s);
  fn("post_recovery_accuracy", m.post_recovery_accuracy);
  fn("duration_s", m.duration_s);
}

void check_metric_finite(const char* name, double value) {
  ADAPEX_CHECK(std::isfinite(value),
               std::string("EdgeMetrics::") + name +
                   " is not finite — refusing to serialize");
}

}  // namespace

analysis::LintReport lint_edge_scenario(const EdgeScenario& scenario) {
  analysis::LintReport report = lint_scenario_fields(scenario);
  report.merge(lint_fault_spec(scenario.faults));
  return report;
}

analysis::LintReport lint_edge_scenario(const EdgeScenario& scenario,
                                        const Library& library) {
  analysis::LintReport report = lint_scenario_fields(scenario);
  report.merge(lint_fault_spec(scenario.faults, library));
  return report;
}

void require_valid_edge_scenario(const EdgeScenario& scenario) {
  const analysis::LintReport report = lint_edge_scenario(scenario);
  if (report.has_errors()) throw ConfigError(report.error_message());
}

Json EdgeMetrics::to_json() const {
  Json j = Json::object();
  visit_metric_scalars(*this, [&](const char* name, double value) {
    check_metric_finite(name, value);
    j[name] = value;
  });
  return j;
}

std::string EdgeMetrics::csv_header() {
  std::string out;
  visit_metric_scalars(EdgeMetrics{}, [&](const char* name, double) {
    if (!out.empty()) out += ",";
    out += name;
  });
  return out;
}

std::string EdgeMetrics::csv_row() const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  visit_metric_scalars(*this, [&](const char* name, double value) {
    check_metric_finite(name, value);
    if (!first) os << ",";
    os << value;
    first = false;
  });
  return os.str();
}

EdgeMetrics simulate_edge_runs(const Library& library,
                               const RuntimePolicy& policy,
                               const EdgeScenario& scenario, int runs) {
  ADAPEX_CHECK(runs > 0, "need at least one run");
  EdgeMetrics total;
  // Pooled accumulators: per-request ratios are reweighted by what each
  // episode actually served, time ratios by what it actually simulated —
  // an unweighted mean over-counts short or quiet episodes.
  double latency_weighted_ms = 0.0;
  double accuracy_weighted = 0.0;
  double post_recovery_weighted = 0.0;
  for (int r = 0; r < runs; ++r) {
    EdgeScenario sc = scenario;
    sc.seed = scenario.seed + static_cast<std::uint64_t>(r);
    EdgeMetrics m = simulate_edge(library, policy, sc);
    if (r == 0) total.trace = m.trace;
    total.offered += m.offered;
    total.served += m.served;
    total.dropped += m.dropped;
    accuracy_weighted += m.accuracy * static_cast<double>(m.served);
    latency_weighted_ms += m.avg_latency_ms * static_cast<double>(m.served);
    post_recovery_weighted +=
        m.post_recovery_accuracy * static_cast<double>(m.served);
    total.energy_j += m.energy_j;
    total.reconfigurations += m.reconfigurations;
    total.reconfig_failures += m.reconfig_failures;
    total.reconfig_retries += m.reconfig_retries;
    total.slow_reconfigs += m.slow_reconfigs;
    total.stalls += m.stalls;
    total.monitor_dropped += m.monitor_dropped;
    total.monitor_delayed += m.monitor_delayed;
    total.watchdog_recoveries += m.watchdog_recoveries;
    total.recoveries += m.recoveries;
    total.recovery_latency_s += m.recovery_latency_s;
    total.degraded_time_s += m.degraded_time_s;
    total.dead_time_s += m.dead_time_s;
    total.slo_violations += m.slo_violations;
    total.seu_weight_upsets += m.seu_weight_upsets;
    total.seu_config_upsets += m.seu_config_upsets;
    total.seu_corrected += m.seu_corrected;
    total.seu_detected += m.seu_detected;
    total.seu_undetected += m.seu_undetected;
    total.silent_corruptions += m.silent_corruptions;
    total.seu_detection_latency_s += m.seu_detection_latency_s;
    total.drift_detections += m.drift_detections;
    total.seu_scrubs += m.seu_scrubs;
    total.seu_reloads += m.seu_reloads;
    total.scrub_overhead_s += m.scrub_overhead_s;
    total.duration_s += m.duration_s;
  }
  total.inference_loss_pct =
      total.offered > 0
          ? 100.0 * static_cast<double>(total.dropped) / total.offered
          : 0.0;
  total.accuracy = total.served > 0 ? accuracy_weighted / total.served : 0.0;
  total.avg_latency_ms =
      total.served > 0 ? latency_weighted_ms / total.served : 0.0;
  total.post_recovery_accuracy =
      total.served > 0 ? post_recovery_weighted / total.served : 0.0;
  total.avg_power_w =
      total.duration_s > 0.0 ? total.energy_j / total.duration_s : 0.0;
  total.energy_per_inf_j =
      total.served > 0 ? total.energy_j / total.served : 0.0;
  total.edp = total.energy_per_inf_j * (total.avg_latency_ms / 1e3);
  const double served_fraction =
      total.offered > 0
          ? static_cast<double>(total.served) / total.offered
          : 0.0;
  total.qoe = total.accuracy * served_fraction;
  total.availability_pct =
      total.duration_s > 0.0
          ? 100.0 * std::max(0.0, 1.0 - total.dead_time_s / total.duration_s)
          : 100.0;
  return total;
}

EdgeScenario scale_to_library(EdgeScenario scenario, const Library& library,
                              double ratio) {
  // Throughput of the static FINN point (no-exit, unpruned).
  double finn_ips = -1.0;
  for (const auto& e : library.entries) {
    if (e.variant == ModelVariant::kNoExit && e.prune_rate_pct == 0) {
      finn_ips = e.ips;
      break;
    }
  }
  ADAPEX_CHECK(finn_ips > 0, "library lacks the unpruned no-exit entry");
  scenario.ips_per_camera = finn_ips * ratio / scenario.cameras;
  return scenario;
}

}  // namespace adapex
