#include "edge/simulation.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "edge/metric_fields.hpp"

namespace adapex {

namespace {

/// ES1–ES10: the scenario fields themselves, without the fault-spec merge
/// (shared by both lint_edge_scenario overloads).
analysis::LintReport lint_scenario_fields(const EdgeScenario& s) {
  analysis::LintReport report;
  analysis::SpecCheck c(report, "edge-scenario");
  c.positive("ES1", "cameras", s.cameras,
             "the fleet needs at least one camera");
  c.non_negative("ES2", "ips_per_camera", s.ips_per_camera,
                 "use a non-negative request rate");
  c.positive("ES3", "duration_s", s.duration_s,
             "the episode needs a positive length");
  c.non_negative("ES4", "deviation", s.deviation,
                 "deviation is a +- amplitude");
  c.positive("ES5", "deviation_period_s", s.deviation_period_s,
             "rate re-evaluation needs a positive period");
  c.positive("ES6", "sample_period_s", s.sample_period_s,
             "the monitor needs a positive cadence");
  c.non_negative("ES7", "reselect_threshold", s.reselect_threshold,
                 "use a non-negative change fraction");
  c.positive("ES8", "queue_capacity", s.queue_capacity,
             "the request buffer needs capacity");
  const char* spike = "check spike_start_s/spike_duration_s/spike_multiplier";
  (void)(c.non_negative("ES9", "spike_start_s", s.spike_start_s, spike) &&
         c.non_negative("ES9", "spike_duration_s", s.spike_duration_s,
                        spike) &&
         c.non_negative("ES9", "spike_multiplier", s.spike_multiplier,
                        spike));
  c.at_least("ES10", "watchdog_periods", s.watchdog_periods, 1,
             "the watchdog needs at least one stagnant period");
  return report;
}

using EdgeField = MetricField<EdgeMetrics>;

constexpr EdgeField kEdgeFields[] = {
    {"offered", &EdgeMetrics::offered},
    {"served", &EdgeMetrics::served},
    {"dropped", &EdgeMetrics::dropped},
    {"inference_loss_pct", &EdgeMetrics::inference_loss_pct,
     Pooling::kDerived},
    {"accuracy", &EdgeMetrics::accuracy, Pooling::kServed},
    {"avg_latency_ms", &EdgeMetrics::avg_latency_ms, Pooling::kServed},
    {"avg_power_w", &EdgeMetrics::avg_power_w, Pooling::kDerived},
    {"energy_j", &EdgeMetrics::energy_j},
    {"energy_per_inf_j", &EdgeMetrics::energy_per_inf_j, Pooling::kDerived},
    {"edp", &EdgeMetrics::edp, Pooling::kDerived},
    {"qoe", &EdgeMetrics::qoe, Pooling::kDerived},
    {"reconfigurations", &EdgeMetrics::reconfigurations},
    {"reconfig_failures", &EdgeMetrics::reconfig_failures},
    {"reconfig_retries", &EdgeMetrics::reconfig_retries},
    {"slow_reconfigs", &EdgeMetrics::slow_reconfigs},
    {"stalls", &EdgeMetrics::stalls},
    {"monitor_dropped", &EdgeMetrics::monitor_dropped},
    {"monitor_delayed", &EdgeMetrics::monitor_delayed},
    {"watchdog_recoveries", &EdgeMetrics::watchdog_recoveries},
    {"recoveries", &EdgeMetrics::recoveries},
    {"recovery_latency_s", &EdgeMetrics::recovery_latency_s},
    {"degraded_time_s", &EdgeMetrics::degraded_time_s},
    {"dead_time_s", &EdgeMetrics::dead_time_s},
    {"availability_pct", &EdgeMetrics::availability_pct, Pooling::kDerived},
    {"slo_violations", &EdgeMetrics::slo_violations},
    {"seu_weight_upsets", &EdgeMetrics::seu_weight_upsets},
    {"seu_config_upsets", &EdgeMetrics::seu_config_upsets},
    {"seu_corrected", &EdgeMetrics::seu_corrected},
    {"seu_detected", &EdgeMetrics::seu_detected},
    {"seu_undetected", &EdgeMetrics::seu_undetected},
    {"silent_corruptions", &EdgeMetrics::silent_corruptions},
    {"seu_detection_latency_s", &EdgeMetrics::seu_detection_latency_s},
    {"drift_detections", &EdgeMetrics::drift_detections},
    {"seu_scrubs", &EdgeMetrics::seu_scrubs},
    {"seu_reloads", &EdgeMetrics::seu_reloads},
    {"scrub_overhead_s", &EdgeMetrics::scrub_overhead_s},
    {"post_recovery_accuracy", &EdgeMetrics::post_recovery_accuracy,
     Pooling::kPostRecovery},
    {"post_recovery_served", &EdgeMetrics::post_recovery_served},
    {"duration_s", &EdgeMetrics::duration_s},
};

/// The request count a weighted field's mean is taken over.
double pooling_weight(Pooling pooling, const EdgeMetrics& m) {
  return static_cast<double>(pooling == Pooling::kServed
                                 ? m.served
                                 : m.post_recovery_served);
}

}  // namespace

std::span<const EdgeField> edge_metric_fields() { return kEdgeFields; }

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

void derive_ratios(EdgeMetrics& m) {
  m.inference_loss_pct =
      m.offered > 0 ? 100.0 * static_cast<double>(m.dropped) / m.offered
                    : 0.0;
  m.avg_power_w = m.duration_s > 0.0 ? m.energy_j / m.duration_s : 0.0;
  m.energy_per_inf_j = m.served > 0 ? m.energy_j / m.served : 0.0;
  m.edp = m.energy_per_inf_j * (m.avg_latency_ms / 1e3);
  const double served_fraction =
      m.offered > 0 ? static_cast<double>(m.served) / m.offered : 0.0;
  m.qoe = m.accuracy * served_fraction;
  m.availability_pct =
      m.duration_s > 0.0
          ? 100.0 * std::max(0.0, 1.0 - m.dead_time_s / m.duration_s)
          : 100.0;
}

Json EdgeMetrics::to_json() const {
  return write_json(*this, "EdgeMetrics", kEdgeFields);
}

std::string EdgeMetrics::csv_header() {
  return fields_csv_header(kEdgeFields);
}

std::string EdgeMetrics::csv_row() const {
  return fields_csv_row(*this, kEdgeFields, "EdgeMetrics");
}

EdgeMetrics simulate_edge_runs(const Library& library,
                               const RuntimePolicy& policy,
                               const EdgeScenario& scenario, int runs) {
  ADAPEX_CHECK(runs > 0, "need at least one run");
  EdgeMetrics total;
  // Weighted fields accumulate mean x weight per episode and are divided by
  // the pooled weight once every episode is in.
  std::array<double, std::size(kEdgeFields)> weighted{};
  for (int r = 0; r < runs; ++r) {
    EdgeScenario sc = scenario;
    sc.seed = scenario.seed + static_cast<std::uint64_t>(r);
    EdgeMetrics m = simulate_edge(library, policy, sc);
    if (r == 0) total.trace = std::move(m.trace);
    for (std::size_t i = 0; i < weighted.size(); ++i) {
      const EdgeField& f = kEdgeFields[i];
      if (f.pooling == Pooling::kSum) {
        f.add(total, m);
      } else if (f.pooling != Pooling::kDerived) {
        weighted[i] += f.get(m) * pooling_weight(f.pooling, m);
      }
    }
  }
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    const EdgeField& f = kEdgeFields[i];
    if (f.pooling == Pooling::kServed || f.pooling == Pooling::kPostRecovery) {
      const double weight = pooling_weight(f.pooling, total);
      f.set(total, weight > 0.0 ? weighted[i] / weight : 0.0);
    }
  }
  derive_ratios(total);
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
