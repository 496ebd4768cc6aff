// Lint identity for the spec rule families (ES, RP, RF, FS, RG): one fixture
// per spec struct with every range-checked field broken, NaN included, must
// produce exactly the listed (rule, severity, site) findings, in order. The
// lists pin rule IDs, severities and sites, and that fields one rule checks
// jointly (ES9's spike parameters, RP9's detection window, FS6's watermark
// band, ...) still yield a single finding.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "edge/fleet.hpp"
#include "library/generator.hpp"

namespace adapex {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// "rule severity @ site" for every finding, in report order.
std::vector<std::string> findings(const analysis::LintReport& report) {
  std::vector<std::string> out;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    out.push_back(d.rule_id + " " + analysis::to_string(d.severity) + " @ " +
                  d.site);
  }
  return out;
}

std::vector<std::string> repeat(const std::vector<const char*>& rules,
                                const std::string& tail) {
  std::vector<std::string> out;
  for (const char* rule : rules) out.push_back(rule + tail);
  return out;
}

TEST(SpecLintIdentity, EdgeScenario) {
  EdgeScenario s;
  s.cameras = 0;
  s.ips_per_camera = -1.0;
  s.duration_s = kNaN;
  s.deviation = -0.5;
  s.deviation_period_s = 0.0;
  s.sample_period_s = kNaN;
  s.reselect_threshold = -0.1;
  s.queue_capacity = -2;
  s.spike_start_s = kNaN;
  s.spike_duration_s = -1.0;
  s.spike_multiplier = -1.0;
  s.watchdog_periods = 0;
  EXPECT_EQ(findings(lint_edge_scenario(s)),
            repeat({"ES1", "ES2", "ES3", "ES4", "ES5", "ES6", "ES7", "ES8",
                    "ES9", "ES10"},
                   " error @ edge-scenario"));
}

TEST(SpecLintIdentity, RuntimePolicy) {
  RuntimePolicy p;
  p.max_accuracy_loss = kNaN;
  p.ips_headroom = 0.0;
  p.backoff.initial_s = -1.0;
  p.backoff.multiplier = 0.5;
  p.backoff.max_s = kNaN;
  p.backoff.jitter = 1.0;
  p.backoff.degrade_after = 0;
  p.backoff.probe_cooldown_s = -1.0;
  p.drift.window = 0;
  p.drift.min_samples = 0;
  p.drift.accuracy_tolerance = 0.0;
  p.drift.exit_rate_tolerance = kNaN;
  EXPECT_EQ(findings(lint_runtime_policy(p)),
            repeat({"RP1", "RP2", "RP3", "RP4", "RP5", "RP6", "RP7", "RP8",
                    "RP9", "RP10", "RP11"},
                   " error @ runtime-policy"));
}

TEST(SpecLintIdentity, FaultSpec) {
  FaultSpec f;
  f.reconfig_fail_prob = 1.5;
  f.reconfig_slow_prob = -0.1;
  f.stall_prob = kNaN;
  f.monitor_drop_prob = 2.0;
  f.monitor_delay_prob = -1.0;
  f.reconfig_slow_factor = 0.5;
  f.stall_duration_s = kNaN;
  f.seu_weight_prob = kNaN;
  f.seu_config_prob = 1.1;
  f.seu_weight_accuracy_drop = -0.2;
  f.seu_config_accuracy_drop = 3.0;
  f.seu_exit_rate_shift = kNaN;
  f.seu_hang_frac = kNaN;
  f.seu_exit_corrupt_frac = 2.0;
  f.mitigation.scrubbing = true;
  f.mitigation.scrub_period_s = kNaN;
  f.mitigation.scrub_time_ms = -1.0;
  EXPECT_EQ(findings(lint_fault_spec(f)),
            repeat({"RF1", "RF1", "RF1", "RF1", "RF1", "RF2", "RF3", "RF4",
                    "RF4", "RF4", "RF4", "RF4", "RF4", "RF5", "RF5"},
                   " error @ faults"));
}

TEST(SpecLintIdentity, FleetScenario) {
  FleetScenario s = fleet_from_edge(EdgeScenario{});
  s.devices[0].speed_factor = kNaN;
  s.devices[0].domain = 1;  // only -1 and 0 name one of the one domain
  TenantSpec& t = s.tenants[0];
  t.workload.base_ips = kNaN;
  t.workload.period_s = 0.0;
  t.workload.deviation = -1.0;
  t.workload.spike_multiplier = kNaN;
  t.workload.pattern = WorkloadPattern::kTrace;  // with no trace entries
  t.workload.duration_s = 3.0;  // differs from the episode: a warning
  t.slo_latency_ms = kNaN;
  t.min_accuracy = 1.5;
  FailureDomain dom;
  dom.spike_prob = kNaN;
  dom.spike_duration_s = -1.0;
  dom.seu_mult = -1.0;
  s.fleet_faults.domains.push_back(dom);
  s.stagger.enabled = true;  // on a single device: a warning
  s.stagger.min_capacity_fraction = kNaN;
  s.stagger.max_defer_s = -1.0;
  s.admission.high_watermark = kNaN;
  s.batching.max_batch = 0;
  s.batching.max_wait_ms = kNaN;
  s.breaker.open_after_failures = -1;
  s.breaker.open_duration_s = kNaN;
  s.breaker.half_open_probes = 0;
  s.orchestrator_period_s = kNaN;
  s.balance_hysteresis = -1.0;
  s.eject_after_watchdog = -1;
  const std::vector<std::string> want = {
      "FS1 error @ device[0]",  "FS1 error @ device[0]",
      "FS2 error @ tenant[0]",  "FS2 error @ tenant[0]",
      "FS2 error @ tenant[0]",  "FS2 error @ tenant[0]",
      "FS2 error @ tenant[0]",  "FS2 warning @ tenant[0]",
      "FS3 error @ tenant[0]",  "FS3 error @ tenant[0]",
      "FS4 error @ domain[0]",  "FS4 error @ domain[0]",
      "FS4 error @ domain[0]",  "FS5 error @ stagger",
      "FS5 error @ stagger",    "FS5 warning @ stagger",
      "FS6 error @ admission",  "FS7 error @ batching",
      "FS7 error @ batching",   "FS8 error @ breaker",
      "FS8 error @ breaker",    "FS8 error @ breaker",
      "FS8 error @ fleet",      "FS8 error @ fleet",
      "FS8 error @ fleet"};
  EXPECT_EQ(findings(lint_fleet_scenario(s)), want);
  EXPECT_EQ(findings(lint_fleet_scenario(FleetScenario{})),
            repeat({"FS1", "FS2"}, " error @ fleet"));
}

TEST(SpecLintIdentity, GenSpec) {
  LibraryGenSpec spec;
  spec.max_point_retries = -1;
  spec.partial_policy = PartialPolicy::kEmitPartial;
  spec.verify_dataflow = true;
  spec.eval_path = "sideways";
  const std::vector<std::string> want = {
      "RG2 error @ max_point_retries", "RG3 warning @ partial_policy",
      "RQ2 error @ eval_path"};
  EXPECT_EQ(findings(lint_gen_spec(spec)), want);
  LibraryGenSpec many;
  many.max_point_retries = 9;
  EXPECT_EQ(findings(lint_gen_spec(many)),
            std::vector<std::string>{"RG2 warning @ max_point_retries"});
}

}  // namespace
}  // namespace adapex
