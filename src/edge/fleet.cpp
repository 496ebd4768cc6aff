#include "edge/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <sstream>

#include "common/rng.hpp"

namespace adapex {

namespace {

// Stream identifiers for derive_seed. Device streams are disjoint from the
// tenant stream (workload.cpp) and the per-category fault streams
// (faults.cpp), so fleet membership never repunctuates a device's private
// fault timeline.
constexpr std::uint64_t kFleetDeviceStream = 0xF1EE;
constexpr std::uint64_t kFleetDomainStream = 0xD0A1;

WorkloadPattern pattern_from_string(const std::string& s) {
  if (s == "random_deviation") return WorkloadPattern::kRandomDeviation;
  if (s == "diurnal") return WorkloadPattern::kDiurnal;
  if (s == "flash_crowd") return WorkloadPattern::kFlashCrowd;
  if (s == "trace") return WorkloadPattern::kTrace;
  throw ConfigError("unknown workload pattern: " + s);
}

double num_or(const Json& j, const char* key, double fallback) {
  return j.contains(key) ? j.at(key).as_number() : fallback;
}

int int_or(const Json& j, const char* key, int fallback) {
  return j.contains(key) ? static_cast<int>(j.at(key).as_number()) : fallback;
}

bool bool_or(const Json& j, const char* key, bool fallback) {
  return j.contains(key) ? j.at(key).as_bool() : fallback;
}

std::string str_or(const Json& j, const char* key, const std::string& fb) {
  return j.contains(key) ? j.at(key).as_string() : fb;
}

FaultSpec fault_spec_from_json(const Json& j, const FaultSpec& base) {
  FaultSpec f = base;
  f.reconfig_fail_prob = num_or(j, "reconfig_fail_prob", f.reconfig_fail_prob);
  f.reconfig_slow_prob = num_or(j, "reconfig_slow_prob", f.reconfig_slow_prob);
  f.reconfig_slow_factor =
      num_or(j, "reconfig_slow_factor", f.reconfig_slow_factor);
  f.stall_prob = num_or(j, "stall_prob", f.stall_prob);
  f.stall_duration_s = num_or(j, "stall_duration_s", f.stall_duration_s);
  f.monitor_drop_prob = num_or(j, "monitor_drop_prob", f.monitor_drop_prob);
  f.monitor_delay_prob = num_or(j, "monitor_delay_prob", f.monitor_delay_prob);
  f.seu_weight_prob = num_or(j, "seu_weight_prob", f.seu_weight_prob);
  f.seu_config_prob = num_or(j, "seu_config_prob", f.seu_config_prob);
  f.seu_weight_accuracy_drop =
      num_or(j, "seu_weight_accuracy_drop", f.seu_weight_accuracy_drop);
  f.seu_config_accuracy_drop =
      num_or(j, "seu_config_accuracy_drop", f.seu_config_accuracy_drop);
  f.seu_exit_rate_shift =
      num_or(j, "seu_exit_rate_shift", f.seu_exit_rate_shift);
  f.seu_hang_frac = num_or(j, "seu_hang_frac", f.seu_hang_frac);
  f.seu_exit_corrupt_frac =
      num_or(j, "seu_exit_corrupt_frac", f.seu_exit_corrupt_frac);
  if (j.contains("mitigation")) {
    const Json& m = j.at("mitigation");
    f.mitigation.ecc_weights =
        bool_or(m, "ecc_weights", f.mitigation.ecc_weights);
    f.mitigation.scrubbing = bool_or(m, "scrubbing", f.mitigation.scrubbing);
    f.mitigation.scrub_period_s =
        num_or(m, "scrub_period_s", f.mitigation.scrub_period_s);
    f.mitigation.scrub_time_ms =
        num_or(m, "scrub_time_ms", f.mitigation.scrub_time_ms);
    f.mitigation.tmr_exit_heads =
        bool_or(m, "tmr_exit_heads", f.mitigation.tmr_exit_heads);
  }
  return f;
}

Json fault_spec_to_json(const FaultSpec& f) {
  Json j = Json::object();
  j["reconfig_fail_prob"] = f.reconfig_fail_prob;
  j["reconfig_slow_prob"] = f.reconfig_slow_prob;
  j["reconfig_slow_factor"] = f.reconfig_slow_factor;
  j["stall_prob"] = f.stall_prob;
  j["stall_duration_s"] = f.stall_duration_s;
  j["monitor_drop_prob"] = f.monitor_drop_prob;
  j["monitor_delay_prob"] = f.monitor_delay_prob;
  j["seu_weight_prob"] = f.seu_weight_prob;
  j["seu_config_prob"] = f.seu_config_prob;
  j["seu_weight_accuracy_drop"] = f.seu_weight_accuracy_drop;
  j["seu_config_accuracy_drop"] = f.seu_config_accuracy_drop;
  j["seu_exit_rate_shift"] = f.seu_exit_rate_shift;
  j["seu_hang_frac"] = f.seu_hang_frac;
  j["seu_exit_corrupt_frac"] = f.seu_exit_corrupt_frac;
  Json m = Json::object();
  m["ecc_weights"] = f.mitigation.ecc_weights;
  m["scrubbing"] = f.mitigation.scrubbing;
  m["scrub_period_s"] = f.mitigation.scrub_period_s;
  m["scrub_time_ms"] = f.mitigation.scrub_time_ms;
  m["tmr_exit_heads"] = f.mitigation.tmr_exit_heads;
  j["mitigation"] = std::move(m);
  return j;
}

WorkloadSpec workload_from_json(const Json& j) {
  WorkloadSpec w;
  w.pattern = pattern_from_string(str_or(j, "pattern", "random_deviation"));
  w.base_ips = num_or(j, "base_ips", w.base_ips);
  w.duration_s = num_or(j, "duration_s", w.duration_s);
  w.period_s = num_or(j, "period_s", w.period_s);
  w.deviation = num_or(j, "deviation", w.deviation);
  w.spike_start_s = num_or(j, "spike_start_s", w.spike_start_s);
  w.spike_duration_s = num_or(j, "spike_duration_s", w.spike_duration_s);
  w.spike_multiplier = num_or(j, "spike_multiplier", w.spike_multiplier);
  if (j.contains("trace")) {
    for (const Json& v : j.at("trace").as_array()) {
      w.trace.push_back(v.as_number());
    }
  }
  return w;
}

Json workload_to_json(const WorkloadSpec& w) {
  Json j = Json::object();
  j["pattern"] = to_string(w.pattern);
  j["base_ips"] = w.base_ips;
  j["duration_s"] = w.duration_s;
  j["period_s"] = w.period_s;
  j["deviation"] = w.deviation;
  j["spike_start_s"] = w.spike_start_s;
  j["spike_duration_s"] = w.spike_duration_s;
  j["spike_multiplier"] = w.spike_multiplier;
  if (!w.trace.empty()) {
    Json t = Json::array();
    for (double v : w.trace) t.push_back(v);
    j["trace"] = std::move(t);
  }
  return j;
}

/// Fleet-scalar visitor — single source of truth for JSON and CSV, like
/// EdgeMetrics' visit_metric_scalars.
template <typename Fn>
void visit_fleet_scalars(const FleetMetrics& m, Fn&& fn) {
  fn("offered", static_cast<double>(m.offered));
  fn("served", static_cast<double>(m.served));
  fn("dropped", static_cast<double>(m.dropped));
  fn("shed", static_cast<double>(m.shed));
  fn("p50_latency_ms", m.p50_latency_ms);
  fn("p99_latency_ms", m.p99_latency_ms);
  fn("p999_latency_ms", m.p999_latency_ms);
  fn("availability_pct", m.availability_pct);
  fn("degraded_capacity_s", m.degraded_capacity_s);
  fn("failovers", static_cast<double>(m.failovers));
  fn("stagger_deferrals", static_cast<double>(m.stagger_deferrals));
  fn("forced_reconfigs", static_cast<double>(m.forced_reconfigs));
  fn("capacity_violations", static_cast<double>(m.capacity_violations));
  fn("min_capacity_fraction", m.min_capacity_fraction);
  fn("domain_spikes", static_cast<double>(m.domain_spikes));
  fn("max_outage_depth", static_cast<double>(m.max_outage_depth));
  fn("breaker_opens", static_cast<double>(m.breaker_opens));
  fn("ejections", static_cast<double>(m.ejections));
  fn("events", static_cast<double>(m.events));
  fn("duration_s", m.duration_s);
}

void check_finite(const char* name, double value) {
  ADAPEX_CHECK(std::isfinite(value),
               std::string("FleetMetrics::") + name +
                   " is not finite — refusing to serialize");
}

}  // namespace

std::uint64_t fleet_device_seed(std::uint64_t fleet_seed, std::size_t index,
                                std::size_t device_count) {
  ADAPEX_CHECK(index < device_count, "device index out of range");
  // A lone device consumes the fleet seed directly: its manager and fault
  // streams are then byte-identical to simulate_edge's for the same
  // EdgeScenario seed (the size-1 identity guarantee).
  if (device_count == 1) return fleet_seed;
  return derive_seed(fleet_seed, kFleetDeviceStream, index);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

CircuitBreaker::CircuitBreaker(const CircuitBreakerPolicy& policy)
    : policy_(policy) {}

void CircuitBreaker::observe(bool failing, double now_s) {
  if (policy_.open_after_failures <= 0) return;  // breakers disabled
  if (failing) {
    ++consecutive_failing_;
    const bool should_open =
        state_ == State::kHalfOpen ||
        (state_ == State::kClosed &&
         consecutive_failing_ >= policy_.open_after_failures);
    if (should_open) {
      state_ = State::kOpen;
      opened_at_s_ = now_s;
      ++opens_;
    }
    return;
  }
  consecutive_failing_ = 0;
  // A clean observation heals a HalfOpen probe window. Open waits out its
  // hold time (the device may look clean only because it receives no
  // traffic while open).
  if (state_ == State::kHalfOpen) state_ = State::kClosed;
}

bool CircuitBreaker::would_admit(double now_s) const {
  switch (state_) {
    case State::kClosed: return true;
    case State::kHalfOpen: return probes_left_ > 0;
    case State::kOpen:
      return now_s - opened_at_s_ >= policy_.open_duration_s;
  }
  return true;
}

bool CircuitBreaker::admit(double now_s) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_s - opened_at_s_ < policy_.open_duration_s) return false;
      state_ = State::kHalfOpen;
      probes_left_ = policy_.half_open_probes - 1;  // this request probes
      return true;
    case State::kHalfOpen:
      if (probes_left_ <= 0) return false;
      --probes_left_;
      return true;
  }
  return true;
}

const char* to_string(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half_open";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Lint (FS1-FS8)
// ---------------------------------------------------------------------------

namespace {

/// FS1-FS8 only; the overloads below merge in the base-scenario lint.
analysis::LintReport lint_fleet_rules(const FleetScenario& s) {
  analysis::LintReport report;
  auto bad = [&](const char* rule, const std::string& site,
                 const std::string& message, const std::string& hint) {
    report.add(rule, analysis::Severity::kError, site, message, hint);
  };
  auto warn = [&](const char* rule, const std::string& site,
                  const std::string& message, const std::string& hint) {
    report.add(rule, analysis::Severity::kWarning, site, message, hint);
  };

  // FS1: device list.
  if (s.devices.empty()) {
    bad("FS1", "fleet", "the fleet has no devices",
        "add at least one FleetDeviceSpec");
  }
  for (std::size_t i = 0; i < s.devices.size(); ++i) {
    const FleetDeviceSpec& d = s.devices[i];
    const std::string site = "device[" + std::to_string(i) + "]";
    if (!(d.speed_factor > 0.0)) {
      bad("FS1", site,
          "speed_factor = " + std::to_string(d.speed_factor) +
              " is not positive",
          "fabric clocks scale by a positive factor");
    }
    if (d.domain < -1 ||
        d.domain >= static_cast<int>(s.fleet_faults.domains.size())) {
      bad("FS1", site,
          "domain = " + std::to_string(d.domain) +
              " names no failure domain",
          "use -1 or an index below the domain count");
    }
  }

  // FS2: tenants and their workloads.
  if (s.tenants.empty()) {
    bad("FS2", "fleet", "the fleet has no tenants",
        "add at least one TenantSpec");
  }
  for (std::size_t k = 0; k < s.tenants.size(); ++k) {
    const TenantSpec& t = s.tenants[k];
    const std::string site = "tenant[" + std::to_string(k) + "]";
    if (!(t.workload.base_ips >= 0.0)) {
      bad("FS2", site,
          "workload.base_ips = " + std::to_string(t.workload.base_ips) +
              " is negative",
          "use a non-negative request rate");
    }
    if (!(t.workload.period_s > 0.0)) {
      bad("FS2", site,
          "workload.period_s = " + std::to_string(t.workload.period_s) +
              " is not positive",
          "rate re-evaluation needs a positive period");
    }
    if (!(t.workload.deviation >= 0.0)) {
      bad("FS2", site, "workload.deviation is negative",
          "deviation is a +- amplitude");
    }
    if (!(t.workload.spike_start_s >= 0.0 &&
          t.workload.spike_duration_s >= 0.0 &&
          t.workload.spike_multiplier >= 0.0)) {
      bad("FS2", site, "workload spike parameters must be non-negative",
          "check spike_start_s/spike_duration_s/spike_multiplier");
    }
    if (t.workload.pattern == WorkloadPattern::kTrace &&
        t.workload.trace.empty()) {
      bad("FS2", site, "trace pattern with no rate multipliers",
          "provide workload.trace entries");
    }
    if (t.workload.duration_s > 0.0 &&
        t.workload.duration_s != s.base.duration_s) {
      warn("FS2", site,
           "workload.duration_s differs from the episode duration",
           "simulate_fleet forces tenant workloads to base.duration_s");
    }
    // FS3: SLOs.
    if (!(t.slo_latency_ms >= 0.0)) {
      bad("FS3", site,
          "slo_latency_ms = " + std::to_string(t.slo_latency_ms) +
              " is negative",
          "use 0 to disable the latency SLO");
    }
    if (!(t.min_accuracy >= 0.0 && t.min_accuracy <= 1.0)) {
      bad("FS3", site,
          "min_accuracy = " + std::to_string(t.min_accuracy) +
              " is not in [0, 1]",
          "accuracy SLOs are probabilities (0 disables)");
    }
  }

  // FS4: correlated failure domains.
  for (std::size_t g = 0; g < s.fleet_faults.domains.size(); ++g) {
    const FailureDomain& dom = s.fleet_faults.domains[g];
    const std::string site = "domain[" + std::to_string(g) + "]";
    if (!(dom.spike_prob >= 0.0 && dom.spike_prob <= 1.0)) {
      bad("FS4", site,
          "spike_prob = " + std::to_string(dom.spike_prob) +
              " is not a probability",
          "use a value in [0, 1]");
    }
    if (!(dom.spike_duration_s >= 0.0)) {
      bad("FS4", site, "spike_duration_s is negative",
          "spikes need a non-negative duration");
    }
    if (!(dom.transient_mult >= 0.0 && dom.seu_mult >= 0.0)) {
      bad("FS4", site, "rate multipliers must be non-negative",
          "check transient_mult/seu_mult");
    }
  }

  // FS5: stagger policy.
  if (!(s.stagger.min_capacity_fraction >= 0.0 &&
        s.stagger.min_capacity_fraction <= 1.0)) {
    bad("FS5", "stagger",
        "min_capacity_fraction = " +
            std::to_string(s.stagger.min_capacity_fraction) +
            " is not in [0, 1]",
        "the capacity floor is a fraction of offered load");
  }
  if (!(s.stagger.max_defer_s >= 0.0)) {
    bad("FS5", "stagger", "max_defer_s is negative",
        "the starvation override needs a non-negative window");
  }
  if (s.stagger.enabled && s.devices.size() == 1) {
    warn("FS5", "stagger",
         "staggering a single-device fleet only delays its own "
         "reconfigurations",
         "disable staggering or add devices");
  }

  // FS6: admission watermarks.
  if (!(s.admission.low_watermark >= 0.0 &&
        s.admission.low_watermark <= s.admission.high_watermark &&
        s.admission.high_watermark <= 1.0)) {
    bad("FS6", "admission",
        "watermarks must satisfy 0 <= low <= high <= 1 (low = " +
            std::to_string(s.admission.low_watermark) + ", high = " +
            std::to_string(s.admission.high_watermark) + ")",
        "shedding needs a well-ordered hysteresis band");
  }

  // FS7: batching.
  if (s.batching.max_batch < 1) {
    bad("FS7", "batching",
        "max_batch = " + std::to_string(s.batching.max_batch) +
            " is below 1",
        "a batch holds at least one request");
  }
  if (!(s.batching.max_wait_ms >= 0.0 && s.batching.setup_ms >= 0.0)) {
    bad("FS7", "batching",
        "max_wait_ms and setup_ms must be non-negative",
        "check the batching policy");
  }

  // FS8: breaker and orchestrator.
  if (s.breaker.open_after_failures < 0) {
    bad("FS8", "breaker", "open_after_failures is negative",
        "use 0 to disable circuit breakers");
  }
  if (!(s.breaker.wedge_threshold_s >= 0.0 &&
        s.breaker.open_duration_s >= 0.0)) {
    bad("FS8", "breaker",
        "wedge_threshold_s and open_duration_s must be non-negative",
        "check the breaker policy");
  }
  if (s.breaker.half_open_probes < 1) {
    bad("FS8", "breaker",
        "half_open_probes = " + std::to_string(s.breaker.half_open_probes) +
            " is below 1",
        "HalfOpen needs at least one probe");
  }
  if (!(s.orchestrator_period_s > 0.0)) {
    bad("FS8", "fleet",
        "orchestrator_period_s = " +
            std::to_string(s.orchestrator_period_s) + " is not positive",
        "the orchestrator needs a positive cadence");
  }
  if (!(s.balance_hysteresis >= 0.0)) {
    bad("FS8", "fleet", "balance_hysteresis is negative",
        "the sticky band is a non-negative fraction");
  }
  if (s.eject_after_watchdog < 0) {
    bad("FS8", "fleet", "eject_after_watchdog is negative",
        "use 0 to disable ejection");
  }
  return report;
}

}  // namespace

analysis::LintReport lint_fleet_scenario(const FleetScenario& s) {
  analysis::LintReport report = lint_edge_scenario(s.base);
  report.merge(lint_fleet_rules(s));
  return report;
}

analysis::LintReport lint_fleet_scenario(const FleetScenario& s,
                                         const Library& library) {
  analysis::LintReport report = lint_edge_scenario(s.base, library);
  report.merge(lint_fleet_rules(s));
  return report;
}

void require_valid_fleet_scenario(const FleetScenario& s) {
  const analysis::LintReport report = lint_fleet_scenario(s);
  if (report.has_errors()) throw ConfigError(report.error_message());
}

void require_valid_fleet_scenario(const FleetScenario& s,
                                  const Library& library) {
  const analysis::LintReport report = lint_fleet_scenario(s, library);
  if (report.has_errors()) throw ConfigError(report.error_message());
}

// ---------------------------------------------------------------------------
// Scenario JSON
// ---------------------------------------------------------------------------

FleetScenario FleetScenario::from_json(const Json& j) {
  FleetScenario s;
  if (j.contains("base")) {
    const Json& b = j.at("base");
    s.base.duration_s = num_or(b, "duration_s", s.base.duration_s);
    s.base.sample_period_s = num_or(b, "sample_period_s",
                                    s.base.sample_period_s);
    s.base.reselect_threshold =
        num_or(b, "reselect_threshold", s.base.reselect_threshold);
    s.base.queue_capacity = int_or(b, "queue_capacity", s.base.queue_capacity);
    s.base.watchdog_periods =
        int_or(b, "watchdog_periods", s.base.watchdog_periods);
    if (b.contains("seed")) {
      s.base.seed = static_cast<std::uint64_t>(b.at("seed").as_number());
    }
    if (b.contains("faults")) {
      s.base.faults = fault_spec_from_json(b.at("faults"), s.base.faults);
    }
  }
  if (j.contains("devices")) {
    for (const Json& d : j.at("devices").as_array()) {
      FleetDeviceSpec spec;
      spec.name = str_or(d, "name", "");
      spec.speed_factor = num_or(d, "speed_factor", 1.0);
      spec.domain = int_or(d, "domain", -1);
      s.devices.push_back(std::move(spec));
    }
  }
  if (j.contains("tenants")) {
    for (const Json& t : j.at("tenants").as_array()) {
      TenantSpec spec;
      spec.name = str_or(t, "name", "");
      if (t.contains("workload")) {
        spec.workload = workload_from_json(t.at("workload"));
      }
      spec.slo_latency_ms = num_or(t, "slo_latency_ms", 0.0);
      spec.min_accuracy = num_or(t, "min_accuracy", 0.0);
      spec.priority = int_or(t, "priority", 0);
      s.tenants.push_back(std::move(spec));
    }
  }
  // Domains live at the top level in to_json, but accept the nested
  // struct-shaped spelling {"fleet_faults": {"domains": [...]}} too.
  const Json* domain_list = nullptr;
  if (j.contains("domains")) {
    domain_list = &j.at("domains");
  } else if (j.contains("fleet_faults") &&
             j.at("fleet_faults").contains("domains")) {
    domain_list = &j.at("fleet_faults").at("domains");
  }
  if (domain_list != nullptr) {
    for (const Json& d : domain_list->as_array()) {
      FailureDomain dom;
      dom.name = str_or(d, "name", "");
      dom.spike_prob = num_or(d, "spike_prob", 0.0);
      dom.spike_duration_s = num_or(d, "spike_duration_s", 5.0);
      dom.transient_mult = num_or(d, "transient_mult", 1.0);
      dom.seu_mult = num_or(d, "seu_mult", 1.0);
      s.fleet_faults.domains.push_back(std::move(dom));
    }
  }
  if (j.contains("batching")) {
    const Json& b = j.at("batching");
    s.batching.enabled = bool_or(b, "enabled", false);
    s.batching.max_batch = int_or(b, "max_batch", s.batching.max_batch);
    s.batching.max_wait_ms = num_or(b, "max_wait_ms", s.batching.max_wait_ms);
    s.batching.setup_ms = num_or(b, "setup_ms", s.batching.setup_ms);
  }
  if (j.contains("admission")) {
    const Json& a = j.at("admission");
    s.admission.enabled = bool_or(a, "enabled", false);
    s.admission.high_watermark =
        num_or(a, "high_watermark", s.admission.high_watermark);
    s.admission.low_watermark =
        num_or(a, "low_watermark", s.admission.low_watermark);
  }
  if (j.contains("breaker")) {
    const Json& b = j.at("breaker");
    s.breaker.open_after_failures =
        int_or(b, "open_after_failures", s.breaker.open_after_failures);
    s.breaker.wedge_threshold_s =
        num_or(b, "wedge_threshold_s", s.breaker.wedge_threshold_s);
    s.breaker.open_duration_s =
        num_or(b, "open_duration_s", s.breaker.open_duration_s);
    s.breaker.half_open_probes =
        int_or(b, "half_open_probes", s.breaker.half_open_probes);
  }
  if (j.contains("stagger")) {
    const Json& g = j.at("stagger");
    s.stagger.enabled = bool_or(g, "enabled", false);
    s.stagger.min_capacity_fraction =
        num_or(g, "min_capacity_fraction", s.stagger.min_capacity_fraction);
    s.stagger.max_defer_s = num_or(g, "max_defer_s", s.stagger.max_defer_s);
  }
  s.orchestrator_period_s =
      num_or(j, "orchestrator_period_s", s.orchestrator_period_s);
  s.balance_hysteresis = num_or(j, "balance_hysteresis", s.balance_hysteresis);
  s.eject_after_watchdog =
      int_or(j, "eject_after_watchdog", s.eject_after_watchdog);
  return s;
}

Json FleetScenario::to_json() const {
  Json j = Json::object();
  Json b = Json::object();
  b["duration_s"] = base.duration_s;
  b["sample_period_s"] = base.sample_period_s;
  b["reselect_threshold"] = base.reselect_threshold;
  b["queue_capacity"] = base.queue_capacity;
  b["watchdog_periods"] = base.watchdog_periods;
  b["seed"] = static_cast<double>(base.seed);
  b["faults"] = fault_spec_to_json(base.faults);
  j["base"] = std::move(b);
  Json devs = Json::array();
  for (const FleetDeviceSpec& d : devices) {
    Json dj = Json::object();
    dj["name"] = d.name;
    dj["speed_factor"] = d.speed_factor;
    dj["domain"] = d.domain;
    devs.push_back(std::move(dj));
  }
  j["devices"] = std::move(devs);
  Json tens = Json::array();
  for (const TenantSpec& t : tenants) {
    Json tj = Json::object();
    tj["name"] = t.name;
    tj["workload"] = workload_to_json(t.workload);
    tj["slo_latency_ms"] = t.slo_latency_ms;
    tj["min_accuracy"] = t.min_accuracy;
    tj["priority"] = t.priority;
    tens.push_back(std::move(tj));
  }
  j["tenants"] = std::move(tens);
  Json doms = Json::array();
  for (const FailureDomain& d : fleet_faults.domains) {
    Json dj = Json::object();
    dj["name"] = d.name;
    dj["spike_prob"] = d.spike_prob;
    dj["spike_duration_s"] = d.spike_duration_s;
    dj["transient_mult"] = d.transient_mult;
    dj["seu_mult"] = d.seu_mult;
    doms.push_back(std::move(dj));
  }
  j["domains"] = std::move(doms);
  Json bt = Json::object();
  bt["enabled"] = batching.enabled;
  bt["max_batch"] = batching.max_batch;
  bt["max_wait_ms"] = batching.max_wait_ms;
  bt["setup_ms"] = batching.setup_ms;
  j["batching"] = std::move(bt);
  Json ad = Json::object();
  ad["enabled"] = admission.enabled;
  ad["high_watermark"] = admission.high_watermark;
  ad["low_watermark"] = admission.low_watermark;
  j["admission"] = std::move(ad);
  Json br = Json::object();
  br["open_after_failures"] = breaker.open_after_failures;
  br["wedge_threshold_s"] = breaker.wedge_threshold_s;
  br["open_duration_s"] = breaker.open_duration_s;
  br["half_open_probes"] = breaker.half_open_probes;
  j["breaker"] = std::move(br);
  Json st = Json::object();
  st["enabled"] = stagger.enabled;
  st["min_capacity_fraction"] = stagger.min_capacity_fraction;
  st["max_defer_s"] = stagger.max_defer_s;
  j["stagger"] = std::move(st);
  j["orchestrator_period_s"] = orchestrator_period_s;
  j["balance_hysteresis"] = balance_hysteresis;
  j["eject_after_watchdog"] = eject_after_watchdog;
  return j;
}

// ---------------------------------------------------------------------------
// Metrics serialization
// ---------------------------------------------------------------------------

Json TenantMetrics::to_json() const {
  Json j = Json::object();
  j["name"] = name;
  j["offered"] = static_cast<double>(offered);
  j["served"] = static_cast<double>(served);
  j["dropped"] = static_cast<double>(dropped);
  j["shed"] = static_cast<double>(shed);
  j["slo_latency_violations"] = static_cast<double>(slo_latency_violations);
  j["slo_accuracy_violations"] = static_cast<double>(slo_accuracy_violations);
  j["avg_latency_ms"] = avg_latency_ms;
  j["accuracy"] = accuracy;
  return j;
}

Json FleetMetrics::to_json() const {
  Json j = Json::object();
  visit_fleet_scalars(*this, [&](const char* name, double value) {
    check_finite(name, value);
    j[name] = value;
  });
  Json tens = Json::array();
  for (const TenantMetrics& t : tenants) tens.push_back(t.to_json());
  j["tenants"] = std::move(tens);
  Json devs = Json::array();
  for (const EdgeMetrics& d : devices) devs.push_back(d.to_json());
  j["devices"] = std::move(devs);
  return j;
}

std::string FleetMetrics::csv_header() {
  std::string out;
  visit_fleet_scalars(FleetMetrics{}, [&](const char* name, double) {
    if (!out.empty()) out += ",";
    out += name;
  });
  return out;
}

std::string FleetMetrics::csv_row() const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  visit_fleet_scalars(*this, [&](const char* name, double value) {
    check_finite(name, value);
    if (!first) os << ",";
    os << value;
    first = false;
  });
  return os.str();
}

// ---------------------------------------------------------------------------
// Event-queue fleet simulation
// ---------------------------------------------------------------------------

namespace {

// Event ranks fix the order of same-time events. Arrivals are merged from a
// sorted vector and always win ties (matching the single-device loop, where
// a sampling tick runs only when strictly earlier than the next arrival);
// batch flushes dispatch buffered arrivals before the tick can change the
// operating point; the orchestrator observes post-tick state.
enum EventRank : int { kFlushRank = 0, kTickRank = 1, kOrchRank = 2 };

struct Event {
  double time_s = 0.0;
  int rank = 0;
  int device = -1;
  long seq = 0;         ///< Push order: final deterministic tie-break.
  long generation = 0;  ///< Batch-flush validity token.
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.device != b.device) return a.device > b.device;
    return a.seq > b.seq;
  }
};

struct DomainState {
  Rng rng;
  bool spiking = false;
  double spike_until_s = 0.0;
  explicit DomainState(std::uint64_t seed) : rng(seed) {}
};

}  // namespace

FleetMetrics simulate_fleet(const Library& library,
                            const RuntimePolicy& policy,
                            const FleetScenario& scenario) {
  require_valid_fleet_scenario(scenario, library);
  const double duration = scenario.base.duration_s;
  const std::size_t n_dev = scenario.devices.size();
  const std::size_t n_ten = scenario.tenants.size();

  FleetMetrics fm;
  fm.duration_s = duration;
  fm.tenants.resize(n_ten);
  for (std::size_t k = 0; k < n_ten; ++k) {
    fm.tenants[k].name = scenario.tenants[k].name.empty()
                             ? "tenant" + std::to_string(k)
                             : scenario.tenants[k].name;
  }

  // --- Arrival trace: one independent stream per tenant, merged. ---
  std::vector<WorkloadSpec> tenant_specs;
  tenant_specs.reserve(n_ten);
  for (const TenantSpec& t : scenario.tenants) {
    WorkloadSpec w = t.workload;
    w.duration_s = duration;  // the episode owns the clock
    tenant_specs.push_back(std::move(w));
  }
  const std::vector<FleetRequest> arrivals =
      generate_fleet_arrivals(tenant_specs, scenario.base.seed);

  // Offered-rate models for the capacity invariant: same seeds and specs as
  // the arrival generators, so the gate prices exactly the load the trace
  // carries. period_rate caches draws in index order, so query order cannot
  // perturb the stream.
  std::vector<std::unique_ptr<WorkloadModel>> rate_models(n_ten);
  for (std::size_t k = 0; k < n_ten; ++k) {
    if (tenant_specs[k].base_ips > 0.0) {
      rate_models[k] = std::make_unique<WorkloadModel>(
          tenant_specs[k], tenant_stream_seed(scenario.base.seed, k, n_ten));
    }
  }
  auto offered_rate = [&](double now) {
    double total = 0.0;
    for (std::size_t k = 0; k < n_ten; ++k) {
      if (!rate_models[k]) continue;
      const int period = static_cast<int>(now / tenant_specs[k].period_s);
      total += rate_models[k]->period_rate(std::max(period, 0));
    }
    return total;
  };

  // --- Devices: independent seeds (uniqueness asserted). ---
  std::vector<std::unique_ptr<DeviceSim>> devs;
  devs.reserve(n_dev);
  {
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < n_dev; ++i) {
      EdgeScenario per_device = scenario.base;
      per_device.seed = fleet_device_seed(scenario.base.seed, i, n_dev);
      seeds.insert(per_device.seed);
      auto dev = std::make_unique<DeviceSim>(library, policy, per_device);
      dev->set_speed_factor(scenario.devices[i].speed_factor);
      devs.push_back(std::move(dev));
    }
    ADAPEX_CHECK(seeds.size() == n_dev,
                 "fleet device seeds collided — episode streams would "
                 "correlate");
  }
  std::vector<CircuitBreaker> breakers(n_dev,
                                       CircuitBreaker(scenario.breaker));
  std::vector<char> ejected(n_dev, 0);
  std::vector<double> next_sample(n_dev, scenario.base.sample_period_s);
  std::vector<std::vector<double>> batch_times(n_dev);
  std::vector<std::vector<int>> batch_tenants(n_dev);
  std::vector<long> batch_generation(n_dev, 0);

  std::vector<DomainState> domains;
  domains.reserve(scenario.fleet_faults.domains.size());
  for (std::size_t g = 0; g < scenario.fleet_faults.domains.size(); ++g) {
    domains.emplace_back(
        derive_seed(scenario.base.seed, kFleetDomainStream, g));
  }

  // Shedding levels: distinct tenant priorities, ascending; shed_classes
  // lowest classes are currently rejected (the top class never sheds).
  std::vector<int> priority_levels;
  for (const TenantSpec& t : scenario.tenants) {
    priority_levels.push_back(t.priority);
  }
  std::sort(priority_levels.begin(), priority_levels.end());
  priority_levels.erase(
      std::unique(priority_levels.begin(), priority_levels.end()),
      priority_levels.end());
  int shed_classes = 0;

  // A device is available when it can take traffic right now: not ejected,
  // not wedged, not cordoned dark, breaker not rejecting.
  auto available = [&](std::size_t i, double now) {
    return !ejected[i] && !devs[i]->wedged() &&
           devs[i]->dark_until() <= now && breakers[i].would_admit(now);
  };

  // --- Capacity-safe reconfiguration gate (installed unconditionally so
  // the violation counters are identical machinery in both modes). ---
  auto gate_for = [&](std::size_t d) {
    return [&, d](const ReconfigRequest& req) {
      double projected = 0.0;
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (i == d || !available(i, req.now_s)) continue;
        projected += devs[i]->current_ips();
      }
      const double offered = offered_rate(req.now_s);
      // The invariant holds against the offered load, clamped to what the
      // fleet can currently deliver at all (projected + the requester):
      // during cold start or overload the aggregate capacity is already
      // below floor x offered, and an unclamped bound would veto every
      // reconfiguration — including the ones that grow capacity.
      const double deliverable =
          std::min(offered, projected + devs[d]->current_ips());
      const double floor_ips =
          scenario.stagger.min_capacity_fraction * deliverable;
      const bool meets = projected >= floor_ips;
      bool admit = !scenario.stagger.enabled || meets;
      bool forced = false;
      if (!admit && req.deferred_since_s >= 0.0 &&
          req.now_s - req.deferred_since_s >= scenario.stagger.max_defer_s) {
        // Starvation override: the device has waited out its budget.
        admit = true;
        forced = true;
      }
      if (!admit) {
        ++fm.stagger_deferrals;
        return false;
      }
      if (forced) ++fm.forced_reconfigs;
      if (offered > 0.0) {
        if (!meets) ++fm.capacity_violations;
        fm.min_capacity_fraction =
            std::min(fm.min_capacity_fraction, projected / offered);
      }
      return true;
    };
  };
  for (std::size_t d = 0; d < n_dev; ++d) {
    devs[d]->set_reconfig_gate(gate_for(d));
  }

  // --- Event queue. ---
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  long seq = 0;
  auto push = [&](double t, int rank, int device, long generation = 0) {
    heap.push(Event{t, rank, device, seq++, generation});
  };
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (next_sample[d] < duration) {
      push(next_sample[d], kTickRank, static_cast<int>(d));
    }
  }
  double next_orch = scenario.orchestrator_period_s;
  if (next_orch < duration) push(next_orch, kOrchRank, -1);

  std::vector<double> latencies;
  latencies.reserve(arrivals.size());
  std::vector<double> tenant_lat_sum(n_ten, 0.0);
  std::vector<double> tenant_acc_sum(n_ten, 0.0);
  std::vector<int> last_device(n_ten, -1);

  auto account = [&](int tenant, const ArrivalOutcome& out) {
    TenantMetrics& tm = fm.tenants[static_cast<std::size_t>(tenant)];
    const TenantSpec& spec =
        scenario.tenants[static_cast<std::size_t>(tenant)];
    if (!out.served) {
      ++fm.dropped;
      ++tm.dropped;
      return;
    }
    ++fm.served;
    ++tm.served;
    latencies.push_back(out.latency_ms);
    tenant_lat_sum[static_cast<std::size_t>(tenant)] += out.latency_ms;
    tenant_acc_sum[static_cast<std::size_t>(tenant)] += out.accuracy;
    if (spec.slo_latency_ms > 0.0 && out.latency_ms > spec.slo_latency_ms) {
      ++tm.slo_latency_violations;
    }
    if (spec.min_accuracy > 0.0 && out.accuracy < spec.min_accuracy) {
      ++tm.slo_accuracy_violations;
    }
  };

  auto flush_batch = [&](std::size_t d, double now) {
    const std::vector<ArrivalOutcome> outs = devs[d]->serve_batch(
        now, scenario.batching.setup_ms / 1e3, batch_times[d]);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      account(batch_tenants[d][i], outs[i]);
    }
    batch_times[d].clear();
    batch_tenants[d].clear();
    ++batch_generation[d];
  };

  auto route_arrival = [&](const FleetRequest& req) {
    const std::size_t k = static_cast<std::size_t>(req.tenant);
    TenantMetrics& tm = fm.tenants[k];
    ++fm.offered;
    ++tm.offered;
    // Admission control: the shed classes bounce here, before any device
    // sees the request.
    if (scenario.admission.enabled && shed_classes > 0) {
      const int cutoff =
          priority_levels[static_cast<std::size_t>(shed_classes) - 1];
      if (scenario.tenants[k].priority <= cutoff) {
        ++fm.shed;
        ++tm.shed;
        return;
      }
    }
    // Health-aware JSQ with graceful fallback tiers: prefer fully
    // available devices; then tolerate cordoned (dark) ones; finally
    // anything not ejected (total-outage routing beats dropping on the
    // floor — the device queue applies its own capacity bound).
    int best = -1;
    double best_backlog = 0.0;
    auto consider = [&](std::size_t i) {
      const double b = devs[i]->backlog_requests(req.time_s);
      if (best < 0 || b < best_backlog) {
        best = static_cast<int>(i);
        best_backlog = b;
      }
    };
    for (std::size_t i = 0; i < n_dev; ++i) {
      if (available(i, req.time_s)) consider(i);
    }
    bool breaker_checked = best >= 0;
    if (best < 0) {
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (!ejected[i] && breakers[i].would_admit(req.time_s)) consider(i);
      }
      breaker_checked = best >= 0;
    }
    if (best < 0) {
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (!ejected[i]) consider(i);
      }
    }
    if (best < 0) {
      // Every device ejected: nowhere to route.
      ++fm.shed;
      ++tm.shed;
      return;
    }
    // Sticky hysteresis: keep the tenant's previous device while its queue
    // is within the band — rerouting on every JSQ wobble defeats cache
    // locality on real hosts and makes failover counts meaningless.
    int chosen = best;
    const int prev = last_device[k];
    if (prev >= 0 && prev != best &&
        available(static_cast<std::size_t>(prev), req.time_s)) {
      const double prev_backlog =
          devs[static_cast<std::size_t>(prev)]->backlog_requests(req.time_s);
      if (prev_backlog <=
          best_backlog * (1.0 + scenario.balance_hysteresis) + 1e-12) {
        chosen = prev;
      }
    }
    if (prev >= 0 && chosen != prev) ++fm.failovers;
    last_device[k] = chosen;
    const std::size_t d = static_cast<std::size_t>(chosen);
    if (breaker_checked) breakers[d].admit(req.time_s);

    if (scenario.batching.enabled && scenario.batching.max_batch > 1) {
      devs[d]->note_arrival();
      batch_times[d].push_back(req.time_s);
      batch_tenants[d].push_back(req.tenant);
      if (static_cast<int>(batch_times[d].size()) >=
          scenario.batching.max_batch) {
        flush_batch(d, req.time_s);
      } else if (batch_times[d].size() == 1) {
        push(std::min(req.time_s + scenario.batching.max_wait_ms / 1e3,
                      duration),
             kFlushRank, chosen, batch_generation[d]);
      }
    } else {
      account(req.tenant, devs[d]->on_arrival(req.time_s));
    }
  };

  auto orchestrate = [&](double now) {
    // Correlated failure domains: one unconditional draw per domain per
    // tick (the spike sequence depends only on seed and tick index), spike
    // end quantized to this cadence.
    for (std::size_t g = 0; g < domains.size(); ++g) {
      DomainState& ds = domains[g];
      const FailureDomain& spec = scenario.fleet_faults.domains[g];
      const double u = ds.rng.uniform();
      if (ds.spiking && now + 1e-12 >= ds.spike_until_s) ds.spiking = false;
      if (!ds.spiking && u < spec.spike_prob) {
        ds.spiking = true;
        ds.spike_until_s = now + spec.spike_duration_s;
        ++fm.domain_spikes;
      }
    }
    if (!domains.empty()) {
      for (std::size_t i = 0; i < n_dev; ++i) {
        const int g = scenario.devices[i].domain;
        const bool spiking = g >= 0 && domains[static_cast<std::size_t>(g)]
                                           .spiking;
        if (spiking) {
          const FailureDomain& spec =
              scenario.fleet_faults.domains[static_cast<std::size_t>(g)];
          devs[i]->set_fault_scale(spec.transient_mult, spec.seu_mult);
        } else {
          devs[i]->set_fault_scale(1.0, 1.0);
        }
      }
    }
    // Breaker observation + watchdog-driven ejection.
    for (std::size_t i = 0; i < n_dev; ++i) {
      const bool failing =
          devs[i]->wedged() ||
          devs[i]->health() == HealthState::kBackoff ||
          devs[i]->health() == HealthState::kDegraded ||
          devs[i]->dark_until() > now + scenario.breaker.wedge_threshold_s;
      breakers[i].observe(failing, now);
      if (scenario.eject_after_watchdog > 0 && !ejected[i] &&
          devs[i]->watchdog_recoveries() >= scenario.eject_after_watchdog) {
        ejected[i] = 1;
        ++fm.ejections;
      }
    }
    // Admission watermarks over the pooled backlog fraction.
    if (scenario.admission.enabled && priority_levels.size() > 1) {
      double waiting = 0.0;
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (!ejected[i]) waiting += devs[i]->backlog_requests(now);
      }
      const double cap = static_cast<double>(n_dev) *
                         static_cast<double>(scenario.base.queue_capacity);
      const double load = cap > 0.0 ? waiting / cap : 0.0;
      const int max_shed = static_cast<int>(priority_levels.size()) - 1;
      if (load > scenario.admission.high_watermark) {
        shed_classes = std::min(shed_classes + 1, max_shed);
      } else if (load < scenario.admission.low_watermark) {
        shed_classes = std::max(shed_classes - 1, 0);
      }
    }
    // Time-weighted capacity accounting + correlated-outage depth.
    double avail_ips = 0.0;
    double total_ips = 0.0;
    int down = 0;
    for (std::size_t i = 0; i < n_dev; ++i) {
      const double ips = devs[i]->current_ips();
      total_ips += ips;
      if (available(i, now)) {
        avail_ips += ips;
      } else {
        ++down;
      }
    }
    if (total_ips > 0.0) {
      fm.degraded_capacity_s +=
          (1.0 - avail_ips / total_ips) * scenario.orchestrator_period_s;
    }
    fm.max_outage_depth = std::max(fm.max_outage_depth, down);
  };

  // --- Main loop: merge the sorted arrival trace against the heap;
  // arrivals win ties (the single-device tick-vs-arrival rule). ---
  std::size_t ai = 0;
  for (;;) {
    const bool have_arrival = ai < arrivals.size();
    const bool have_event = !heap.empty();
    if (!have_arrival && !have_event) break;
    if (have_arrival &&
        (!have_event || arrivals[ai].time_s <= heap.top().time_s)) {
      route_arrival(arrivals[ai++]);
      ++fm.events;
      continue;
    }
    const Event ev = heap.top();
    heap.pop();
    ++fm.events;
    switch (ev.rank) {
      case kFlushRank: {
        const std::size_t d = static_cast<std::size_t>(ev.device);
        if (ev.generation == batch_generation[d] && !batch_times[d].empty()) {
          flush_batch(d, ev.time_s);
        }
        break;
      }
      case kTickRank: {
        const std::size_t d = static_cast<std::size_t>(ev.device);
        devs[d]->on_tick(ev.time_s);
        next_sample[d] += scenario.base.sample_period_s;
        if (next_sample[d] < duration) {
          push(next_sample[d], kTickRank, ev.device);
        }
        break;
      }
      case kOrchRank: {
        orchestrate(ev.time_s);
        next_orch += scenario.orchestrator_period_s;
        if (next_orch < duration) push(next_orch, kOrchRank, -1);
        break;
      }
    }
  }

  // --- Close out. ---
  double dead_total = 0.0;
  fm.devices.reserve(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) {
    devs[d]->finalize(duration);
    dead_total += devs[d]->metrics().dead_time_s;
    fm.devices.push_back(std::move(devs[d]->metrics()));
  }
  fm.availability_pct =
      n_dev > 0 && duration > 0.0
          ? 100.0 * std::max(0.0, 1.0 - dead_total /
                                            (static_cast<double>(n_dev) *
                                             duration))
          : 100.0;
  for (std::size_t i = 0; i < breakers.size(); ++i) {
    fm.breaker_opens += breakers[i].opens();
  }
  for (std::size_t k = 0; k < n_ten; ++k) {
    TenantMetrics& tm = fm.tenants[k];
    tm.avg_latency_ms = tm.served > 0 ? tenant_lat_sum[k] / tm.served : 0.0;
    tm.accuracy = tm.served > 0 ? tenant_acc_sum[k] / tm.served : 0.0;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto quantile = [&](double q) {
      const std::size_t idx = std::min(
          latencies.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    fm.p50_latency_ms = quantile(0.50);
    fm.p99_latency_ms = quantile(0.99);
    fm.p999_latency_ms = quantile(0.999);
  }
  return fm;
}

EdgeMetrics simulate_edge(const Library& library, const RuntimePolicy& policy,
                          const EdgeScenario& scenario) {
  return std::move(
      simulate_fleet(library, policy, fleet_from_edge(scenario)).devices[0]);
}

FleetScenario fleet_from_edge(const EdgeScenario& scenario) {
  FleetScenario f;
  f.base = scenario;
  FleetDeviceSpec dev;
  dev.name = "dev0";
  f.devices.push_back(std::move(dev));
  TenantSpec tenant;
  tenant.name = "tenant0";
  WorkloadSpec& w = tenant.workload;  // the scenario's full rate and pattern
  w.pattern = scenario.pattern;
  w.base_ips = scenario.offered_ips();
  w.duration_s = scenario.duration_s;
  w.period_s = scenario.deviation_period_s;
  w.deviation = scenario.deviation;
  w.spike_start_s = scenario.spike_start_s;
  w.spike_duration_s = scenario.spike_duration_s;
  w.spike_multiplier = scenario.spike_multiplier;
  f.tenants.push_back(std::move(tenant));
  // Every fleet-level mechanism stays at its inert default (no batching,
  // admission control, breakers, staggering, domains or ejection).
  return f;
}

}  // namespace adapex
