#include "edge/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <set>

#include "common/rng.hpp"
#include "edge/metric_fields.hpp"

namespace adapex {

namespace {

// Stream identifiers for derive_seed. Device streams are disjoint from the
// tenant stream (workload.cpp) and the per-category fault streams
// (faults.cpp), so fleet membership never repunctuates a device's private
// fault timeline.
constexpr std::uint64_t kFleetDeviceStream = 0xF1EE;
constexpr std::uint64_t kFleetDomainStream = 0xD0A1;

// JSON numbers are doubles: every integer up to 2^53 - 1 survives a round
// trip exactly, larger seeds may not.
constexpr std::uint64_t kMaxJsonSeed = (std::uint64_t{1} << 53) - 1;

WorkloadPattern pattern_from_string(const std::string& s) {
  if (s == "random_deviation") return WorkloadPattern::kRandomDeviation;
  if (s == "diurnal") return WorkloadPattern::kDiurnal;
  if (s == "flash_crowd") return WorkloadPattern::kFlashCrowd;
  if (s == "trace") return WorkloadPattern::kTrace;
  throw ConfigError("unknown workload pattern: " + s);
}

// Scenario tables. A scenario is read under Presence::kDefaulted: every key
// is optional and a missing one keeps its member initializer.
constexpr Field<FaultSpec> kFaultFields[] = {
    {"reconfig_fail_prob", &FaultSpec::reconfig_fail_prob},
    {"reconfig_slow_prob", &FaultSpec::reconfig_slow_prob},
    {"reconfig_slow_factor", &FaultSpec::reconfig_slow_factor},
    {"stall_prob", &FaultSpec::stall_prob},
    {"stall_duration_s", &FaultSpec::stall_duration_s},
    {"monitor_drop_prob", &FaultSpec::monitor_drop_prob},
    {"monitor_delay_prob", &FaultSpec::monitor_delay_prob},
    {"seu_weight_prob", &FaultSpec::seu_weight_prob},
    {"seu_config_prob", &FaultSpec::seu_config_prob},
    {"seu_weight_accuracy_drop", &FaultSpec::seu_weight_accuracy_drop},
    {"seu_config_accuracy_drop", &FaultSpec::seu_config_accuracy_drop},
    {"seu_exit_rate_shift", &FaultSpec::seu_exit_rate_shift},
    {"seu_hang_frac", &FaultSpec::seu_hang_frac},
    {"seu_exit_corrupt_frac", &FaultSpec::seu_exit_corrupt_frac},
    member_field<&FaultSpec::mitigation, kSeuMitigationFields>("mitigation"),
};

constexpr Field<WorkloadSpec> kWorkloadFields[] = {
    member_field<&WorkloadSpec::pattern, pattern_from_string>("pattern"),
    {"base_ips", &WorkloadSpec::base_ips},
    {"duration_s", &WorkloadSpec::duration_s},
    {"period_s", &WorkloadSpec::period_s},
    {"deviation", &WorkloadSpec::deviation},
    {"spike_start_s", &WorkloadSpec::spike_start_s},
    {"spike_duration_s", &WorkloadSpec::spike_duration_s},
    {"spike_multiplier", &WorkloadSpec::spike_multiplier},
    optional_field<&WorkloadSpec::trace>("trace"),
};

constexpr Field<DeviceScenario> kBaseFields[] = {
    {"duration_s", &DeviceScenario::duration_s},
    {"sample_period_s", &DeviceScenario::sample_period_s},
    {"reselect_threshold", &DeviceScenario::reselect_threshold},
    {"queue_capacity", &DeviceScenario::queue_capacity},
    {"watchdog_periods", &DeviceScenario::watchdog_periods},
    {"seed", &DeviceScenario::seed},
    member_field<&DeviceScenario::faults, kFaultFields>("faults"),
};

constexpr Field<FleetDeviceSpec> kDeviceFields[] = {
    {"name", &FleetDeviceSpec::name},
    {"speed_factor", &FleetDeviceSpec::speed_factor},
    {"domain", &FleetDeviceSpec::domain},
};

constexpr Field<TenantSpec> kTenantSpecFields[] = {
    {"name", &TenantSpec::name},
    member_field<&TenantSpec::workload, kWorkloadFields>("workload"),
    {"slo_latency_ms", &TenantSpec::slo_latency_ms},
    {"min_accuracy", &TenantSpec::min_accuracy},
    {"priority", &TenantSpec::priority},
};

constexpr Field<FailureDomain> kDomainFields[] = {
    {"name", &FailureDomain::name},
    {"spike_prob", &FailureDomain::spike_prob},
    {"spike_duration_s", &FailureDomain::spike_duration_s},
    {"transient_mult", &FailureDomain::transient_mult},
    {"seu_mult", &FailureDomain::seu_mult},
};

bool never(const FleetScenario&) { return false; }

constexpr Field<FleetFaultSpec> kFleetFaultFields[] = {
    member_field<&FleetFaultSpec::domains, kDomainFields>("domains"),
};

constexpr Field<BatchingPolicy> kBatchingFields[] = {
    {"enabled", &BatchingPolicy::enabled},
    {"max_batch", &BatchingPolicy::max_batch},
    {"max_wait_ms", &BatchingPolicy::max_wait_ms},
    {"setup_ms", &BatchingPolicy::setup_ms},
};

constexpr Field<AdmissionPolicy> kAdmissionFields[] = {
    {"enabled", &AdmissionPolicy::enabled},
    {"high_watermark", &AdmissionPolicy::high_watermark},
    {"low_watermark", &AdmissionPolicy::low_watermark},
};

constexpr Field<CircuitBreakerPolicy> kBreakerFields[] = {
    {"open_after_failures", &CircuitBreakerPolicy::open_after_failures},
    {"wedge_threshold_s", &CircuitBreakerPolicy::wedge_threshold_s},
    {"open_duration_s", &CircuitBreakerPolicy::open_duration_s},
    {"half_open_probes", &CircuitBreakerPolicy::half_open_probes},
};

constexpr Field<StaggerPolicy> kStaggerFields[] = {
    {"enabled", &StaggerPolicy::enabled},
    {"min_capacity_fraction", &StaggerPolicy::min_capacity_fraction},
    {"max_defer_s", &StaggerPolicy::max_defer_s},
};

constexpr Field<FleetScenario> kScenarioFields[] = {
    member_field<&FleetScenario::base, kBaseFields>("base"),
    member_field<&FleetScenario::devices, kDeviceFields>("devices"),
    member_field<&FleetScenario::tenants, kTenantSpecFields>("tenants"),
    // Domains are written at the top level. The struct-shaped alias
    // {"fleet_faults": {"domains": [...]}} is read but never written; a
    // top-level "domains" key, read after it, wins.
    member_field<&FleetScenario::fleet_faults, kFleetFaultFields, never>(
        "fleet_faults"),
    {"domains",
     [](const FleetScenario& s, const KeyPath& at) {
       return write_json(s.fleet_faults.domains, at, kDomainFields);
     },
     [](const Json* v, FleetScenario& s, const KeyPath& at) {
       if (at.present(v)) {
         read_json(*v, s.fleet_faults.domains, at, kDomainFields);
       }
     }},
    member_field<&FleetScenario::batching, kBatchingFields>("batching"),
    member_field<&FleetScenario::admission, kAdmissionFields>("admission"),
    member_field<&FleetScenario::breaker, kBreakerFields>("breaker"),
    member_field<&FleetScenario::stagger, kStaggerFields>("stagger"),
    {"orchestrator_period_s", &FleetScenario::orchestrator_period_s},
    {"balance_hysteresis", &FleetScenario::balance_hysteresis},
    {"eject_after_watchdog", &FleetScenario::eject_after_watchdog},
};

constexpr MetricField<FleetMetrics> kFleetFields[] = {
    {"offered", &FleetMetrics::offered},
    {"served", &FleetMetrics::served},
    {"dropped", &FleetMetrics::dropped},
    {"shed", &FleetMetrics::shed},
    {"p50_latency_ms", &FleetMetrics::p50_latency_ms},
    {"p99_latency_ms", &FleetMetrics::p99_latency_ms},
    {"p999_latency_ms", &FleetMetrics::p999_latency_ms},
    {"availability_pct", &FleetMetrics::availability_pct},
    {"degraded_capacity_s", &FleetMetrics::degraded_capacity_s},
    {"failovers", &FleetMetrics::failovers},
    {"stagger_deferrals", &FleetMetrics::stagger_deferrals},
    {"forced_reconfigs", &FleetMetrics::forced_reconfigs},
    {"capacity_violations", &FleetMetrics::capacity_violations},
    {"min_capacity_fraction", &FleetMetrics::min_capacity_fraction},
    {"domain_spikes", &FleetMetrics::domain_spikes},
    {"max_outage_depth", &FleetMetrics::max_outage_depth},
    {"breaker_opens", &FleetMetrics::breaker_opens},
    {"ejections", &FleetMetrics::ejections},
    {"events", &FleetMetrics::events},
    {"duration_s", &FleetMetrics::duration_s},
};

constexpr Field<TenantMetrics> kTenantFields[] = {
    {"name", &TenantMetrics::name},
    {"offered", &TenantMetrics::offered},
    {"served", &TenantMetrics::served},
    {"dropped", &TenantMetrics::dropped},
    {"shed", &TenantMetrics::shed},
    {"slo_latency_violations", &TenantMetrics::slo_latency_violations},
    {"slo_accuracy_violations", &TenantMetrics::slo_accuracy_violations},
    {"avg_latency_ms", &TenantMetrics::avg_latency_ms},
    {"accuracy", &TenantMetrics::accuracy},
};

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
  using analysis::Severity;
  analysis::LintReport report;

  // FS1: device list.
  if (s.devices.empty()) {
    report.add("FS1", Severity::kError, "fleet", "the fleet has no devices",
               "add at least one FleetDeviceSpec");
  }
  const double domain_count =
      static_cast<double>(s.fleet_faults.domains.size());
  for (std::size_t i = 0; i < s.devices.size(); ++i) {
    const FleetDeviceSpec& d = s.devices[i];
    analysis::SpecCheck c(report, "device[" + std::to_string(i) + "]");
    c.positive("FS1", "speed_factor", d.speed_factor,
               "fabric clocks scale by a positive factor");
    c.within("FS1", "domain", d.domain, -1.0, domain_count,
             "use -1 or an index below the domain count",
             analysis::Ends::kOpenHigh);
  }

  // FS2: tenants and their workloads.
  if (s.tenants.empty()) {
    report.add("FS2", Severity::kError, "fleet", "the fleet has no tenants",
               "add at least one TenantSpec");
  }
  for (std::size_t k = 0; k < s.tenants.size(); ++k) {
    const TenantSpec& t = s.tenants[k];
    const WorkloadSpec& w = t.workload;
    const std::string site = "tenant[" + std::to_string(k) + "]";
    lint_workload_spec(report, "FS2", site, w);
    if (w.duration_s > 0.0 && w.duration_s != s.base.duration_s) {
      report.add("FS2", Severity::kWarning, site,
                 "workload.duration_s differs from the episode duration",
                 "simulate_fleet forces tenant workloads to base.duration_s");
    }
    // FS3: SLOs.
    analysis::SpecCheck c(report, site);
    c.non_negative("FS3", "slo_latency_ms", t.slo_latency_ms,
                   "use 0 to disable the latency SLO");
    c.within("FS3", "min_accuracy", t.min_accuracy, 0.0, 1.0,
             "accuracy SLOs are probabilities (0 disables)");
  }

  // FS4: correlated failure domains.
  for (std::size_t g = 0; g < s.fleet_faults.domains.size(); ++g) {
    const FailureDomain& dom = s.fleet_faults.domains[g];
    analysis::SpecCheck c(report, "domain[" + std::to_string(g) + "]");
    c.within("FS4", "spike_prob", dom.spike_prob, 0.0, 1.0,
             "use a value in [0, 1]");
    c.non_negative("FS4", "spike_duration_s", dom.spike_duration_s,
                   "spikes need a non-negative duration");
    (void)(c.non_negative("FS4", "transient_mult", dom.transient_mult,
                          "check transient_mult/seu_mult") &&
           c.non_negative("FS4", "seu_mult", dom.seu_mult,
                          "check transient_mult/seu_mult"));
  }

  // FS5: stagger policy.
  analysis::SpecCheck stagger(report, "stagger");
  stagger.within("FS5", "min_capacity_fraction",
                 s.stagger.min_capacity_fraction, 0.0, 1.0,
                 "the capacity floor is a fraction of offered load");
  stagger.non_negative("FS5", "max_defer_s", s.stagger.max_defer_s,
                       "the starvation override needs a non-negative window");
  if (s.stagger.enabled && s.devices.size() == 1) {
    report.add("FS5", Severity::kWarning, "stagger",
               "staggering a single-device fleet only delays its own "
               "reconfigurations",
               "disable staggering or add devices");
  }

  // FS6: admission watermarks, 0 <= low <= high <= 1.
  analysis::SpecCheck admission(report, "admission");
  const char* band = "shedding needs a well-ordered hysteresis band";
  (void)(admission.within("FS6", "low_watermark", s.admission.low_watermark,
                          0.0, s.admission.high_watermark, band) &&
         admission.within("FS6", "high_watermark",
                          s.admission.high_watermark,
                          s.admission.low_watermark, 1.0, band));

  // FS7: batching.
  analysis::SpecCheck batching(report, "batching");
  batching.at_least("FS7", "max_batch", s.batching.max_batch, 1,
                    "a batch holds at least one request");
  (void)(batching.non_negative("FS7", "max_wait_ms", s.batching.max_wait_ms,
                               "check the batching policy") &&
         batching.non_negative("FS7", "setup_ms", s.batching.setup_ms,
                               "check the batching policy"));

  // FS8: breaker and orchestrator.
  analysis::SpecCheck breaker(report, "breaker");
  breaker.non_negative("FS8", "open_after_failures",
                       s.breaker.open_after_failures,
                       "use 0 to disable circuit breakers");
  (void)(breaker.non_negative("FS8", "wedge_threshold_s",
                              s.breaker.wedge_threshold_s,
                              "check the breaker policy") &&
         breaker.non_negative("FS8", "open_duration_s",
                              s.breaker.open_duration_s,
                              "check the breaker policy"));
  breaker.at_least("FS8", "half_open_probes", s.breaker.half_open_probes, 1,
                   "HalfOpen needs at least one probe");
  analysis::SpecCheck fleet(report, "fleet");
  fleet.positive("FS8", "orchestrator_period_s", s.orchestrator_period_s,
                 "the orchestrator needs a positive cadence");
  fleet.non_negative("FS8", "balance_hysteresis", s.balance_hysteresis,
                     "the sticky band is a non-negative fraction");
  fleet.non_negative("FS8", "eject_after_watchdog", s.eject_after_watchdog,
                     "use 0 to disable ejection");
  return report;
}

}  // namespace

analysis::LintReport lint_fleet_scenario(const FleetScenario& s) {
  analysis::LintReport report = lint_device_scenario(s.base);
  report.merge(lint_fleet_rules(s));
  return report;
}

analysis::LintReport lint_fleet_scenario(const FleetScenario& s,
                                         const Library& library) {
  analysis::LintReport report = lint_device_scenario(s.base, library);
  report.merge(lint_fleet_rules(s));
  return report;
}

// ---------------------------------------------------------------------------
// Scenario JSON
// ---------------------------------------------------------------------------

FleetScenario FleetScenario::from_json(const Json& j) {
  return read_document(j, kScenarioFields,
                       KeyPath("FleetScenario", Presence::kDefaulted));
}

Json FleetScenario::to_json() const {
  if (base.seed > kMaxJsonSeed) {
    throw ConfigError("fleet scenario: seed = " + std::to_string(base.seed) +
                      " is above 2^53 - 1, the largest a JSON number "
                      "carries exactly");
  }
  return write_json(*this, "FleetScenario", kScenarioFields);
}

// ---------------------------------------------------------------------------
// Metrics serialization
// ---------------------------------------------------------------------------

Json TenantMetrics::to_json() const {
  return write_json(*this, "TenantMetrics", kTenantFields);
}

Json FleetMetrics::to_json() const {
  const KeyPath at("FleetMetrics");
  Json j = write_json(*this, at, kFleetFields);
  j["tenants"] = write_json(tenants, at.key("tenants"), kTenantFields);
  j["devices"] = write_json(devices, at.key("devices"), edge_metric_fields());
  return j;
}

std::string FleetMetrics::csv_header() {
  return fields_csv_header(kFleetFields);
}

std::string FleetMetrics::csv_row() const {
  return fields_csv_row(*this, kFleetFields, "FleetMetrics");
}

// ---------------------------------------------------------------------------
// Event-queue fleet simulation
// ---------------------------------------------------------------------------

LatencyQuantiles latency_quantiles(std::vector<double>& latencies_ms) {
  LatencyQuantiles out;
  if (latencies_ms.empty()) return out;
  // Ascending selections, each over the tail from the previous pick on:
  // nth_element leaves nothing smaller after its pick, so the tail's order
  // statistics are the whole vector's.
  auto lo = latencies_ms.begin();
  auto select = [&](double q) {
    const std::size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_ms.size())));
    const auto nth = latencies_ms.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(lo, nth, latencies_ms.end());
    lo = nth;
    return *nth;
  };
  out.p50_ms = select(0.50);
  out.p99_ms = select(0.99);
  out.p999_ms = select(0.999);
  return out;
}

namespace {

// Event ranks fix the order of same-time events. Arrivals are merged from
// the FleetArrivalStream and always win ties (matching the single-device
// loop, where a sampling tick runs only when strictly earlier than the next
// arrival); batch flushes dispatch buffered arrivals before the tick can change the
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
  lint_fleet_scenario(scenario, library).throw_if_errors();
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

  // --- Arrivals: one independent stream per tenant, merged on the fly. ---
  std::vector<WorkloadSpec> tenant_specs;
  tenant_specs.reserve(n_ten);
  for (const TenantSpec& t : scenario.tenants) {
    WorkloadSpec w = t.workload;
    w.duration_s = duration;  // the episode owns the clock
    tenant_specs.push_back(std::move(w));
  }
  FleetArrivalStream arrivals(tenant_specs, scenario.base.seed);

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
      DeviceScenario per_device = scenario.base;
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
    // The first tier also records the tenant's previous device, so the
    // sticky check below reuses its availability and backlog.
    const int prev = last_device[k];
    bool prev_available = false;
    double prev_backlog = 0.0;
    int best = -1;
    double best_backlog = 0.0;
    // Written as selects: which queue is shortest changes from arrival to
    // arrival, so a branch here would mispredict.
    auto consider = [&](std::size_t i, double b) {
      const bool better = best < 0 || b < best_backlog;
      best = better ? static_cast<int>(i) : best;
      best_backlog = better ? b : best_backlog;
    };
    for (std::size_t i = 0; i < n_dev; ++i) {
      if (!available(i, req.time_s)) continue;
      const double b = devs[i]->backlog_requests(req.time_s);
      consider(i, b);
      const bool is_prev = static_cast<int>(i) == prev;
      prev_available = prev_available || is_prev;
      prev_backlog = is_prev ? b : prev_backlog;
    }
    bool breaker_checked = best >= 0;
    if (best < 0) {
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (!ejected[i] && breakers[i].would_admit(req.time_s)) {
          consider(i, devs[i]->backlog_requests(req.time_s));
        }
      }
      breaker_checked = best >= 0;
    }
    if (best < 0) {
      for (std::size_t i = 0; i < n_dev; ++i) {
        if (!ejected[i]) consider(i, devs[i]->backlog_requests(req.time_s));
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
    if (prev_available && prev != best &&
        prev_backlog <=
            best_backlog * (1.0 + scenario.balance_hysteresis) + 1e-12) {
      chosen = prev;
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

  // --- Main loop: merge the arrival stream against the heap; arrivals
  // win ties (the single-device tick-vs-arrival rule). ---
  for (;;) {
    const bool have_arrival = !arrivals.empty();
    const bool have_event = !heap.empty();
    if (!have_arrival && !have_event) break;
    if (have_arrival &&
        (!have_event || arrivals.front().time_s <= heap.top().time_s)) {
      const FleetRequest req = arrivals.front();
      arrivals.pop();
      route_arrival(req);
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
  const LatencyQuantiles q = latency_quantiles(latencies);
  fm.p50_latency_ms = q.p50_ms;
  fm.p99_latency_ms = q.p99_ms;
  fm.p999_latency_ms = q.p999_ms;
  return fm;
}

EdgeMetrics simulate_edge(const Library& library, const RuntimePolicy& policy,
                          const EdgeScenario& scenario) {
  lint_edge_scenario(scenario, library).throw_if_errors();
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
  tenant.workload = scenario.workload;
  tenant.workload.duration_s = scenario.duration_s;
  f.tenants.push_back(std::move(tenant));
  // Every fleet-level mechanism stays at its inert default (no batching,
  // admission control, breakers, staggering, domains or ejection).
  return f;
}

}  // namespace adapex
