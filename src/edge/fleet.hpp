// Fleet-scale resilient serving simulator.
//
// Scales the single-device edge episode (edge/simulation.hpp) to a fleet of
// N heterogeneous FPGA devices behind one discrete-event core: a binary-heap
// event queue drives per-device sampling ticks, mixed-tenant arrivals, batch
// flushes, and a fleet orchestrator, in a deterministic total order
// (time, event rank, device, sequence). Each device wraps the PR 3/4
// RuntimeManager + FaultInjector stack via DeviceSim, seeded from an
// independent splitmix64-derived stream per device (uniqueness asserted). A
// fleet of size 1 with zero fleet-level faults is the single-device
// simulator: simulate_edge runs simulate_fleet over fleet_from_edge.
//
// Fleet-level machinery, all inert at defaults:
//   - Health-aware load balancing: join-shortest-queue with a sticky
//     hysteresis band per tenant, skipping cordoned (dark) devices, ejected
//     devices, and devices whose circuit breaker is open.
//   - Circuit breakers: per-device Closed -> Open -> HalfOpen machines fed
//     by the PR 3 health states (Backoff/Degraded), config-memory wedges,
//     and long dark windows, observed at orchestrator cadence.
//   - Admission control: per-tenant latency/accuracy SLO accounting plus
//     watermark-driven priority shedding — when fleet backlog crosses the
//     high watermark, the lowest-priority tenants are shed until the
//     backlog falls below the low watermark.
//   - Dynamic batching: per-device request coalescing with a max-batch /
//     max-wait flush rule and a per-batch setup cost.
//   - Correlated failure domains (FleetFaultSpec): shared power/thermal
//     groups whose reconfig-failure and SEU rates co-spike. Spikes are
//     drawn from a per-domain stream independent of every device stream,
//     and scale rates through FaultInjector::set_rate_scale — which never
//     perturbs a draw sequence — so enabling domains cannot repunctuate
//     any device's private fault timeline.
//   - Capacity-safe staggered reconfiguration: every DeviceSim proposal is
//     routed through a ReconfigGate that admits a bitstream load only while
//     the projected aggregate capacity of the remaining fleet stays at or
//     above `StaggerPolicy::min_capacity_fraction` of the currently offered
//     load; denials roll the proposal back (no failure, no backoff) and
//     re-raise it until admitted, with a `max_defer_s` starvation override
//     so a lone overloaded device cannot be deferred forever. The same
//     bookkeeping runs with staggering disabled, so the capacity-invariant
//     violation counters are directly comparable across the two modes.
//
// The orchestrator also runs the drain/cordon/uncordon lifecycle implied by
// the gate (an admitted load cordons the device for its dark window; the
// balancer routes around it; the device uncordons when the window passes)
// and a watchdog-driven ejection rule for chronically wedged devices.
//
// Metrics are struct-of-arrays: fleet scalars (SLO violations, p50/p99/p999
// latency, availability, time-weighted degraded capacity, failovers,
// correlated-outage depth, stagger accounting), a TenantMetrics row per
// tenant, and the full per-device EdgeMetrics vector. Million-request
// episodes run in wall-clock seconds and are byte-identical under any
// ADAPEX_THREADS setting (the core is strictly sequential).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "edge/device_sim.hpp"

namespace adapex {

/// One device slot in the fleet.
struct FleetDeviceSpec {
  std::string name;           ///< Label for reports; defaulted to "dev<i>".
  double speed_factor = 1.0;  ///< Fabric-clock multiplier (DeviceSim).
  int domain = -1;            ///< Failure-domain index, -1 = independent.
};

/// One workload tenant sharing the fleet.
struct TenantSpec {
  std::string name;           ///< Label; defaulted to "tenant<k>".
  WorkloadSpec workload;      ///< Arrival process (duration is forced to the
                              ///< episode duration by simulate_fleet).
  double slo_latency_ms = 0.0;  ///< Per-request latency SLO; 0 disables.
  double min_accuracy = 0.0;    ///< Per-request accuracy SLO; 0 disables.
  int priority = 0;           ///< Higher survives admission shedding longer.
};

/// A shared power/thermal group whose fault rates co-spike.
struct FailureDomain {
  std::string name;
  /// Probability, per orchestrator tick, that a spike starts while the
  /// domain is calm (drawn from the domain's private stream every tick).
  double spike_prob = 0.0;
  double spike_duration_s = 5.0;
  /// Rate multipliers applied to member devices for the spike's duration:
  /// reconfig-failure/stall rates x `transient_mult`, SEU rates x
  /// `seu_mult` (spike end is quantized to the orchestrator cadence).
  double transient_mult = 1.0;
  double seu_mult = 1.0;
};

/// Fleet-level fault model (device-level faults live in EdgeScenario).
struct FleetFaultSpec {
  std::vector<FailureDomain> domains;
};

/// Per-device dynamic batching.
struct BatchingPolicy {
  bool enabled = false;
  int max_batch = 8;        ///< Flush when this many requests are buffered.
  double max_wait_ms = 5.0; ///< ... or when the oldest has waited this long.
  double setup_ms = 0.0;    ///< Batch-formation overhead, paid once/batch.
};

/// Watermark-driven priority shedding.
struct AdmissionPolicy {
  bool enabled = false;
  /// Fleet backlog fraction (waiting requests / aggregate queue capacity)
  /// above which the next-lowest tenant priority class is shed.
  double high_watermark = 0.80;
  /// Fraction below which the most recently shed class is readmitted.
  double low_watermark = 0.50;
};

/// Per-device circuit breaker thresholds.
struct CircuitBreakerPolicy {
  /// Consecutive failing orchestrator observations that open the breaker;
  /// 0 disables breakers entirely.
  int open_after_failures = 0;
  /// A device dark for longer than this past `now` counts as failing.
  double wedge_threshold_s = 2.0;
  /// Open holds for this long, then the next admission probe goes HalfOpen.
  double open_duration_s = 5.0;
  /// Requests admitted in HalfOpen before the next observation decides.
  int half_open_probes = 4;
};

/// Capacity-safe staggered reconfiguration.
struct StaggerPolicy {
  bool enabled = false;
  /// Hard invariant: a load is admitted only while the projected aggregate
  /// capacity of the fleet minus the requesting device stays at or above
  /// this fraction of the currently offered load — clamped to the fleet's
  /// current deliverable capacity, so a cold-starting or overloaded fleet
  /// (aggregate capacity already below floor x offered) can still roll out
  /// the capacity-growing reconfigurations one device at a time.
  double min_capacity_fraction = 0.70;
  /// Starvation override: a proposal deferred longer than this is admitted
  /// regardless (counted in FleetMetrics::forced_reconfigs), so a lone
  /// overloaded device cannot livelock behind its own capacity share.
  double max_defer_s = 10.0;
};

/// Full fleet scenario. `base` supplies the per-device knobs (sampling
/// cadence, queue capacity, watchdog, baseline FaultSpec) plus the episode
/// duration and the fleet seed; its workload fields are ignored — tenants
/// own arrival generation.
struct FleetScenario {
  EdgeScenario base;
  std::vector<FleetDeviceSpec> devices;
  std::vector<TenantSpec> tenants;
  FleetFaultSpec fleet_faults;
  BatchingPolicy batching;
  AdmissionPolicy admission;
  CircuitBreakerPolicy breaker;
  StaggerPolicy stagger;
  /// Orchestrator cadence: breaker observation, domain-spike draws,
  /// admission watermarks, ejection, capacity integration.
  double orchestrator_period_s = 1.0;
  /// JSQ stickiness: a tenant keeps its previous device while that backlog
  /// is within (1 + hysteresis) of the shortest queue.
  double balance_hysteresis = 0.25;
  /// Eject a device after this many watchdog recoveries; 0 disables.
  int eject_after_watchdog = 0;

  /// Parses the scenario from JSON (every field optional; unknown keys are
  /// errors surfaced through lint, not here). Used by `adapex_lint
  /// --fleet-scenario`.
  static FleetScenario from_json(const Json& j);
  Json to_json() const;
};

/// Seed of device `index` in a `device_count`-device fleet. A single-device
/// fleet consumes `fleet_seed` directly — its manager/fault streams are then
/// byte-identical to simulate_edge's — while larger fleets derive one
/// independent splitmix64 stream per device.
std::uint64_t fleet_device_seed(std::uint64_t fleet_seed, std::size_t index,
                                std::size_t device_count);

/// Validates the scenario without throwing: rules FS1-FS8 plus the embedded
/// base-scenario lint (ES*/RF*). One diagnostic per violation.
analysis::LintReport lint_fleet_scenario(const FleetScenario& scenario);
/// Library-aware overload (adds the RF6 mitigation check).
analysis::LintReport lint_fleet_scenario(const FleetScenario& scenario,
                                         const Library& library);
/// Throws ConfigError listing every violation; no-op on a valid scenario.
void require_valid_fleet_scenario(const FleetScenario& scenario);
void require_valid_fleet_scenario(const FleetScenario& scenario,
                                  const Library& library);

/// Per-device circuit breaker: Closed admits, Open rejects, HalfOpen admits
/// a bounded probe budget. Driven by observe() at orchestrator cadence and
/// admit() per routed request.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const CircuitBreakerPolicy& policy);

  /// One health observation. `failing` latches consecutive-failure counts;
  /// a clean observation closes a HalfOpen breaker and resets the count.
  void observe(bool failing, double now_s);
  /// Would a request routed now be admitted? (const: no probe consumed).
  bool would_admit(double now_s) const;
  /// Admits a request (consumes a HalfOpen probe; Open flips to HalfOpen
  /// once `open_duration_s` has elapsed). Returns false when rejected.
  bool admit(double now_s);

  State state() const { return state_; }
  int opens() const { return opens_; }

 private:
  CircuitBreakerPolicy policy_;
  State state_ = State::kClosed;
  int consecutive_failing_ = 0;
  int probes_left_ = 0;
  double opened_at_s_ = 0.0;
  int opens_ = 0;
};

const char* to_string(CircuitBreaker::State s);

/// Per-tenant serving outcome.
struct TenantMetrics {
  std::string name;
  long offered = 0;
  long served = 0;
  long dropped = 0;  ///< Lost at a device (queue overflow / wedge).
  long shed = 0;     ///< Rejected by admission control or unroutable.
  long slo_latency_violations = 0;
  long slo_accuracy_violations = 0;
  double avg_latency_ms = 0.0;
  double accuracy = 0.0;

  Json to_json() const;
};

/// Fleet-level results: struct-of-arrays over scalars, tenants, devices.
struct FleetMetrics {
  long offered = 0;
  long served = 0;
  long dropped = 0;
  long shed = 0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;
  /// 100 x (1 - pooled device dead time / (devices x duration)).
  double availability_pct = 100.0;
  /// Time integral of the unavailable capacity fraction (seconds of
  /// fleet-equivalent capacity lost), quantized to orchestrator ticks.
  double degraded_capacity_s = 0.0;
  long failovers = 0;           ///< Tenant rerouted off its sticky device.
  long stagger_deferrals = 0;   ///< Gate denials (stagger enabled only).
  long forced_reconfigs = 0;    ///< Starvation-override admissions.
  /// Admissions that went through while projected capacity was below the
  /// floor — counted identically with staggering on or off, so the two
  /// modes are directly comparable on the same trace.
  long capacity_violations = 0;
  /// Smallest projected-capacity/offered-load ratio seen at any admission;
  /// 999 when no reconfiguration was ever admitted under load.
  double min_capacity_fraction = 999.0;
  int domain_spikes = 0;
  /// Deepest simultaneous-unavailable-device count observed (correlated
  /// outage depth).
  int max_outage_depth = 0;
  int breaker_opens = 0;
  int ejections = 0;
  long events = 0;  ///< Discrete events processed (bench: events/second).
  double duration_s = 0.0;

  std::vector<TenantMetrics> tenants;
  std::vector<EdgeMetrics> devices;

  /// Fleet scalars + nested tenant/device arrays. Finiteness-checked.
  Json to_json() const;
  /// Fleet scalars only, fixed order matching csv_header().
  static std::string csv_header();
  std::string csv_row() const;
};

/// Runs one fleet episode. Deterministic for a fixed scenario: the event
/// core is sequential, so the result is byte-identical under any
/// ADAPEX_THREADS setting.
FleetMetrics simulate_fleet(const Library& library,
                            const RuntimePolicy& policy,
                            const FleetScenario& scenario);

/// Wraps a single-device scenario as a degenerate fleet: one device at
/// speed 1 inheriting the scenario seed, one tenant carrying the scenario's
/// workload, and every fleet-level mechanism disabled. simulate_edge is
/// simulate_fleet on the result (devices[0]).
FleetScenario fleet_from_edge(const EdgeScenario& scenario);

}  // namespace adapex
