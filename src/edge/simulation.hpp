// Edge inference-serving simulation (paper section V).
//
// Models the smart-video-surveillance scenario: N cameras offload frames to
// a local edge server with one FINN-style FPGA accelerator. Requests arrive
// as a Poisson process whose rate deviates randomly every few seconds; the
// server queues requests (finite buffer — overflow is the paper's
// "inference loss"), serves them at the active operating point's
// throughput, and pays a dead interval on every FPGA reconfiguration.
// The Runtime Manager samples the measured arrival rate periodically and
// may switch the operating point.
//
// The simulation also exercises the failure modes the paper leaves out:
// `EdgeScenario::faults` injects reconfiguration failures/slowdowns,
// transient accelerator stalls, and monitor dropouts (runtime/faults.hpp),
// all deterministic for a fixed seed; a watchdog detects serving stalls (no
// completions for `watchdog_periods` sampling periods despite backlog) and
// forces recovery. With every fault probability at zero the episode is
// byte-identical to the fault-free simulation.
//
// Soft errors ride the same injector: per sampling tick, upsets may land in
// weight memory (silent TOP-1 degradation) or configuration memory
// (wrong-class outputs, exit-confidence corruption, pipeline hangs). The
// deployed mitigations (FaultSpec::mitigation) act where real hardware
// would: ECC corrects weight upsets on read, TMR out-votes corrupted exit
// heads, periodic scrubbing repairs configuration memory at the cost of
// scrub dark time, and the drift detector (runtime/monitor.hpp) catches
// what slips through — triggering scrub-then-reload recovery through the
// RuntimeManager's backoff machinery. At zero SEU rates none of this code
// perturbs the episode.
//
// Metrics mirror Table I and Figure 6: inference loss %, delivered
// accuracy, average latency, average power, energy, EDP, and QoE
// (accuracy x fraction of processed frames) — plus robustness
// observability: failed/retried reconfigurations, degraded time, recovery
// latency, availability, SLO violations, and the soft-error ledger
// (injected/corrected/detected/undetected upsets, silent corruptions,
// detection latency, scrub overhead, post-recovery accuracy).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "edge/workload.hpp"
#include "runtime/faults.hpp"
#include "runtime/manager.hpp"

namespace adapex {

/// Scenario parameters (defaults follow the paper's methodology).
struct EdgeScenario {
  int cameras = 20;
  double ips_per_camera = 30.0;
  double duration_s = 25.0;
  /// Workload deviates by +-`deviation` at every `deviation_period_s`.
  double deviation = 0.30;
  double deviation_period_s = 5.0;
  /// Runtime manager sampling cadence.
  double sample_period_s = 0.5;
  /// The manager re-searches the library only when the measured workload
  /// moved by more than this fraction since the last decision ("whenever a
  /// change in the workload is flagged", paper section IV-B). Prevents
  /// reconfiguration thrash on sampling noise.
  double reselect_threshold = 0.15;
  /// Request buffer capacity (requests waiting; overflow is dropped).
  int queue_capacity = 60;
  /// Arrival-rate pattern (paper default: random deviation). Flash-crowd
  /// and diurnal patterns are used by examples and robustness ablations.
  WorkloadPattern pattern = WorkloadPattern::kRandomDeviation;
  double spike_start_s = 10.0;
  double spike_duration_s = 5.0;
  double spike_multiplier = 2.0;
  std::uint64_t seed = 1;
  /// Injected fault probabilities (all zero: the fault-free paper setup).
  FaultSpec faults;
  /// Watchdog: sampling periods without a completed request, despite queue
  /// occupancy, before serving is forcibly recovered.
  int watchdog_periods = 8;

  double offered_ips() const { return cameras * ips_per_camera; }
};

/// Validates the scenario without throwing; one diagnostic per bad field
/// (includes the fault-spec lint).
analysis::LintReport lint_edge_scenario(const EdgeScenario& scenario);

/// Library-aware overload: additionally checks the scenario's mitigations
/// against the library (RF6). simulate_edge and simulate_fleet use this one.
analysis::LintReport lint_edge_scenario(const EdgeScenario& scenario,
                                        const Library& library);

/// One sampling-tick snapshot (drives the Figure 3 runtime trace).
struct TracePoint {
  double time_s = 0.0;
  double measured_ips = 0.0;
  int prune_rate_pct = 0;
  int conf_threshold_pct = 0;
  double entry_accuracy = 0.0;
  bool reconfigured = false;
  /// Robustness annotations (all default in fault-free episodes).
  HealthState health = HealthState::kHealthy;
  bool reconfig_failed = false;
  bool degraded = false;
  bool watchdog_fired = false;
  /// Soft-error annotations (all default at zero SEU rates).
  bool seu_upset = false;       ///< An upset was injected this tick.
  bool drift_detected = false;  ///< The drift detector fired this tick.
  bool scrubbed = false;        ///< A configuration scrub ran this tick.
  bool reloaded = false;        ///< A recovery bitstream reload succeeded.
};

/// Aggregated episode results. Every scalar is one row of the EdgeMetrics
/// field table (edge/metric_fields.hpp), which drives the writers and
/// simulate_edge_runs' pooling.
struct EdgeMetrics {
  long offered = 0;
  long served = 0;
  long dropped = 0;

  double inference_loss_pct = 0.0;
  double accuracy = 0.0;       ///< Mean accuracy of served requests.
  double avg_latency_ms = 0.0; ///< Queue wait + pipeline latency.
  double avg_power_w = 0.0;
  double energy_j = 0.0;
  double energy_per_inf_j = 0.0;
  double edp = 0.0;            ///< energy_per_inf * avg_latency (J*s).
  double qoe = 0.0;            ///< accuracy * fraction served.
  int reconfigurations = 0;    ///< Successful bitstream switches.

  // Robustness observability (DESIGN.md "Fault model & self-healing
  // runtime"). All zero / 100% in fault-free episodes.
  int reconfig_failures = 0;   ///< Failed bitstream-load attempts.
  int reconfig_retries = 0;    ///< Attempts that were retries of a failure.
  int slow_reconfigs = 0;      ///< Loads stretched by the slow fault.
  int stalls = 0;              ///< Injected transient accelerator stalls.
  int monitor_dropped = 0;     ///< Monitor samples lost.
  int monitor_delayed = 0;     ///< Monitor samples delivered a period late.
  int watchdog_recoveries = 0; ///< Forced recoveries of wedged serving.
  int recoveries = 0;          ///< Failure episodes that ended recovered.
  double recovery_latency_s = 0.0; ///< Total first-failure-to-recovery time.
  double degraded_time_s = 0.0;    ///< Time with the manager not Healthy.
  double dead_time_s = 0.0;        ///< Accelerator dark time (reconfig
                                   ///< attempts, stalls, blocked retries).
  double availability_pct = 100.0; ///< 100 x (1 - dead_time / duration).
  long slo_violations = 0;         ///< Sampling periods with >= 1 drop.

  // Soft-error observability (DESIGN.md "Soft-error model & mitigation").
  // All zero at zero SEU rates.
  int seu_weight_upsets = 0;   ///< Injected weight-memory upsets.
  int seu_config_upsets = 0;   ///< Injected config/FIFO-memory upsets.
  int seu_corrected = 0;       ///< Masked on the spot by ECC / TMR.
  int seu_detected = 0;        ///< Caught (ECC, TMR, scrub, drift, watchdog).
  int seu_undetected = 0;      ///< Never caught by the detection machinery
                               ///< (repaired incidentally or episode end).
  long silent_corruptions = 0; ///< Requests served while an uncaught
                               ///< corrupting upset was active.
  double seu_detection_latency_s = 0.0; ///< Injection-to-detection, summed
                                        ///< over non-immediate detections.
  int drift_detections = 0;    ///< Drift-detector firings.
  int seu_scrubs = 0;          ///< Scrub passes (periodic + on demand).
  int seu_reloads = 0;         ///< Recovery bitstream reloads that succeeded.
  double scrub_overhead_s = 0.0;        ///< Dark time spent scrubbing.
  double post_recovery_accuracy = 0.0;  ///< Mean served accuracy after the
                                        ///< last SEU recovery (0 when none).
  long post_recovery_served = 0;        ///< Requests that mean is over.
  /// Simulated episode length backing the time-based ratios (availability,
  /// average power). simulate_edge_runs sums it across episodes so pooled
  /// ratios stay duration-weighted.
  double duration_s = 0.0;

  std::vector<TracePoint> trace;

  /// Every scalar metric as one JSON object. Asserts each value is finite:
  /// NaN/Inf must never reach a serialized artifact.
  Json to_json() const;
  /// CSV over the same scalars, in the same order, with the same
  /// finiteness guarantee.
  static std::string csv_header();
  std::string csv_row() const;
};

/// Recomputes the six ratio metrics (inference_loss_pct, avg_power_w,
/// energy_per_inf_j, edp, qoe, availability_pct) from the counters, energy,
/// dead time, duration, accuracy and latency already in `m`. One episode
/// (DeviceSim::finalize) and a pool of episodes (simulate_edge_runs) share
/// it.
void derive_ratios(EdgeMetrics& m);

/// Runs one episode with the given policy over the library: a size-1 fleet,
/// simulate_fleet(library, policy, fleet_from_edge(scenario)).devices[0]
/// (edge/fleet.hpp).
EdgeMetrics simulate_edge(const Library& library, const RuntimePolicy& policy,
                          const EdgeScenario& scenario);

/// Aggregates `runs` episodes (seeds seed, seed+1, ...) by pooling rather
/// than averaging per-episode ratios, field by field as the EdgeMetrics
/// table says: counters, energy, times and duration_s are summed; accuracy
/// and latency are means over the pooled served requests, and
/// post_recovery_accuracy over the pooled post-recovery requests; the
/// ratios are then recomputed by derive_ratios from the pooled sums. So
/// episodes of different lengths or traffic volumes count by what they
/// actually served and simulated, and an episode that never recovered does
/// not dilute the post-recovery mean. Traces are kept only for the first
/// episode.
EdgeMetrics simulate_edge_runs(const Library& library,
                               const RuntimePolicy& policy,
                               const EdgeScenario& scenario, int runs);

/// Scales the scenario's per-camera rate so the total offered load is
/// `ratio` times the throughput of the static FINN operating point in the
/// library — the paper's regime, where the unpruned accelerator loses ~23%
/// of requests while AdaPEx can keep up. Keeps the camera count.
EdgeScenario scale_to_library(EdgeScenario scenario, const Library& library,
                              double ratio = 1.30);

}  // namespace adapex
