// Single-device serving simulator: the per-device core the fleet simulator
// (edge/fleet.hpp) runs N of behind one event queue; simulate_edge is a
// fleet of one.
//
// A DeviceSim owns one device's serving state: the RuntimeManager +
// FaultInjector pair, the single-server FIFO clock, the workload monitor,
// the drift detector, the soft-error ledger, and the EdgeMetrics
// accumulator. The caller owns the clock: it feeds arrivals (on_arrival /
// serve_batch) and sampling ticks (on_tick) in nondecreasing time order and
// closes the episode with finalize().
//
// Three hooks serve the fleet layer and are inert at their defaults, so a
// size-1 fleet that installs none reproduces a single-device episode:
//   - a reconfiguration gate: consulted before any bitstream load attempt;
//     a denial rolls the manager proposal back (cancel_reconfig — no
//     failure recorded, no backoff) and re-proposes on later ticks, which
//     lets the fleet orchestrator stagger reconfigurations fleet-wide;
//   - fault-rate scaling: forwards to FaultInjector::set_rate_scale so
//     correlated failure domains can co-spike reconfig-failure and SEU
//     rates without perturbing any draw sequence (scale 1.0 is exact);
//   - a speed factor: models heterogeneous fabric clocks; the manager
//     searches in device-normalized rate space and service/latency scale
//     accordingly (factor 1.0 is floating-point exact).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "edge/simulation.hpp"
#include "runtime/faults.hpp"
#include "runtime/manager.hpp"
#include "runtime/monitor.hpp"

namespace adapex {

/// Result of offering one request to a device.
struct ArrivalOutcome {
  bool served = false;
  double latency_ms = 0.0;  ///< Queue wait + pipeline latency (served only).
  double accuracy = 0.0;    ///< Effective accuracy delivered (served only).
};

/// One reconfiguration attempt asking the fleet orchestrator for admission.
struct ReconfigRequest {
  double now_s = 0.0;
  double dead_s = 0.0;            ///< Nominal dark time of the load.
  double deferred_since_s = -1.0; ///< First denial of this proposal; < 0 on
                                  ///< the first ask.
};

/// Returns true to admit the reconfiguration now, false to defer it.
using ReconfigGate = std::function<bool(const ReconfigRequest&)>;

class DeviceSim {
 public:
  /// `scenario.seed` is this device's episode seed (the fleet derives one
  /// per device); the workload fields of the scenario are ignored — the
  /// caller owns arrival generation. The manager starts on the most
  /// accurate eligible point, exactly like simulate_edge.
  DeviceSim(const Library& library, const RuntimePolicy& policy,
            const EdgeScenario& scenario);

  // ---- Fleet hooks (inert at defaults) ----

  /// Gate consulted before every bitstream-load attempt. On denial the
  /// proposal is cancelled (no failure counted, no backoff) and re-proposed
  /// on subsequent ticks until admitted.
  void set_reconfig_gate(ReconfigGate gate) { gate_ = std::move(gate); }

  /// Correlated-failure scaling: multiplies reconfig-failure/stall rates by
  /// `transient` and SEU rates by `seu` (clamped to probability 1).
  void set_fault_scale(double transient, double seu) {
    injector_.set_rate_scale(transient, seu);
  }

  /// Heterogeneous fabric clock: entry throughput is multiplied and entry
  /// latency divided by `factor`. Must be positive.
  void set_speed_factor(double factor);

  // ---- Episode drive (times must be fed in nondecreasing order) ----

  /// One request arriving at `t`: monitor count + immediate dispatch (the
  /// unbatched path).
  ArrivalOutcome on_arrival(double t);

  /// Monitor-counts an arrival without dispatching it (fleet batching
  /// buffers the request; serve it later via serve_batch).
  void note_arrival();

  /// Dispatches a buffered batch at `now`. `arrival_times` are the batched
  /// requests' original arrival times (nondecreasing, all <= now); the
  /// first admitted request pays `setup_s` of batch-formation overhead.
  /// note_arrival() must already have counted each request.
  std::vector<ArrivalOutcome> serve_batch(
      double now, double setup_s, const std::vector<double>& arrival_times);

  /// One manager sampling tick at `now`: fault/SEU draws, scrubbing,
  /// monitor sample, adaptation decision, drift detection, watchdog, SLO
  /// accounting, trace point.
  void on_tick(double now);

  /// Closes the episode: final energy integration, soft-error flush, ratio
  /// metrics, availability. Call exactly once, after the last event.
  void finalize(double duration_s);

  // ---- Observability (used by the fleet balancer / orchestrator) ----

  EdgeMetrics& metrics() { return metrics_; }
  const EdgeMetrics& metrics() const { return metrics_; }

  /// Requests currently waiting or in service if dispatched at `now`.
  double backlog_requests(double now) const;
  /// Time the device's backlog (and any dark window) clears.
  double server_free() const { return server_free_; }
  /// Scheduled end of accelerator dark time (reconfig/stall/scrub/wedge).
  double dark_until() const { return dark_until_; }
  /// True while a config-memory hang wedges the pipeline.
  bool wedged() const { return hang_active_; }
  /// Active entry's delivered throughput (speed-scaled), requests/s.
  double current_ips() const;
  /// Active entry's effective accuracy under the live upset set.
  double current_accuracy() const { return effective_accuracy(manager_.current()); }
  HealthState health() const { return manager_.state(); }
  int consecutive_failures() const { return manager_.consecutive_failures(); }
  int watchdog_recoveries() const { return metrics_.watchdog_recoveries; }
  /// A gate-denied reconfiguration is waiting to be re-proposed.
  bool reconfig_deferred() const { return deferred_reconfig_; }
  const RuntimeManager& manager() const { return manager_; }

 private:
  ArrivalOutcome serve_one(double t, double dispatch_s);
  void account_energy(double upto, const LibraryEntry& e);
  double first_exit_fraction(const LibraryEntry& e) const;
  double effective_accuracy(const LibraryEntry& e) const;
  double effective_first_exit(const LibraryEntry& e) const;
  std::size_t undetected_active() const;
  void detect_active(double now);
  void do_scrub(double now, TracePoint& tp);
  void apply_decision(Decision& d, double now, TracePoint& tp);

  EdgeScenario scenario_;
  RuntimePolicy policy_;
  const Library* library_;
  RuntimeManager manager_;
  FaultInjector injector_;
  WorkloadMonitor monitor_;
  EdgeMetrics metrics_;

  ReconfigGate gate_;
  double speed_ = 1.0;
  bool deferred_reconfig_ = false;
  double deferred_since_ = 0.0;

  // Single-server FIFO + energy integration.
  double server_free_ = 0.0;
  double latency_sum_ms_ = 0.0;
  double accuracy_sum_ = 0.0;
  double energy_j_ = 0.0;
  double busy_until_ = 0.0;
  double last_power_checkpoint_ = 0.0;
  double static_w_ = 0.0;

  // Robustness bookkeeping.
  double failing_since_ = -1.0;
  double dark_until_ = 0.0;
  long last_served_ = 0;
  long dropped_at_last_tick_ = 0;
  int stagnant_ticks_ = 0;
  bool has_delayed_ = false;
  double delayed_rate_ = 0.0;

  // Soft-error state.
  int weight_upsets_active_ = 0;
  int config_wrong_active_ = 0;
  int exit_corrupt_active_ = 0;
  bool hang_active_ = false;
  std::vector<double> undetected_weight_times_;
  std::vector<double> undetected_config_times_;
  double next_scrub_s_ = 0.0;
  DriftDetector detector_;
  const LibraryEntry* drift_expect_entry_ = nullptr;
  bool had_seu_recovery_ = false;
  double post_recovery_acc_sum_ = 0.0;
  long post_recovery_served_ = 0;
};

}  // namespace adapex
