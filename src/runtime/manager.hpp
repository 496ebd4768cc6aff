// AdaPEx Runtime Manager (paper section IV-B).
//
// Runs alongside the FINN host code: whenever the workload monitor flags a
// change, it searches the Library for the operating point — a (pruning
// rate, confidence threshold) pair — that satisfies the user's accuracy
// threshold with sufficient throughput for the incoming request rate.
// Changing the confidence threshold is free; changing the pruning rate
// switches accelerators and costs an FPGA reconfiguration.
//
// The baselines of section V are expressed as restrictions of the search
// space: PR-Only sees only the no-exit models (adapts pruning only),
// CT-Only sees only the unpruned early-exit model (adapts the threshold
// only), and static FINN is pinned to the unpruned no-exit model.
//
// Beyond the paper's happy path, the manager is an explicit resilience
// state machine over reconfiguration outcomes:
//
//           select() proposes accel switch
//   Healthy ───────────────────────────────► ReconfigPending
//      ▲                                          │
//      │ complete_reconfig(success)               │ complete_reconfig(fail)
//      ◄──────────────────────────────────────────┤
//      │                                          ▼
//      │        retry fails `degrade_after` times
//      │   Backoff ───────────────────────────► Degraded
//      │      │  capped exponential backoff        │ cooldown-gated probes
//      └──────┴────────── probe succeeds ──────────┘
//
// While in Backoff/Degraded the manager does not block: it gracefully
// degrades to confidence-threshold-only adaptation on the currently loaded
// bitstream (the CT-Only search restricted to the active accelerator) and
// only re-proposes a reconfiguration when the backoff timer / probe
// cooldown expires. Backoff delays get deterministic jitter from a
// splitmix64-derived stream so retries desynchronize reproducibly.
//
// Soft-error recovery adds a second entry path into that machinery: when
// the drift detector (runtime/monitor.hpp) reports accuracy/confidence
// drift via report_drift(), the manager first orders an on-demand
// configuration scrub (kScrubbing) when a scrubber is deployed, and
// escalates to a full bitstream reload (kReloadPending — the same
// reconfiguration mechanics, targeting the already-active accelerator) if
// drift persists or no scrubber exists. A failed reload enters the
// ordinary Backoff/Degraded retry schedule, and the owed reload survives
// the "failure became moot" heal path until a bitstream rewrite succeeds.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "common/error.hpp"
#include "library/library.hpp"
#include "runtime/monitor.hpp"

namespace adapex {

/// Adaptation policies evaluated in the paper.
enum class AdaptPolicy {
  kAdaPEx,     ///< Full search: pruning rate x confidence threshold.
  kPrOnly,     ///< Pruning rate only (single final exit).
  kCtOnly,     ///< Confidence threshold only (unpruned early-exit model).
  kStaticFinn, ///< No adaptation: original FINN accelerator.
};

const char* to_string(AdaptPolicy p);

/// Resilience states of the manager (see the diagram above).
enum class HealthState {
  kHealthy,         ///< Last reconfiguration (if any) succeeded.
  kReconfigPending, ///< A proposed accelerator switch awaits its outcome.
  kBackoff,         ///< Recent failure; retrying with exponential backoff.
  kDegraded,        ///< Failure latched; cooldown-gated probes only.
  kScrubbing,       ///< Drift reported; an on-demand scrub is repairing.
  kReloadPending,   ///< A drift-triggered bitstream reload awaits its outcome.
};

const char* to_string(HealthState s);

/// What the manager does while a reconfiguration keeps failing.
enum class FailurePolicy {
  /// Serve on the loaded bitstream with CT-only adaptation between retries.
  kGracefulDegrade,
  /// No fallback: retry at every opportunity; the accelerator stays dark
  /// until a load succeeds (the happy-path assumption made explicit — used
  /// as the baseline in bench_robustness).
  kBlockRetry,
};

const char* to_string(FailurePolicy p);

/// Retry schedule for failed reconfigurations.
struct BackoffPolicy {
  FailurePolicy on_failure = FailurePolicy::kGracefulDegrade;
  double initial_s = 0.5;  ///< Delay after the first failure.
  double multiplier = 2.0; ///< Growth per consecutive failure.
  double max_s = 8.0;      ///< Delay cap.
  /// Deterministic jitter: each delay is scaled by 1 +- U(jitter).
  double jitter = 0.25;
  /// Consecutive failures that latch kDegraded.
  int degrade_after = 3;
  /// Minimum spacing of reconfiguration probes while kDegraded.
  double probe_cooldown_s = 5.0;
};

/// Runtime configuration.
struct RuntimePolicy {
  AdaptPolicy policy = AdaptPolicy::kAdaPEx;
  /// Maximum tolerated accuracy loss relative to the library's reference
  /// accuracy (paper: 10%).
  double max_accuracy_loss = 0.10;
  /// Throughput safety margin: an entry is feasible when its IPS is at
  /// least `ips_headroom` times the measured workload, so the queue built
  /// up during a reconfiguration can drain afterwards.
  double ips_headroom = 1.10;
  /// Self-healing behaviour on reconfiguration failure.
  BackoffPolicy backoff{};
  /// Soft-error drift detection thresholds (runtime/monitor.hpp).
  DriftPolicy drift{};
};

/// Validates a policy without throwing; one diagnostic per bad field.
analysis::LintReport lint_runtime_policy(const RuntimePolicy& policy);

/// The manager's reaction to a workload sample.
struct Decision {
  int entry_index = -1;      ///< Active entry after the decision.
  /// The entry the manager tried to move to. Equal to entry_index on
  /// success; on a failed reconfiguration it keeps naming the target so
  /// traces stay interpretable.
  int attempted_index = -1;
  bool reconfigure = false;  ///< Accelerator (bitstream) change proposed.
  double reconfig_ms = 0.0;
  /// True when this attempt is a retry of an earlier failed switch.
  bool retry = false;
  /// The search was restricted to the loaded bitstream (CT-only fallback).
  bool degraded = false;
  /// Drift recovery: run an on-demand configuration scrub now.
  bool scrub = false;
  /// Drift recovery: `reconfigure`/`reconfig_ms` describe a reload of the
  /// already-active accelerator's bitstream rather than a switch.
  bool reload = false;
  HealthState state = HealthState::kHealthy;  ///< State after the decision.
};

/// Searches the library on workload changes and tracks the active point.
class RuntimeManager {
 public:
  /// `seed` drives only the backoff jitter stream; two managers with the
  /// same seed produce identical retry schedules.
  RuntimeManager(const Library& library, RuntimePolicy policy,
                 std::uint64_t seed = 0);

  /// Re-evaluates the operating point for the measured workload (IPS).
  /// `now_s` is the caller's clock, used to gate retries; callers that
  /// never report failures (the paper's happy path) may omit it.
  Decision select(double workload_ips, double now_s = 0.0);

  /// Reports the outcome of the reconfiguration proposed by the last
  /// select(). On failure the active entry rolls back to the loaded
  /// bitstream and the retry schedule engages. A caller that never reports
  /// (fire-and-forget, the pre-fault behaviour) is treated as success on
  /// its next select().
  void complete_reconfig(bool success, double now_s);

  /// Clears any retry gate so the next select() may probe immediately
  /// (the edge watchdog's recovery hammer).
  void force_probe();

  /// Rolls back a reconfiguration proposed by the last select() /
  /// report_drift() that was never attempted — e.g. vetoed by a fleet
  /// orchestrator staggering loads. The active entry returns to the loaded
  /// bitstream and the health state to its pre-proposal value. Unlike
  /// complete_reconfig(false), no failure is recorded and no backoff
  /// engages: the proposal simply never happened, and a later select() may
  /// re-propose it.
  void cancel_reconfig();

  /// Reports accuracy/confidence drift on the served stream. When healthy
  /// and `scrub_available`, orders an on-demand configuration scrub
  /// (cheapest repair first); when drift persists through a scrub — or no
  /// scrubber is deployed — proposes a bitstream reload of the active
  /// accelerator through the normal reconfiguration protocol (report the
  /// outcome with complete_reconfig; failures back off as usual, and the
  /// owed reload is re-proposed at every retry window until a rewrite
  /// succeeds). While an outcome is already pending, or a retry is already
  /// scheduled, returns a no-op decision.
  Decision report_drift(double now_s, bool scrub_available);

  /// Reports a clean post-scrub observation window: the scrub repaired the
  /// drift, so kScrubbing returns to kHealthy. No-op in other states.
  void drift_cleared();

  /// Active operating point. Throws Error with a clear message when called
  /// before the first select() has chosen one. Inline: the fleet balancer
  /// reads it for every device on every arrival.
  const LibraryEntry& current() const {
    ADAPEX_CHECK(current_index_ >= 0,
                 "RuntimeManager::current() called before the first select() "
                 "chose an operating point — call select(workload_ips) first");
    return library_->entries[static_cast<std::size_t>(current_index_)];
  }
  bool has_selection() const { return current_index_ >= 0; }

  const Library& library() const { return *library_; }

  HealthState state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }
  /// Earliest time select() will re-propose a reconfiguration; 0 when no
  /// retry is pending.
  double next_retry_s() const { return next_retry_s_; }

  /// Entry indices this policy may use (exposed for tests/benches).
  const std::vector<int>& eligible() const { return eligible_; }

 private:
  int search(double workload_ips, bool restricted) const;

  const Library* library_;
  RuntimePolicy policy_;
  std::vector<int> eligible_;
  int current_index_ = -1;
  int loaded_index_ = -1;  ///< Entry on the loaded bitstream during pending.
  HealthState state_ = HealthState::kHealthy;
  /// State to restore if a pending proposal is cancelled unattempted.
  HealthState pre_pending_state_ = HealthState::kHealthy;
  int consecutive_failures_ = 0;
  double next_retry_s_ = 0.0;
  /// A drift-triggered reload is owed: kept across failed attempts (and the
  /// moot-heal path) until some bitstream rewrite succeeds.
  bool reload_needed_ = false;
  std::uint64_t jitter_state_;  ///< splitmix64 stream for backoff jitter.
};

}  // namespace adapex
