#include "runtime/manager.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace adapex {

namespace {

// Stream identifier for the backoff-jitter splitmix64 stream.
constexpr std::uint64_t kJitterStream = 0xB0FF;

}  // namespace

const char* to_string(AdaptPolicy p) {
  switch (p) {
    case AdaptPolicy::kAdaPEx: return "AdaPEx";
    case AdaptPolicy::kPrOnly: return "PR-Only";
    case AdaptPolicy::kCtOnly: return "CT-Only";
    case AdaptPolicy::kStaticFinn: return "FINN";
  }
  return "?";
}

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kReconfigPending: return "reconfig-pending";
    case HealthState::kBackoff: return "backoff";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kScrubbing: return "scrubbing";
    case HealthState::kReloadPending: return "reload-pending";
  }
  return "?";
}

const char* to_string(FailurePolicy p) {
  switch (p) {
    case FailurePolicy::kGracefulDegrade: return "graceful-degrade";
    case FailurePolicy::kBlockRetry: return "block-retry";
  }
  return "?";
}

analysis::LintReport lint_runtime_policy(const RuntimePolicy& policy) {
  analysis::LintReport report;
  analysis::SpecCheck c(report, "runtime-policy");
  c.within("RP1", "max_accuracy_loss", policy.max_accuracy_loss, 0.0, 1.0,
           "express the accuracy budget as a fraction");
  c.positive("RP2", "ips_headroom", policy.ips_headroom,
             "use a multiplier >= 1 to leave drain margin");
  const BackoffPolicy& b = policy.backoff;
  c.positive("RP3", "backoff.initial_s", b.initial_s,
             "the first retry needs a positive delay");
  c.at_least("RP4", "backoff.multiplier", b.multiplier, 1.0,
             "exponential backoff must not shrink");
  c.at_least("RP5", "backoff.max_s", b.max_s, b.initial_s,
             "the cap must cover the first delay");
  c.within("RP6", "backoff.jitter", b.jitter, 0.0, 1.0,
           "jitter is a +- fraction of the delay", analysis::Ends::kOpenHigh);
  c.at_least("RP7", "backoff.degrade_after", b.degrade_after, 1,
             "at least one failure must precede Degraded");
  c.non_negative("RP8", "backoff.probe_cooldown_s", b.probe_cooldown_s,
                 "use a non-negative cooldown");
  const DriftPolicy& dr = policy.drift;
  const char* window = "need window >= 1 and min_samples in [1, window]";
  (void)(c.at_least("RP9", "drift.window", dr.window, 1, window) &&
         c.within("RP9", "drift.min_samples", dr.min_samples, 1, dr.window,
                  window));
  c.within("RP10", "drift.accuracy_tolerance", dr.accuracy_tolerance, 0.0,
           1.0, "a zero tolerance would fire on numerical noise",
           analysis::Ends::kOpenLow);
  c.within("RP11", "drift.exit_rate_tolerance", dr.exit_rate_tolerance, 0.0,
           1.0, "a zero tolerance would fire on numerical noise",
           analysis::Ends::kOpenLow);
  return report;
}

RuntimeManager::RuntimeManager(const Library& library, RuntimePolicy policy,
                               std::uint64_t seed)
    : library_(&library),
      policy_(policy),
      jitter_state_(derive_seed(seed, kJitterStream)) {
  lint_runtime_policy(policy).throw_if_errors();
  ADAPEX_CHECK(!library.entries.empty(), "empty library");
  for (std::size_t i = 0; i < library.entries.size(); ++i) {
    const LibraryEntry& e = library.entries[i];
    bool ok = false;
    switch (policy.policy) {
      case AdaptPolicy::kAdaPEx:
        // The full co-optimized space: every early-exit operating point
        // (both exit-pruning variants, all rates, all thresholds).
        ok = e.variant != ModelVariant::kNoExit;
        break;
      case AdaptPolicy::kPrOnly:
        ok = e.variant == ModelVariant::kNoExit;
        break;
      case AdaptPolicy::kCtOnly:
        ok = e.variant == ModelVariant::kNotPrunedExits &&
             e.prune_rate_pct == 0;
        break;
      case AdaptPolicy::kStaticFinn:
        ok = e.variant == ModelVariant::kNoExit && e.prune_rate_pct == 0;
        break;
    }
    if (ok) eligible_.push_back(static_cast<int>(i));
  }
  ADAPEX_CHECK(!eligible_.empty(),
               std::string("library has no entries for policy ") +
                   to_string(policy.policy));
}

int RuntimeManager::search(double workload_ips, bool restricted) const {
  const double min_accuracy =
      library_->reference_accuracy * (1.0 - policy_.max_accuracy_loss);
  // Degraded mode: only points on the loaded bitstream (free CT switches).
  const int active_accel =
      restricted
          ? library_->entries[static_cast<std::size_t>(current_index_)].accel_id
          : -1;
  auto allowed = [&](int idx) {
    return !restricted ||
           library_->entries[static_cast<std::size_t>(idx)].accel_id ==
               active_accel;
  };

  // Paper rule: among entries above the accuracy threshold with sufficient
  // throughput, pick the most accurate (ties: least energy). If nothing
  // sustains the workload, fall back to the fastest accuracy-OK entry
  // (best effort); if nothing clears the accuracy bar at all, pick the most
  // accurate entry regardless.
  int best = -1;
  bool best_feasible = false;
  auto better = [&](const LibraryEntry& a, const LibraryEntry& b) {
    if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
    return a.energy_per_inf_j < b.energy_per_inf_j;
  };
  for (int idx : eligible_) {
    if (!allowed(idx)) continue;
    const LibraryEntry& e = library_->entries[static_cast<std::size_t>(idx)];
    if (e.accuracy < min_accuracy) continue;
    const bool feasible = e.ips >= workload_ips * policy_.ips_headroom;
    if (best < 0) {
      best = idx;
      best_feasible = feasible;
      continue;
    }
    const LibraryEntry& b = library_->entries[static_cast<std::size_t>(best)];
    if (feasible && !best_feasible) {
      best = idx;
      best_feasible = true;
    } else if (feasible == best_feasible) {
      const bool prefer =
          feasible ? better(e, b)
                   // Best effort: maximize throughput, then accuracy.
                   : (e.ips != b.ips ? e.ips > b.ips : better(e, b));
      if (prefer) best = idx;
    }
  }
  if (best < 0) {
    // Nothing clears the accuracy bar: degrade gracefully to the most
    // accurate allowed entry.
    for (int idx : eligible_) {
      if (!allowed(idx)) continue;
      if (best < 0 ||
          better(library_->entries[static_cast<std::size_t>(idx)],
                 library_->entries[static_cast<std::size_t>(best)])) {
        best = idx;
      }
    }
  }
  ADAPEX_ASSERT(best >= 0);
  return best;
}

Decision RuntimeManager::select(double workload_ips, double now_s) {
  // A caller that never reports outcomes (the pre-fault fire-and-forget
  // protocol) implies the previous switch — or reload — took effect.
  if (state_ == HealthState::kReconfigPending ||
      state_ == HealthState::kReloadPending) {
    state_ = HealthState::kHealthy;
    consecutive_failures_ = 0;
    loaded_index_ = current_index_;
    reload_needed_ = false;
  }

  const bool failing = state_ == HealthState::kBackoff ||
                       state_ == HealthState::kDegraded;
  // kBlockRetry never degrades: every opportunity is a retry window.
  const bool retry_window =
      failing && (policy_.backoff.on_failure == FailurePolicy::kBlockRetry ||
                  now_s + 1e-12 >= next_retry_s_);
  const bool restricted = failing && !retry_window;

  const int best = search(workload_ips, restricted);

  Decision d;
  d.attempted_index = best;
  d.degraded = restricted;

  const bool accel_changed =
      current_index_ < 0 ||
      library_->entries[static_cast<std::size_t>(best)].accel_id !=
          library_->entries[static_cast<std::size_t>(current_index_)].accel_id;
  d.reconfigure = current_index_ >= 0 && accel_changed;
  if (d.reconfigure) {
    d.reconfig_ms =
        library_
            ->accelerator(
                library_->entries[static_cast<std::size_t>(best)].accel_id)
            .reconfig_ms;
    d.retry = consecutive_failures_ > 0;
    loaded_index_ = current_index_;
    // Optimistic commit: complete_reconfig(false) rolls back to the loaded
    // bitstream; success (or silence) confirms it.
    current_index_ = best;
    pre_pending_state_ = state_;
    state_ = HealthState::kReconfigPending;
  } else {
    current_index_ = best;
    if (current_index_ >= 0 && loaded_index_ < 0) loaded_index_ = best;
    if (failing && retry_window) {
      if (reload_needed_) {
        // The search is content with the loaded accelerator, but a
        // drift-triggered reload is still owed: the bitstream must be
        // rewritten before the manager can heal. Retry the reload.
        d.reload = true;
        d.reconfigure = true;
        d.reconfig_ms =
            library_
                ->accelerator(library_
                                  ->entries[static_cast<std::size_t>(
                                      current_index_)]
                                  .accel_id)
                .reconfig_ms;
        d.retry = consecutive_failures_ > 0;
        loaded_index_ = current_index_;
        pre_pending_state_ = state_;
        state_ = HealthState::kReloadPending;
      } else {
        // The full search no longer wants another accelerator: the failed
        // switch became moot, so the manager is healthy again.
        state_ = HealthState::kHealthy;
        consecutive_failures_ = 0;
        next_retry_s_ = 0.0;
      }
    }
  }
  d.entry_index = current_index_;
  d.state = state_;
  return d;
}

void RuntimeManager::complete_reconfig(bool success, double now_s) {
  ADAPEX_CHECK(state_ == HealthState::kReconfigPending ||
                   state_ == HealthState::kReloadPending,
               "complete_reconfig without a pending reconfiguration");
  if (success) {
    state_ = HealthState::kHealthy;
    consecutive_failures_ = 0;
    next_retry_s_ = 0.0;
    loaded_index_ = current_index_;
    // Any bitstream rewrite — switch or reload — settles an owed reload.
    reload_needed_ = false;
    return;
  }
  // The bitstream never changed: roll back to the loaded operating point.
  current_index_ = loaded_index_;
  ++consecutive_failures_;
  const BackoffPolicy& b = policy_.backoff;
  if (b.on_failure == FailurePolicy::kBlockRetry) {
    state_ = HealthState::kBackoff;
    next_retry_s_ = now_s;  // retry at the next opportunity
    return;
  }
  if (consecutive_failures_ >= b.degrade_after) {
    state_ = HealthState::kDegraded;
    next_retry_s_ = now_s + b.probe_cooldown_s;
  } else {
    // Capped exponential delay with deterministic jitter in [1-j, 1+j].
    double delay = b.initial_s;
    for (int i = 1; i < consecutive_failures_; ++i) delay *= b.multiplier;
    delay = std::min(delay, b.max_s);
    const double u =
        static_cast<double>(splitmix64_next(jitter_state_) >> 11) * 0x1.0p-53;
    delay *= 1.0 + b.jitter * (2.0 * u - 1.0);
    state_ = HealthState::kBackoff;
    next_retry_s_ = now_s + delay;
  }
}

void RuntimeManager::force_probe() { next_retry_s_ = 0.0; }

void RuntimeManager::cancel_reconfig() {
  ADAPEX_CHECK(state_ == HealthState::kReconfigPending ||
                   state_ == HealthState::kReloadPending,
               "cancel_reconfig without a pending reconfiguration");
  // The load was never attempted: undo the optimistic commit and return to
  // the pre-proposal state. Failure counters, the retry schedule, and any
  // owed reload are untouched — this is a veto, not an outcome.
  current_index_ = loaded_index_;
  state_ = pre_pending_state_;
}

Decision RuntimeManager::report_drift(double now_s, bool scrub_available) {
  (void)now_s;  // kept for symmetry with select(); retries are time-gated
                // only once a reload attempt has actually failed.
  ADAPEX_CHECK(current_index_ >= 0,
               "report_drift before the first select() chose an operating "
               "point");
  Decision d;
  d.entry_index = current_index_;
  d.attempted_index = current_index_;
  d.state = state_;
  switch (state_) {
    case HealthState::kReconfigPending:
    case HealthState::kReloadPending:
      // An outcome is already owed; its rewrite will repair the drift.
      return d;
    case HealthState::kBackoff:
    case HealthState::kDegraded:
      // A retry is already scheduled. Make sure it rewrites the bitstream
      // even if the workload search heals ("moot") before it fires.
      reload_needed_ = true;
      return d;
    case HealthState::kHealthy:
      if (scrub_available) {
        // Cheapest repair first: an on-demand configuration scrub. If the
        // next observation window still drifts, the caller reports again
        // and kScrubbing escalates to a reload below.
        d.scrub = true;
        state_ = HealthState::kScrubbing;
        d.state = state_;
        return d;
      }
      break;
    case HealthState::kScrubbing:
      break;
  }
  // Scrub already tried (or no scrubber deployed): reload the active
  // accelerator's bitstream through the ordinary reconfiguration protocol.
  d.reload = true;
  d.reconfigure = true;
  d.reconfig_ms =
      library_
          ->accelerator(
              library_->entries[static_cast<std::size_t>(current_index_)]
                  .accel_id)
          .reconfig_ms;
  d.retry = consecutive_failures_ > 0;
  loaded_index_ = current_index_;
  reload_needed_ = true;
  pre_pending_state_ = state_;
  state_ = HealthState::kReloadPending;
  d.state = state_;
  return d;
}

void RuntimeManager::drift_cleared() {
  if (state_ == HealthState::kScrubbing) {
    state_ = HealthState::kHealthy;
    reload_needed_ = false;
  }
}

}  // namespace adapex
