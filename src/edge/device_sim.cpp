#include "edge/device_sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace adapex {

namespace {

// Stream identifier for the manager's decision RNG (derive_seed), distinct
// from the fault streams so fault toggles never perturb decisions.
constexpr std::uint64_t kManagerStream = 0x4A17;

}  // namespace

DeviceSim::DeviceSim(const Library& library, const RuntimePolicy& policy,
                     const EdgeScenario& scenario)
    : scenario_(scenario),
      policy_(policy),
      library_(&library),
      manager_(library, policy, derive_seed(scenario.seed, kManagerStream)),
      injector_(scenario.faults, scenario.seed),
      monitor_(WorkloadMonitor::Options{1.0, scenario.reselect_threshold}),
      detector_(policy.drift) {
  // Start from the most accurate eligible point (low workload assumption).
  manager_.select(0.0, 0.0);
  static_w_ = library.static_power_w;
  next_scrub_s_ = scenario.faults.mitigation.scrubbing
                      ? scenario.faults.mitigation.scrub_period_s
                      : 0.0;
}

void DeviceSim::set_speed_factor(double factor) {
  ADAPEX_CHECK(factor > 0.0, "speed factor must be positive");
  speed_ = factor;
}

double DeviceSim::current_ips() const {
  return manager_.current().ips * speed_;
}

void DeviceSim::account_energy(double upto, const LibraryEntry& e) {
  if (upto <= last_power_checkpoint_) return;
  const double interval = upto - last_power_checkpoint_;
  const double busy =
      std::max(0.0, std::min(busy_until_, upto) - last_power_checkpoint_);
  const double dyn_w = std::max(0.0, e.peak_power_w - static_w_);
  energy_j_ += static_w_ * interval + dyn_w * busy;
  last_power_checkpoint_ = upto;
}

double DeviceSim::first_exit_fraction(const LibraryEntry& e) const {
  return e.exit_fractions.empty() ? 1.0 : e.exit_fractions.front();
}

// Returns the entry's accuracy bit-exactly when no upset is active.
double DeviceSim::effective_accuracy(const LibraryEntry& e) const {
  const FaultSpec& faults = scenario_.faults;
  const int corrupting =
      weight_upsets_active_ + config_wrong_active_ + exit_corrupt_active_;
  if (corrupting == 0) return e.accuracy;
  const double drop =
      weight_upsets_active_ * faults.seu_weight_accuracy_drop +
      (config_wrong_active_ + exit_corrupt_active_) *
          faults.seu_config_accuracy_drop;
  // Floor near chance level: upsets scramble outputs, they don't
  // anti-correlate them.
  return std::max(e.accuracy - drop, 0.02);
}

double DeviceSim::effective_first_exit(const LibraryEntry& e) const {
  const double base = first_exit_fraction(e);
  if (exit_corrupt_active_ == 0) return base;
  // Stuck-high exit logits inflate early acceptance.
  return std::min(
      1.0, base + exit_corrupt_active_ * scenario_.faults.seu_exit_rate_shift);
}

std::size_t DeviceSim::undetected_active() const {
  return undetected_weight_times_.size() + undetected_config_times_.size();
}

// Marks every active upset as caught, charging detection latency.
void DeviceSim::detect_active(double now) {
  for (double t0 : undetected_weight_times_) {
    metrics_.seu_detection_latency_s += now - t0;
  }
  for (double t0 : undetected_config_times_) {
    metrics_.seu_detection_latency_s += now - t0;
  }
  metrics_.seu_detected += static_cast<int>(undetected_active());
  undetected_weight_times_.clear();
  undetected_config_times_.clear();
}

// One configuration scrub pass: repairs config-memory upsets (wrong class,
// exit corruption, hangs) — weight BRAMs are not configuration frames, so
// weight upsets survive a scrub — and charges scrub dark time.
void DeviceSim::do_scrub(double now, TracePoint& tp) {
  const SeuMitigation& mit = scenario_.faults.mitigation;
  ++metrics_.seu_scrubs;
  tp.scrubbed = true;
  for (double t0 : undetected_config_times_) {
    metrics_.seu_detection_latency_s += now - t0;
  }
  metrics_.seu_detected += static_cast<int>(undetected_config_times_.size());
  undetected_config_times_.clear();
  config_wrong_active_ = 0;
  exit_corrupt_active_ = 0;
  hang_active_ = false;
  const double cost_s = mit.scrub_time_ms / 1e3;
  metrics_.scrub_overhead_s += cost_s;
  if (cost_s > 0.0) {
    server_free_ = std::max(server_free_, now) + cost_s;
    dark_until_ = std::max(dark_until_, server_free_);
    metrics_.dead_time_s += cost_s;
  }
}

// Resolves a manager decision: attempts the proposed reconfiguration
// through the fault injector, reports the outcome back, and accounts dead
// time and recovery latency. When a fleet gate is installed it is consulted
// first; a denial vetoes the attempt entirely (cancel_reconfig — no
// failure, no backoff) and the proposal is re-raised on later ticks.
void DeviceSim::apply_decision(Decision& d, double now, TracePoint& tp) {
  tp.degraded = tp.degraded || d.degraded;
  if (!d.reconfigure) {
    deferred_reconfig_ = false;
    if (failing_since_ >= 0.0 && d.state == HealthState::kHealthy) {
      // The full search no longer needs the failed switch: recovered.
      metrics_.recovery_latency_s += now - failing_since_;
      ++metrics_.recoveries;
      failing_since_ = -1.0;
    }
    return;
  }
  if (gate_) {
    ReconfigRequest req;
    req.now_s = now;
    req.dead_s = d.reconfig_ms / 1e3;
    req.deferred_since_s = deferred_reconfig_ ? deferred_since_ : -1.0;
    if (!gate_(req)) {
      manager_.cancel_reconfig();
      // Drift/watchdog reloads are not re-proposed by select() in Healthy
      // state, so deferring them would strand the flag: the drift detector
      // itself refires once its window refills. Only searched switches
      // carry the deferred marker.
      if (!d.reload) {
        if (!deferred_reconfig_) deferred_since_ = now;
        deferred_reconfig_ = true;
      }
      return;
    }
  }
  deferred_reconfig_ = false;
  if (d.retry) ++metrics_.reconfig_retries;
  const ReconfigOutcome out = injector_.attempt_reconfig(d.reconfig_ms);
  if (out.slowed) ++metrics_.slow_reconfigs;
  // The accelerator is dark during the attempt, success or not: backlog
  // waits.
  server_free_ = std::max(server_free_, now) + out.dead_ms / 1e3;
  dark_until_ = server_free_;
  metrics_.dead_time_s += out.dead_ms / 1e3;
  if (out.success) {
    ++metrics_.reconfigurations;
    tp.reconfigured = true;
    manager_.complete_reconfig(true, now);
    if (failing_since_ >= 0.0) {
      metrics_.recovery_latency_s += now - failing_since_;
      ++metrics_.recoveries;
      failing_since_ = -1.0;
    }
    // A successful load rewrites configuration and weight memory: every
    // active upset is gone. Ones the detection machinery never caught
    // were repaired incidentally — they count as undetected.
    if (weight_upsets_active_ + config_wrong_active_ + exit_corrupt_active_ >
            0 ||
        hang_active_) {
      metrics_.seu_undetected += static_cast<int>(undetected_active());
      undetected_weight_times_.clear();
      undetected_config_times_.clear();
      weight_upsets_active_ = 0;
      config_wrong_active_ = 0;
      exit_corrupt_active_ = 0;
      hang_active_ = false;
      detector_.reset();
    }
    if (d.reload) {
      ++metrics_.seu_reloads;
      tp.reloaded = true;
      had_seu_recovery_ = true;
      post_recovery_acc_sum_ = 0.0;
      post_recovery_served_ = 0;
    }
  } else {
    ++metrics_.reconfig_failures;
    tp.reconfig_failed = true;
    manager_.complete_reconfig(false, now);
    if (failing_since_ < 0.0) failing_since_ = now;
    if (policy_.backoff.on_failure == FailurePolicy::kBlockRetry) {
      // No fallback: serving stays dark until the next retry opportunity.
      const double block_until = now + scenario_.sample_period_s;
      if (block_until > server_free_) {
        metrics_.dead_time_s += block_until - server_free_;
        server_free_ = block_until;
        dark_until_ = server_free_;
      }
    }
  }
}

ArrivalOutcome DeviceSim::serve_one(double t, double dispatch_s) {
  ArrivalOutcome out;
  if (hang_active_) {
    // The pipeline is wedged on a config-memory hang: nothing completes
    // until a scrub or reload repairs it (the watchdog sees the flat
    // served count and escalates).
    ++metrics_.dropped;
    return out;
  }
  const LibraryEntry& entry = manager_.current();
  const double service_s = 1.0 / std::max(entry.ips * speed_, 1e-9);
  // dispatch_s == t on the unbatched path, where both expressions reduce
  // bit-exactly to max(0, server_free - t);
  // batched dispatch separates the queue test (from dispatch time) from the
  // delivered latency (from the request's true arrival).
  const double queue_s = std::max(0.0, server_free_ - dispatch_s);
  const double backlog = queue_s / service_s;
  if (backlog > scenario_.queue_capacity) {
    ++metrics_.dropped;
    return out;
  }
  ++metrics_.served;
  const double eff_acc = effective_accuracy(entry);
  accuracy_sum_ += eff_acc;
  if (undetected_active() > 0 &&
      weight_upsets_active_ + config_wrong_active_ + exit_corrupt_active_ >
          0) {
    // Served while an uncaught corrupting upset is active: the user gets
    // a possibly-wrong answer with no warning.
    ++metrics_.silent_corruptions;
  }
  if (had_seu_recovery_) {
    post_recovery_acc_sum_ += eff_acc;
    ++post_recovery_served_;
  }
  const double wait_s = std::max(server_free_, dispatch_s) - t;
  const double latency_ms = wait_s * 1e3 + entry.latency_ms / speed_;
  latency_sum_ms_ += latency_ms;
  server_free_ = std::max(server_free_, dispatch_s) + service_s;
  busy_until_ = server_free_;
  out.served = true;
  out.latency_ms = latency_ms;
  out.accuracy = eff_acc;
  return out;
}

ArrivalOutcome DeviceSim::on_arrival(double t) {
  ++metrics_.offered;
  monitor_.on_arrival();
  return serve_one(t, t);
}

void DeviceSim::note_arrival() {
  ++metrics_.offered;
  monitor_.on_arrival();
}

std::vector<ArrivalOutcome> DeviceSim::serve_batch(
    double now, double setup_s, const std::vector<double>& arrival_times) {
  std::vector<ArrivalOutcome> outcomes;
  outcomes.reserve(arrival_times.size());
  // Batch-formation overhead is paid once, up front, whether or not the
  // queue then sheds part of the batch (the fabric still reconfigures its
  // input DMA for the batch shape).
  if (!arrival_times.empty() && setup_s > 0.0 && !hang_active_) {
    server_free_ = std::max(server_free_, now) + setup_s;
  }
  for (double t : arrival_times) {
    outcomes.push_back(serve_one(t, now));
  }
  return outcomes;
}

double DeviceSim::backlog_requests(double now) const {
  const LibraryEntry& entry = manager_.current();
  const double service_s = 1.0 / std::max(entry.ips * speed_, 1e-9);
  return std::max(0.0, server_free_ - now) / service_s;
}

void DeviceSim::on_tick(double now) {
  const FaultSpec& faults = scenario_.faults;
  const SeuMitigation& mit = faults.mitigation;
  const LibraryEntry& before = manager_.current();
  account_energy(now, before);

  TracePoint tp;
  tp.time_s = now;

  // Injected transient stall: the accelerator goes dark for a window.
  if (injector_.draw_stall()) {
    ++metrics_.stalls;
    server_free_ = std::max(server_free_, now) + faults.stall_duration_s;
    dark_until_ = server_free_;
    metrics_.dead_time_s += faults.stall_duration_s;
  }

  // Soft-error injection: independent streams, drawn unconditionally
  // every tick so the upset sequence depends only on (seed, tick).
  if (injector_.draw_weight_upset()) {
    ++metrics_.seu_weight_upsets;
    tp.seu_upset = true;
    if (mit.ecc_weights) {
      // SECDED on the weight BRAMs corrects it on the next read.
      ++metrics_.seu_corrected;
      ++metrics_.seu_detected;
    } else {
      ++weight_upsets_active_;
      undetected_weight_times_.push_back(now);
    }
  }
  switch (injector_.draw_config_upset()) {
    case ConfigUpset::kNone:
      break;
    case ConfigUpset::kWrongClass:
      ++metrics_.seu_config_upsets;
      tp.seu_upset = true;
      ++config_wrong_active_;
      undetected_config_times_.push_back(now);
      break;
    case ConfigUpset::kExitCorrupt:
      ++metrics_.seu_config_upsets;
      tp.seu_upset = true;
      if (mit.tmr_exit_heads) {
        // The triplicated exit heads out-vote the corrupted replica.
        ++metrics_.seu_corrected;
        ++metrics_.seu_detected;
      } else {
        ++exit_corrupt_active_;
        undetected_config_times_.push_back(now);
      }
      break;
    case ConfigUpset::kHang:
      ++metrics_.seu_config_upsets;
      tp.seu_upset = true;
      hang_active_ = true;
      undetected_config_times_.push_back(now);
      break;
  }

  // Periodic configuration scrubbing repairs config upsets on its own
  // schedule, whether or not anything drifted.
  if (mit.scrubbing) {
    while (now + 1e-12 >= next_scrub_s_) {
      do_scrub(now, tp);
      next_scrub_s_ += mit.scrub_period_s;
    }
  }

  // An active hang wedges the pipeline until a repair (scrub, reload,
  // or the watchdog escalation below): extend the dark window tick by
  // tick.
  if (hang_active_) {
    const double wedge_until = now + scenario_.sample_period_s;
    if (wedge_until > server_free_) {
      metrics_.dead_time_s += wedge_until - std::max(server_free_, now);
      server_free_ = wedge_until;
    }
    dark_until_ = std::max(dark_until_, server_free_);
  }

  // A monitor sample delayed at the previous tick arrives now.
  if (has_delayed_) {
    has_delayed_ = false;
    Decision d = manager_.select(delayed_rate_ / speed_, now);
    apply_decision(d, now, tp);
  }

  WorkloadMonitor::Sample ws = monitor_.sample(scenario_.sample_period_s);
  tp.measured_ips = ws.rate_ips;
  const bool drop = injector_.draw_monitor_drop();
  const bool delay = injector_.draw_monitor_delay();
  // A pending retry fires on its backoff/cooldown schedule even when
  // the workload is quiet. (kScrubbing has no retry to fire; pending
  // states never persist across ticks here.)
  const bool must_probe = (manager_.state() == HealthState::kBackoff ||
                           manager_.state() == HealthState::kDegraded) &&
                          now + 1e-12 >= manager_.next_retry_s();
  if (drop) {
    // The measurement never reaches the manager.
    ++metrics_.monitor_dropped;
    ws.flagged = false;
  } else if (delay && ws.flagged) {
    ++metrics_.monitor_delayed;
    has_delayed_ = true;
    delayed_rate_ = ws.rate_ips;
    ws.flagged = false;
  }
  if (ws.flagged) {
    Decision d = manager_.select(ws.rate_ips / speed_, now);
    apply_decision(d, now, tp);
  } else if (must_probe || deferred_reconfig_) {
    // deferred_reconfig_: a gate-denied switch re-asks at the last flagged
    // rate until the orchestrator admits it (or the search changes its
    // mind). Never set without a gate.
    Decision d = manager_.select(monitor_.last_flagged_rate() / speed_, now);
    apply_decision(d, now, tp);
  }

  // Accuracy/confidence drift detection: spot-checked TOP-1 agreement
  // and first-exit acceptance vs the Library expectations of the
  // active entry. Fires only while the manager is not already running
  // a failure-recovery schedule (Backoff/Degraded own the problem: the
  // scheduled retry rewrites the bitstream anyway).
  {
    const LibraryEntry& cur = manager_.current();
    if (&cur != drift_expect_entry_) {
      detector_.expect(cur.accuracy, first_exit_fraction(cur));
      drift_expect_entry_ = &cur;
    }
    detector_.observe(effective_accuracy(cur), effective_first_exit(cur));
    const HealthState hs = manager_.state();
    if (detector_.drifted() && (hs == HealthState::kHealthy ||
                                hs == HealthState::kScrubbing)) {
      ++metrics_.drift_detections;
      tp.drift_detected = true;
      detect_active(now);
      Decision dd = manager_.report_drift(now, mit.scrubbing);
      if (dd.scrub) {
        do_scrub(now, tp);
        detector_.reset();
      } else if (dd.reconfigure) {
        apply_decision(dd, now, tp);
        detector_.reset();
      }
    } else if (hs == HealthState::kScrubbing && detector_.window_full()) {
      // A full clean window after the scrub: the drift is gone.
      manager_.drift_cleared();
    }
  }

  // Watchdog: no completions for watchdog_periods despite backlog —
  // serving is wedged (fault pile-up); force recovery. The soft reset
  // flushes the wedged accelerator, cancels its remaining scheduled
  // dark time, and lets the manager probe immediately.
  if (metrics_.served != last_served_) {
    last_served_ = metrics_.served;
    stagnant_ticks_ = 0;
  } else if (server_free_ > now) {
    ++stagnant_ticks_;
    if (stagnant_ticks_ >= scenario_.watchdog_periods) {
      ++metrics_.watchdog_recoveries;
      tp.watchdog_fired = true;
      const double cancelled_dark = std::max(0.0, dark_until_ - now);
      metrics_.dead_time_s -= std::min(cancelled_dark, metrics_.dead_time_s);
      dark_until_ = now;
      server_free_ = now;
      busy_until_ = std::min(busy_until_, server_free_);
      manager_.force_probe();
      stagnant_ticks_ = 0;
      if (hang_active_) {
        // The wedge is a config-memory hang: a soft reset cannot clear
        // it. Escalate — scrub when deployed, else bitstream reload.
        detect_active(now);
        Decision dd = manager_.report_drift(now, mit.scrubbing);
        if (dd.scrub) {
          do_scrub(now, tp);
          detector_.reset();
        } else if (dd.reconfigure) {
          apply_decision(dd, now, tp);
          detector_.reset();
        }
      }
    }
  }

  // SLO accounting: a sampling period with any dropped request.
  if (metrics_.dropped > dropped_at_last_tick_) ++metrics_.slo_violations;
  dropped_at_last_tick_ = metrics_.dropped;
  if (manager_.state() != HealthState::kHealthy) {
    metrics_.degraded_time_s += scenario_.sample_period_s;
  }

  const LibraryEntry& entry = manager_.current();
  tp.prune_rate_pct = entry.prune_rate_pct;
  tp.conf_threshold_pct = entry.conf_threshold_pct;
  tp.entry_accuracy = entry.accuracy;
  tp.health = manager_.state();
  metrics_.trace.push_back(tp);
}

void DeviceSim::finalize(double duration_s) {
  account_energy(duration_s, manager_.current());

  // Upsets still uncaught at episode end never got detected.
  metrics_.seu_undetected += static_cast<int>(undetected_active());
  metrics_.post_recovery_accuracy =
      post_recovery_served_ > 0
          ? post_recovery_acc_sum_ / post_recovery_served_
          : 0.0;

  metrics_.inference_loss_pct =
      metrics_.offered > 0
          ? 100.0 * static_cast<double>(metrics_.dropped) / metrics_.offered
          : 0.0;
  metrics_.accuracy =
      metrics_.served > 0 ? accuracy_sum_ / metrics_.served : 0.0;
  metrics_.avg_latency_ms =
      metrics_.served > 0 ? latency_sum_ms_ / metrics_.served : 0.0;
  metrics_.energy_j = energy_j_;
  metrics_.avg_power_w = duration_s > 0.0 ? energy_j_ / duration_s : 0.0;
  metrics_.energy_per_inf_j =
      metrics_.served > 0 ? energy_j_ / metrics_.served : 0.0;
  metrics_.edp = metrics_.energy_per_inf_j * (metrics_.avg_latency_ms / 1e3);
  const double served_fraction =
      metrics_.offered > 0
          ? static_cast<double>(metrics_.served) / metrics_.offered
          : 0.0;
  metrics_.qoe = metrics_.accuracy * served_fraction;
  metrics_.availability_pct =
      100.0 * std::max(0.0, 1.0 - metrics_.dead_time_s / duration_s);
  metrics_.duration_s = duration_s;
}

}  // namespace adapex
