// Tests for the fault-injection subsystem and the self-healing Runtime
// Manager: injector determinism and stream independence, the backoff
// schedule, degraded-mode search, the edge watchdog, validation, and
// byte-identical faulted episodes at a fixed seed.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "edge/simulation.hpp"
#include "runtime/faults.hpp"
#include "runtime/manager.hpp"

namespace adapex {
namespace {

LibraryEntry entry(int accel, ModelVariant v, int rate, int ct, double acc,
                   double ips, double lat_ms, double power_w, double e_j) {
  LibraryEntry e;
  e.accel_id = accel;
  e.variant = v;
  e.prune_rate_pct = rate;
  e.conf_threshold_pct = ct;
  e.accuracy = acc;
  e.exit_fractions = v == ModelVariant::kNoExit
                         ? std::vector<double>{1.0}
                         : std::vector<double>{0.5, 0.5};
  e.ips = ips;
  e.latency_ms = lat_ms;
  e.peak_power_w = power_w;
  e.energy_per_inf_j = e_j;
  return e;
}

/// Same controlled library as test_runtime.cpp: reference accuracy 0.90.
Library controlled_library() {
  Library lib;
  lib.dataset = "controlled";
  lib.reference_accuracy = 0.90;
  lib.static_power_w = 0.7;
  for (int id = 0; id < 4; ++id) {
    AcceleratorRecord a;
    a.id = id;
    a.variant = id < 2 ? ModelVariant::kNoExit : ModelVariant::kNotPrunedExits;
    a.prune_rate_pct = (id % 2) * 50;
    a.reconfig_ms = 145.0;
    lib.accelerators.push_back(a);
  }
  lib.entries = {
      entry(0, ModelVariant::kNoExit, 0, -1, 0.90, 100, 6.0, 1.16, 0.006),
      entry(1, ModelVariant::kNoExit, 50, -1, 0.70, 300, 2.0, 1.00, 0.002),
      entry(2, ModelVariant::kNotPrunedExits, 0, 50, 0.88, 120, 5.0, 1.35,
            0.005),
      entry(2, ModelVariant::kNotPrunedExits, 0, 5, 0.84, 200, 3.0, 1.30,
            0.004),
      entry(3, ModelVariant::kNotPrunedExits, 50, 50, 0.82, 350, 1.8, 1.20,
            0.002),
      entry(3, ModelVariant::kNotPrunedExits, 50, 5, 0.78, 500, 1.2, 1.18,
            0.0015),
  };
  return lib;
}

FaultSpec mixed_faults() {
  FaultSpec f;
  f.reconfig_fail_prob = 0.30;
  f.reconfig_slow_prob = 0.20;
  f.reconfig_slow_factor = 3.0;
  f.stall_prob = 0.05;
  f.stall_duration_s = 0.8;
  f.monitor_drop_prob = 0.10;
  f.monitor_delay_prob = 0.10;
  return f;
}

/// Overloaded oscillating scenario that forces repeated reconfigurations.
EdgeScenario oscillating_scenario(std::uint64_t seed) {
  EdgeScenario sc;
  sc.workload.base_ips = 240.0;  // needs accel 3; deviation dips below
  sc.workload.deviation = 0.6;
  sc.seed = seed;
  return sc;
}

bool traces_equal(const std::vector<TracePoint>& a,
                  const std::vector<TracePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_s != b[i].time_s || a[i].measured_ips != b[i].measured_ips ||
        a[i].prune_rate_pct != b[i].prune_rate_pct ||
        a[i].conf_threshold_pct != b[i].conf_threshold_pct ||
        a[i].entry_accuracy != b[i].entry_accuracy ||
        a[i].reconfigured != b[i].reconfigured ||
        a[i].health != b[i].health ||
        a[i].reconfig_failed != b[i].reconfig_failed ||
        a[i].degraded != b[i].degraded ||
        a[i].watchdog_fired != b[i].watchdog_fired) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjector, DeterministicPerSeed) {
  const FaultSpec f = mixed_faults();
  FaultInjector a(f, 42), b(f, 42), c(f, 43);
  bool differs_from_c = false;
  for (int i = 0; i < 200; ++i) {
    const auto oa = a.attempt_reconfig(145.0);
    const auto ob = b.attempt_reconfig(145.0);
    const auto oc = c.attempt_reconfig(145.0);
    EXPECT_EQ(oa.success, ob.success);
    EXPECT_EQ(oa.slowed, ob.slowed);
    EXPECT_DOUBLE_EQ(oa.dead_ms, ob.dead_ms);
    if (oa.success != oc.success || oa.slowed != oc.slowed) {
      differs_from_c = true;
    }
    EXPECT_EQ(a.draw_stall(), b.draw_stall());
    EXPECT_EQ(a.draw_monitor_drop(), b.draw_monitor_drop());
    EXPECT_EQ(a.draw_monitor_delay(), b.draw_monitor_delay());
  }
  EXPECT_TRUE(differs_from_c);  // different seeds give different streams
}

TEST(FaultInjector, CategoryStreamsAreIndependent) {
  // Raising the stall probability (and drawing stalls at a different
  // cadence) must not perturb the reconfiguration-failure sequence.
  FaultSpec quiet = mixed_faults();
  quiet.stall_prob = 0.0;
  FaultSpec noisy = mixed_faults();
  noisy.stall_prob = 0.9;
  FaultInjector a(quiet, 7), b(noisy, 7);
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      (void)a.draw_stall();
      // b draws stalls far more often than a.
      (void)b.draw_stall();
      (void)b.draw_stall();
      (void)b.draw_stall();
    }
    const auto oa = a.attempt_reconfig(100.0);
    const auto ob = b.attempt_reconfig(100.0);
    EXPECT_EQ(oa.success, ob.success) << "attempt " << i;
    EXPECT_EQ(oa.slowed, ob.slowed) << "attempt " << i;
  }
}

TEST(FaultInjector, ValidationAggregatesEveryViolation) {
  FaultSpec f;
  f.reconfig_fail_prob = 1.5;
  f.monitor_drop_prob = -0.2;
  f.reconfig_slow_factor = 0.5;
  f.stall_duration_s = -1.0;
  try {
    lint_fault_spec(f).throw_if_errors();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reconfig_fail_prob"), std::string::npos);
    EXPECT_NE(msg.find("monitor_drop_prob"), std::string::npos);
    EXPECT_NE(msg.find("reconfig_slow_factor"), std::string::npos);
    EXPECT_NE(msg.find("stall_duration_s"), std::string::npos);
  }
  EXPECT_NO_THROW(lint_fault_spec(mixed_faults()).throw_if_errors());
}

TEST(FaultInjector, SeuLintRejectsBadRatesAndSeverities) {
  // RF4: SEU probabilities and severities must be sane rates.
  FaultSpec f;
  f.seu_weight_prob = 1.5;
  f.seu_config_prob = -0.1;
  f.seu_weight_accuracy_drop = 2.0;
  f.seu_exit_rate_shift = -0.5;
  f.seu_hang_frac = 0.8;
  f.seu_exit_corrupt_frac = 0.5;  // fractions sum to 1.3 > 1
  try {
    lint_fault_spec(f).throw_if_errors();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("seu_weight_prob"), std::string::npos);
    EXPECT_NE(msg.find("seu_config_prob"), std::string::npos);
    EXPECT_NE(msg.find("seu_weight_accuracy_drop"), std::string::npos);
    EXPECT_NE(msg.find("seu_exit_rate_shift"), std::string::npos);
    EXPECT_NE(msg.find("RF4"), std::string::npos);
  }
}

TEST(FaultInjector, SeuLintChecksScrubScheduleAndTmrTargets) {
  // RF5: an enabled scrubber needs a sane schedule.
  FaultSpec f;
  f.mitigation.scrubbing = true;
  f.mitigation.scrub_period_s = 0.0;
  f.mitigation.scrub_time_ms = -1.0;
  const auto r5 = lint_fault_spec(f);
  EXPECT_TRUE(r5.has_errors());
  EXPECT_NE(r5.error_message().find("scrub_period_s"), std::string::npos);
  EXPECT_NE(r5.error_message().find("scrub_time_ms"), std::string::npos);

  // RF6: TMR on exit heads requires a library with early-exit entries.
  FaultSpec tmr;
  tmr.mitigation.tmr_exit_heads = true;
  Library no_exits;
  no_exits.dataset = "no-exits";
  no_exits.reference_accuracy = 0.9;
  no_exits.entries = {
      entry(0, ModelVariant::kNoExit, 0, -1, 0.90, 100, 6.0, 1.16, 0.006)};
  const auto r6 = lint_fault_spec(tmr, no_exits);
  EXPECT_TRUE(r6.has_errors());
  EXPECT_NE(r6.error_message().find("RF6"), std::string::npos);
  // With exit heads present the same spec is fine.
  EXPECT_FALSE(lint_fault_spec(tmr, controlled_library()).has_errors());
  // The library-blind overload cannot check RF6 and stays quiet.
  EXPECT_FALSE(lint_fault_spec(tmr).has_errors());
}

TEST(RuntimePolicyValidation, DriftPolicyLintedAsRp9ToRp11) {
  RuntimePolicy p;
  p.drift.window = 0;
  p.drift.accuracy_tolerance = 0.0;
  p.drift.exit_rate_tolerance = 1.5;
  try {
    lint_runtime_policy(p).throw_if_errors();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drift.window"), std::string::npos);
    EXPECT_NE(msg.find("drift.accuracy_tolerance"), std::string::npos);
    EXPECT_NE(msg.find("drift.exit_rate_tolerance"), std::string::npos);
  }
  RuntimePolicy q;
  q.drift.min_samples = q.drift.window + 1;
  EXPECT_TRUE(lint_runtime_policy(q).has_errors());
}

TEST(RuntimePolicyValidation, RejectsBadFieldsAggregated) {
  RuntimePolicy p;
  p.max_accuracy_loss = 1.7;
  p.ips_headroom = -1.0;
  p.backoff.multiplier = 0.5;
  p.backoff.jitter = 1.5;
  try {
    lint_runtime_policy(p).throw_if_errors();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("max_accuracy_loss"), std::string::npos);
    EXPECT_NE(msg.find("ips_headroom"), std::string::npos);
    EXPECT_NE(msg.find("backoff.multiplier"), std::string::npos);
    EXPECT_NE(msg.find("backoff.jitter"), std::string::npos);
  }
  const Library lib = controlled_library();
  EXPECT_THROW(RuntimeManager(lib, p), ConfigError);
  EXPECT_NO_THROW(RuntimeManager(lib, RuntimePolicy{}));
}

TEST(EdgeScenarioValidation, RejectsBadFieldsAggregated) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = -3.0;
  sc.sample_period_s = 0.0;
  sc.queue_capacity = 0;
  sc.faults.stall_prob = 2.0;
  try {
    simulate_edge(lib, RuntimePolicy{}, sc);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload.base_ips"), std::string::npos);
    EXPECT_NE(msg.find("sample_period_s"), std::string::npos);
    EXPECT_NE(msg.find("queue_capacity"), std::string::npos);
    EXPECT_NE(msg.find("stall_prob"), std::string::npos);
  }
  EXPECT_NO_THROW(lint_edge_scenario(EdgeScenario{}).throw_if_errors());
}

TEST(EdgeScenarioValidation, OneBadWorkloadValueIsOneEdgeDiagnostic) {
  // The workload is checked once, on the scenario the caller wrote, not
  // again on the size-1 fleet's tenant built from it.
  const Library lib = controlled_library();
  EdgeScenario deviation;
  deviation.workload.deviation = -0.5;
  EdgeScenario trace;
  trace.workload.pattern = WorkloadPattern::kTrace;  // no multipliers
  for (const EdgeScenario& sc : {deviation, trace}) {
    try {
      simulate_edge(lib, RuntimePolicy{}, sc);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("failed with 1 violation:\n  ES11 error @ "
                         "edge-scenario: "),
                std::string::npos)
          << msg;
      EXPECT_EQ(msg.find("tenant"), std::string::npos) << msg;
    }
  }
}

TEST(RuntimeManager, CurrentBeforeFirstSelectFailsClearly) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  EXPECT_FALSE(mgr.has_selection());
  try {
    (void)mgr.current();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("before the first select()"),
              std::string::npos);
  }
  mgr.select(50.0);
  EXPECT_TRUE(mgr.has_selection());
  EXPECT_DOUBLE_EQ(mgr.current().accuracy, 0.88);
}

TEST(RuntimeManager, DecisionCarriesAttemptedIndexOnFailure) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  mgr.select(50.0, 0.0);  // accel 2
  Decision d = mgr.select(300.0, 1.0);  // wants accel 3
  ASSERT_TRUE(d.reconfigure);
  EXPECT_EQ(d.state, HealthState::kReconfigPending);
  const int attempted = d.attempted_index;
  EXPECT_EQ(lib.entries[static_cast<std::size_t>(attempted)].accel_id, 3);
  mgr.complete_reconfig(false, 1.0);
  // Rolled back to the loaded bitstream; the attempted target stays on
  // record in the decision.
  EXPECT_EQ(mgr.current().accel_id, 2);
  EXPECT_EQ(mgr.state(), HealthState::kBackoff);
  EXPECT_EQ(mgr.consecutive_failures(), 1);
  EXPECT_EQ(d.attempted_index, attempted);
}

TEST(RuntimeManager, BackoffScheduleCapsAndJitterBounds) {
  const Library lib = controlled_library();
  RuntimePolicy p{AdaptPolicy::kAdaPEx, 0.10};
  p.backoff.initial_s = 1.0;
  p.backoff.multiplier = 2.0;
  p.backoff.max_s = 4.0;
  p.backoff.jitter = 0.25;
  p.backoff.degrade_after = 100;  // keep it in kBackoff for this test
  RuntimeManager mgr(lib, p, /*seed=*/5);
  mgr.select(50.0, 0.0);  // accel 2

  double now = 0.0;
  double prev_nominal = 0.0;
  for (int failure = 1; failure <= 6; ++failure) {
    Decision d = mgr.select(300.0, now);  // retries want accel 3
    ASSERT_TRUE(d.reconfigure) << "failure " << failure;
    EXPECT_EQ(d.retry, failure > 1);
    mgr.complete_reconfig(false, now);
    const double delay = mgr.next_retry_s() - now;
    const double nominal =
        std::min(p.backoff.initial_s *
                     std::pow(p.backoff.multiplier, failure - 1),
                 p.backoff.max_s);
    EXPECT_GE(delay, nominal * (1.0 - p.backoff.jitter) - 1e-12);
    EXPECT_LE(delay, nominal * (1.0 + p.backoff.jitter) + 1e-12);
    EXPECT_GE(nominal, prev_nominal);  // schedule grows until the cap
    EXPECT_LE(nominal, p.backoff.max_s + 1e-12);
    prev_nominal = nominal;
    now = mgr.next_retry_s();
  }
  // A successful retry resets the schedule.
  Decision d = mgr.select(300.0, now);
  ASSERT_TRUE(d.reconfigure);
  mgr.complete_reconfig(true, now);
  EXPECT_EQ(mgr.state(), HealthState::kHealthy);
  EXPECT_EQ(mgr.consecutive_failures(), 0);
  EXPECT_DOUBLE_EQ(mgr.next_retry_s(), 0.0);
  EXPECT_EQ(mgr.current().accel_id, 3);
}

TEST(RuntimeManager, RepeatedFailuresLatchDegradedWithCooldownProbes) {
  const Library lib = controlled_library();
  RuntimePolicy p{AdaptPolicy::kAdaPEx, 0.10};
  p.backoff.initial_s = 0.5;
  p.backoff.degrade_after = 2;
  p.backoff.probe_cooldown_s = 10.0;
  RuntimeManager mgr(lib, p, 9);
  mgr.select(50.0, 0.0);
  double now = 0.0;
  for (int i = 0; i < 2; ++i) {
    Decision d = mgr.select(300.0, now);
    ASSERT_TRUE(d.reconfigure);
    mgr.complete_reconfig(false, now);
    now = mgr.next_retry_s();
  }
  EXPECT_EQ(mgr.state(), HealthState::kDegraded);
  // Before the cooldown expires only degraded (restricted) decisions.
  Decision held = mgr.select(300.0, now - 5.0);
  EXPECT_TRUE(held.degraded);
  EXPECT_FALSE(held.reconfigure);
  EXPECT_EQ(mgr.state(), HealthState::kDegraded);
  // The cooldown-gated probe goes through and can succeed.
  Decision probe = mgr.select(300.0, now);
  ASSERT_TRUE(probe.reconfigure);
  EXPECT_TRUE(probe.retry);
  mgr.complete_reconfig(true, now);
  EXPECT_EQ(mgr.state(), HealthState::kHealthy);
}

TEST(RuntimeManager, DegradedSearchIsCtOnlyOnTheActiveBitstream) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  mgr.select(50.0, 0.0);  // accel 2 (ct 50)
  Decision d = mgr.select(300.0, 0.0);
  ASSERT_TRUE(d.reconfigure);
  mgr.complete_reconfig(false, 0.0);

  // While backing off, the search may only move the confidence threshold on
  // the loaded bitstream: among accel-2 entries at workload 300 nothing is
  // feasible, so best effort picks the fastest accuracy-OK point — ct 5.
  Decision deg = mgr.select(300.0, 0.01);
  EXPECT_TRUE(deg.degraded);
  EXPECT_FALSE(deg.reconfigure);
  EXPECT_EQ(mgr.current().accel_id, 2);
  EXPECT_EQ(mgr.current().conf_threshold_pct, 5);
  EXPECT_EQ(mgr.current().prune_rate_pct, 0);  // pruning rate never moves

  // The degraded choice matches CT-Only's choice restricted to the active
  // pruning rate (accel 2 is exactly the CT-Only search space here).
  RuntimeManager ct(lib, {AdaptPolicy::kCtOnly, 0.10});
  ct.select(300.0, 0.0);
  EXPECT_EQ(mgr.current().accel_id, ct.current().accel_id);
  EXPECT_EQ(mgr.current().conf_threshold_pct, ct.current().conf_threshold_pct);
}

TEST(RuntimeManager, FailureBecomesMootWhenWorkloadRecedes) {
  const Library lib = controlled_library();
  RuntimePolicy p{AdaptPolicy::kAdaPEx, 0.10};
  p.backoff.initial_s = 0.5;
  RuntimeManager mgr(lib, p, 3);
  mgr.select(50.0, 0.0);
  Decision d = mgr.select(300.0, 0.0);
  ASSERT_TRUE(d.reconfigure);
  mgr.complete_reconfig(false, 0.0);
  EXPECT_EQ(mgr.state(), HealthState::kBackoff);
  // At the retry window the workload is low again: no switch needed, the
  // failure is moot and the manager heals without a reconfiguration.
  Decision healed = mgr.select(50.0, mgr.next_retry_s());
  EXPECT_FALSE(healed.reconfigure);
  EXPECT_EQ(healed.state, HealthState::kHealthy);
  EXPECT_EQ(mgr.consecutive_failures(), 0);
}

TEST(EdgeSimFaults, ZeroProbabilityEpisodesMatchFaultFreeBehaviour) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(13);
  // scenario.faults defaults to all-zero: the robustness machinery must be
  // invisible.
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.reconfigurations, 0);  // same expectation as test_runtime.cpp
  EXPECT_EQ(m.reconfig_failures, 0);
  EXPECT_EQ(m.reconfig_retries, 0);
  EXPECT_EQ(m.slow_reconfigs, 0);
  EXPECT_EQ(m.stalls, 0);
  EXPECT_EQ(m.monitor_dropped, 0);
  EXPECT_EQ(m.monitor_delayed, 0);
  EXPECT_EQ(m.watchdog_recoveries, 0);
  EXPECT_EQ(m.recoveries, 0);
  EXPECT_DOUBLE_EQ(m.degraded_time_s, 0.0);
  EXPECT_DOUBLE_EQ(m.recovery_latency_s, 0.0);
  for (const auto& tp : m.trace) {
    EXPECT_EQ(tp.health, HealthState::kHealthy);
    EXPECT_FALSE(tp.reconfig_failed);
    EXPECT_FALSE(tp.degraded);
    EXPECT_FALSE(tp.watchdog_fired);
  }
  // Dead time is exactly the successful reconfigurations' dead intervals.
  EXPECT_NEAR(m.dead_time_s, m.reconfigurations * 145.0 / 1e3, 1e-9);
  auto again = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(m.served, again.served);
  EXPECT_DOUBLE_EQ(m.qoe, again.qoe);
  EXPECT_DOUBLE_EQ(m.energy_j, again.energy_j);
  EXPECT_TRUE(traces_equal(m.trace, again.trace));
}

TEST(EdgeSimFaults, FaultedEpisodesAreDeterministicPerSeed) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(29);
  sc.faults = mixed_faults();
  auto a = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  auto b = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.reconfig_failures, b.reconfig_failures);
  EXPECT_EQ(a.reconfig_retries, b.reconfig_retries);
  EXPECT_EQ(a.watchdog_recoveries, b.watchdog_recoveries);
  EXPECT_DOUBLE_EQ(a.qoe, b.qoe);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_DOUBLE_EQ(a.degraded_time_s, b.degraded_time_s);
  EXPECT_DOUBLE_EQ(a.availability_pct, b.availability_pct);
  EXPECT_TRUE(traces_equal(a.trace, b.trace));
  // The faults actually fired somewhere in the episode.
  EXPECT_GT(a.reconfig_failures + a.stalls + a.monitor_dropped, 0);
  // And a different seed produces a different episode.
  EdgeScenario other = sc;
  other.seed = 31;
  auto c = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, other);
  EXPECT_FALSE(traces_equal(a.trace, c.trace));
}

TEST(EdgeSimFaults, EpisodesAreIdenticalAcrossConcurrentThreads) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(17);
  sc.faults = mixed_faults();
  const auto serial = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  std::vector<EdgeMetrics> results(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] =
          simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& m : results) {
    EXPECT_EQ(m.served, serial.served);
    EXPECT_DOUBLE_EQ(m.qoe, serial.qoe);
    EXPECT_EQ(m.reconfig_failures, serial.reconfig_failures);
    EXPECT_TRUE(traces_equal(m.trace, serial.trace));
  }
}

TEST(EdgeSimFaults, FailuresDegradeAndRecoverWithObservability) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(23);
  sc.duration_s = 40.0;
  sc.faults.reconfig_fail_prob = 0.5;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.reconfig_failures, 0);
  EXPECT_GT(m.reconfig_retries, 0);
  EXPECT_GT(m.degraded_time_s, 0.0);
  EXPECT_GT(m.recoveries, 0);
  EXPECT_GT(m.recovery_latency_s, 0.0);
  EXPECT_LT(m.availability_pct, 100.0);
  // Degradation keeps serving: the episode still delivers most requests.
  EXPECT_GT(m.served, 0);
  bool saw_degraded_tick = false;
  for (const auto& tp : m.trace) {
    if (tp.health != HealthState::kHealthy) saw_degraded_tick = true;
  }
  EXPECT_TRUE(saw_degraded_tick);
}

TEST(EdgeSimFaults, WatchdogFiresOnWedgedServingAndRecovers) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(19);
  sc.workload.deviation = 0.3;
  sc.faults.stall_prob = 1.0;       // the accelerator wedges every period
  sc.faults.stall_duration_s = 30.0;
  sc.watchdog_periods = 4;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  // Without the watchdog nothing would be served after the first stall;
  // the forced recoveries keep the episode alive (and terminating).
  EXPECT_GT(m.watchdog_recoveries, 0);
  EXPECT_GT(m.served, 0);
  bool fired_in_trace = false;
  for (const auto& tp : m.trace) fired_in_trace |= tp.watchdog_fired;
  EXPECT_TRUE(fired_in_trace);
  // Serving progressed after the first watchdog recovery.
  double first_fire = -1.0;
  for (const auto& tp : m.trace) {
    if (tp.watchdog_fired) {
      first_fire = tp.time_s;
      break;
    }
  }
  ASSERT_GT(first_fire, 0.0);
  EXPECT_LT(first_fire, sc.duration_s);
}

TEST(EdgeSimFaults, MonitorDropoutFreezesAdaptation) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(37);
  sc.faults.monitor_drop_prob = 1.0;  // every sample is lost
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.monitor_dropped, 0);
  // The manager never hears about the workload: it stays at the initial
  // operating point and never reconfigures.
  EXPECT_EQ(m.reconfigurations, 0);
  for (const auto& tp : m.trace) EXPECT_EQ(tp.prune_rate_pct, 0);
}

TEST(EdgeSimFaults, GracefulDegradationBeatsBlockingRetries) {
  const Library lib = controlled_library();
  EdgeScenario sc = oscillating_scenario(41);
  sc.faults.reconfig_fail_prob = 0.30;
  RuntimePolicy degrade{AdaptPolicy::kAdaPEx, 0.10};
  RuntimePolicy block{AdaptPolicy::kAdaPEx, 0.10};
  block.backoff.on_failure = FailurePolicy::kBlockRetry;
  const auto md = simulate_edge_runs(lib, degrade, sc, 10);
  const auto mb = simulate_edge_runs(lib, block, sc, 10);
  EXPECT_GT(md.qoe, mb.qoe);
  EXPECT_GT(md.availability_pct, mb.availability_pct);
  // Averaged availability is a percentage, not polluted by the struct's
  // 100% default.
  EXPECT_LE(md.availability_pct, 100.0);
  EXPECT_GT(md.availability_pct, 0.0);
}

}  // namespace
}  // namespace adapex
