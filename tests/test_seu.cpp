// Tests for the soft-error (SEU) subsystem: injector determinism and
// stream independence, the drift detector, the manager's scrub/reload
// recovery path, mitigation behaviour in the edge simulation (ECC,
// scrubbing, TMR), the zero-rate invariant, the mitigation cost model, and
// the EdgeMetrics writers and episode pooling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "edge/metric_fields.hpp"
#include "edge/simulation.hpp"
#include "finn/accelerator.hpp"
#include "finn/mitigation.hpp"
#include "library/cache.hpp"
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

/// Same controlled library as test_runtime_faults.cpp.
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

/// Steady scenario: load sits comfortably on the initial operating point so
/// SEU effects, not workload adaptation, dominate the episode.
EdgeScenario steady_scenario(std::uint64_t seed) {
  EdgeScenario sc;
  sc.cameras = 20;
  sc.ips_per_camera = 4.0;  // 80 ips, below every entry's throughput
  sc.deviation = 0.1;
  sc.duration_s = 30.0;
  sc.seed = seed;
  return sc;
}

FaultSpec seu_faults(double weight_prob, double config_prob) {
  FaultSpec f;
  f.seu_weight_prob = weight_prob;
  f.seu_config_prob = config_prob;
  return f;
}

TEST(SeuInjector, DeterministicPerSeed) {
  const FaultSpec f = seu_faults(0.3, 0.3);
  FaultInjector a(f, 42), b(f, 42), c(f, 43);
  bool differs_from_c = false;
  for (int i = 0; i < 300; ++i) {
    const bool wa = a.draw_weight_upset();
    EXPECT_EQ(wa, b.draw_weight_upset());
    const ConfigUpset ca = a.draw_config_upset();
    EXPECT_EQ(ca, b.draw_config_upset());
    if (wa != c.draw_weight_upset() || ca != c.draw_config_upset()) {
      differs_from_c = true;
    }
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(SeuInjector, StreamsIndependentOfOtherFaultCategories) {
  // Drawing reconfigurations and stalls at wildly different cadence must
  // not perturb the SEU upset sequence — and vice versa.
  FaultSpec quiet = seu_faults(0.25, 0.25);
  FaultSpec noisy = quiet;
  noisy.reconfig_fail_prob = 0.9;
  noisy.stall_prob = 0.9;
  noisy.monitor_drop_prob = 0.9;
  FaultInjector a(quiet, 7), b(noisy, 7);
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      (void)b.attempt_reconfig(100.0);
      (void)b.draw_stall();
      (void)b.draw_stall();
      (void)b.draw_monitor_drop();
    }
    EXPECT_EQ(a.draw_weight_upset(), b.draw_weight_upset()) << "tick " << i;
    EXPECT_EQ(a.draw_config_upset(), b.draw_config_upset()) << "tick " << i;
  }

  // Mirror direction: enabling SEUs (and drawing them) must not perturb the
  // reconfiguration-outcome sequence.
  FaultSpec base;
  base.reconfig_fail_prob = 0.4;
  FaultSpec with_seu = base;
  with_seu.seu_weight_prob = 0.8;
  with_seu.seu_config_prob = 0.8;
  FaultInjector r1(base, 11), r2(with_seu, 11);
  for (int i = 0; i < 200; ++i) {
    (void)r2.draw_weight_upset();
    (void)r2.draw_config_upset();
    const auto o1 = r1.attempt_reconfig(145.0);
    const auto o2 = r2.attempt_reconfig(145.0);
    EXPECT_EQ(o1.success, o2.success) << "attempt " << i;
    EXPECT_DOUBLE_EQ(o1.dead_ms, o2.dead_ms) << "attempt " << i;
  }
}

TEST(SeuInjector, ConfigUpsetManifestationRespectsFractions) {
  FaultSpec f = seu_faults(0.0, 1.0);
  f.seu_hang_frac = 0.0;
  f.seu_exit_corrupt_frac = 1.0;  // every config upset corrupts an exit
  FaultInjector inj(f, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj.draw_config_upset(), ConfigUpset::kExitCorrupt);
  }
  FaultSpec g = seu_faults(0.0, 1.0);
  g.seu_hang_frac = 1.0;
  g.seu_exit_corrupt_frac = 0.0;
  FaultInjector inj2(g, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj2.draw_config_upset(), ConfigUpset::kHang);
  }
}

TEST(DriftDetector, FiresWithinBoundedWindowAndRespectsMinSamples) {
  DriftPolicy p;
  p.window = 6;
  p.min_samples = 3;
  p.accuracy_tolerance = 0.05;
  p.exit_rate_tolerance = 0.20;
  DriftDetector d(p);
  d.expect(0.90, 0.5);
  // A gross accuracy drop: must not fire before min_samples, must fire by
  // the time the window is full.
  for (int i = 1; i <= p.window; ++i) {
    d.observe(0.60, 0.5);
    if (i < p.min_samples) {
      EXPECT_FALSE(d.drifted()) << "sample " << i;
    }
  }
  EXPECT_TRUE(d.drifted());
  EXPECT_GT(d.accuracy_gap(), p.accuracy_tolerance);
  // Exit-rate shift alone also fires.
  DriftDetector e(p);
  e.expect(0.90, 0.4);
  for (int i = 0; i < p.window; ++i) e.observe(0.90, 0.9);
  EXPECT_TRUE(e.drifted());
  EXPECT_GT(e.exit_rate_gap(), p.exit_rate_tolerance);
}

TEST(DriftDetector, NeverFiresOnCleanObservations) {
  DriftDetector d{DriftPolicy{}};
  d.expect(0.88, 0.5);
  for (int i = 0; i < 100; ++i) {
    d.observe(0.88, 0.5);
    EXPECT_FALSE(d.drifted()) << "sample " << i;
  }
  // expect() resets the window.
  d.expect(0.70, 1.0);
  EXPECT_EQ(d.samples(), 0);
}

TEST(DriftDetector, RejectsInvalidPolicies) {
  DriftPolicy p;
  p.window = 0;
  EXPECT_THROW(DriftDetector{p}, Error);
  p = DriftPolicy{};
  p.min_samples = 9;  // > window
  EXPECT_THROW(DriftDetector{p}, Error);
  p = DriftPolicy{};
  p.accuracy_tolerance = 0.0;
  EXPECT_THROW(DriftDetector{p}, Error);
  p = DriftPolicy{};
  p.exit_rate_tolerance = -0.1;
  EXPECT_THROW(DriftDetector{p}, Error);
}

TEST(RuntimeManagerDrift, ScrubsFirstThenHealsOnCleanWindow) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  mgr.select(50.0, 0.0);
  Decision d = mgr.report_drift(1.0, /*scrub_available=*/true);
  EXPECT_TRUE(d.scrub);
  EXPECT_FALSE(d.reconfigure);
  EXPECT_EQ(mgr.state(), HealthState::kScrubbing);
  mgr.drift_cleared();
  EXPECT_EQ(mgr.state(), HealthState::kHealthy);
}

TEST(RuntimeManagerDrift, EscalatesToReloadWithoutScrubberAndOnPersistence) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  mgr.select(50.0, 0.0);  // accel 2
  // No scrubber deployed: straight to a reload of the active bitstream.
  Decision d = mgr.report_drift(1.0, /*scrub_available=*/false);
  EXPECT_TRUE(d.reload);
  ASSERT_TRUE(d.reconfigure);
  EXPECT_DOUBLE_EQ(d.reconfig_ms, 145.0);
  EXPECT_EQ(d.entry_index, d.attempted_index);  // same entry, rewritten
  EXPECT_EQ(mgr.state(), HealthState::kReloadPending);
  mgr.complete_reconfig(true, 1.0);
  EXPECT_EQ(mgr.state(), HealthState::kHealthy);

  // With a scrubber: scrub once, then persistent drift escalates.
  Decision s1 = mgr.report_drift(2.0, true);
  EXPECT_TRUE(s1.scrub);
  Decision s2 = mgr.report_drift(3.0, true);  // drift persisted through scrub
  EXPECT_TRUE(s2.reload);
  EXPECT_TRUE(s2.reconfigure);
  EXPECT_EQ(mgr.state(), HealthState::kReloadPending);
}

TEST(RuntimeManagerDrift, OwedReloadSurvivesFailureAndMootHeal) {
  const Library lib = controlled_library();
  RuntimePolicy p{AdaptPolicy::kAdaPEx, 0.10};
  p.backoff.initial_s = 0.5;
  RuntimeManager mgr(lib, p, 3);
  mgr.select(50.0, 0.0);
  Decision d = mgr.report_drift(0.0, false);
  ASSERT_TRUE(d.reload);
  mgr.complete_reconfig(false, 0.0);
  EXPECT_EQ(mgr.state(), HealthState::kBackoff);
  // At the retry window the workload search is happy where it is ("moot"),
  // but the bitstream is still suspect: the manager re-proposes the reload
  // instead of silently healing.
  Decision retry = mgr.select(50.0, mgr.next_retry_s());
  EXPECT_TRUE(retry.reload);
  ASSERT_TRUE(retry.reconfigure);
  mgr.complete_reconfig(true, mgr.next_retry_s());
  EXPECT_EQ(mgr.state(), HealthState::kHealthy);
  // Settled: the next moot window heals normally, no further reload.
  Decision after = mgr.select(50.0, 10.0);
  EXPECT_FALSE(after.reload);
  EXPECT_FALSE(after.reconfigure);
}

TEST(EdgeSimSeu, ZeroRatesLeaveEverySeuMetricZero) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(13);
  // Non-SEU faults active, SEU rates zero: the SEU ledger must stay empty.
  sc.faults.reconfig_fail_prob = 0.3;
  sc.faults.stall_prob = 0.05;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(m.seu_weight_upsets, 0);
  EXPECT_EQ(m.seu_config_upsets, 0);
  EXPECT_EQ(m.seu_corrected, 0);
  EXPECT_EQ(m.seu_detected, 0);
  EXPECT_EQ(m.seu_undetected, 0);
  EXPECT_EQ(m.silent_corruptions, 0);
  EXPECT_DOUBLE_EQ(m.seu_detection_latency_s, 0.0);
  EXPECT_EQ(m.drift_detections, 0);
  EXPECT_EQ(m.seu_scrubs, 0);
  EXPECT_EQ(m.seu_reloads, 0);
  EXPECT_DOUBLE_EQ(m.scrub_overhead_s, 0.0);
  EXPECT_DOUBLE_EQ(m.post_recovery_accuracy, 0.0);
  for (const auto& tp : m.trace) {
    EXPECT_FALSE(tp.seu_upset);
    EXPECT_FALSE(tp.drift_detected);
    EXPECT_FALSE(tp.scrubbed);
    EXPECT_FALSE(tp.reloaded);
  }
}

TEST(EdgeSimSeu, CleanSeedSweepNeverFiresTheDriftDetector) {
  const Library lib = controlled_library();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EdgeScenario sc = steady_scenario(seed);
    sc.deviation = 0.6;  // plenty of reconfigurations and entry changes
    auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
    EXPECT_EQ(m.drift_detections, 0) << "seed " << seed;
    EXPECT_EQ(m.seu_reloads, 0) << "seed " << seed;
  }
}

TEST(EdgeSimSeu, EccCorrectsEveryWeightUpset) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(5);
  sc.faults = seu_faults(1.0, 0.0);
  sc.faults.mitigation.ecc_weights = true;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.seu_weight_upsets, 0);
  EXPECT_EQ(m.seu_corrected, m.seu_weight_upsets);
  EXPECT_EQ(m.silent_corruptions, 0);
  EXPECT_EQ(m.drift_detections, 0);
  // Correction is immediate: delivered accuracy matches the upset-free run.
  EdgeScenario clean = sc;
  clean.faults = FaultSpec{};
  clean.faults.mitigation.ecc_weights = true;
  auto mc = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, clean);
  EXPECT_DOUBLE_EQ(m.accuracy, mc.accuracy);
  EXPECT_EQ(m.served, mc.served);
}

TEST(EdgeSimSeu, UnmitigatedUpsetsDriftAndReloadRecovers) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(9);
  sc.faults = seu_faults(0.15, 0.10);
  sc.faults.seu_hang_frac = 0.0;  // keep the pipeline serving
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.seu_weight_upsets + m.seu_config_upsets, 0);
  EXPECT_GT(m.silent_corruptions, 0);     // damage before detection
  EXPECT_GT(m.drift_detections, 0);       // ... but it is detected
  EXPECT_GT(m.seu_reloads, 0);            // ... and repaired by reload
  EXPECT_GT(m.seu_detected, 0);
  EXPECT_GT(m.seu_detection_latency_s, 0.0);
  // Post-recovery serving is healthy again (within one upset of clean).
  EXPECT_GT(m.post_recovery_accuracy, 0.0);
  EXPECT_LT(m.accuracy, m.post_recovery_accuracy + 0.05);
  bool saw_reload_tick = false, saw_drift_tick = false;
  for (const auto& tp : m.trace) {
    saw_reload_tick |= tp.reloaded;
    saw_drift_tick |= tp.drift_detected;
  }
  EXPECT_TRUE(saw_reload_tick);
  EXPECT_TRUE(saw_drift_tick);
}

TEST(EdgeSimSeu, ScrubbingRepairsConfigUpsetsAtDarkTimeCost) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(21);
  sc.faults = seu_faults(0.0, 0.4);
  sc.faults.mitigation.scrubbing = true;
  sc.faults.mitigation.scrub_period_s = 2.0;
  sc.faults.mitigation.scrub_time_ms = 4.0;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.seu_config_upsets, 0);
  EXPECT_GT(m.seu_scrubs, 0);
  EXPECT_GT(m.scrub_overhead_s, 0.0);
  EXPECT_GT(m.seu_detected, 0);
  // The periodic scrub bounds damage: far fewer silent corruptions than
  // the unmitigated run of the same seed (paired upset streams).
  EdgeScenario bare = sc;
  bare.faults.mitigation = SeuMitigation{};
  auto mb = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, bare);
  EXPECT_LT(m.silent_corruptions, mb.silent_corruptions);
  bool saw_scrub_tick = false;
  for (const auto& tp : m.trace) saw_scrub_tick |= tp.scrubbed;
  EXPECT_TRUE(saw_scrub_tick);
}

TEST(EdgeSimSeu, TmrMasksExitConfidenceCorruption) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(33);
  sc.faults = seu_faults(0.0, 0.5);
  sc.faults.seu_hang_frac = 0.0;
  sc.faults.seu_exit_corrupt_frac = 1.0;  // every config upset hits an exit
  sc.faults.mitigation.tmr_exit_heads = true;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.seu_config_upsets, 0);
  EXPECT_EQ(m.seu_corrected, m.seu_config_upsets);
  EXPECT_EQ(m.silent_corruptions, 0);
  EXPECT_EQ(m.drift_detections, 0);
}

TEST(EdgeSimSeu, HangsAreEscalatedAndServingRecovers) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(17);
  sc.faults = seu_faults(0.0, 0.2);
  sc.faults.seu_hang_frac = 1.0;  // every config upset wedges the pipeline
  sc.faults.seu_exit_corrupt_frac = 0.0;
  sc.watchdog_periods = 4;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.seu_config_upsets, 0);
  // The hang is caught (watchdog escalation) and repaired by reload.
  EXPECT_GT(m.seu_reloads, 0);
  EXPECT_GT(m.served, 0);
  EXPECT_GT(m.dead_time_s, 0.0);
}

TEST(EdgeSimSeu, FullMitigationBeatsNoMitigation) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(3);
  sc.faults = seu_faults(0.10, 0.10);
  RuntimePolicy pol{AdaptPolicy::kAdaPEx, 0.10};
  const auto none = simulate_edge_runs(lib, pol, sc, 8);
  EdgeScenario full = sc;
  full.faults.mitigation.ecc_weights = true;
  full.faults.mitigation.scrubbing = true;
  full.faults.mitigation.tmr_exit_heads = true;
  const auto mit = simulate_edge_runs(lib, pol, full, 8);
  EXPECT_LT(mit.silent_corruptions, none.silent_corruptions);
  EXPECT_GE(mit.accuracy, none.accuracy);
  // The protection is not free: scrub passes cost dark time.
  EXPECT_GT(mit.scrub_overhead_s, 0.0);
}

TEST(EdgeSimSeu, SeuEpisodesAreIdenticalAcrossConcurrentThreads) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(29);
  sc.faults = seu_faults(0.2, 0.2);
  sc.faults.mitigation.scrubbing = true;
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
    EXPECT_EQ(m.seu_weight_upsets, serial.seu_weight_upsets);
    EXPECT_EQ(m.seu_config_upsets, serial.seu_config_upsets);
    EXPECT_EQ(m.seu_scrubs, serial.seu_scrubs);
    EXPECT_EQ(m.silent_corruptions, serial.silent_corruptions);
    EXPECT_DOUBLE_EQ(m.seu_detection_latency_s,
                     serial.seu_detection_latency_s);
    EXPECT_DOUBLE_EQ(m.accuracy, serial.accuracy);
  }
}

TEST(EdgeMetricsWriters, JsonAndCsvCoverTheSameScalars) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(7);
  sc.faults = seu_faults(0.1, 0.1);
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  const Json j = m.to_json();
  const std::string header = EdgeMetrics::csv_header();
  const std::string row = m.csv_row();
  // Same column count in header, row, and JSON object.
  const auto count = [](const std::string& s) {
    std::size_t n = 1;
    for (char c : s) n += c == ',';
    return n;
  };
  EXPECT_EQ(count(header), count(row));
  EXPECT_EQ(count(header), j.as_object().size());
  for (const char* key :
       {"qoe", "silent_corruptions", "seu_detected", "scrub_overhead_s",
        "post_recovery_accuracy", "availability_pct"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
  EXPECT_DOUBLE_EQ(j.at("accuracy").as_number(), m.accuracy);
}

TEST(EdgeMetricsWriters, RefuseNonFiniteValues) {
  EdgeMetrics m;
  m.accuracy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.to_json(), Error);
  EXPECT_THROW(m.csv_row(), Error);
  m.accuracy = std::numeric_limits<double>::infinity();
  EXPECT_THROW(m.to_json(), Error);
}

TEST(EdgeMetricsWriters, ZeroSampleEpisodeStaysFinite) {
  const Library lib = controlled_library();
  EdgeScenario sc = steady_scenario(2);
  sc.ips_per_camera = 0.0;  // nothing is ever offered
  sc.duration_s = 1.0;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(m.offered, 0);
  EXPECT_EQ(m.served, 0);
  EXPECT_DOUBLE_EQ(m.inference_loss_pct, 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_NO_THROW(m.to_json());
  EXPECT_NO_THROW(m.csv_row());
}

/// An SEU setup where some seeds recover by reload and others never do.
EdgeScenario partly_recovering_scenario() {
  EdgeScenario sc = steady_scenario(9);
  sc.faults = seu_faults(0.02, 0.0132);
  sc.faults.seu_hang_frac = 0.0;
  return sc;
}

TEST(EdgeMetricsPooling, OneRunPoolsToTheEpisodeItself) {
  const Library lib = controlled_library();
  const RuntimePolicy pol{AdaptPolicy::kAdaPEx, 0.10};
  const EdgeScenario sc = partly_recovering_scenario();
  EXPECT_EQ(simulate_edge_runs(lib, pol, sc, 1).to_json().dump(),
            simulate_edge(lib, pol, sc).to_json().dump());
}

TEST(EdgeMetricsPooling, EveryFieldPoolsByItsKind) {
  const Library lib = controlled_library();
  const RuntimePolicy pol{AdaptPolicy::kAdaPEx, 0.10};
  const EdgeScenario sc = partly_recovering_scenario();
  constexpr int kRuns = 5;
  std::vector<EdgeMetrics> episodes;
  for (int r = 0; r < kRuns; ++r) {
    EdgeScenario run = sc;
    run.seed = sc.seed + static_cast<std::uint64_t>(r);
    episodes.push_back(simulate_edge(lib, pol, run));
  }
  const EdgeMetrics pooled = simulate_edge_runs(lib, pol, sc, kRuns);
  for (const MetricField<EdgeMetrics>& f : edge_metric_fields()) {
    if (f.pooling == Pooling::kDerived) continue;  // derive_ratios' job
    double sum = 0.0;
    double weighted = 0.0;
    double weight = 0.0;
    for (const EdgeMetrics& m : episodes) {
      const double w = static_cast<double>(
          f.pooling == Pooling::kPostRecovery ? m.post_recovery_served
                                              : m.served);
      sum += f.get(m);
      weighted += f.get(m) * w;
      weight += w;
    }
    if (f.pooling == Pooling::kSum) {
      EXPECT_EQ(f.get(pooled), sum) << f.name;
    } else {
      EXPECT_DOUBLE_EQ(f.get(pooled), weight > 0.0 ? weighted / weight : 0.0)
          << f.name;
    }
  }
}

TEST(EdgeMetricsPooling, PostRecoveryAccuracyWeighsOnlyRecoveredRequests) {
  // Runs that never reload serve no post-recovery requests; weighting the
  // pooled mean by every served request let them drag it far below every
  // recovered run's value.
  const Library lib = controlled_library();
  const RuntimePolicy pol{AdaptPolicy::kAdaPEx, 0.10};
  const EdgeScenario sc = partly_recovering_scenario();
  constexpr int kRuns = 8;
  double weighted = 0.0;
  long served = 0;
  double lo = 1.0;
  double hi = 0.0;
  int unrecovered = 0;
  for (int r = 0; r < kRuns; ++r) {
    EdgeScenario run = sc;
    run.seed = sc.seed + static_cast<std::uint64_t>(r);
    const EdgeMetrics m = simulate_edge(lib, pol, run);
    if (m.post_recovery_served == 0) {
      ++unrecovered;
      continue;
    }
    weighted += m.post_recovery_accuracy *
                static_cast<double>(m.post_recovery_served);
    served += m.post_recovery_served;
    lo = std::min(lo, m.post_recovery_accuracy);
    hi = std::max(hi, m.post_recovery_accuracy);
  }
  ASSERT_GT(unrecovered, 0);
  ASSERT_GT(served, 0);
  const EdgeMetrics pooled = simulate_edge_runs(lib, pol, sc, kRuns);
  EXPECT_EQ(pooled.post_recovery_served, served);
  EXPECT_DOUBLE_EQ(pooled.post_recovery_accuracy,
                   weighted / static_cast<double>(served));
  EXPECT_GE(pooled.post_recovery_accuracy, lo);
  EXPECT_LE(pooled.post_recovery_accuracy, hi);
}

TEST(MitigationCostModel, OverheadsMatchTheModel) {
  Accelerator acc;
  HlsModule mvtu;
  mvtu.kind = HlsModuleKind::kMvtu;
  mvtu.resources = {1000, 1100, 40, 0};
  HlsModule head;
  head.kind = HlsModuleKind::kMvtu;
  head.exit_head = 0;
  head.resources = {300, 330, 8, 2};
  HlsModule branch;
  branch.kind = HlsModuleKind::kBranch;
  branch.resources = {50, 60, 2, 0};
  acc.modules = {mvtu, head, branch};
  acc.num_exits = 1;

  const MitigationCostModel cost;
  SeuMitigation none;
  const auto zero = estimate_mitigation(acc, none, cost);
  EXPECT_EQ(zero.overhead.lut, 0);
  EXPECT_EQ(zero.overhead.bram, 0);
  EXPECT_DOUBLE_EQ(zero.throughput_factor, 1.0);

  SeuMitigation ecc;
  ecc.ecc_weights = true;
  const auto er = estimate_mitigation(acc, ecc, cost);
  // Both MVTU modules' BRAMs are weight memory (48); the branch's are not.
  EXPECT_EQ(er.protected_weight_brams, 48);
  EXPECT_EQ(er.overhead.bram, 6);  // ceil(0.125 * 48)
  EXPECT_EQ(er.overhead.lut, 48 * 55);
  EXPECT_DOUBLE_EQ(er.throughput_factor, cost.ecc_throughput_factor);

  SeuMitigation tmr;
  tmr.tmr_exit_heads = true;
  const auto tr = estimate_mitigation(acc, tmr, cost);
  // Two extra replicas of the exit head plus one voter.
  EXPECT_EQ(tr.overhead.lut, 2 * 300 + 120);
  EXPECT_EQ(tr.overhead.dsp, 4);
  EXPECT_EQ(tr.tmr_heads, 1);
  EXPECT_DOUBLE_EQ(tr.throughput_factor, 1.0);

  SeuMitigation scrub;
  scrub.scrubbing = true;
  const auto sr = estimate_mitigation(acc, scrub, cost);
  EXPECT_EQ(sr.overhead.lut, 1800);
  EXPECT_EQ(sr.overhead.bram, 4);
}

TEST(LibrarySerialization, MitigationRoundTripsAndStaysAbsentWhenOff) {
  Library lib = controlled_library();
  const std::string bare = lib.to_json().dump();
  EXPECT_EQ(bare.find("mitigation"), std::string::npos);

  lib.mitigation.ecc_weights = true;
  lib.mitigation.scrubbing = true;
  lib.mitigation.scrub_period_s = 1.5;
  lib.accelerators[0].mitigation = lib.mitigation;
  lib.accelerators[0].mitigation_overhead = {100, 200, 3, 0};
  const Library back = Library::from_json(lib.to_json());
  EXPECT_TRUE(back.mitigation.ecc_weights);
  EXPECT_TRUE(back.mitigation.scrubbing);
  EXPECT_DOUBLE_EQ(back.mitigation.scrub_period_s, 1.5);
  EXPECT_TRUE(back.accelerators[0].mitigation.any());
  EXPECT_EQ(back.accelerators[0].mitigation_overhead.ff, 200);
  EXPECT_FALSE(back.accelerators[1].mitigation.any());
}

TEST(LibraryCache, MitigationOffDoesNotTouchTheKey) {
  LibraryGenSpec a;
  LibraryGenSpec b = a;
  // Fields of a *disabled* mitigation must not enter the key: pre-existing
  // cached artifacts stay valid.
  b.mitigation.scrub_period_s = 99.0;
  b.mitigation_cost.scrub_lut = 12345.0;
  EXPECT_EQ(library_cache_key(a), library_cache_key(b));
  // Enabling a mitigation must change the key.
  LibraryGenSpec c = a;
  c.mitigation.ecc_weights = true;
  EXPECT_NE(library_cache_key(a), library_cache_key(c));
}

}  // namespace
}  // namespace adapex
