// Tests for the Runtime Manager and the edge-serving simulation, using a
// hand-built library so behaviour is exactly controlled.

#include <gtest/gtest.h>

#include "edge/simulation.hpp"
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

/// A small controlled library: reference accuracy 0.90.
///  accel 0: no-exit rate 0  (acc .90, 100 ips)
///  accel 1: no-exit rate 50 (acc .70, 300 ips)
///  accel 2: EE not-pruned rate 0, ct 50/5 (acc .88/.84, 120/200 ips)
///  accel 3: EE not-pruned rate 50, ct 50/5 (acc .82/.78, 350/500 ips)
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

TEST(RuntimeManager, EligibilityPerPolicy) {
  const Library lib = controlled_library();
  EXPECT_EQ(RuntimeManager(lib, {AdaptPolicy::kAdaPEx, 0.1}).eligible().size(),
            4u);
  EXPECT_EQ(RuntimeManager(lib, {AdaptPolicy::kPrOnly, 0.1}).eligible().size(),
            2u);
  EXPECT_EQ(RuntimeManager(lib, {AdaptPolicy::kCtOnly, 0.1}).eligible().size(),
            2u);
  EXPECT_EQ(
      RuntimeManager(lib, {AdaptPolicy::kStaticFinn, 0.1}).eligible().size(),
      1u);
}

TEST(RuntimeManager, PicksMostAccurateFeasible) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  // Low workload: most accurate entry above 0.81 (= 0.9 * 0.9) -> acc .88.
  mgr.select(50.0);
  EXPECT_DOUBLE_EQ(mgr.current().accuracy, 0.88);
  // Workload 300: only the rate-50 EE entries sustain it; acc .82 wins.
  mgr.select(300.0);
  EXPECT_DOUBLE_EQ(mgr.current().accuracy, 0.82);
  // Workload 450: only ct 5 (500 ips), below accuracy bar -> best effort:
  // fastest accuracy-OK entry. 0.78 < 0.81, so feasible set is empty and
  // the manager maximizes throughput among accuracy-OK entries -> 0.82/350.
  mgr.select(450.0);
  EXPECT_DOUBLE_EQ(mgr.current().accuracy, 0.82);
}

TEST(RuntimeManager, ThresholdSwitchIsFreeReconfigIsNot) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.10});
  mgr.select(50.0);  // accel 2 (ct 50)
  EXPECT_EQ(mgr.current().accel_id, 2);
  // Move within the same accelerator: workload 150 -> ct 5 on accel 2.
  Decision d1 = mgr.select(150.0);
  EXPECT_EQ(mgr.current().accel_id, 2);
  EXPECT_EQ(mgr.current().conf_threshold_pct, 5);
  EXPECT_FALSE(d1.reconfigure);
  // Move to accel 3: reconfiguration.
  Decision d2 = mgr.select(300.0);
  EXPECT_EQ(mgr.current().accel_id, 3);
  EXPECT_TRUE(d2.reconfigure);
  EXPECT_DOUBLE_EQ(d2.reconfig_ms, 145.0);
}

TEST(RuntimeManager, StaticFinnNeverMoves) {
  const Library lib = controlled_library();
  RuntimeManager mgr(lib, {AdaptPolicy::kStaticFinn, 0.10});
  for (double w : {10.0, 200.0, 1000.0}) {
    Decision d = mgr.select(w);
    EXPECT_FALSE(d.reconfigure);
    EXPECT_EQ(mgr.current().prune_rate_pct, 0);
    EXPECT_EQ(mgr.current().variant, ModelVariant::kNoExit);
  }
}

TEST(RuntimeManager, AccuracyBarRelaxesGracefully) {
  const Library lib = controlled_library();
  // Impossible bar (loss 0 with reference 0.90 -> only the 0.90 entry, which
  // is no-exit and ineligible for AdaPEx): falls back to most accurate.
  RuntimeManager mgr(lib, {AdaptPolicy::kAdaPEx, 0.0});
  mgr.select(50.0);
  EXPECT_DOUBLE_EQ(mgr.current().accuracy, 0.88);
}

TEST(EdgeSim, NoOverloadMeansNoLoss) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = 20.0;  // all entries sustain it
  sc.seed = 5;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_GT(m.offered, 0);
  EXPECT_DOUBLE_EQ(m.inference_loss_pct, 0.0);
  EXPECT_NEAR(m.accuracy, 0.88, 0.05);
  EXPECT_GT(m.qoe, 0.8);
}

TEST(EdgeSim, StaticFinnDropsUnderOverload) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = 150.0;  // vs 100 ips FINN capacity
  sc.seed = 6;
  auto finn = simulate_edge(lib, {AdaptPolicy::kStaticFinn, 0.10}, sc);
  auto adapex = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(finn.inference_loss_pct, 10.0);
  EXPECT_LT(adapex.inference_loss_pct, finn.inference_loss_pct);
  EXPECT_GT(adapex.qoe, finn.qoe);
  EXPECT_GT(adapex.served, finn.served);
}

TEST(EdgeSim, MetricsAreConsistent) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = 150.0;
  sc.seed = 7;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_EQ(m.offered, m.served + m.dropped);
  EXPECT_GT(m.energy_j, 0.0);
  EXPECT_NEAR(m.avg_power_w, m.energy_j / sc.duration_s, 1e-9);
  EXPECT_NEAR(m.qoe, m.accuracy * (static_cast<double>(m.served) / m.offered),
              1e-9);
  EXPECT_GE(m.avg_power_w, lib.static_power_w - 1e-9);
  // Traces were recorded at the sampling cadence.
  EXPECT_NEAR(static_cast<double>(m.trace.size()),
              sc.duration_s / sc.sample_period_s, 2.0);
}

TEST(EdgeSim, AveragingRunsIsDeterministic) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = 150.0;
  sc.seed = 11;
  auto a = simulate_edge_runs(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc, 5);
  auto b = simulate_edge_runs(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc, 5);
  EXPECT_DOUBLE_EQ(a.qoe, b.qoe);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.served, b.served);
}

TEST(EdgeSim, ScaleToLibraryTargetsFinnCapacity) {
  const Library lib = controlled_library();
  EdgeScenario scaled = scale_to_library(EdgeScenario{}, lib, 1.3);
  EXPECT_NEAR(scaled.workload.base_ips, 130.0, 1e-9);  // 1.3 x 100 ips
}

TEST(EdgeSim, FlashCrowdForcesAdaptation) {
  const Library lib = controlled_library();
  EdgeScenario sc;
  sc.workload.base_ips = 100.0;  // at FINN capacity
  sc.workload.pattern = WorkloadPattern::kFlashCrowd;
  sc.workload.spike_start_s = 10.0;
  sc.workload.spike_duration_s = 5.0;
  sc.workload.spike_multiplier = 3.0;  // 300 ips: needs the pruned accelerator
  sc.seed = 17;
  auto adapex = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  auto finn = simulate_edge(lib, {AdaptPolicy::kStaticFinn, 0.10}, sc);
  EXPECT_LT(adapex.inference_loss_pct, finn.inference_loss_pct);
  // The trace shows the pruning-rate switch during the spike window.
  bool switched_during_spike = false;
  for (const auto& tp : adapex.trace) {
    if (tp.time_s >= sc.workload.spike_start_s &&
        tp.time_s <= sc.workload.spike_start_s +
                          sc.workload.spike_duration_s + 1.0 &&
        tp.prune_rate_pct > 0) {
      switched_during_spike = true;
    }
  }
  EXPECT_TRUE(switched_during_spike);
}

TEST(EdgeSim, ReconfigurationCostsServiceTime) {
  const Library lib = controlled_library();
  // Workload oscillates around the accel-2/accel-3 boundary to force
  // repeated reconfigurations.
  EdgeScenario sc;
  sc.workload.base_ips = 240.0;  // needs accel 3; deviation dips below
  sc.workload.deviation = 0.6;
  sc.seed = 13;
  auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
  EXPECT_GT(m.reconfigurations, 0);
}

}  // namespace
}  // namespace adapex
