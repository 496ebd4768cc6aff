// Byte-identity goldens for every serialized config and artifact struct.
//
// Each instance sets every field to a non-default value, including the
// conditional keys (a mitigated and a reach-aware accelerator, a trace
// workload, a retried point with an error and an eval path). The expected
// strings are the on-disk format of existing Libraries, checkpoints, reports
// and scenarios: they pin key order, number formatting and conditional keys,
// and reading them back must write the same bytes again.

#include <gtest/gtest.h>

#include "edge/fleet.hpp"
#include "library/journal.hpp"
#include "model/cnv.hpp"

namespace adapex {
namespace {

AcceleratorRecord mitigated_accelerator() {
  AcceleratorRecord a;
  a.id = 3;
  a.variant = ModelVariant::kPrunedExits;
  a.prune_rate_pct = 40;
  a.resources = {12345, 23456, 78, 9};
  a.exit_overhead = {1111, 2222, 3, 1};
  a.reconfig_ms = 151.5;
  a.mitigation.ecc_weights = true;
  a.mitigation.scrubbing = true;
  a.mitigation.scrub_period_s = 2.5;
  a.mitigation.scrub_time_ms = 4.75;
  a.mitigation.tmr_exit_heads = true;
  a.mitigation_overhead = {100, 200, 4, 2};
  return a;
}

AcceleratorRecord reach_accelerator() {
  AcceleratorRecord a;
  a.id = 7;
  a.variant = ModelVariant::kNotPrunedExits;
  a.prune_rate_pct = 25;
  a.resources = {9876543, 8765432, 321, 17};
  a.exit_overhead = {4321, 5432, 6, 0};
  a.reconfig_ms = 99.125;
  a.folding_mode = "reach";
  a.reach_regime = {0.5, 0.30000000000000004, 0.2};
  return a;
}

LibraryEntry exit_entry() {
  LibraryEntry e;
  e.accel_id = 3;
  e.variant = ModelVariant::kPrunedExits;
  e.prune_rate_pct = 40;
  e.conf_threshold_pct = 85;
  e.accuracy = 0.7654321;
  e.exit_fractions = {0.25, 0.35, 0.4};
  e.ips = 1234.5;
  e.latency_ms = 0.8125;
  e.peak_power_w = 2.75;
  e.energy_per_inf_j = 0.00123456789;
  return e;
}

LibraryEntry reach_entry() {
  LibraryEntry e;
  e.accel_id = 7;
  e.variant = ModelVariant::kNotPrunedExits;
  e.prune_rate_pct = 25;
  e.conf_threshold_pct = 60;
  e.accuracy = 0.1 + 0.2;
  e.exit_fractions = {1.0 / 3.0, 1e-7, 0.6666665666666667};
  e.ips = 98765.4321;
  e.latency_ms = 12;
  e.peak_power_w = 3.5e-2;
  e.energy_per_inf_j = 1e-9;
  return e;
}

Library golden_library() {
  Library lib;
  lib.dataset = "cifar10-golden";
  lib.reference_accuracy = 0.8421;
  lib.static_power_w = 1.25;
  lib.mitigation.ecc_weights = true;
  lib.mitigation.scrubbing = true;
  lib.mitigation.scrub_period_s = 3.5;
  lib.mitigation.scrub_time_ms = 6.25;
  lib.mitigation.tmr_exit_heads = true;
  lib.accelerators = {mitigated_accelerator(), reach_accelerator()};
  lib.entries = {exit_entry(), reach_entry()};
  return lib;
}

JournalPoint golden_point() {
  JournalPoint p;
  p.index = 17;
  p.variant = ModelVariant::kNotPrunedExits;
  p.rate_pct = 25;
  p.retrain_seed = 0x9e3779b97f4a7c15ULL;
  p.accelerators = {reach_accelerator()};
  p.entries = {reach_entry()};
  p.progress_msg = "point 17: \"not_pruned_exits\" rate 25%\n";
  return p;
}

GenerationReport golden_report() {
  PointOutcome retried;
  retried.index = 4;
  retried.variant = ModelVariant::kPrunedExits;
  retried.rate_pct = 30;
  retried.status = PointStatus::kRetried;
  retried.attempts = 2;
  retried.wall_s = 1.5;
  retried.checkpoint_s = 0.125;
  retried.error = "induced fault";
  retried.eval_path = "float";
  retried.verify_s = 0.375;
  retried.cross_validations = 6;
  PointOutcome replayed;
  replayed.index = 5;
  replayed.variant = ModelVariant::kNotPrunedExits;
  replayed.rate_pct = 50;
  replayed.status = PointStatus::kReplayed;
  replayed.attempts = 0;
  GenerationReport r;
  r.points = {retried, replayed};
  r.partial = true;
  r.total_wall_s = 12.5;
  r.compute_wall_s = 10.25;
  r.checkpoint_wall_s = 0.5;
  r.verify_wall_s = 1.75;
  r.base_wall_s.plain = 3.25;
  r.base_wall_s.early_exit = 4.5;
  return r;
}

ExitsConfig golden_exits() {
  ExitsConfig cfg;
  cfg.exits = {ExitSpec{1, ExitOps::kPoolFc}, ExitSpec{0, ExitOps::kFc}};
  cfg.prune_exits = true;
  return cfg;
}

FleetScenario golden_scenario() {
  FleetScenario s;
  s.base.duration_s = 42.5;
  s.base.sample_period_s = 0.25;
  s.base.reselect_threshold = 0.2;
  s.base.queue_capacity = 90;
  s.base.watchdog_periods = 11;
  s.base.seed = 123456789012ULL;
  FaultSpec& f = s.base.faults;
  f.reconfig_fail_prob = 0.01;
  f.reconfig_slow_prob = 0.02;
  f.reconfig_slow_factor = 3.5;
  f.stall_prob = 0.03;
  f.stall_duration_s = 1.5;
  f.monitor_drop_prob = 0.04;
  f.monitor_delay_prob = 0.05;
  f.seu_weight_prob = 0.001;
  f.seu_config_prob = 0.002;
  f.seu_weight_accuracy_drop = 0.045;
  f.seu_config_accuracy_drop = 0.065;
  f.seu_exit_rate_shift = 0.3;
  f.seu_hang_frac = 0.2;
  f.seu_exit_corrupt_frac = 0.4;
  f.mitigation.ecc_weights = true;
  f.mitigation.scrubbing = true;
  f.mitigation.scrub_period_s = 1.75;
  f.mitigation.scrub_time_ms = 3.25;
  f.mitigation.tmr_exit_heads = true;
  s.devices = {FleetDeviceSpec{"edge-a", 1.5, 0},
               FleetDeviceSpec{"edge-b", 0.75, 1}};
  TenantSpec cams;
  cams.name = "cams";
  cams.workload.pattern = WorkloadPattern::kTrace;
  cams.workload.base_ips = 750.0;
  cams.workload.duration_s = 30.0;
  cams.workload.period_s = 2.5;
  cams.workload.deviation = 0.2;
  cams.workload.spike_start_s = 3.0;
  cams.workload.spike_duration_s = 4.0;
  cams.workload.spike_multiplier = 2.5;
  cams.workload.trace = {1.0, 1.5, 0.5};
  cams.slo_latency_ms = 12.5;
  cams.min_accuracy = 0.7;
  cams.priority = 2;
  TenantSpec bulk;
  bulk.name = "bulk";
  bulk.workload.pattern = WorkloadPattern::kFlashCrowd;
  bulk.workload.base_ips = 125.25;
  bulk.slo_latency_ms = 80.0;
  bulk.min_accuracy = 0.55;
  bulk.priority = -1;
  s.tenants = {cams, bulk};
  s.fleet_faults.domains = {FailureDomain{"rack-1", 0.05, 7.5, 2.0, 3.0}};
  s.batching = {true, 16, 2.5, 0.3};
  s.admission = {true, 0.9, 0.4};
  s.breaker = {3, 1.5, 6.5, 2};
  s.stagger = {true, 0.6, 12.0};
  s.orchestrator_period_s = 0.5;
  s.balance_hysteresis = 0.35;
  s.eject_after_watchdog = 4;
  return s;
}

constexpr const char* kLibraryGolden =
    R"({"dataset":"cifar10-golden","reference_accuracy":0.842099999999999)"
    R"(96,"static_power_w":1.25,"mitigation":{"ecc_weights":true,"scrubbi)"
    R"(ng":true,"scrub_period_s":3.5,"scrub_time_ms":6.25,"tmr_exit_heads)"
    R"(":true},"accelerators":[{"id":3,"variant":"pruned_exits","prune_ra)"
    R"(te_pct":40,"resources":{"lut":12345,"ff":23456,"bram":78,"dsp":9},)"
    R"("exit_overhead":{"lut":1111,"ff":2222,"bram":3,"dsp":1},"reconfig_)"
    R"(ms":151.5,"mitigation":{"ecc_weights":true,"scrubbing":true,"scrub)"
    R"(_period_s":2.5,"scrub_time_ms":4.75,"tmr_exit_heads":true},"mitiga)"
    R"(tion_overhead":{"lut":100,"ff":200,"bram":4,"dsp":2}},{"id":7,"var)"
    R"(iant":"not_pruned_exits","prune_rate_pct":25,"resources":{"lut":98)"
    R"(76543,"ff":8765432,"bram":321,"dsp":17},"exit_overhead":{"lut":432)"
    R"(1,"ff":5432,"bram":6,"dsp":0},"reconfig_ms":99.125,"folding_mode":)"
    R"("reach","reach_regime":[0.5,0.30000000000000004,0.2000000000000000)"
    R"(1]}],"entries":[{"accel_id":3,"variant":"pruned_exits","prune_rate)"
    R"(_pct":40,"conf_threshold_pct":85,"accuracy":0.76543209999999995,"e)"
    R"(xit_fractions":[0.25,0.34999999999999998,0.40000000000000002],"ips)"
    R"(":1234.5,"latency_ms":0.8125,"peak_power_w":2.75,"energy_per_inf_j)"
    R"(":0.0012345678899999999},{"accel_id":7,"variant":"not_pruned_exits)"
    R"(","prune_rate_pct":25,"conf_threshold_pct":60,"accuracy":0.3000000)"
    R"(0000000004,"exit_fractions":[0.33333333333333331,9.999999999999999)"
    R"(5e-08,0.66666656666666668],"ips":98765.432100000005,"latency_ms":1)"
    R"(2,"peak_power_w":0.035000000000000003,"energy_per_inf_j":1.0000000)"
    R"(000000001e-09}]})";

constexpr const char* kJournalPointGolden =
    R"({"index":17,"variant":"not_pruned_exits","rate_pct":25,"retrain_se)"
    R"(ed":"9e3779b97f4a7c15","accelerators":[{"id":7,"variant":"not_prun)"
    R"(ed_exits","prune_rate_pct":25,"resources":{"lut":9876543,"ff":8765)"
    R"(432,"bram":321,"dsp":17},"exit_overhead":{"lut":4321,"ff":5432,"br)"
    R"(am":6,"dsp":0},"reconfig_ms":99.125,"folding_mode":"reach","reach_)"
    R"(regime":[0.5,0.30000000000000004,0.20000000000000001]}],"entries":)"
    R"([{"accel_id":7,"variant":"not_pruned_exits","prune_rate_pct":25,"c)"
    R"(onf_threshold_pct":60,"accuracy":0.30000000000000004,"exit_fractio)"
    R"(ns":[0.33333333333333331,9.9999999999999995e-08,0.6666665666666666)"
    R"(8],"ips":98765.432100000005,"latency_ms":12,"peak_power_w":0.03500)"
    R"(0000000000003,"energy_per_inf_j":1.0000000000000001e-09}],"progres)"
    R"(s_msg":"point 17: \"not_pruned_exits\" rate 25%\n"})";

constexpr const char* kReportGolden =
    R"({"partial":true,"total_wall_s":12.5,"compute_wall_s":10.25,"checkp)"
    R"(oint_wall_s":0.5,"verify_wall_s":1.75,"checkpoint_overhead":0.0487)"
    R"(8048780487805,"base_wall_s":{"plain":3.25,"early_exit":4.5},"point)"
    R"(s":[{"index":4,"variant":"pruned_exits","rate_pct":30,"status":"re)"
    R"(tried","attempts":2,"wall_s":1.5,"checkpoint_s":0.125,"verify_s":0)"
    R"(.375,"cross_validations":6,"error":"induced fault","eval_path":"fl)"
    R"(oat"},{"index":5,"variant":"not_pruned_exits","rate_pct":50,"statu)"
    R"(s":"replayed","attempts":0,"wall_s":0,"checkpoint_s":0,"verify_s":)"
    R"(0,"cross_validations":0}]})";

constexpr const char* kExitsGolden =
    R"({"exits":[{"after_block":1,"ops":"pool_fc"},{"after_block":0,"ops")"
    R"(:"fc"}],"pruned":true})";

constexpr const char* kScenarioGolden =
    R"({"base":{"duration_s":42.5,"sample_period_s":0.25,"reselect_thresh)"
    R"(old":0.20000000000000001,"queue_capacity":90,"watchdog_periods":11)"
    R"(,"seed":123456789012,"faults":{"reconfig_fail_prob":0.01,"reconfig)"
    R"(_slow_prob":0.02,"reconfig_slow_factor":3.5,"stall_prob":0.0299999)"
    R"(99999999999,"stall_duration_s":1.5,"monitor_drop_prob":0.040000000)"
    R"(000000001,"monitor_delay_prob":0.050000000000000003,"seu_weight_pr)"
    R"(ob":0.001,"seu_config_prob":0.002,"seu_weight_accuracy_drop":0.044)"
    R"(999999999999998,"seu_config_accuracy_drop":0.065000000000000002,"s)"
    R"(eu_exit_rate_shift":0.29999999999999999,"seu_hang_frac":0.20000000)"
    R"(000000001,"seu_exit_corrupt_frac":0.40000000000000002,"mitigation")"
    R"(:{"ecc_weights":true,"scrubbing":true,"scrub_period_s":1.75,"scrub)"
    R"(_time_ms":3.25,"tmr_exit_heads":true}}},"devices":[{"name":"edge-a)"
    R"(","speed_factor":1.5,"domain":0},{"name":"edge-b","speed_factor":0)"
    R"(.75,"domain":1}],"tenants":[{"name":"cams","workload":{"pattern":")"
    R"(trace","base_ips":750,"duration_s":30,"period_s":2.5,"deviation":0)"
    R"(.20000000000000001,"spike_start_s":3,"spike_duration_s":4,"spike_m)"
    R"(ultiplier":2.5,"trace":[1,1.5,0.5]},"slo_latency_ms":12.5,"min_acc)"
    R"(uracy":0.69999999999999996,"priority":2},{"name":"bulk","workload")"
    R"(:{"pattern":"flash_crowd","base_ips":125.25,"duration_s":25,"perio)"
    R"(d_s":5,"deviation":0.29999999999999999,"spike_start_s":10,"spike_d)"
    R"(uration_s":5,"spike_multiplier":2},"slo_latency_ms":80,"min_accura)"
    R"(cy":0.55000000000000004,"priority":-1}],"domains":[{"name":"rack-1)"
    R"(","spike_prob":0.050000000000000003,"spike_duration_s":7.5,"transi)"
    R"(ent_mult":2,"seu_mult":3}],"batching":{"enabled":true,"max_batch":)"
    R"(16,"max_wait_ms":2.5,"setup_ms":0.29999999999999999},"admission":{)"
    R"("enabled":true,"high_watermark":0.90000000000000002,"low_watermark)"
    R"(":0.40000000000000002},"breaker":{"open_after_failures":3,"wedge_t)"
    R"(hreshold_s":1.5,"open_duration_s":6.5,"half_open_probes":2},"stagg)"
    R"(er":{"enabled":true,"min_capacity_fraction":0.59999999999999998,"m)"
    R"(ax_defer_s":12},"orchestrator_period_s":0.5,"balance_hysteresis":0)"
    R"(.34999999999999998,"eject_after_watchdog":4})";

TEST(SerializeGolden, LibraryWritesTheGoldenBytes) {
  EXPECT_EQ(golden_library().to_json().dump(), kLibraryGolden);
  EXPECT_EQ(Library::from_json(Json::parse(kLibraryGolden)).to_json().dump(),
            kLibraryGolden);
}

TEST(SerializeGolden, JournalPointWritesTheGoldenBytes) {
  EXPECT_EQ(golden_point().to_json().dump(), kJournalPointGolden);
  const JournalPoint back =
      JournalPoint::from_json(Json::parse(kJournalPointGolden));
  EXPECT_EQ(back.to_json().dump(), kJournalPointGolden);
}

TEST(SerializeGolden, GenerationReportWritesTheGoldenBytes) {
  EXPECT_EQ(golden_report().to_json().dump(), kReportGolden);
}

TEST(SerializeGolden, ExitsConfigWritesTheGoldenBytes) {
  EXPECT_EQ(golden_exits().to_json().dump(), kExitsGolden);
  EXPECT_EQ(ExitsConfig::from_json(Json::parse(kExitsGolden)).to_json().dump(),
            kExitsGolden);
}

TEST(SerializeGolden, FleetScenarioWritesTheGoldenBytes) {
  EXPECT_EQ(golden_scenario().to_json().dump(), kScenarioGolden);
  EXPECT_EQ(
      FleetScenario::from_json(Json::parse(kScenarioGolden)).to_json().dump(),
      kScenarioGolden);
}

}  // namespace
}  // namespace adapex
