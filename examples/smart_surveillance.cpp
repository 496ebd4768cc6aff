// Smart video surveillance at the edge — the paper's motivating scenario.
//
// Twenty cameras offload frames to an edge server. Over the day the
// workload swings: quiet periods, rush hours, and a flash crowd. This
// example walks one such timeline phase by phase, showing how the Runtime
// Manager trades pruning rate against confidence threshold, and compares
// the end-of-day totals across all four policies.
//
//   ./build/examples/smart_surveillance

#include <iomanip>
#include <iostream>

#include "core/adapex.hpp"
#include "edge/fleet.hpp"

int main() {
  using namespace adapex;

  std::cout << "Generating the operating-point library (tiny scale)...\n";
  auto scale = ExperimentScale::tiny();
  SyntheticSpec dataset = cifar10_like_spec();
  dataset.noise_max = 1.2;  // demo-sized difficulty (see quickstart.cpp)
  auto spec = make_gen_spec(dataset, scale);
  spec.initial_train.epochs += scale.initial_epochs / 2;
  spec.prune_rates_pct = {0, 25, 50, 75};
  spec.conf_thresholds_pct = {0, 20, 40, 60, 80, 100};
  Library library = Framework::design(spec);

  struct Phase {
    const char* name;
    double load_ratio;  // vs static-FINN capacity
    double duration_s;
  };
  const Phase phases[] = {
      {"early morning (quiet)", 0.4, 10},
      {"rush hour", 1.1, 10},
      {"flash crowd", 1.7, 10},
      {"evening (calming down)", 0.8, 10},
  };

  std::cout << "\n== AdaPEx through the day ==\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const Phase& phase : phases) {
    EdgeScenario sc = scale_to_library(EdgeScenario{}, library, phase.load_ratio);
    sc.duration_s = phase.duration_s;
    sc.seed = 21;
    EdgeMetrics m = Framework::serve(library, {AdaptPolicy::kAdaPEx, 0.10}, sc);
    // Most-used operating point in this phase (from the trace).
    int rate = 0, ct = 0;
    if (!m.trace.empty()) {
      rate = m.trace.back().prune_rate_pct;
      ct = m.trace.back().conf_threshold_pct;
    }
    std::cout << std::setw(26) << phase.name << ": offered "
              << std::setw(6) << m.offered << " served " << std::setw(6)
              << m.served << " | loss " << std::setw(5)
              << m.inference_loss_pct << "% | acc "
              << m.accuracy * 100 << "% | settled at P.R. " << rate
              << "% / C.T. " << ct << "%"
              << (m.reconfigurations ? " (reconfigured)" : "") << "\n";
  }

  std::cout << "\n== end-of-day comparison (rush-hour load, 20 runs) ==\n";
  EdgeScenario sc = scale_to_library(EdgeScenario{}, library, 1.3);
  sc.seed = 42;
  EdgeMetrics finn =
      Framework::serve(library, {AdaptPolicy::kStaticFinn, 0.10}, sc, 20);
  for (AdaptPolicy p : {AdaptPolicy::kAdaPEx, AdaptPolicy::kPrOnly,
                        AdaptPolicy::kCtOnly, AdaptPolicy::kStaticFinn}) {
    EdgeMetrics m = Framework::serve(library, {p, 0.10}, sc, 20);
    std::cout << std::setw(8) << to_string(p) << ": loss " << std::setw(6)
              << m.inference_loss_pct << "% | acc " << m.accuracy * 100
              << "% | QoE " << m.qoe * 100 << "% | EDP vs FINN "
              << (finn.edp > 0 ? m.edp / finn.edp : 0.0) << "x\n";
  }

  // Resilience drill: the same rush hour, but one bitstream load in five
  // fails. PR-Only is the policy that reconfigures in this demo-sized
  // library (AdaPEx settles on the early-exit bitstream and adapts the
  // threshold for free). The self-healing manager keeps serving on the
  // loaded bitstream between backoff-gated retries; a block-retry manager
  // keeps the accelerator dark until a load finally succeeds.
  std::cout << "\n== resilience drill (rush hour, 20% reconfig failures, "
               "PR-Only, 20 runs) ==\n";
  EdgeScenario faulty = sc;
  faulty.workload.deviation = 0.6;
  faulty.faults.reconfig_fail_prob = 0.20;
  for (FailurePolicy fp :
       {FailurePolicy::kGracefulDegrade, FailurePolicy::kBlockRetry}) {
    RuntimePolicy policy{AdaptPolicy::kPrOnly, 0.10};
    policy.backoff.on_failure = fp;
    EdgeMetrics m = Framework::serve(library, policy, faulty, 20);
    std::cout << std::setw(16) << to_string(fp) << ": QoE "
              << m.qoe * 100 << "% | availability " << m.availability_pct
              << "% | failed loads " << m.reconfig_failures / 20.0 << "/run"
              << " | retries " << m.reconfig_retries / 20.0 << "/run"
              << " | degraded " << m.degraded_time_s / 20.0 << " s/run\n";
  }
  std::cout << "(fault-free runs above are unchanged by the fault machinery:"
               " all probabilities default to zero)\n";

  // SEU drill: same rush hour, but radiation flips bits in weight and
  // configuration memory. Unprotected, corrupted inferences are served
  // silently until the drift detector notices and forces a reload; the
  // full mitigation stack (ECC on weight BRAMs + periodic configuration
  // scrubbing + TMR'd exit heads) corrects or masks most upsets at the
  // cost of scrub dark time.
  std::cout << "\n== SEU drill (rush hour, 5% upset rate, AdaPEx, 20 runs) "
               "==\n";
  EdgeScenario seu = sc;
  seu.faults.seu_weight_prob = 0.05;
  seu.faults.seu_config_prob = 0.05;
  struct SeuStep {
    const char* name;
    SeuMitigation mitigation;
  };
  SeuStep steps[2];
  steps[0].name = "unprotected";
  steps[1].name = "ecc+scrub+tmr";
  steps[1].mitigation.ecc_weights = true;
  steps[1].mitigation.scrubbing = true;
  steps[1].mitigation.tmr_exit_heads = true;
  for (const SeuStep& step : steps) {
    seu.faults.mitigation = step.mitigation;
    EdgeMetrics m = Framework::serve(library, {AdaptPolicy::kAdaPEx, 0.10},
                                     seu, 20);
    std::cout << std::setw(16) << step.name << ": acc " << m.accuracy * 100
              << "% | silent " << m.silent_corruptions / 20.0 << "/run"
              << " | corrected " << m.seu_corrected / 20.0 << "/run"
              << " | drift hits " << m.drift_detections / 20.0 << "/run"
              << " | scrubs " << m.seu_scrubs / 20.0 << "/run"
              << " | reloads " << m.seu_reloads / 20.0 << "/run"
              << " | scrub dark " << m.scrub_overhead_s / 20.0 << " s/run\n";
  }

  // Fleet drill: the surveillance deployment grows to four edge servers in
  // two racks, serving an interactive camera tenant (latency SLO) and a
  // batch re-analysis tenant. Rack 0 suffers correlated power events that
  // spike its devices' fault rates together. With staggered
  // reconfiguration the orchestrator keeps projected fleet capacity at or
  // above 70% of deliverable load at all times; unstaggered, concurrent
  // bitstream loads dip below the floor (capacity violations).
  std::cout << "\n== fleet drill (4 devices / 2 racks, correlated faults, "
               "2 tenants) ==\n";
  FleetScenario fleet;
  fleet.base = sc;
  fleet.base.duration_s = 30.0;
  fleet.base.faults.reconfig_fail_prob = 0.05;
  for (int i = 0; i < 4; ++i) {
    FleetDeviceSpec dev;
    dev.name = "edge" + std::to_string(i);
    dev.domain = i / 2;
    fleet.devices.push_back(dev);
  }
  for (const char* rack : {"rack0", "rack1"}) {
    FailureDomain dom;
    dom.name = rack;
    dom.spike_prob = 0.2;
    dom.transient_mult = 6.0;
    fleet.fleet_faults.domains.push_back(dom);
  }
  const double fleet_load = sc.workload.base_ips * 4.0;
  TenantSpec cams;
  cams.name = "cameras";
  cams.workload.base_ips = fleet_load * 0.7;
  cams.workload.deviation = 0.4;
  cams.slo_latency_ms = 400.0;
  cams.priority = 1;
  TenantSpec reanalysis;
  reanalysis.name = "re-analysis";
  reanalysis.workload.base_ips = fleet_load * 0.3;
  reanalysis.workload.pattern = WorkloadPattern::kDiurnal;
  fleet.tenants = {cams, reanalysis};
  fleet.breaker.open_after_failures = 3;
  fleet.stagger.min_capacity_fraction = 0.70;
  fleet.stagger.max_defer_s = 1e9;
  // PR-Only is again the policy that reconfigures on this demo library.
  for (bool stagger : {false, true}) {
    fleet.stagger.enabled = stagger;
    FleetMetrics fm = simulate_fleet(library, {AdaptPolicy::kPrOnly, 0.10},
                                     fleet);
    std::cout << std::setw(16) << (stagger ? "staggered" : "unstaggered")
              << ": served " << fm.served << "/" << fm.offered
              << " | availability " << fm.availability_pct << "%"
              << " | p99 " << fm.p99_latency_ms << " ms"
              << " | capacity violations " << fm.capacity_violations
              << " | failovers " << fm.failovers
              << " | rack spikes " << fm.domain_spikes << "\n";
  }
  std::cout << "(a size-1 fleet with fleet mechanisms at defaults reproduces"
               " the single-device episodes above event-for-event)\n";
  return 0;
}
