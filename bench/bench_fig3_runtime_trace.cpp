// Figure 3 (right side): the Runtime Manager at work over one episode — the
// selected pruning rate and confidence threshold (plot a) against the
// workload and delivered accuracy (plot b).
//
// Expected shape: at low workload the manager holds a low pruning rate and
// high confidence threshold (high accuracy); as the workload rises it first
// lowers the confidence threshold (free switch, faster inferences), then
// raises the pruning rate (FPGA reconfiguration to a smaller, faster
// accelerator) at a lower accuracy level.

#include "common.hpp"

int main() {
  using namespace adapex;
  using namespace adapex::bench;

  print_header("Figure 3", "runtime adaptation trace (one episode)");
  Library lib = bench_library(cifar10_like_spec());

  // A workload ramp makes the adaptation sequence visible: start below
  // FINN capacity, ramp well past it.
  EdgeScenario scenario = scale_to_library(EdgeScenario{}, lib, 0.7);
  scenario.workload.deviation = 0.0;
  scenario.seed = 3;
  // Emulate the ramp by splicing three episodes at rising load and
  // concatenating their traces.
  TextTable table({"time_s", "workload_ips", "prune_rate_pct",
                   "conf_threshold_pct", "entry_accuracy", "reconfigured"});
  double t_offset = 0.0;
  for (double ratio : {0.7, 1.0, 1.3, 1.7, 2.2, 3.0}) {
    EdgeScenario phase = scale_to_library(scenario, lib, ratio);
    phase.duration_s = 6.0;
    auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, phase);
    for (const auto& tp : m.trace) {
      table.add_row({TextTable::num(t_offset + tp.time_s, 1),
                     TextTable::num(tp.measured_ips, 0),
                     std::to_string(tp.prune_rate_pct),
                     std::to_string(tp.conf_threshold_pct),
                     TextTable::num(tp.entry_accuracy, 3),
                     tp.reconfigured ? "yes" : ""});
    }
    t_offset += phase.duration_s;
  }
  emit(table, "fig3_runtime_trace");
  return 0;
}
