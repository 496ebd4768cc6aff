// Robustness sweep: QoE and availability vs reconfiguration-failure rate.
//
// Injects bitstream-load failures at increasing probability and compares
// the self-healing Runtime Manager (graceful degradation: serve CT-adapted
// on the loaded bitstream between backoff-gated retries) against a
// no-fallback baseline (block-retry: the accelerator stays dark until a
// retry succeeds). The paper assumes reconfiguration always succeeds; this
// bench quantifies what the degradation path buys once it does not — the
// graceful manager should retain strictly higher QoE and availability from
// ~5% failure rate on.
//
//   ./build/bench/bench_robustness            # paper-scale library sweep
//   ./build/bench/bench_robustness --smoke    # CI: hand-built library
//
// Emits results/robustness.csv and results/robustness.json.

#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/json.hpp"

namespace {

using namespace adapex;

LibraryEntry smoke_entry(int accel, ModelVariant v, int rate, int ct,
                         double acc, double ips, double lat_ms, double power_w,
                         double e_j) {
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

/// A hand-built two-bitstream library for the CI smoke run: no training
/// cost, but the same structure the sweep needs (a CT range on each
/// bitstream so degraded mode has somewhere to go).
Library smoke_library() {
  Library lib;
  lib.dataset = "robustness-smoke";
  lib.reference_accuracy = 0.90;
  lib.static_power_w = 0.7;
  for (int id = 0; id < 2; ++id) {
    AcceleratorRecord a;
    a.id = id;
    a.variant = ModelVariant::kNotPrunedExits;
    a.prune_rate_pct = id * 50;
    a.reconfig_ms = 145.0;
    lib.accelerators.push_back(a);
  }
  lib.entries = {
      smoke_entry(0, ModelVariant::kNotPrunedExits, 0, 50, 0.88, 120, 5.0,
                  1.35, 0.005),
      smoke_entry(0, ModelVariant::kNotPrunedExits, 0, 5, 0.84, 200, 3.0, 1.30,
                  0.004),
      smoke_entry(1, ModelVariant::kNotPrunedExits, 50, 50, 0.82, 350, 1.8,
                  1.20, 0.002),
      smoke_entry(1, ModelVariant::kNotPrunedExits, 50, 5, 0.78, 500, 1.2,
                  1.18, 0.0015),
  };
  return lib;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapex;
  using namespace adapex::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header("Robustness",
               "QoE/availability vs reconfiguration-failure rate");

  const Library lib =
      smoke ? smoke_library() : bench_library(cifar10_like_spec());
  EdgeScenario scenario;
  if (smoke) {
    // The hand-built library has no static-FINN point to scale against:
    // offer 1.3x the slow bitstream's throughput directly.
    scenario.workload.base_ips = 120.0 * 1.30;
  } else {
    scenario = scale_to_library(scenario, lib, 1.30);
  }
  scenario.workload.deviation = 0.6;  // swings force pruning-rate switches
  scenario.duration_s = 60.0;  // enough switches for low failure rates to bite
  scenario.seed = 42;
  const int runs = smoke ? 8 : 30;

  TextTable table({"fail_prob", "policy", "qoe_pct", "availability_pct",
                   "loss_pct", "failures", "retries", "watchdog",
                   "degraded_s"});
  Json json = Json::object();
  json["bench"] = "robustness";
  json["runs"] = runs;
  json["smoke"] = smoke;
  Json points = Json::array();

  bool gap_holds = true;
  for (double prob : {0.0, 0.02, 0.05, 0.10, 0.20, 0.40}) {
    scenario.faults.reconfig_fail_prob = prob;
    double qoe_by_policy[2] = {0.0, 0.0};
    double avail_by_policy[2] = {0.0, 0.0};
    int i = 0;
    for (FailurePolicy fp :
         {FailurePolicy::kGracefulDegrade, FailurePolicy::kBlockRetry}) {
      RuntimePolicy policy{AdaptPolicy::kAdaPEx, 0.10};
      policy.backoff.on_failure = fp;
      const auto m = simulate_edge_runs(lib, policy, scenario, runs);
      table.add_row({TextTable::num(prob, 2), to_string(fp),
                     TextTable::num(m.qoe * 100.0, 2),
                     TextTable::num(m.availability_pct, 2),
                     TextTable::num(m.inference_loss_pct, 2),
                     TextTable::num(m.reconfig_failures / double(runs), 1),
                     TextTable::num(m.reconfig_retries / double(runs), 1),
                     TextTable::num(m.watchdog_recoveries / double(runs), 1),
                     TextTable::num(m.degraded_time_s / double(runs), 2)});
      // Full metric dump via the finiteness-checked writer, plus the sweep
      // coordinates of this point.
      Json p = m.to_json();
      p["reconfig_fail_prob"] = prob;
      p["policy"] = to_string(fp);
      points.push_back(std::move(p));
      qoe_by_policy[i] = m.qoe;
      avail_by_policy[i] = m.availability_pct;
      ++i;
    }
    if (prob >= 0.05 && (qoe_by_policy[0] <= qoe_by_policy[1] ||
                         avail_by_policy[0] <= avail_by_policy[1])) {
      gap_holds = false;
    }
  }
  json["points"] = points;
  json["degradation_beats_blocking_at_5pct_plus"] = gap_holds;

  emit(table, "robustness");
  const std::string json_path = results_dir() + "/robustness.json";
  atomic_write_file(json_path, json.dump(1));
  std::cout << "[json] " << json_path << "\n";
  std::cout << (gap_holds
                    ? "OK: graceful degradation beats block-retry at every "
                      "failure rate >= 5%\n"
                    : "WARNING: degradation did not beat block-retry at some "
                      "failure rate >= 5%\n");
  return gap_holds ? 0 : 1;
}
