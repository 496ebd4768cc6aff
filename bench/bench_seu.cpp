// Soft-error sweep: upset rate x mitigation ladder.
//
// Injects SEUs into weight and configuration memory at increasing
// per-period rates and walks the mitigation ladder — none, ECC on the
// weight BRAMs, ECC + periodic configuration scrubbing, and ECC + scrub +
// TMR'd exit heads — with paired upset streams (same seeds) so the ladders
// face identical fault sequences. Each added mitigation should remove a
// corruption source: the silent-corruption count must fall monotonically
// down the ladder, while the protection's cost (scrub dark time) becomes
// visible in availability. The exit code checks that trade-off.
//
//   ./build/bench/bench_seu            # paper-scale library sweep
//   ./build/bench/bench_seu --smoke    # CI: hand-built library
//
// Emits results/seu.csv and results/seu.json.

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

/// Hand-built two-bitstream early-exit library for the CI smoke run (the
/// exit heads matter: TMR needs something to triplicate — lint RF6).
Library smoke_library() {
  Library lib;
  lib.dataset = "seu-smoke";
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

struct Ladder {
  const char* name;
  SeuMitigation mitigation;
};

std::vector<Ladder> mitigation_ladder() {
  std::vector<Ladder> ladder(4);
  ladder[0].name = "none";
  ladder[1].name = "ecc";
  ladder[1].mitigation.ecc_weights = true;
  ladder[2].name = "ecc+scrub";
  ladder[2].mitigation = ladder[1].mitigation;
  ladder[2].mitigation.scrubbing = true;
  ladder[3].name = "ecc+scrub+tmr";
  ladder[3].mitigation = ladder[2].mitigation;
  ladder[3].mitigation.tmr_exit_heads = true;
  return ladder;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapex;
  using namespace adapex::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header("SEU", "silent corruptions vs upset rate x mitigation ladder");

  const Library lib =
      smoke ? smoke_library() : bench_library(cifar10_like_spec());
  EdgeScenario scenario;
  if (smoke) {
    scenario.workload.base_ips = 120.0 * 0.70;
  } else {
    // Below saturation: SEU damage, not queueing, should dominate.
    scenario = scale_to_library(scenario, lib, 0.70);
  }
  scenario.workload.deviation = 0.2;
  scenario.duration_s = 60.0;
  scenario.seed = 42;
  const int runs = smoke ? 8 : 30;

  TextTable table({"upset_prob", "mitigation", "silent/run", "detected/run",
                   "undetected/run", "corrected/run", "accuracy_pct",
                   "scrubs/run", "reloads/run", "scrub_s", "avail_pct"});
  Json json = Json::object();
  json["bench"] = "seu";
  json["runs"] = runs;
  json["smoke"] = smoke;
  Json points = Json::array();

  const std::vector<Ladder> ladder = mitigation_ladder();
  bool monotone = true;
  bool full_beats_none_somewhere = false;
  for (double prob : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    scenario.faults.seu_weight_prob = prob;
    scenario.faults.seu_config_prob = prob;
    std::vector<double> silent_per_run;
    for (const Ladder& step : ladder) {
      scenario.faults.mitigation = step.mitigation;
      RuntimePolicy policy{AdaptPolicy::kAdaPEx, 0.10};
      const auto m = simulate_edge_runs(lib, policy, scenario, runs);
      const double silent = m.silent_corruptions / double(runs);
      silent_per_run.push_back(silent);
      table.add_row({TextTable::num(prob, 2), step.name,
                     TextTable::num(silent, 1),
                     TextTable::num(m.seu_detected / double(runs), 1),
                     TextTable::num(m.seu_undetected / double(runs), 1),
                     TextTable::num(m.seu_corrected / double(runs), 1),
                     TextTable::num(m.accuracy * 100.0, 2),
                     TextTable::num(m.seu_scrubs / double(runs), 1),
                     TextTable::num(m.seu_reloads / double(runs), 1),
                     TextTable::num(m.scrub_overhead_s / double(runs), 3),
                     TextTable::num(m.availability_pct, 2)});
      Json p = m.to_json();
      p["upset_prob"] = prob;
      p["mitigation"] = step.name;
      points.push_back(std::move(p));
    }
    // Every ladder step must remove corruption, never add it (paired upset
    // streams make this a like-for-like comparison).
    for (std::size_t i = 1; i < silent_per_run.size(); ++i) {
      if (silent_per_run[i] > silent_per_run[i - 1] + 1e-9) monotone = false;
    }
    if (prob > 0.0 && silent_per_run.back() < silent_per_run.front()) {
      full_beats_none_somewhere = true;
    }
  }
  json["points"] = points;
  json["ladder_monotone"] = monotone;
  json["full_mitigation_beats_none"] = full_beats_none_somewhere;

  emit(table, "seu");
  const std::string json_path = results_dir() + "/seu.json";
  atomic_write_file(json_path, json.dump(1));
  std::cout << "[json] " << json_path << "\n";
  const bool ok = monotone && full_beats_none_somewhere;
  std::cout << (ok ? "OK: silent corruptions fall monotonically down the "
                     "mitigation ladder\n"
                   : "WARNING: the mitigation ladder did not monotonically "
                     "reduce silent corruptions\n");
  return ok ? 0 : 1;
}
