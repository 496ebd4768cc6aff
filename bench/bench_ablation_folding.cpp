// Ablation: folding style vs early-exit effectiveness.
//
// The confidence threshold can only raise throughput if the pipeline
// bottleneck sits *after* the exit branch points (DESIGN.md performance
// conventions). FINN's shipped CNV folding has that property; a uniform
// folding does not. This bench compares the two styles: steady-state IPS at
// all-final vs all-early exit distributions, plus total resources.
//
// Part two compares reach-aware folding (hls/folding.hpp
// reach_aware_folding) against the styled baseline across exit-fraction
// regimes: gated IPS, LUT, and gated-throughput-per-kLUT, with every
// reach-aware point run through the dataflow verifier and the agreement
// harness. `--smoke` turns the comparison into a CI gate: it exits nonzero
// unless every point verifies, never exceeds the styled resources, the
// zero-exit regime reproduces the styled folds exactly, and at least three
// regimes strictly improve gated throughput per LUT.

#include <cstring>

#include "analysis/dataflow.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace adapex;
  using namespace adapex::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header("Ablation",
               "folding style: FINN-CNV style vs uniform caps (early-exit "
               "throughput headroom)");

  Rng rng(7);
  CnvConfig cfg = CnvConfig{}.scaled(ExperimentScale::from_env().width_scale);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  const AcceleratorConfig aconfig;
  const FoldingConfig styled = styled_folding(sites);
  const Accelerator styled_acc = compile_accelerator(model, styled, aconfig);

  TextTable table({"folding", "ips_all_final", "ips_all_early",
                   "ct_speedup", "lut", "bram"});
  PowerModel power;
  struct Style {
    std::string name;
    FoldingConfig config;
  };
  std::vector<Style> styles;
  styles.push_back({"finn_cnv_style", styled});
  styles.push_back({"uniform_cap4", default_folding(sites, 4, 4)});
  styles.push_back({"uniform_cap8", default_folding(sites, 8, 8)});
  {
    // Balanced folding targeting the styled bottleneck.
    long target = 0;
    for (const auto& m : styled_acc.modules) {
      target = std::max(target, m.cycles);
    }
    styles.push_back({"balanced", balanced_folding(sites, target, 64, 64)});
  }

  for (const auto& style : styles) {
    const Accelerator acc = compile_accelerator(model, style.config, aconfig);
    const auto all_final = estimate_performance(acc, {0.0, 0.0, 1.0}, power);
    const auto all_early = estimate_performance(acc, {1.0, 0.0, 0.0}, power);
    table.add_row({style.name, TextTable::num(all_final.ips, 0),
                   TextTable::num(all_early.ips, 0),
                   TextTable::num(all_early.ips / all_final.ips, 2),
                   std::to_string(acc.total.lut),
                   std::to_string(acc.total.bram)});
  }
  emit(table, "ablation_folding");

  // --- Part two: reach-aware vs styled across exit regimes. ---------------
  print_header("Ablation",
               "reach-aware folding vs styled baseline (gated throughput per "
               "LUT across exit regimes)");

  const analysis::DeviceProfile device = analysis::DeviceProfile::zcu104();
  const ReachAwareOptions ra_opts =
      reach_aware_options(model, sites, styled, styled_acc, aconfig.cost);

  const std::vector<std::vector<double>> regimes = {
      {0.7, 0.2, 0.1},
      {0.5, 0.3, 0.2},
      {1.0 / 3, 1.0 / 3, 1.0 / 3},
      {0.2, 0.3, 0.5},
      {0.0, 0.0, 1.0},
  };

  TextTable reach_table({"regime", "ips_styled", "ips_reach", "lut_styled",
                         "lut_reach", "ips_per_klut_styled",
                         "ips_per_klut_reach", "gain", "verified"});
  Json points = Json::array();
  int strict_gains = 0;
  bool all_verified = true;
  bool within_styled_resources = true;
  bool zero_exit_identical = true;

  for (const auto& regime : regimes) {
    const FoldingConfig ra =
        reach_aware_folding(sites, regime, device.caps, ra_opts);
    const Accelerator ra_acc = compile_accelerator(model, ra, aconfig);

    // Verifier gate: cross_validate fails when the static dataflow rules
    // reject the design, and when the transaction-level simulator
    // disagrees on this regime's II.
    analysis::CrossValidateOptions cv_opts;
    cv_opts.dataflow.device = device;
    const bool verified =
        analysis::cross_validate(ra_acc, regime, cv_opts).passed;
    all_verified = all_verified && verified;

    within_styled_resources =
        within_styled_resources && ra_acc.total.fits_within(styled_acc.total);
    if (regime.back() == 1.0) {
      zero_exit_identical =
          zero_exit_identical && ra.folds == styled.folds;
    }

    const auto perf_s = estimate_performance(styled_acc, regime, power);
    const auto perf_r = estimate_performance(ra_acc, regime, power);
    const double eff_s =
        perf_s.ips / (static_cast<double>(styled_acc.total.lut) / 1000.0);
    const double eff_r =
        perf_r.ips / (static_cast<double>(ra_acc.total.lut) / 1000.0);
    if (eff_r > eff_s) ++strict_gains;

    std::string regime_name;
    for (double f : regime) {
      if (!regime_name.empty()) regime_name += "/";
      regime_name += TextTable::num(f, 2);
    }
    reach_table.add_row(
        {regime_name, TextTable::num(perf_s.ips, 0),
         TextTable::num(perf_r.ips, 0), std::to_string(styled_acc.total.lut),
         std::to_string(ra_acc.total.lut), TextTable::num(eff_s, 1),
         TextTable::num(eff_r, 1), TextTable::num(eff_r / eff_s, 3),
         verified ? "yes" : "NO"});

    Json p = Json::object();
    Json fr = Json::array();
    for (double f : regime) fr.push_back(f);
    p["regime"] = std::move(fr);
    p["ips_styled"] = perf_s.ips;
    p["ips_reach"] = perf_r.ips;
    p["lut_styled"] = static_cast<double>(styled_acc.total.lut);
    p["lut_reach"] = static_cast<double>(ra_acc.total.lut);
    p["ips_per_klut_styled"] = eff_s;
    p["ips_per_klut_reach"] = eff_r;
    p["verified"] = verified;
    points.push_back(std::move(p));
  }
  emit(reach_table, "ablation_folding_reach");
  {
    Json root = Json::object();
    root["device"] = device.name;
    root["strict_gains"] = strict_gains;
    root["all_verified"] = all_verified;
    root["within_styled_resources"] = within_styled_resources;
    root["zero_exit_identical"] = zero_exit_identical;
    root["points"] = std::move(points);
    const std::string path = results_dir() + "/ablation_folding_reach.json";
    atomic_write_file(path, root.dump(2) + "\n");
    std::cout << "[json] " << path << "\n";
  }

  if (smoke) {
    int failures = 0;
    auto require = [&](bool ok, const char* what) {
      if (!ok) {
        std::cerr << "[smoke] FAIL: " << what << "\n";
        ++failures;
      }
    };
    require(all_verified,
            "every reach-aware point passes the dataflow verifier and "
            "cross-validation");
    require(within_styled_resources,
            "reach-aware accelerators never exceed the styled resources");
    require(zero_exit_identical,
            "the zero-exit regime reproduces the styled folds exactly");
    require(strict_gains >= 3,
            "at least three regimes strictly improve gated IPS per kLUT");
    if (failures != 0) return 4;
    std::cout << "[smoke] reach-aware folding gate passed (" << strict_gains
              << "/" << regimes.size() << " regimes improved)\n";
  }
  return 0;
}
