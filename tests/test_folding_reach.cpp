// Tests for the folding layer's shared cycle model, the default-folding
// matrix-width fix, folding JSON duplicate-name rejection, and the
// reach-aware heterogeneous folding optimizer (hls/folding.hpp).

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "analysis/device.hpp"
#include "finn/accelerator.hpp"
#include "library/generator.hpp"
#include "model/cnv.hpp"

namespace adapex {
namespace {

LayerSite conv_site(const std::string& name, int in_channels, int out_channels,
                    int kernel, int in_dim) {
  LayerSite s;
  s.is_conv = true;
  s.in_channels = in_channels;
  s.out_channels = out_channels;
  s.kernel = kernel;
  s.in_dim = in_dim;
  s.out_dim = in_dim - kernel + 1;
  s.name = name;
  return s;
}

LayerSite fc_site(const std::string& name, int in_features, int out_features) {
  LayerSite s;
  s.is_conv = false;
  s.in_channels = in_features;
  s.out_channels = out_features;
  s.name = name;
  return s;
}

TEST(FoldingMatrixWidth, ConvUnrollsAcrossTheKernelWindow) {
  EXPECT_EQ(site_matrix_width(conv_site("c", 3, 16, 3, 32)), 27);
  EXPECT_EQ(site_matrix_width(conv_site("c", 16, 32, 3, 16)), 144);
  EXPECT_EQ(site_matrix_width(fc_site("f", 256, 10)), 256);
}

// Regression: default_folding used to search SIMD divisors of the bare
// channel count, so an RGB input conv (3 channels) was stuck at SIMD=3 even
// though FINN's MVAU unrolls across the whole k^2 * ch_in im2col window.
TEST(FoldingDefault, ConvSimdReachesCapViaKernelWindowUnrolling) {
  const std::vector<LayerSite> sites = {conv_site("first", 3, 16, 3, 32)};
  const FoldingConfig cfg = default_folding(sites, 4, 9);
  ASSERT_EQ(cfg.folds.size(), 1u);
  EXPECT_EQ(cfg.folds[0].pe, 4);
  EXPECT_EQ(cfg.folds[0].simd, 9);  // divides 27, not 3
  validate_folding(sites, cfg);
  // The fix applies to every generator: a styled config on the same site
  // must also pick a kernel-window SIMD.
  const FoldingConfig styled = styled_folding(sites);
  EXPECT_EQ(styled.folds[0].simd % 9, 0);
}

TEST(FoldingJson, DuplicateSiteNamesAreRejectedOnSerialize) {
  const std::vector<LayerSite> sites = {conv_site("dup", 4, 8, 3, 8),
                                        conv_site("dup", 8, 16, 3, 6)};
  FoldingConfig cfg;
  cfg.folds = {LayerFold{1, 1}, LayerFold{1, 1}};
  EXPECT_THROW(cfg.to_json(sites), ConfigError);
}

TEST(FoldingJson, DuplicateSiteNamesAreRejectedOnParse) {
  const std::vector<LayerSite> sites = {conv_site("dup", 4, 8, 3, 8),
                                        conv_site("dup", 8, 16, 3, 6)};
  Json j = Json::object();
  Json entry = Json::object();
  entry["PE"] = 1;
  entry["SIMD"] = 1;
  j["dup"] = entry;
  EXPECT_THROW(FoldingConfig::from_json(j, sites), ConfigError);
}

TEST(FoldingJson, DistinctNamesRoundTrip) {
  const std::vector<LayerSite> sites = {conv_site("a", 4, 8, 3, 8),
                                        fc_site("b", 64, 10)};
  FoldingConfig cfg;
  cfg.folds = {LayerFold{2, 6}, LayerFold{2, 8}};
  const FoldingConfig back = FoldingConfig::from_json(cfg.to_json(sites), sites);
  EXPECT_EQ(back.folds, cfg.folds);
}

/// CNV with the paper's exits, styled folding, compiled — the shared
/// fixture of the cycle-agreement and reach-aware tests.
struct ReachFixture {
  CnvConfig cfg;
  BranchyModel model;
  std::vector<LayerSite> sites;
  FoldingConfig styled;
  Accelerator acc;
  ReachAwareOptions opts;

  explicit ReachFixture(double scale = 0.25) {
    Rng rng(17);
    cfg = CnvConfig{}.scaled(scale);
    model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
    sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
    styled = styled_folding(sites);
    acc = compile_accelerator(model, styled, AcceleratorConfig{});
    opts = reach_aware_options(model, sites, styled, acc,
                               AcceleratorConfig{}.cost);
  }
};

// The single cycles-per-fold model: every compiled MVTU's cycle count must
// equal site_fold_cycles on the walk site it was emitted from, bitwise.
// MVTUs are emitted in walk order (finn/accelerator.cpp next_index), so the
// i-th MVTU module corresponds to sites[i]/folds[i].
TEST(FoldingCycleModel, CompiledMvtuCyclesMatchSiteFoldCyclesBitwise) {
  ReachFixture fx;
  std::vector<long> mvtu_cycles_in_order;
  for (const auto& m : fx.acc.modules) {
    if (m.kind == HlsModuleKind::kMvtu) {
      mvtu_cycles_in_order.push_back(m.cycles);
    }
  }
  ASSERT_EQ(mvtu_cycles_in_order.size(), fx.sites.size());
  for (std::size_t i = 0; i < fx.sites.size(); ++i) {
    EXPECT_EQ(mvtu_cycles_in_order[i],
              site_fold_cycles(fx.sites[i], fx.styled.folds[i]))
        << fx.sites[i].name;
  }
}

TEST(FoldingCycleModel, BalancedFoldingUsesTheSharedModel) {
  ReachFixture fx;
  long target = 0;
  for (const auto& m : fx.acc.modules) target = std::max(target, m.cycles);
  const FoldingConfig balanced = balanced_folding(fx.sites, target, 64, 64);
  for (std::size_t i = 0; i < fx.sites.size(); ++i) {
    EXPECT_LE(site_fold_cycles(fx.sites[i], balanced.folds[i]), target)
        << fx.sites[i].name;
  }
}

TEST(ReachAwareFolding, ZeroExitRegimeReproducesBaselineByteIdentically) {
  ReachFixture fx;
  const auto device = analysis::DeviceProfile::zcu104();
  const FoldingConfig ra =
      reach_aware_folding(fx.sites, {0.0, 0.0, 1.0}, device.caps, fx.opts);
  EXPECT_EQ(ra.folds, fx.styled.folds);
}

TEST(ReachAwareFolding, RejectsMalformedRegimes) {
  ReachFixture fx;
  const auto device = analysis::DeviceProfile::zcu104();
  // Wrong arity (the model has two exits, so regimes carry three entries).
  EXPECT_THROW(reach_aware_folding(fx.sites, {0.5, 0.5}, device.caps, fx.opts),
               Error);
  // Does not sum to 1.
  EXPECT_THROW(
      reach_aware_folding(fx.sites, {0.9, 0.5, 0.2}, device.caps, fx.opts),
      Error);
  // Negative fraction.
  EXPECT_THROW(
      reach_aware_folding(fx.sites, {1.2, -0.4, 0.2}, device.caps, fx.opts),
      Error);
}

// Property sweep: over regimes x budgets, every output must validate, pass
// the static dataflow rules, weakly dominate the styled baseline on gated
// throughput at equal-or-lower resource use, and respect the device budget.
TEST(ReachAwareFolding, PropertySweepWeaklyDominatesStyled) {
  ReachFixture fx;
  const auto device = analysis::DeviceProfile::zcu104();
  const double styled_site_lut =
      static_cast<double>((fx.acc.total - fx.opts.fixed_overhead).lut);

  // A budget tighter than the styled design itself: fixed overhead plus
  // three quarters of the styled site fabric (per axis, LUT-driven; the
  // other axes keep the device headroom).
  Resources tight = device.caps;
  tight.lut = fx.opts.fixed_overhead.lut +
              static_cast<long>(styled_site_lut * 0.75);

  const std::vector<std::vector<double>> regimes = {
      {0.7, 0.2, 0.1},
      {0.5, 0.3, 0.2},
      {1.0 / 3, 1.0 / 3, 1.0 / 3},
      {0.2, 0.3, 0.5},
      {0.9, 0.05, 0.05},
  };
  for (const auto& budget : {device.caps, tight}) {
    const bool is_tight = budget.lut != device.caps.lut;
    for (const auto& regime : regimes) {
      SCOPED_TRACE("regime " + std::to_string(regime[0]) + "/" +
                   std::to_string(regime[1]) + "/" + std::to_string(regime[2]) +
                   (is_tight ? " tight" : " device"));
      const FoldingConfig ra =
          reach_aware_folding(fx.sites, regime, budget, fx.opts);
      validate_folding(fx.sites, ra);

      const Accelerator acc_ra =
          compile_accelerator(fx.model, ra, AcceleratorConfig{});
      // Weak domination, resources: never above the styled accelerator on
      // any axis (so a fitting styled bitstream stays fitting).
      EXPECT_TRUE(acc_ra.total.fits_within(fx.acc.total));
      // Budget: the optimizer's follower penalty upper-bounds the compiled
      // pool/branch growth, so the whole accelerator fits the budget.
      EXPECT_TRUE(acc_ra.total.fits_within(budget));
      // Weak domination, gated throughput (exact, shared cycle model).
      const double ii_styled = gated_steady_ii(fx.acc, regime);
      const double ii_ra = gated_steady_ii(acc_ra, regime);
      EXPECT_LE(ii_ra, ii_styled);

      // Static dataflow rules R8-R14 must accept every emitted design.
      analysis::DataflowOptions dopts;
      dopts.device = device;
      const analysis::DataflowReport report =
          analysis::analyze_dataflow(acc_ra, regime, dopts);
      EXPECT_FALSE(report.lint.has_errors()) << report.lint.error_message();
    }
  }
}

// The optimizer's purpose: early-heavy regimes free post-branch fabric and
// reinvest it in the front end, strictly improving the gated II at
// equal-or-lower LUT on at least three regimes.
TEST(ReachAwareFolding, StrictlyImprovesEarlyHeavyRegimes) {
  ReachFixture fx;
  const auto device = analysis::DeviceProfile::zcu104();
  const std::vector<std::vector<double>> regimes = {
      {0.7, 0.2, 0.1}, {0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}, {0.9, 0.05, 0.05}};
  int strict = 0;
  for (const auto& regime : regimes) {
    const FoldingConfig ra =
        reach_aware_folding(fx.sites, regime, device.caps, fx.opts);
    const Accelerator acc_ra =
        compile_accelerator(fx.model, ra, AcceleratorConfig{});
    const bool faster = gated_steady_ii(acc_ra, regime) <
                        gated_steady_ii(fx.acc, regime);
    const bool cheaper = acc_ra.total.lut <= fx.acc.total.lut;
    if (faster && cheaper) ++strict;
  }
  EXPECT_GE(strict, 3);
}

// The agreement harness must accept reach-aware designs: the site-level
// objective the optimizer minimized is exactly the gated II the
// transaction-level simulator measures.
TEST(ReachAwareFolding, CrossValidatesAgainstTheSimulator) {
  ReachFixture fx;
  const auto device = analysis::DeviceProfile::zcu104();
  analysis::CrossValidateOptions cv_opts;
  cv_opts.dataflow.device = device;
  for (const auto& regime :
       std::vector<std::vector<double>>{{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}}) {
    const FoldingConfig ra =
        reach_aware_folding(fx.sites, regime, device.caps, fx.opts);
    const Accelerator acc_ra =
        compile_accelerator(fx.model, ra, AcceleratorConfig{});
    const analysis::CrossValidation cv =
        analysis::cross_validate(acc_ra, regime, cv_opts);
    EXPECT_TRUE(cv.passed) << cv.summary() << "\n" << cv.lint.error_message();
  }
}

// End-to-end: the generator emits one reach-aware accelerator per regime
// for exit-bearing design points, with dense pre-assigned ids, verifier
// gating, and regime metadata that survives the JSON round trip; a
// reach-free spec stays byte-identical to the previous schema.
TEST(ReachAwareFolding, GeneratorEmitsGatedParetoRecords) {
  SyntheticSpec dataset;
  dataset.name = "reachtest";
  dataset.num_classes = 4;
  dataset.train_size = 64;
  dataset.test_size = 32;
  LibraryGenSpec spec;
  spec.dataset = dataset;
  spec.cnv = CnvConfig{}.scaled(0.125);
  spec.cnv.num_classes = dataset.num_classes;
  spec.exits = paper_exits_config(false);
  spec.variants = {ModelVariant::kNoExit, ModelVariant::kNotPrunedExits};
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {0, 50};
  spec.initial_train.epochs = 1;
  spec.retrain.epochs = 1;
  spec.num_threads = 1;

  const Library plain = generate_library(spec);
  spec.reach_regimes = {{0.5, 0.3, 0.2}, {0.0, 0.0, 1.0}};
  const Library reach = generate_library(spec);

  // One extra accelerator per regime for the exit point only.
  ASSERT_EQ(plain.accelerators.size(), 2u);
  ASSERT_EQ(reach.accelerators.size(), 4u);
  // Ids are dense and pre-assigned: no-exit point keeps id 0; the exit
  // point's block is 1 (styled), 2 and 3 (reach regimes).
  EXPECT_EQ(reach.accelerators[0].id, 0);
  EXPECT_EQ(reach.accelerators[0].folding_mode, "styled");
  EXPECT_EQ(reach.accelerators[1].id, 1);
  EXPECT_EQ(reach.accelerators[1].folding_mode, "styled");
  EXPECT_EQ(reach.accelerators[2].id, 2);
  EXPECT_EQ(reach.accelerators[2].folding_mode, "reach");
  EXPECT_EQ(reach.accelerators[2].reach_regime,
            (std::vector<double>{0.5, 0.3, 0.2}));
  EXPECT_EQ(reach.accelerators[3].id, 3);
  EXPECT_EQ(reach.accelerators[3].folding_mode, "reach");

  // The styled records and rows are unchanged by the reach feature.
  EXPECT_EQ(plain.accelerators[1].resources.lut,
            reach.accelerators[1].resources.lut);
  // Reach accelerators never exceed their styled sibling's fabric.
  EXPECT_TRUE(reach.accelerators[2].resources.fits_within(
      reach.accelerators[1].resources));
  EXPECT_TRUE(reach.accelerators[3].resources.fits_within(
      reach.accelerators[1].resources));

  // Rows reference the reach accelerators (one per threshold each).
  int reach_rows = 0;
  for (const auto& e : reach.entries) {
    if (e.accel_id >= 2) ++reach_rows;
  }
  EXPECT_EQ(reach_rows, 4);

  // Round trip keeps the mode and regime.
  const Library back = Library::from_json(reach.to_json());
  EXPECT_EQ(back.accelerators[2].folding_mode, "reach");
  EXPECT_EQ(back.accelerators[2].reach_regime,
            (std::vector<double>{0.5, 0.3, 0.2}));
  EXPECT_EQ(back.accelerators[1].folding_mode, "styled");
  EXPECT_TRUE(back.accelerators[1].reach_regime.empty());
}

}  // namespace
}  // namespace adapex
