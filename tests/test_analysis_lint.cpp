// Tests for the static design verifier (analysis/lint.hpp): one
// deliberately-broken fixture per rule R1..R7, asserting the rule ID and
// the anchoring site, plus clean-model runs asserting zero error-severity
// findings across the experiment scales.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/scale.hpp"
#include "model/cnv.hpp"

namespace adapex {
namespace {

using analysis::Diagnostic;
using analysis::LintOptions;
using analysis::LintReport;
using analysis::Severity;

bool has_finding(const LintReport& report, const std::string& rule,
                 const std::string& site_substr,
                 Severity min_severity = Severity::kInfo) {
  return std::any_of(
      report.diagnostics.begin(), report.diagnostics.end(),
      [&](const Diagnostic& d) {
        return d.rule_id == rule &&
               d.site.find(site_substr) != std::string::npos &&
               static_cast<int>(d.severity) >= static_cast<int>(min_severity);
      });
}

CnvConfig tiny_cnv() { return CnvConfig{}.scaled(0.1875); }

TEST(LintR1, FoldingDivisibilityViolationsReportRuleAndSite) {
  Rng rng(3);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  FoldingConfig folding = styled_folding(sites);
  folding.folds[0].pe = 5;    // out_channels is a multiple of 4, never of 5.
  folding.folds[1].simd = 7;  // matrix width 9 * ch_in is never 7-divisible.

  // lint_design alone, and lint(), which runs the design rules once and
  // skips the compile: each broken site is one R1 error in both.
  const LintReport design =
      analysis::lint_design(model, folding, AcceleratorConfig{});
  const LintReport full = analysis::lint(model, folding, AcceleratorConfig{});
  for (const LintReport* report : {&design, &full}) {
    for (const LayerSite* site : {&sites[0], &sites[1]}) {
      EXPECT_TRUE(has_finding(*report, "R1", site->name, Severity::kError));
      EXPECT_EQ(std::count_if(report->diagnostics.begin(),
                              report->diagnostics.end(),
                              [&](const Diagnostic& d) {
                                return d.rule_id == "R1" &&
                                       d.site == site->name;
                              }),
                1)
          << report->format_table();
    }
  }
}

TEST(LintR1, FoldingArityMismatchIsReported) {
  Rng rng(3);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv(cfg, rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  FoldingConfig folding = default_folding(sites);
  folding.folds.pop_back();

  const LintReport report =
      analysis::lint_design(model, folding, AcceleratorConfig{});
  EXPECT_TRUE(has_finding(report, "R1", "folding", Severity::kError));
}

TEST(LintR2, ShapeMismatchReportsEverySite) {
  Rng rng(5);
  BranchyModel model;
  auto block = std::make_unique<Sequential>();
  block->append(std::make_unique<QuantConv2d>(3, 8, 3, 2, rng));
  // Broken: expects 12 input channels but the producer emits 8.
  block->append(std::make_unique<QuantConv2d>(12, 16, 3, 2, rng));
  block->append(std::make_unique<Flatten>());
  // Broken: in_features disagrees with the flattened activation.
  block->append(std::make_unique<QuantLinear>(100, 10, 2, rng));
  model.add_block(std::move(block));

  FoldingConfig folding;
  folding.folds = {LayerFold{1, 1}, LayerFold{1, 1}, LayerFold{1, 1}};
  const LintReport report =
      analysis::lint_design(model, folding, AcceleratorConfig{});
  // Both violations are reported in one pass — no first-check-wins abort.
  EXPECT_TRUE(has_finding(report, "R2", "backbone.b0.conv1", Severity::kError));
  EXPECT_TRUE(has_finding(report, "R2", "backbone.b0.fc0", Severity::kError));
}

/// The LintR2 fixture above as a model: a conv whose in_channels disagree
/// with its producer and an fc whose in_features disagree with the flatten.
BranchyModel shape_broken_model(Rng& rng) {
  BranchyModel model;
  auto block = std::make_unique<Sequential>();
  block->append(std::make_unique<QuantConv2d>(3, 8, 3, 2, rng));
  block->append(std::make_unique<QuantConv2d>(12, 16, 3, 2, rng));
  block->append(std::make_unique<Flatten>());
  block->append(std::make_unique<QuantLinear>(100, 10, 2, rng));
  model.add_block(std::move(block));
  return model;
}

// walk_compute_layers and lint_design share one walk, so the strict form
// throws one ConfigError naming every R2 site the lint reports, not just
// the first.
TEST(ModelWalk, StrictWalkNamesEveryR2SiteTheLintReports) {
  Rng rng(5);
  BranchyModel model = shape_broken_model(rng);
  const AcceleratorConfig config;
  const LintReport report =
      analysis::lint_design(model, FoldingConfig{}, config);
  std::vector<std::string> r2_sites;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == "R2") r2_sites.push_back(d.site);
  }
  ASSERT_EQ(r2_sites.size(), 2u) << report.format_table();

  try {
    walk_compute_layers(model, config.in_channels, config.image_size);
    FAIL() << "walk_compute_layers accepted a shape-broken model";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const std::string& site : r2_sites) {
      EXPECT_NE(what.find(site), std::string::npos) << site << "\n" << what;
    }
  }
}

TEST(LintR3, StreamWidthMismatchOnALink) {
  Accelerator acc;
  acc.num_exits = 0;
  HlsModule producer;
  producer.kind = HlsModuleKind::kMvtu;
  producer.name = "m0";
  producer.cycles = 10;
  producer.out_stream_elems = 4;
  HlsModule consumer;
  consumer.kind = HlsModuleKind::kMvtu;
  consumer.name = "m1";
  consumer.cycles = 10;
  consumer.in_stream_elems = 6;  // 4 vs 6: no integer ratio either way.
  acc.modules = {producer, consumer};
  acc.paths = {{0, 1}};

  const LintReport report = analysis::lint_accelerator(acc);
  EXPECT_TRUE(has_finding(report, "R3", "m0 -> m1", Severity::kWarning));
}

TEST(LintR4, SlowExitHeadFlagsBranchBackpressure) {
  Rng rng(7);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  FoldingConfig folding = styled_folding(sites);
  // Fold the exit heads down to fully-serial execution: their initiation
  // interval then dwarfs the (well-folded) backbone tail behind the branch.
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].loc == SiteLoc::kExit) folding.folds[i] = LayerFold{1, 1};
  }

  const LintReport report =
      analysis::lint(model, folding, AcceleratorConfig{});
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(has_finding(report, "R4", "branch.exit0", Severity::kWarning));
}

TEST(LintR5, ResourceOverflowAgainstDeviceProfile) {
  Rng rng(9);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv(cfg, rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  const FoldingConfig folding = styled_folding(sites);

  LintOptions options;
  options.device =
      analysis::DeviceProfile{"toy", Resources{100, 100, 1, 0}};
  const LintReport report =
      analysis::lint(model, folding, AcceleratorConfig{}, options);
  EXPECT_TRUE(has_finding(report, "R5", "device:toy", Severity::kError));
}

TEST(LintR6, MalformedFoldingJson) {
  Rng rng(11);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv(cfg, rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  Json j = default_folding(sites).to_json(sites);
  j[sites[0].name]["PE"] = 0;           // non-positive PE
  j["no.such.layer"]["PE"] = 2;         // stale entry
  // (the stale key also breaks the site-count match)

  const LintReport report = analysis::lint_folding_json(j, sites);
  EXPECT_TRUE(has_finding(report, "R6", sites[0].name, Severity::kError));
  EXPECT_TRUE(has_finding(report, "R6", "no.such.layer"));
  EXPECT_TRUE(has_finding(report, "R6", "folding", Severity::kError));
}

TEST(LintR7, ExitPathMustExtendBackbonePrefix) {
  Accelerator acc;
  acc.num_exits = 1;
  HlsModule bb0;
  bb0.kind = HlsModuleKind::kMvtu;
  bb0.name = "bb0";
  bb0.cycles = 10;
  HlsModule head;
  head.kind = HlsModuleKind::kMvtu;
  head.name = "head0";
  head.cycles = 10;
  head.exit_head = 0;
  HlsModule bb1;
  bb1.kind = HlsModuleKind::kMvtu;
  bb1.name = "bb1";
  bb1.cycles = 10;
  bb1.exit_level = 1;
  acc.modules = {bb0, head, bb1};
  // Broken: the exit path diverges after bb0, which is not a Branch
  // duplicator (the compiler always splits at a Branch).
  acc.paths = {{0, 1}, {0, 2}};

  const LintReport report = analysis::lint_accelerator(acc);
  EXPECT_TRUE(has_finding(report, "R7", "paths[0]", Severity::kError));
}

TEST(LintR7, EmptyExitHeadIsStructurallyInvalid) {
  Rng rng(13);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv(cfg, rng);
  model.add_exit(0, std::make_unique<Sequential>());

  const LintReport report =
      analysis::lint_design(model, FoldingConfig{}, AcceleratorConfig{});
  EXPECT_TRUE(has_finding(report, "R7", "exit0", Severity::kError));
}

TEST(LintIntegration, CompileAcceleratorAggregatesAllViolations) {
  Rng rng(17);
  CnvConfig cfg = tiny_cnv();
  BranchyModel model = build_cnv(cfg, rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  FoldingConfig folding = default_folding(sites);
  folding.folds[0].pe = 5;
  folding.folds[1].simd = 7;

  try {
    compile_accelerator(model, folding, AcceleratorConfig{});
    FAIL() << "compile_accelerator accepted an invalid folding";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    // Both violations appear in the one structured failure.
    EXPECT_NE(what.find(sites[0].name), std::string::npos) << what;
    EXPECT_NE(what.find(sites[1].name), std::string::npos) << what;
  }
}

TEST(LintClean, DefaultAndStyledFoldingsAcrossScales) {
  const ExperimentScale scales[] = {
      ExperimentScale::tiny(), ExperimentScale::small_scale(),
      ExperimentScale::medium(), ExperimentScale::paper()};
  for (const auto& scale : scales) {
    SCOPED_TRACE(scale.name);
    const CnvConfig cfg = CnvConfig{}.scaled(scale.width_scale);
    for (const bool with_exits : {false, true}) {
      SCOPED_TRACE(with_exits ? "with exits" : "no exits");
      Rng rng(23);
      BranchyModel model =
          with_exits
              ? build_cnv_with_exits(cfg, paper_exits_config(false), rng)
              : build_cnv(cfg, rng);
      const AcceleratorConfig config;
      const ModelWalk walk =
          walk_model(model, config.in_channels, config.image_size);
      for (const bool styled : {false, true}) {
        SCOPED_TRACE(styled ? "styled_folding" : "default_folding");
        const FoldingConfig folding =
            styled ? styled_folding(walk.sites) : default_folding(walk.sites);
        Accelerator compiled;
        const LintReport report =
            analysis::lint(model, walk, folding, config, LintOptions{},
                           &compiled);
        EXPECT_EQ(report.count(Severity::kError), 0u)
            << report.format_table(Severity::kError);
        // lint() hands back the accelerator it compiled from that walk.
        const Accelerator acc = compile_accelerator(model, folding, config);
        EXPECT_EQ(compiled.paths, acc.paths);
        EXPECT_EQ(compiled.total.lut, acc.total.lut);
        EXPECT_EQ(compiled.total.bram, acc.total.bram);
      }
    }
  }
}

#if ADAPEX_DCHECKS_ENABLED
TEST(TensorDchecks, OutOfRangeAccessThrows) {
  Tensor t({2, 3, 4, 4});
  EXPECT_NO_THROW(t.at4(1, 2, 3, 3));
  EXPECT_THROW(t.at4(1, 3, 0, 0), Error);
  EXPECT_THROW(t.at4(2, 0, 0, 0), Error);
  Tensor m({2, 5});
  EXPECT_NO_THROW(m.at2(1, 4));
  EXPECT_THROW(m.at2(1, 5), Error);
  EXPECT_THROW(t[t.numel()], Error);
}
#endif

}  // namespace
}  // namespace adapex
