// Tests for the synthesis report and the experiment-scale presets.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/scale.hpp"
#include "finn/report.hpp"
#include "model/cnv.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

Accelerator make_acc() {
  Rng rng(41);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  static BranchyModel model;
  model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  return compile_accelerator(model, styled_folding(sites), AcceleratorConfig{});
}

TEST(Report, SummaryFieldsConsistent) {
  Accelerator acc = make_acc();
  SynthesisReport report = synthesis_report(acc);
  EXPECT_EQ(report.part, "xczu7ev");
  EXPECT_EQ(report.used.lut, acc.total.lut);
  EXPECT_TRUE(report.fits);  // reduced-scale design fits a ZCU104 easily
  EXPECT_GT(report.lut_pct, 0.0);
  EXPECT_LT(report.lut_pct, 100.0);
  EXPECT_GT(report.peak_ips, 0.0);
  EXPECT_GT(report.latency_ms, 0.0);
  EXPECT_FALSE(report.critical_module.empty());
  // Critical module is a real module with max cycles.
  long max_cycles = 0;
  for (const auto& m : acc.modules) max_cycles = std::max(max_cycles, m.cycles);
  EXPECT_EQ(report.critical_cycles, max_cycles);
}

TEST(Report, TextAndJsonRenderings) {
  Accelerator acc = make_acc();
  SynthesisReport report = synthesis_report(acc);
  EXPECT_NE(report.text.find("Synthesis report"), std::string::npos);
  EXPECT_NE(report.text.find("Critical module"), std::string::npos);
  Json j = report.to_json();
  EXPECT_EQ(j.at("part").as_string(), "xczu7ev");
  EXPECT_TRUE(j.at("fits").as_bool());
  EXPECT_DOUBLE_EQ(j.at("peak_ips").as_number(), report.peak_ips);
}

TEST(Report, TightBudgetFlagsOverflow) {
  Accelerator acc = make_acc();
  DeviceBudget tiny;
  tiny.part = "toy";
  tiny.lut = 10;
  SynthesisReport report = synthesis_report(acc, tiny);
  EXPECT_FALSE(report.fits);
  EXPECT_NE(report.text.find("DOES NOT FIT"), std::string::npos);
}

TEST(Scale, PresetsAreOrdered) {
  auto tiny = ExperimentScale::tiny();
  auto small = ExperimentScale::small_scale();
  auto medium = ExperimentScale::medium();
  auto paper = ExperimentScale::paper();
  EXPECT_LT(tiny.width_scale, small.width_scale);
  EXPECT_LT(small.width_scale, medium.width_scale);
  EXPECT_DOUBLE_EQ(paper.width_scale, 1.0);
  EXPECT_LT(tiny.train_size, paper.train_size);
  EXPECT_DOUBLE_EQ(paper.lr, 1e-3);  // the paper's recipe
  EXPECT_EQ(paper.initial_epochs, 40);
}

TEST(Scale, FromEnvParses) {
  const ScopedEnv restore("ADAPEX_SCALE", "medium");
  EXPECT_EQ(ExperimentScale::from_env().name, "medium");
  setenv("ADAPEX_SCALE", "bogus", 1);
  EXPECT_THROW(ExperimentScale::from_env(), ConfigError);
  unsetenv("ADAPEX_SCALE");
  EXPECT_EQ(ExperimentScale::from_env().name, "small");
}

TEST(Scale, GenSpecClassAwareSizing) {
  auto scale = ExperimentScale::small_scale();
  auto cifar = make_gen_spec(cifar10_like_spec(), scale);
  auto gtsrb = make_gen_spec(gtsrb_like_spec(), scale);
  EXPECT_EQ(cifar.dataset.train_size, scale.train_size);
  EXPECT_EQ(gtsrb.dataset.train_size, 2 * scale.train_size);
  EXPECT_GT(gtsrb.initial_train.epochs, cifar.initial_train.epochs);
  EXPECT_EQ(cifar.cnv.num_classes, 10);
  EXPECT_EQ(gtsrb.cnv.num_classes, 43);
  // Paper sweeps installed.
  EXPECT_EQ(cifar.prune_rates_pct.size(), 18u);
  EXPECT_EQ(cifar.conf_thresholds_pct.size(), 21u);
}

}  // namespace
}  // namespace adapex
