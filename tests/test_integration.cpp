// Integration tests across the whole stack: design-time flow -> runtime
// serving, frozen integer inference of pruned models, and cross-validation of
// the analytical accelerator model against the event-driven simulator on
// real (trained, pruned) models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/adapex.hpp"
#include "nn/quant.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

// One shared tiny library: full design-time flow once per test binary.
struct Flow {
  LibraryGenSpec spec;
  Library library;

  Flow() {
    spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
    spec.prune_rates_pct = {0, 30, 60};
    spec.conf_thresholds_pct = {0, 40, 80};
    library = generate_library(spec);
  }
};

const Flow& flow() {
  static const Flow f;
  return f;
}

TEST(Integration, DesignThenServeEndToEnd) {
  const Library& lib = flow().library;
  EXPECT_GT(lib.reference_accuracy, 0.5);  // tiny scale trains decently now

  EdgeScenario scenario = scale_to_library(EdgeScenario{}, lib, 1.3);
  scenario.seed = 77;
  auto adapex = simulate_edge_runs(lib, {AdaptPolicy::kAdaPEx, 0.10}, scenario, 5);
  auto finn =
      simulate_edge_runs(lib, {AdaptPolicy::kStaticFinn, 0.10}, scenario, 5);
  // The structural headline: AdaPEx serves (nearly) everything where the
  // static accelerator drops, at a lower energy-delay product. (The QoE
  // comparison needs the early-exit model trained to the paper's
  // proportions, which the tiny test scale cannot afford — the bench-scale
  // Table I / Fig. 6 runs cover it.)
  EXPECT_LT(adapex.inference_loss_pct, finn.inference_loss_pct);
  EXPECT_GT(adapex.served, finn.served);
  EXPECT_LT(adapex.edp, finn.edp);
  // The manager never does worse than the best its eligible space allows.
  double best_eligible = 0.0;
  for (const auto& e : lib.entries) {
    if (e.variant != ModelVariant::kNoExit) {
      best_eligible = std::max(best_eligible, e.accuracy);
    }
  }
  EXPECT_GE(adapex.accuracy, best_eligible - 0.10);
}

TEST(Integration, AllPoliciesServeWithoutError) {
  const Library& lib = flow().library;
  EdgeScenario scenario = scale_to_library(EdgeScenario{}, lib, 1.1);
  scenario.seed = 78;
  for (AdaptPolicy p : {AdaptPolicy::kAdaPEx, AdaptPolicy::kPrOnly,
                        AdaptPolicy::kCtOnly, AdaptPolicy::kStaticFinn}) {
    auto m = simulate_edge_runs(lib, {p, 0.10}, scenario, 3);
    EXPECT_EQ(m.offered, m.served + m.dropped) << to_string(p);
    EXPECT_GT(m.accuracy, 0.0) << to_string(p);
    EXPECT_GT(m.avg_power_w, 0.0) << to_string(p);
  }
}

TEST(Integration, PrunedModelFreezesAndMatches) {
  // Train, prune, retrain, freeze — the packed integer path must still
  // match the float model on a pruned network (exercises pruning surgery +
  // BatchNorm/quantizer folding together): identical argmax on every exit,
  // logits equal to float rounding.
  auto spec = flow().spec;
  SyntheticDataset data = make_synthetic(spec.dataset);
  Rng rng(spec.seed + 1);
  BranchyModel model = build_cnv_with_exits(spec.cnv, spec.exits, rng);
  TrainConfig tc = spec.initial_train;
  tc.epochs = 4;
  train_model(model, data.train, spec.dataset.flip_symmetry, tc);

  auto sites = walk_compute_layers(model, spec.accel.in_channels,
                                   spec.accel.image_size);
  PruneOptions popts;
  popts.rate = 0.5;
  popts.folding = styled_folding(sites);
  prune_model(model, popts);
  TrainConfig rt = spec.retrain;
  rt.epochs = 1;
  train_model(model, data.train, spec.dataset.flip_symmetry, rt);

  const PackedModel frozen = freeze_packed(model);
  std::vector<int> idx;
  for (int i = 0; i < 32; ++i) idx.push_back(i);
  Tensor x = data.test.batch_images(idx);
  auto fl = model.forward(x, false);
  PackedScratch scratch;
  auto iq = packed_forward(frozen, x, scratch);
  ASSERT_EQ(fl.size(), iq.size());
  for (std::size_t e = 0; e < fl.size(); ++e) {
    ASSERT_EQ(fl[e].shape(), iq[e].shape());
    int mismatches = 0;
    float max_diff = 0.0f;
    for (int n = 0; n < fl[e].dim(0); ++n) {
      int fa = 0, ia = 0;
      for (int k = 0; k < fl[e].dim(1); ++k) {
        max_diff = std::max(max_diff, std::abs(fl[e].at2(n, k) -
                                               iq[e].at2(n, k)));
        if (fl[e].at2(n, k) > fl[e].at2(n, fa)) fa = k;
        if (iq[e].at2(n, k) > iq[e].at2(n, ia)) ia = k;
      }
      if (fa != ia) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "exit " << e;
    EXPECT_LE(max_diff, 2e-4f) << "exit " << e;
  }
}

TEST(Integration, AnalyticThroughputTracksSimOnLibraryModels) {
  // Rebuild one pruned accelerator from the flow's spec and compare the
  // occupancy model's II against the backpressured transaction sim under
  // the library-measured exit fractions.
  auto spec = flow().spec;
  SyntheticDataset data = make_synthetic(spec.dataset);
  Rng rng(spec.seed + 2);
  BranchyModel model = build_cnv_with_exits(spec.cnv, spec.exits, rng);
  TrainConfig tc = spec.initial_train;
  tc.epochs = 3;
  train_model(model, data.train, spec.dataset.flip_symmetry, tc);
  auto sites = walk_compute_layers(model, 3, 32);
  auto folding = styled_folding(sites);
  Accelerator acc = compile_accelerator(model, folding, spec.accel);

  auto eval = evaluate_exits(model, data.test);
  auto stats = apply_threshold(eval, 0.4);
  auto perf = estimate_performance(acc, stats.exit_fraction, spec.power);

  // Deterministic interleaved exit stream approximating the fractions.
  std::vector<int> exits;
  for (int i = 0; i < 600; ++i) {
    const double u = (i % 100 + 0.5) / 100.0;
    double acc_frac = 0.0;
    int e = static_cast<int>(stats.exit_fraction.size()) - 1;
    for (std::size_t k = 0; k < stats.exit_fraction.size(); ++k) {
      acc_frac += stats.exit_fraction[k];
      if (u < acc_frac) {
        e = static_cast<int>(k);
        break;
      }
    }
    exits.push_back(e);
  }
  auto sim = simulate_pipeline(acc, exits);
  const double analytic_ii = acc.fclk_hz() / perf.ips;
  EXPECT_NEAR(sim.steady_ii_cycles, analytic_ii, 0.2 * analytic_ii);
}

TEST(Integration, LibrarySurvivesDiskRoundTripForServing) {
  const Library& lib = flow().library;
  const std::string dir = scratch_dir("integration");
  const std::string path = dir + "/library.json";
  lib.save(path);
  Library loaded = Library::load(path);
  EdgeScenario scenario = scale_to_library(EdgeScenario{}, loaded, 1.2);
  scenario.seed = 79;
  auto a = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, scenario);
  auto b = simulate_edge(loaded, {AdaptPolicy::kAdaPEx, 0.10}, scenario);
  EXPECT_EQ(a.served, b.served);
  EXPECT_DOUBLE_EQ(a.qoe, b.qoe);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adapex
