// Tests for the reach-aware dataflow verifier: stimulus construction,
// static bound soundness against the transaction-level simulator
// (cross-validation), and one broken + one clean fixture per rule R8-R14.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "common/rng.hpp"
#include "core/scale.hpp"
#include "finn/fifo_sizing.hpp"
#include "library/generator.hpp"
#include "model/cnv.hpp"
#include "pruning/pruning.hpp"

namespace adapex {
namespace analysis {
namespace {

int count_rule(const LintReport& report, const std::string& rule,
               Severity severity) {
  int n = 0;
  for (const auto& d : report.diagnostics) {
    if (d.rule_id == rule && d.severity == severity) ++n;
  }
  return n;
}

struct CompiledFixture {
  CnvConfig cfg;
  BranchyModel model;
  FoldingConfig folding;
  Accelerator acc;

  explicit CompiledFixture(bool with_exits, double scale = 0.25) {
    Rng rng(17);
    cfg = CnvConfig{}.scaled(scale);
    model = with_exits
                ? build_cnv_with_exits(cfg, paper_exits_config(false), rng)
                : build_cnv(cfg, rng);
    auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
    folding = styled_folding(sites);
    AcceleratorConfig acfg;
    acc = compile_accelerator(model, folding, acfg);
  }
};

/// Hand-built 4-module fixture: source -> branch -> {exit head, tail}.
/// The tail is slow (gated bottleneck), so the branch link to it carries a
/// nontrivial occupancy lower bound — the shape the compiled CNV points
/// never produce (their lag has grown past the consumer's cycles by then).
Accelerator tiny_branchy(long tail_cycles = 1000) {
  Accelerator acc;
  acc.num_exits = 1;
  acc.fclk_mhz = 100.0;
  HlsModule source;
  source.kind = HlsModuleKind::kSwu;
  source.name = "source";
  source.cycles = 10;
  HlsModule branch;
  branch.kind = HlsModuleKind::kBranch;
  branch.name = "branch";
  branch.cycles = 10;
  HlsModule head;
  head.kind = HlsModuleKind::kMvtu;
  head.name = "exit0.fc";
  head.cycles = 10;
  head.exit_head = 0;
  head.exit_level = 0;
  HlsModule tail;
  tail.kind = HlsModuleKind::kMvtu;
  tail.name = "tail.fc";
  tail.cycles = tail_cycles;
  tail.exit_level = 1;
  acc.modules = {source, branch, head, tail};
  acc.paths = {{0, 1, 2}, {0, 1, 3}};
  for (const auto& m : acc.modules) acc.total += m.resources;
  return acc;
}

// ---------------------------------------------------------------------------
// Stimulus construction.

TEST(GatedStimulus, RealizesCountsExactly) {
  const std::vector<double> fractions = {0.5, 0.3, 0.2};
  const auto stim = make_gated_stimulus(fractions, 10);
  ASSERT_EQ(stim.size(), 10u);
  std::vector<int> count(3, 0);
  for (int e : stim) {
    ASSERT_GE(e, 0);
    ASSERT_LE(e, 2);
    count[static_cast<std::size_t>(e)] += 1;
  }
  EXPECT_EQ(count[0], 5);
  EXPECT_EQ(count[1], 3);
  EXPECT_EQ(count[2], 2);
}

TEST(GatedStimulus, DeterministicAndLargestRemainder) {
  const std::vector<double> fractions = {0.6, 0.25, 0.15};
  const auto a = make_gated_stimulus(fractions, 997);
  const auto b = make_gated_stimulus(fractions, 997);
  EXPECT_EQ(a, b);
  std::vector<int> count(3, 0);
  for (int e : a) count[static_cast<std::size_t>(e)] += 1;
  // Largest remainder: each count within 1 of the ideal share.
  EXPECT_NEAR(count[0], 0.6 * 997, 1.0);
  EXPECT_NEAR(count[1], 0.25 * 997, 1.0);
  EXPECT_NEAR(count[2], 0.15 * 997, 1.0);
}

TEST(GatedStimulus, SurvivorsEvenlySpread) {
  const std::vector<double> fractions = {0.5, 0.3, 0.2};
  const std::size_t n = 1000;
  const auto stim = make_gated_stimulus(fractions, n);
  // Nested Bresenham: every "survives past level L" prefix count stays
  // within a small constant of the ideal line (one rounding per level).
  for (int level = 0; level < 2; ++level) {
    double survive = 0.0;
    for (std::size_t e = static_cast<std::size_t>(level) + 1;
         e < fractions.size(); ++e) {
      survive += fractions[e];
    }
    int seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (stim[i] > level) ++seen;
      const double ideal = survive * static_cast<double>(i + 1);
      EXPECT_LE(std::abs(seen - ideal), 2.0 + 1e-9)
          << "level " << level << " prefix " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-exit reduction: with reach == 1 everywhere the verifier must agree
// with the ungated model and raise none of the gating rules.

TEST(DataflowVerifier, ZeroExitReducesToUngatedModel) {
  CompiledFixture fx(false);
  const DataflowReport rep = analyze_dataflow(fx.acc, {1.0});
  EXPECT_FALSE(rep.lint.has_errors()) << rep.lint.format_table();
  EXPECT_EQ(rep.lint.count(Severity::kWarning), 0u)
      << rep.lint.format_table();
  long max_cycles = 0;
  for (const auto& m : fx.acc.modules) {
    max_cycles = std::max(max_cycles, m.cycles);
  }
  EXPECT_DOUBLE_EQ(rep.steady_ii_cycles, static_cast<double>(max_cycles));
  EXPECT_DOUBLE_EQ(rep.front_ii_cycles, rep.steady_ii_cycles);
  for (double r : rep.module_reach) EXPECT_DOUBLE_EQ(r, 1.0);

  const CrossValidation cv = cross_validate(fx.acc, {1.0});
  EXPECT_TRUE(cv.passed) << cv.summary() << "\n" << cv.lint.format_table();
}

// ---------------------------------------------------------------------------
// Agreement harness on the paper's design points.

TEST(DataflowVerifier, CrossValidatesStyledCnvWithExits) {
  CompiledFixture fx(true);
  const CrossValidation cv =
      cross_validate(fx.acc, {0.5, 0.3, 0.2});
  EXPECT_TRUE(cv.passed) << cv.summary() << "\n" << cv.lint.format_table();
  EXPECT_LE(cv.ii_rel_err, 0.01);
  EXPECT_FALSE(cv.links.empty());
  for (const auto& link : cv.links) {
    EXPECT_TRUE(link.ok) << link.producer << " -> " << link.consumer << ": "
                         << link.measured_high_water << " not in ["
                         << link.lower << ", " << link.upper << "]";
  }
}

TEST(DataflowVerifier, CrossValidatesTinyBranchyFixture) {
  const Accelerator acc = tiny_branchy();
  const CrossValidation cv = cross_validate(acc, {0.8, 0.2});
  EXPECT_TRUE(cv.passed) << cv.summary() << "\n" << cv.lint.format_table();
}

TEST(DataflowVerifier, RandomizedFoldingAndFractionsStayInsideBounds) {
  Rng rng(20260808);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  for (int trial = 0; trial < 5; ++trial) {
    Rng model_rng(100 + static_cast<std::uint64_t>(trial));
    BranchyModel model =
        build_cnv_with_exits(cfg, paper_exits_config(false), model_rng);
    auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
    const int pe_cap = 1 << rng.uniform_index(3);    // 1, 2, 4
    const int simd_cap = 1 << rng.uniform_index(4);  // 1..8
    FoldingConfig folding = default_folding(sites, pe_cap, simd_cap);
    AcceleratorConfig acfg;
    Accelerator acc = compile_accelerator(model, folding, acfg);

    // Random exit distribution, each output at least 5% so the gated
    // bottleneck's steady window stays affordable to simulate.
    std::vector<double> fractions(static_cast<std::size_t>(acc.num_exits) + 1);
    double sum = 0.0;
    for (double& f : fractions) {
      f = 0.05 + rng.uniform();
      sum += f;
    }
    for (double& f : fractions) f /= sum;

    const CrossValidation cv = cross_validate(acc, fractions);
    EXPECT_TRUE(cv.passed)
        << "trial " << trial << " pe_cap " << pe_cap << " simd_cap "
        << simd_cap << ": " << cv.summary() << "\n"
        << cv.lint.format_table();
  }
}

// ---------------------------------------------------------------------------
// One shared measurement path: size_fifos must provision exactly the
// high-water marks the cross-validator's paced run measures.

TEST(DataflowVerifier, SizeFifosSharesTheMeasurementPath) {
  CompiledFixture fx(true);
  const std::vector<double> fractions = {0.5, 0.3, 0.2};
  const CrossValidation cv = cross_validate(fx.acc, fractions);
  ASSERT_TRUE(cv.passed) << cv.summary();

  const auto stim = make_gated_stimulus(fractions, cv.num_images);
  const auto reqs = size_fifos(fx.acc, stim, /*safety_margin=*/1.0);
  ASSERT_EQ(reqs.size(), cv.links.size());
  for (const auto& req : reqs) {
    const auto it = std::find_if(
        cv.links.begin(), cv.links.end(), [&](const auto& l) {
          return l.producer == req.producer && l.consumer == req.consumer;
        });
    ASSERT_NE(it, cv.links.end());
    EXPECT_EQ(req.high_water_images, it->measured_high_water)
        << req.describe(fx.acc);
    EXPECT_EQ(req.depth_images, std::max(req.high_water_images, 1));
  }
}

// ---------------------------------------------------------------------------
// R8: reach consistency.

TEST(DataflowRules, R8FlagsBrokenDistributions) {
  CompiledFixture fx(true);
  // Wrong arity.
  EXPECT_GT(count_rule(analyze_dataflow(fx.acc, {0.5, 0.5}).lint, "R8",
                       Severity::kError),
            0);
  // Out-of-range fraction and over-counted survival.
  const auto rep = analyze_dataflow(fx.acc, {0.7, 0.5, -0.2});
  EXPECT_GE(count_rule(rep.lint, "R8", Severity::kError), 2);
  // Sum != 1.
  EXPECT_GT(count_rule(analyze_dataflow(fx.acc, {0.5, 0.3, 0.1}).lint, "R8",
                       Severity::kError),
            0);
}

TEST(DataflowRules, R8PassesCleanDistribution) {
  CompiledFixture fx(true);
  const auto rep = analyze_dataflow(fx.acc, {0.5, 0.3, 0.2});
  EXPECT_EQ(count_rule(rep.lint, "R8", Severity::kError), 0);
}

// ---------------------------------------------------------------------------
// R9: reach-scaled II feasibility.

TEST(DataflowRules, R9FlagsGatedBottleneck) {
  // Tail folded so slowly that even at 20% reach it dominates the front
  // II (10 cycles) by far more than the slack factor.
  const Accelerator acc = tiny_branchy(1000);
  const auto rep = analyze_dataflow(acc, {0.8, 0.2});
  EXPECT_EQ(count_rule(rep.lint, "R9", Severity::kWarning), 1)
      << rep.lint.format_table();
}

TEST(DataflowRules, R9PassesBalancedTail) {
  const Accelerator acc = tiny_branchy(12);  // 12 * 0.2 << 1.25 * 10
  const auto rep = analyze_dataflow(acc, {0.8, 0.2});
  EXPECT_EQ(count_rule(rep.lint, "R9", Severity::kWarning), 0)
      << rep.lint.format_table();
}

// ---------------------------------------------------------------------------
// R10 / R11 (plan checks): FIFO depth lower bounds and wedge hazards.

TEST(DataflowRules, R10FlagsUnderProvisionedPlan) {
  const Accelerator acc = tiny_branchy(1000);
  DataflowOptions opts;
  const auto bounds = analyze_dataflow(acc, {0.8, 0.2}, opts);
  // The branch -> tail link needs more than one image of buffering: while
  // the tail serves one image, several paced arrivals queue behind it.
  int tail_lower = 0;
  for (const auto& lb : bounds.links) {
    if (lb.consumer == 3) tail_lower = lb.occupancy_lower;
  }
  ASSERT_GT(tail_lower, 1);

  std::vector<FifoRequirement> plan;
  for (const auto& lb : bounds.links) {
    FifoRequirement req;
    req.producer = lb.producer;
    req.consumer = lb.consumer;
    req.depth_images = (lb.consumer == 3) ? tail_lower - 1 : lb.occupancy_upper;
    plan.push_back(req);
  }
  opts.fifo_plan = &plan;
  const auto rep = analyze_dataflow(acc, {0.8, 0.2}, opts);
  EXPECT_EQ(count_rule(rep.lint, "R10", Severity::kError), 1)
      << rep.lint.format_table();

  // Raising the plan to the upper bounds clears the rule.
  for (auto& req : plan) {
    for (const auto& lb : bounds.links) {
      if (lb.producer == req.producer && lb.consumer == req.consumer) {
        req.depth_images = lb.occupancy_upper;
      }
    }
  }
  const auto clean = analyze_dataflow(acc, {0.8, 0.2}, opts);
  EXPECT_EQ(count_rule(clean.lint, "R10", Severity::kError), 0)
      << clean.lint.format_table();
  EXPECT_EQ(count_rule(clean.lint, "R11", Severity::kWarning), 0)
      << clean.lint.format_table();
}

TEST(DataflowRules, R10FlagsMissingLinkInPlan) {
  const Accelerator acc = tiny_branchy();
  std::vector<FifoRequirement> plan;  // empty: nothing provisioned
  DataflowOptions opts;
  opts.fifo_plan = &plan;
  const auto rep = analyze_dataflow(acc, {0.8, 0.2}, opts);
  EXPECT_GT(count_rule(rep.lint, "R10", Severity::kError), 0);
}

TEST(DataflowRules, R11FlagsZeroDepthAndBranchWedge) {
  const Accelerator acc = tiny_branchy(1000);
  const auto bounds = analyze_dataflow(acc, {0.8, 0.2});
  std::vector<FifoRequirement> plan;
  for (const auto& lb : bounds.links) {
    FifoRequirement req;
    req.producer = lb.producer;
    req.consumer = lb.consumer;
    if (lb.consumer == 2) {
      req.depth_images = 0;  // zero-depth exit-head link: instant wedge
    } else if (lb.consumer == 3) {
      // Meets the lower bound but not the proven-sufficient depth on a
      // Branch-fed link: sibling-stall hazard, warned not errored.
      req.depth_images = lb.occupancy_lower;
      EXPECT_LT(req.depth_images, lb.occupancy_upper);
    } else {
      req.depth_images = lb.occupancy_upper;
    }
    plan.push_back(req);
  }
  DataflowOptions opts;
  opts.fifo_plan = &plan;
  const auto rep = analyze_dataflow(acc, {0.8, 0.2}, opts);
  EXPECT_EQ(count_rule(rep.lint, "R11", Severity::kError), 1)
      << rep.lint.format_table();
  EXPECT_EQ(count_rule(rep.lint, "R11", Severity::kWarning), 1)
      << rep.lint.format_table();
}

TEST(DataflowRules, R11FlagsCyclicStreamGraph) {
  Accelerator acc;
  acc.num_exits = 0;
  HlsModule a;
  a.name = "a";
  a.cycles = 10;
  HlsModule b;
  b.name = "b";
  b.cycles = 10;
  acc.modules = {a, b};
  acc.paths = {{0, 1, 0}};
  const auto rep = analyze_dataflow(acc, {1.0});
  EXPECT_GT(count_rule(rep.lint, "R11", Severity::kError), 0)
      << rep.lint.format_table();
}

// ---------------------------------------------------------------------------
// R12: reach-vs-Library drift.

TEST(DataflowRules, R12FlagsDriftedEntry) {
  CompiledFixture fx(true);
  LibraryEntry entry;
  entry.accel_id = 1;
  entry.exit_fractions = {0.5, 0.3, 0.2};
  const double ii = gated_steady_ii(fx.acc, entry.exit_fractions);
  entry.ips = fx.acc.fclk_hz() / ii;
  EXPECT_EQ(count_rule(lint_entry_reach(fx.acc, entry), "R12",
                       Severity::kError),
            0);
  entry.ips *= 1.2;  // stale record: accelerator was re-folded since
  EXPECT_EQ(count_rule(lint_entry_reach(fx.acc, entry), "R12",
                       Severity::kError),
            1);
}

// ---------------------------------------------------------------------------
// R13: duplicated-stream buffering cost vs. device BRAM.

TEST(DataflowRules, R13WarnsOnTinyDevice) {
  CompiledFixture fx(true);
  DataflowOptions opts;
  opts.device.name = "toy";
  opts.device.caps.bram = 1;
  const auto rep = analyze_dataflow(fx.acc, {0.5, 0.3, 0.2}, opts);
  EXPECT_EQ(count_rule(rep.lint, "R13", Severity::kWarning), 1)
      << rep.lint.format_table();
}

TEST(DataflowRules, R13AccountsOnRealDevice) {
  CompiledFixture fx(true);
  const auto rep = analyze_dataflow(fx.acc, {0.5, 0.3, 0.2});
  EXPECT_EQ(count_rule(rep.lint, "R13", Severity::kWarning), 0)
      << rep.lint.format_table();
  EXPECT_EQ(count_rule(rep.lint, "R13", Severity::kInfo), 1);
  EXPECT_GT(rep.fifo_bram_upper, 0);
}

// ---------------------------------------------------------------------------
// R14: gated-throughput accounting.

TEST(DataflowRules, R14FlagsTamperedPerf) {
  CompiledFixture fx(true);
  const std::vector<double> fractions = {0.5, 0.3, 0.2};
  AcceleratorPerf perf =
      estimate_performance(fx.acc, fractions, PowerModel{});
  EXPECT_EQ(count_rule(lint_gated_throughput(fx.acc, fractions, perf), "R14",
                       Severity::kError),
            0);
  perf.ips *= 1.1;
  perf.latency_ms *= 0.9;
  EXPECT_EQ(count_rule(lint_gated_throughput(fx.acc, fractions, perf), "R14",
                       Severity::kError),
            2);
}

TEST(DataflowRules, R14FlagsInconsistentGatingMetadata) {
  // Hand-built accelerator whose exit head claims exit_head=0 but carries
  // exit_level=1: the analytical model (exit_level) and the gating model
  // (exit_head) price it differently, which R14 must surface.
  Accelerator acc = tiny_branchy(1000);
  acc.modules[2].exit_level = 1;
  acc.modules[2].cycles = 2000;  // make the head the ips-relevant module
  const auto rep = analyze_dataflow(acc, {0.8, 0.2});
  EXPECT_GT(count_rule(rep.lint, "R14", Severity::kError), 0)
      << rep.lint.format_table();
}

// ---------------------------------------------------------------------------
// lint() integration: the catalog runs end to end on a compiled design.

TEST(DataflowRules, LintAcceleratorMergesDataflowRules) {
  CompiledFixture fx(true);
  LintOptions opts;
  opts.exit_fractions = {0.5, 0.3, 0.2};
  const LintReport report = lint_accelerator(fx.acc, opts);
  EXPECT_FALSE(report.has_errors()) << report.format_table();
  EXPECT_EQ(count_rule(report, "R13", Severity::kInfo), 1);
}

// ---------------------------------------------------------------------------
// generate_library --verify: every emitted row passes R12 and the
// agreement harness (the tentpole's acceptance criterion, at tiny scale).

TEST(DataflowRules, GenerateLibraryVerifiesEveryRow) {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {0, 50, 100};
  spec.variants = {ModelVariant::kNoExit, ModelVariant::kNotPrunedExits};
  spec.verify_dataflow = true;
  const Library lib = generate_library(spec);
  EXPECT_FALSE(lib.entries.empty());
}

// Cross-validation depends only on (accelerator, exit distribution):
// thresholds 0% and 5% both send every image out at exit 0 (a 10-class
// softmax is never less than 10% confident), so that distribution is
// simulated once per accelerator while R12 still checks every row.
TEST(DataflowRules, GenerateLibraryCrossValidatesEachDistributionOnce) {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  // Minimal training: only the row distributions matter here.
  spec.dataset.train_size = 64;
  spec.dataset.test_size = 64;
  spec.initial_train.epochs = 1;
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {0, 5, 50, 100};
  spec.variants = {ModelVariant::kNoExit, ModelVariant::kNotPrunedExits};
  spec.verify_dataflow = true;
  GenerationReport report;
  spec.report = &report;
  const Library lib = generate_library(spec);

  std::vector<std::pair<int, std::vector<double>>> distinct;
  for (const LibraryEntry& e : lib.entries) {
    const std::pair<int, std::vector<double>> key{e.accel_id,
                                                  e.exit_fractions};
    if (std::find(distinct.begin(), distinct.end(), key) == distinct.end()) {
      distinct.push_back(key);
    }
  }
  int cross_validations = 0;
  double verify_s = 0.0;
  for (const PointOutcome& p : report.points) {
    cross_validations += p.cross_validations;
    verify_s += p.verify_s;
    EXPECT_GT(p.verify_s, 0.0);
    EXPECT_LE(p.verify_s, p.wall_s);
  }
  EXPECT_EQ(static_cast<std::size_t>(cross_validations), distinct.size());
  EXPECT_LT(static_cast<std::size_t>(cross_validations), lib.entries.size());
  EXPECT_EQ(report.verify_wall_s, verify_s);
  const Json j = report.to_json();
  EXPECT_EQ(j.at("verify_wall_s").as_number(), report.verify_wall_s);
  EXPECT_EQ(j.at("points").as_array().front().at("cross_validations").as_int(),
            report.points.front().cross_validations);
}

}  // namespace
}  // namespace analysis
}  // namespace adapex
