// Tests for the HLS module cost models, the accelerator compiler, the
// analytical performance model, and the event-driven pipeline simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "finn/accelerator.hpp"
#include "finn/pipeline_sim.hpp"
#include "finn/reconfig.hpp"
#include "model/cnv.hpp"
#include "pruning/pruning.hpp"

namespace adapex {
namespace {

MvtuGeometry conv_geom() {
  MvtuGeometry g;
  g.is_conv = true;
  g.in_channels = 16;
  g.out_channels = 32;
  g.kernel = 3;
  g.in_dim = 14;
  g.out_dim = 12;
  g.weight_bits = 2;
  g.act_bits = 2;
  return g;
}

TEST(HlsModules, MvtuCyclesFoldingScaling) {
  auto g = conv_geom();
  const long base = mvtu_cycles(g, 1, 1);
  EXPECT_EQ(base, 12L * 12 * 9 * 16 * 32);
  // Doubling PE halves cycles; doubling SIMD halves cycles.
  EXPECT_EQ(mvtu_cycles(g, 2, 1), base / 2);
  EXPECT_EQ(mvtu_cycles(g, 1, 2), base / 2);
  EXPECT_EQ(mvtu_cycles(g, 4, 4), base / 16);
}

TEST(HlsModules, MvtuRejectsNonDividingFolds) {
  auto g = conv_geom();
  EXPECT_THROW(mvtu_cycles(g, 3, 1), Error);   // 32 % 3 != 0
  EXPECT_THROW(mvtu_cycles(g, 1, 5), Error);   // 16 % 5 != 0
}

TEST(HlsModules, SwuNeverSlowerThanItsMvtu) {
  auto g = conv_geom();
  for (int pe : {1, 2, 4}) {
    for (int simd : {1, 2, 4}) {
      EXPECT_LE(swu_cycles(g, simd), mvtu_cycles(g, pe, simd)) << pe << "x" << simd;
    }
  }
}

TEST(HlsModules, ResourcesGrowWithFolding) {
  auto g = conv_geom();
  HlsCostModel cost;
  const Resources r1 = mvtu_resources(g, 1, 1, cost);
  const Resources r4 = mvtu_resources(g, 4, 4, cost);
  EXPECT_GT(r4.lut, r1.lut);  // more parallel hardware
  EXPECT_GT(r1.lut, 0);
  EXPECT_GE(r1.bram, 0);
}

TEST(HlsModules, LowPrecisionUsesNoDsp) {
  auto g = conv_geom();
  HlsCostModel cost;
  EXPECT_EQ(mvtu_resources(g, 2, 2, cost).dsp, 0);
  g.weight_bits = 8;
  EXPECT_GT(mvtu_resources(g, 2, 2, cost).dsp, 0);
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

TEST(Accelerator, ModuleInventoryNoExits) {
  CompiledFixture fx(false);
  // 6 convs -> 6 SWU + 6 MVTU; 3 fcs -> 3 MVTU; 2 pools.
  int swu = 0, mvtu = 0, pool = 0, branch = 0;
  for (const auto& m : fx.acc.modules) {
    switch (m.kind) {
      case HlsModuleKind::kSwu: ++swu; break;
      case HlsModuleKind::kMvtu: ++mvtu; break;
      case HlsModuleKind::kPool: ++pool; break;
      case HlsModuleKind::kBranch: ++branch; break;
    }
  }
  EXPECT_EQ(swu, 6);
  EXPECT_EQ(mvtu, 9);
  EXPECT_EQ(pool, 2);
  EXPECT_EQ(branch, 0);
  ASSERT_EQ(fx.acc.paths.size(), 1u);
  EXPECT_EQ(fx.acc.paths[0].size(), fx.acc.modules.size());
  EXPECT_EQ(fx.acc.num_exits, 0);
}

TEST(Accelerator, ModuleInventoryWithExits) {
  CompiledFixture fx(true);
  int branch = 0;
  for (const auto& m : fx.acc.modules) {
    if (m.kind == HlsModuleKind::kBranch) ++branch;
  }
  EXPECT_EQ(branch, 2);
  ASSERT_EQ(fx.acc.paths.size(), 3u);
  // Exit paths are strictly shorter than the full path in cycle terms.
  auto path_cycles = [&](const std::vector<int>& p) {
    long c = 0;
    for (int mi : p) c += fx.acc.modules[static_cast<std::size_t>(mi)].cycles;
    return c;
  };
  EXPECT_LT(path_cycles(fx.acc.paths[0]), path_cycles(fx.acc.paths[2]));
  EXPECT_LT(path_cycles(fx.acc.paths[1]), path_cycles(fx.acc.paths[2]));
  EXPECT_GT(fx.acc.exit_overhead.lut, 0);
  EXPECT_GT(fx.acc.exit_overhead.bram, 0);
}

TEST(Accelerator, ExitLevelsMonotoneAlongBackbone) {
  CompiledFixture fx(true);
  int prev_level = 0;
  for (int mi : fx.acc.paths.back()) {
    const auto& m = fx.acc.modules[static_cast<std::size_t>(mi)];
    EXPECT_GE(m.exit_level, prev_level);
    prev_level = m.exit_level;
    EXPECT_EQ(m.exit_head, -1);
  }
  EXPECT_EQ(prev_level, 2);
}

TEST(Accelerator, PerfNoExitsMatchesBottleneck) {
  CompiledFixture fx(false);
  PowerModel power;
  auto perf = estimate_performance(fx.acc, {1.0}, power);
  long max_cycles = 0;
  long sum_cycles = 0;
  for (const auto& m : fx.acc.modules) {
    max_cycles = std::max(max_cycles, m.cycles);
    sum_cycles += m.cycles;
  }
  EXPECT_NEAR(perf.ips, fx.acc.fclk_hz() / static_cast<double>(max_cycles),
              1e-6 * perf.ips);
  EXPECT_NEAR(perf.latency_ms,
              static_cast<double>(sum_cycles) / fx.acc.fclk_hz() * 1e3,
              1e-9);
  EXPECT_GT(perf.peak_power_w, power.static_w);
  EXPECT_GT(perf.energy_per_inf_j, 0.0);
}

TEST(Accelerator, MoreEarlyExitsMeansMoreIpsLessEnergy) {
  CompiledFixture fx(true);
  PowerModel power;
  auto all_final = estimate_performance(fx.acc, {0.0, 0.0, 1.0}, power);
  auto half_early = estimate_performance(fx.acc, {0.5, 0.2, 0.3}, power);
  auto all_early = estimate_performance(fx.acc, {1.0, 0.0, 0.0}, power);
  EXPECT_GT(half_early.ips, all_final.ips);
  // Throughput saturates once the pre-branch backbone becomes the
  // bottleneck, so "all early" is >= "half early" but not necessarily >.
  EXPECT_GE(all_early.ips, half_early.ips);
  EXPECT_GT(all_early.ips, all_final.ips);
  EXPECT_LT(half_early.latency_ms, all_final.latency_ms);
  EXPECT_LT(half_early.energy_per_inf_j, all_final.energy_per_inf_j);
}

TEST(Accelerator, ExitFractionValidation) {
  CompiledFixture fx(true);
  PowerModel power;
  EXPECT_THROW(estimate_performance(fx.acc, {1.0}, power), Error);
  EXPECT_THROW(estimate_performance(fx.acc, {0.5, 0.2, 0.2}, power), Error);
}

TEST(Accelerator, PruningReducesResourcesAndRaisesIps) {
  Rng rng(23);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  auto folding = default_folding(sites);
  AcceleratorConfig acfg;
  Accelerator full = compile_accelerator(model, folding, acfg);

  PruneOptions opts;
  opts.rate = 0.5;
  opts.folding = folding;
  prune_model(model, opts);
  Accelerator pruned = compile_accelerator(model, folding, acfg);

  // Pruning can move a shrunken layer's weights from BRAM into LUTRAM, so
  // compare the aggregate memory footprint (1 BRAM18 ~ 18k bits ~ 288
  // LUT-equivalents) rather than each resource in isolation.
  auto footprint = [](const Resources& r) { return r.lut + 288 * r.bram; };
  EXPECT_LT(footprint(pruned.total), footprint(full.total));
  EXPECT_LE(pruned.total.bram, full.total.bram);
  PowerModel power;
  auto full_perf = estimate_performance(full, {0.0, 0.0, 1.0}, power);
  auto pruned_perf = estimate_performance(pruned, {0.0, 0.0, 1.0}, power);
  EXPECT_GT(pruned_perf.ips, full_perf.ips);
  EXPECT_LT(pruned_perf.latency_ms, full_perf.latency_ms);
}

TEST(PipelineSim, SteadyStateMatchesAnalyticII) {
  CompiledFixture fx(false);
  // Long run: backpressure needs ~fifo-depth x pipeline-depth images to
  // throttle the source before the steady window starts.
  std::vector<int> exits(512, 0);  // single output model: exit index 0
  auto sim = simulate_pipeline(fx.acc, exits);
  long max_cycles = 0;
  for (const auto& m : fx.acc.modules) max_cycles = std::max(max_cycles, m.cycles);
  EXPECT_NEAR(sim.steady_ii_cycles, static_cast<double>(max_cycles),
              0.01 * max_cycles);
  // First-image latency equals the path sum (no contention).
  long sum_cycles = 0;
  for (const auto& m : fx.acc.modules) sum_cycles += m.cycles;
  EXPECT_NEAR(sim.first_latency_cycles, static_cast<double>(sum_cycles), 1.0);
}

TEST(PipelineSim, EarlyExitsRaiseSimulatedThroughput) {
  CompiledFixture fx(true);
  std::vector<int> all_final(64, 2);
  std::vector<int> mostly_early(64);
  for (std::size_t i = 0; i < mostly_early.size(); ++i) {
    mostly_early[i] = i % 4 == 0 ? 2 : 0;  // 75% take exit 0
  }
  auto slow = simulate_pipeline(fx.acc, all_final);
  auto fast = simulate_pipeline(fx.acc, mostly_early);
  EXPECT_LT(fast.steady_ii_cycles, slow.steady_ii_cycles);
}

TEST(PipelineSim, AgreesWithAnalyticUnderExitMix) {
  CompiledFixture fx(true);
  // 50% exit0, 25% exit1, 25% final, deterministically interleaved.
  std::vector<int> exits(400);
  for (std::size_t i = 0; i < exits.size(); ++i) {
    exits[i] = (i % 4 == 0) ? 2 : (i % 4 == 2 ? 1 : 0);
  }
  auto sim = simulate_pipeline(fx.acc, exits);
  PowerModel power;
  auto perf = estimate_performance(fx.acc, {0.5, 0.25, 0.25}, power);
  const double analytic_ii = fx.acc.fclk_hz() / perf.ips;
  // Transaction-level sim and the occupancy model agree within 15%.
  EXPECT_NEAR(sim.steady_ii_cycles, analytic_ii, 0.15 * analytic_ii);
}

// ---------------------------------------------------------------------------
// Differential check of the streaming simulator against a deliberately
// naive module-major reference: the full begin/ready history of every
// module, each image resolved recursively through its predecessor chain
// (so any index order works), and link occupancy swept afterwards from the
// complete arrival/departure histories.

/// Occupancy sweep over one link's full histories: an image is resident at
/// time t when it arrived at or before t and the consumer had not begun it
/// strictly before t; the maximum is attained at an arrival instant.
LinkOccupancy reference_sweep(int producer, int consumer,
                              const std::vector<double>& arrivals,
                              const std::vector<double>& departures) {
  LinkOccupancy occ;
  occ.producer = producer;
  occ.consumer = consumer;
  const std::size_t n = arrivals.size();
  std::size_t a = 0;
  std::size_t d = 0;
  while (a < n) {
    const double t = arrivals[a];
    while (d < a && departures[d] < t) ++d;
    while (a < n && arrivals[a] <= t) ++a;
    const int resident = static_cast<int>(a - d);
    if (resident > occ.high_water_images) {
      occ.high_water_images = resident;
      occ.peak_time_cycles = t;
    }
  }
  return occ;
}

double reference_pace(const std::vector<double>& events) {
  const std::size_t n = events.size();
  const std::size_t half = n / 2;
  if (n >= 4 && half + 1 < n) {
    return (events[n - 1] - events[half]) / static_cast<double>(n - 1 - half);
  }
  return events.back() / static_cast<double>(n);
}

PipelineSimResult reference_simulate(const Accelerator& acc,
                                     const std::vector<int>& exits,
                                     const PipelineSimOptions& options) {
  const std::size_t num_modules = acc.modules.size();
  const std::size_t n = exits.size();
  const std::vector<int> pred = module_predecessors(acc);
  std::vector<std::vector<std::size_t>> consumers(num_modules);
  for (std::size_t m = 0; m < num_modules; ++m) {
    if (pred[m] >= 0) consumers[static_cast<std::size_t>(pred[m])].push_back(m);
  }
  const bool paced = options.injection_interval_cycles > 0.0;
  const bool bounded = options.fifo_depth > 0;
  const std::size_t depth =
      bounded ? static_cast<std::size_t>(options.fifo_depth) : 0;

  std::vector<std::vector<double>> begin(num_modules, std::vector<double>(n));
  std::vector<std::vector<double>> ready(num_modules, std::vector<double>(n));
  std::vector<double> freed_prev(num_modules, 0.0);
  PipelineSimResult result;
  result.completion_cycles.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<char> done(num_modules, 0);
    std::function<void(std::size_t)> visit = [&](std::size_t m) {
      if (done[m] != 0) return;
      double arrive =
          paced ? static_cast<double>(i) * options.injection_interval_cycles
                : 0.0;
      if (pred[m] >= 0) {
        const std::size_t p = static_cast<std::size_t>(pred[m]);
        visit(p);
        arrive = ready[p][i];
      }
      begin[m][i] = std::max(arrive, freed_prev[m]);
      ready[m][i] = begin[m][i] + (module_touches(acc.modules[m], exits[i])
                                       ? static_cast<double>(acc.modules[m].cycles)
                                       : 0.0);
      double freed = ready[m][i];
      if (bounded && i >= depth) {
        for (std::size_t c : consumers[m]) {
          freed = std::max(freed, begin[c][i - depth]);
        }
      }
      freed_prev[m] = freed;
      done[m] = 1;
    };
    for (std::size_t m = 0; m < num_modules; ++m) visit(m);
    result.completion_cycles[i] =
        ready[static_cast<std::size_t>(
            acc.paths[static_cast<std::size_t>(exits[i])].back())][i];
  }
  result.first_latency_cycles = result.completion_cycles.front();
  double latency_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    latency_sum += result.completion_cycles[i] - begin[0][i];
  }
  result.avg_latency_cycles = latency_sum / static_cast<double>(n);
  result.steady_ii_cycles =
      n >= 4 ? reference_pace(begin[0])
             : result.completion_cycles.back() / static_cast<double>(n);
  for (std::size_t m = 0; m < num_modules; ++m) {
    result.module_begin_ii_cycles.push_back(reference_pace(begin[m]));
  }
  if (options.record_link_occupancy) {
    for (std::size_t c = 0; c < num_modules; ++c) {
      if (pred[c] < 0) continue;
      const std::size_t p = static_cast<std::size_t>(pred[c]);
      result.links.push_back(reference_sweep(pred[c], static_cast<int>(c),
                                             ready[p], begin[c]));
    }
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every PipelineSimResult field, bitwise; returns the first difference.
std::string sim_difference(const PipelineSimResult& a,
                           const PipelineSimResult& b) {
  if (!same_bits(a.steady_ii_cycles, b.steady_ii_cycles)) return "steady_ii";
  if (!same_bits(a.first_latency_cycles, b.first_latency_cycles)) {
    return "first_latency";
  }
  if (!same_bits(a.avg_latency_cycles, b.avg_latency_cycles)) {
    return "avg_latency";
  }
  if (a.completion_cycles.size() != b.completion_cycles.size()) {
    return "completion size";
  }
  for (std::size_t i = 0; i < a.completion_cycles.size(); ++i) {
    if (!same_bits(a.completion_cycles[i], b.completion_cycles[i])) {
      return "completion[" + std::to_string(i) + "]";
    }
  }
  if (a.module_begin_ii_cycles.size() != b.module_begin_ii_cycles.size()) {
    return "module_begin_ii size";
  }
  for (std::size_t m = 0; m < a.module_begin_ii_cycles.size(); ++m) {
    if (!same_bits(a.module_begin_ii_cycles[m], b.module_begin_ii_cycles[m])) {
      return "module_begin_ii[" + std::to_string(m) + "]";
    }
  }
  if (a.links.size() != b.links.size()) return "links size";
  for (std::size_t l = 0; l < a.links.size(); ++l) {
    const LinkOccupancy& x = a.links[l];
    const LinkOccupancy& y = b.links[l];
    if (x.producer != y.producer || x.consumer != y.consumer ||
        x.high_water_images != y.high_water_images ||
        !same_bits(x.peak_time_cycles, y.peak_time_cycles)) {
      return "links[" + std::to_string(l) + "]";
    }
  }
  return "";
}

/// Random fork tree shaped like a compiled early-exit accelerator: a
/// backbone with a Branch after each of `num_exits` attachment points, a
/// 1-3 module head per exit, ~1 in 5 modules with zero cycles (tied
/// timestamps), and module indices shuffled so the tree is generally not
/// topologically indexed.
Accelerator random_fork_tree(Rng& rng, int num_exits) {
  std::vector<HlsModule> mods;
  auto add = [&](HlsModuleKind kind, int exit_level, int exit_head) {
    HlsModule m;
    m.kind = kind;
    m.name = "m" + std::to_string(mods.size());
    m.cycles = rng.bernoulli(0.2)
                   ? 0
                   : 1 + static_cast<long>(rng.uniform_index(200));
    m.exit_level = exit_level;
    m.exit_head = exit_head;
    mods.push_back(m);
    return static_cast<int>(mods.size()) - 1;
  };
  std::vector<int> backbone;
  std::vector<std::vector<int>> paths;
  for (int e = 0; e <= num_exits; ++e) {
    const int segment = 1 + static_cast<int>(rng.uniform_index(3));
    for (int s = 0; s < segment; ++s) {
      backbone.push_back(add(HlsModuleKind::kMvtu, e, -1));
    }
    if (e == num_exits) break;
    backbone.push_back(add(HlsModuleKind::kBranch, e, -1));
    std::vector<int> path = backbone;
    const int head = 1 + static_cast<int>(rng.uniform_index(3));
    for (int h = 0; h < head; ++h) {
      path.push_back(add(HlsModuleKind::kMvtu, e + 1, e));
    }
    paths.push_back(path);
  }
  paths.push_back(backbone);

  std::vector<int> perm(mods.size());
  for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = static_cast<int>(k);
  for (std::size_t k = perm.size(); k > 1; --k) {
    std::swap(perm[k - 1], perm[rng.uniform_index(k)]);
  }
  Accelerator acc;
  acc.num_exits = num_exits;
  acc.modules.resize(mods.size());
  for (std::size_t k = 0; k < mods.size(); ++k) {
    acc.modules[static_cast<std::size_t>(perm[k])] = mods[k];
  }
  for (auto& path : paths) {
    for (int& m : path) m = perm[static_cast<std::size_t>(m)];
  }
  acc.paths = std::move(paths);
  return acc;
}

TEST(PipelineSim, NonTopologicalIndexOrderSimulatesTheSameChain) {
  auto module = [](const char* name, long cycles) {
    HlsModule m;
    m.name = name;
    m.cycles = cycles;
    return m;
  };
  const HlsModule a = module("a", 10);
  const HlsModule b = module("b", 100);
  const HlsModule c = module("c", 20);
  Accelerator ordered;
  ordered.modules = {a, b, c};
  ordered.paths = {{0, 1, 2}};
  Accelerator shuffled;
  shuffled.modules = {a, c, b};
  shuffled.paths = {{0, 2, 1}};

  std::vector<PipelineSimOptions> modes(3);
  modes[1].fifo_depth = 0;
  modes[2].fifo_depth = 0;
  modes[2].injection_interval_cycles = 150.0;
  for (const PipelineSimOptions& opt : modes) {
    const std::vector<int> exits(64, 0);
    const auto x = simulate_pipeline(ordered, exits, opt);
    const auto y = simulate_pipeline(shuffled, exits, opt);
    EXPECT_EQ(x.first_latency_cycles, 130.0);
    EXPECT_EQ(y.first_latency_cycles, 130.0);
    EXPECT_EQ(x.steady_ii_cycles, y.steady_ii_cycles);
    EXPECT_EQ(x.avg_latency_cycles, y.avg_latency_cycles);
    EXPECT_EQ(x.completion_cycles, y.completion_cycles);
    // Module-indexed outputs: b and c swap indices between the two trees.
    ASSERT_EQ(y.module_begin_ii_cycles.size(), 3u);
    EXPECT_EQ(x.module_begin_ii_cycles[0], y.module_begin_ii_cycles[0]);
    EXPECT_EQ(x.module_begin_ii_cycles[1], y.module_begin_ii_cycles[2]);
    EXPECT_EQ(x.module_begin_ii_cycles[2], y.module_begin_ii_cycles[1]);
    ASSERT_EQ(x.links.size(), 2u);
    ASSERT_EQ(y.links.size(), 2u);
    // x: a->b, b->c; y (by consumer index): b->c as 2->1, a->b as 0->2.
    EXPECT_EQ(x.links[0].high_water_images, y.links[1].high_water_images);
    EXPECT_EQ(x.links[0].peak_time_cycles, y.links[1].peak_time_cycles);
    EXPECT_EQ(x.links[1].high_water_images, y.links[0].high_water_images);
    EXPECT_EQ(x.links[1].peak_time_cycles, y.links[0].peak_time_cycles);
    EXPECT_EQ(y.links[0].producer, 2);
    EXPECT_EQ(y.links[0].consumer, 1);
  }
}

TEST(PipelineSim, StreamingMatchesNaiveReferenceBitwise) {
  Rng rng(2024);
  int checked = 0;
  for (int round = 0; round < 40; ++round) {
    const int num_exits = 1 + static_cast<int>(rng.uniform_index(3));
    const Accelerator acc = random_fork_tree(rng, num_exits);
    // Stream lengths from 1 to 5000, biased towards the short runs where
    // the fill transient and the n < 4 pace fallback matter.
    const std::size_t n =
        round % 4 == 0 ? 1 + rng.uniform_index(5000)
                       : 1 + rng.uniform_index(round % 2 == 0 ? 8 : 600);
    std::vector<int> exits(n);
    if (round % 3 == 0) {
      std::vector<double> fractions(static_cast<std::size_t>(num_exits) + 1);
      double sum = 0.0;
      for (double& f : fractions) sum += (f = rng.uniform(0.05, 1.0));
      for (double& f : fractions) f /= sum;
      exits = analysis::make_gated_stimulus(fractions, n);
    } else {
      for (int& e : exits) {
        e = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(num_exits) + 1));
      }
    }
    std::vector<PipelineSimOptions> modes;
    // Depth 40 exceeds the simulator's 32-image block.
    for (long depth : {1L, 2L, 3L, 40L}) {
      PipelineSimOptions closed;
      closed.fifo_depth = depth;
      modes.push_back(closed);
    }
    PipelineSimOptions paced;
    paced.fifo_depth = 0;
    paced.injection_interval_cycles = rng.uniform(1.0, 250.0);
    modes.push_back(paced);
    PipelineSimOptions free_run;
    free_run.fifo_depth = 0;
    modes.push_back(free_run);
    for (PipelineSimOptions opt : modes) {
      for (bool record : {true, false}) {
        opt.record_link_occupancy = record;
        const std::string diff =
            sim_difference(simulate_pipeline(acc, exits, opt),
                           reference_simulate(acc, exits, opt));
        EXPECT_EQ(diff, "") << "round " << round << " images " << n
                            << " depth " << opt.fifo_depth << " interval "
                            << opt.injection_interval_cycles << " record "
                            << record;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 40 * 6 * 2);
}

TEST(PipelineSim, StreamingMatchesNaiveReferenceOnCompiledCnv) {
  CompiledFixture fx(true);
  const auto exits = analysis::make_gated_stimulus({0.45, 0.3, 0.25}, 10240);
  PipelineSimOptions paced;
  paced.fifo_depth = 0;
  paced.injection_interval_cycles =
      gated_steady_ii(fx.acc, realized_fractions(fx.acc, exits));
  PipelineSimOptions free_run;
  free_run.fifo_depth = 0;
  free_run.record_link_occupancy = false;
  for (const PipelineSimOptions& opt :
       {PipelineSimOptions{}, paced, free_run}) {
    EXPECT_EQ(sim_difference(simulate_pipeline(fx.acc, exits, opt),
                             reference_simulate(fx.acc, exits, opt)),
              "");
  }
}

TEST(Reconfig, TimeModel) {
  CompiledFixture fx(false);
  ReconfigModel model;
  const double t = model.time_ms(fx.acc);
  EXPECT_GE(t, model.base_ms);
  EXPECT_LT(t, model.base_ms + 50.0);
}


// Golden module tables of the compiler: every module's name, kind, cycles,
// resources, stream widths, exit_level and exit_head, plus the output
// paths, for the CNV with the paper's exits at two scales under a styled
// and a reach-aware folding. Any drift in what compile_accelerator emits
// fails here; a deliberate cost-model change must re-capture the tables.
std::string module_table(const Accelerator& acc) {
  std::ostringstream os;
  for (const HlsModule& m : acc.modules) {
    os << m.name << ' ' << to_string(m.kind) << ' ' << m.cycles << ' '
       << m.resources.lut << ' ' << m.resources.ff << ' ' << m.resources.bram
       << ' ' << m.resources.dsp << ' ' << m.in_stream_elems << ' '
       << m.out_stream_elems << ' ' << m.exit_level << ' ' << m.exit_head
       << '\n';
  }
  for (const auto& path : acc.paths) {
    os << "path";
    for (int mi : path) os << ' ' << mi;
    os << '\n';
  }
  return os.str();
}

struct GoldenTables {
  double scale;
  const char* styled;
  const char* reach;
};

// clang-format off
const GoldenTables kGoldenTables[] = {
    {0.1875,
R"(backbone.b0.0.swu SWU 900 366 403 1 0 1 27 0 -1
backbone.b0.0.mvtu MVTU 2700 863 938 0 0 27 4 0 -1
backbone.b0.3.swu SWU 2352 438 482 1 0 4 36 0 -1
backbone.b0.3.mvtu MVTU 7056 1123 1191 0 0 36 4 0 -1
backbone.b0.6.pool Pool 2352 84 93 0 0 4 4 0 -1
branch.exit0 Branch 588 96 106 1 0 4 4 0 -1
backbone.b1.0.swu SWU 1296 246 271 1 0 4 12 1 -1
backbone.b1.0.mvtu MVTU 7776 549 515 0 0 12 4 1 -1
backbone.b1.3.swu SWU 1800 246 271 1 0 4 12 1 -1
backbone.b1.3.mvtu MVTU 10800 468 515 1 0 12 4 1 -1
backbone.b1.6.pool Pool 600 84 93 0 0 4 4 1 -1
branch.exit1 Branch 150 96 106 1 0 4 4 1 -1
backbone.b2.0.swu SWU 162 246 271 1 0 4 12 2 -1
backbone.b2.0.mvtu MVTU 1944 468 515 2 0 12 4 2 -1
backbone.b2.3.swu SWU 36 246 271 1 0 4 12 2 -1
backbone.b2.3.mvtu MVTU 432 468 515 3 0 12 4 2 -1
backbone.b2.7.mvtu MVTU 288 183 202 1 0 8 2 2 -1
backbone.b2.10.mvtu MVTU 576 183 202 1 0 8 2 2 -1
backbone.b2.13.mvtu MVTU 60 213 202 0 0 8 2 2 -1
exit0.0.swu SWU 1296 246 271 1 0 4 12 0 0
exit0.0.mvtu MVTU 3888 509 515 0 0 12 4 0 0
exit0.3.pool Pool 432 84 93 0 0 4 4 0 0
exit0.5.mvtu MVTU 96 193 173 0 0 6 2 0 0
exit0.8.mvtu MVTU 60 213 202 0 0 8 2 0 0
exit1.0.swu SWU 162 246 271 1 0 4 12 1 1
exit1.0.mvtu MVTU 972 468 515 1 0 12 4 1 1
exit1.3.pool Pool 54 84 93 0 0 4 4 1 1
exit1.5.mvtu MVTU 144 255 202 0 0 8 2 1 1
exit1.8.mvtu MVTU 60 213 202 0 0 8 2 1 1
path 0 1 2 3 4 5 19 20 21 22 23
path 0 1 2 3 4 5 6 7 8 9 10 11 24 25 26 27 28
path 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
)",
R"(backbone.b0.0.swu SWU 900 366 403 1 0 1 27 0 -1
backbone.b0.0.mvtu MVTU 2700 863 938 0 0 27 4 0 -1
backbone.b0.3.swu SWU 1568 582 641 1 0 4 54 0 -1
backbone.b0.3.mvtu MVTU 3136 2355 2546 0 0 54 6 0 -1
backbone.b0.6.pool Pool 1568 96 106 0 0 6 6 0 -1
branch.exit0 Branch 392 104 115 1 0 6 6 0 -1
backbone.b1.0.swu SWU 1296 246 271 1 0 6 12 1 -1
backbone.b1.0.mvtu MVTU 7776 549 515 0 0 12 4 1 -1
backbone.b1.3.swu SWU 1200 294 324 1 0 4 18 1 -1
backbone.b1.3.mvtu MVTU 7200 621 684 1 0 18 4 1 -1
backbone.b1.6.pool Pool 600 84 93 0 0 4 4 1 -1
branch.exit1 Branch 150 96 106 1 0 4 4 1 -1
backbone.b2.0.swu SWU 324 198 218 1 0 4 6 2 -1
backbone.b2.0.mvtu MVTU 15552 79 87 2 0 6 1 2 -1
backbone.b2.3.swu SWU 432 158 174 1 0 1 1 2 -1
backbone.b2.3.mvtu MVTU 20736 47 52 3 0 1 1 2 -1
backbone.b2.7.mvtu MVTU 4608 47 52 1 0 1 1 2 -1
backbone.b2.10.mvtu MVTU 9216 47 52 1 0 1 1 2 -1
backbone.b2.13.mvtu MVTU 960 77 52 0 0 1 1 2 -1
exit0.0.swu SWU 1296 246 271 1 0 6 12 0 0
exit0.0.mvtu MVTU 3888 509 515 0 0 12 4 0 0
exit0.3.pool Pool 432 84 93 0 0 4 4 0 0
exit0.5.mvtu MVTU 96 193 173 0 0 6 2 0 0
exit0.8.mvtu MVTU 60 213 202 0 0 8 2 0 0
exit1.0.swu SWU 324 198 218 1 0 4 6 1 1
exit1.0.mvtu MVTU 7776 79 87 1 0 6 1 1 1
exit1.3.pool Pool 216 66 73 0 0 1 1 1 1
exit1.5.mvtu MVTU 1152 125 59 0 0 2 1 1 1
exit1.8.mvtu MVTU 960 77 52 0 0 1 1 1 1
path 0 1 2 3 4 5 19 20 21 22 23
path 0 1 2 3 4 5 6 7 8 9 10 11 24 25 26 27 28
path 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
)"},
    {0.5,
R"(backbone.b0.0.swu SWU 900 366 403 1 0 1 27 0 -1
backbone.b0.0.mvtu MVTU 7200 879 938 0 0 27 4 0 -1
backbone.b0.3.swu SWU 6272 438 482 1 0 4 36 0 -1
backbone.b0.3.mvtu MVTU 50176 1082 1191 1 0 36 4 0 -1
backbone.b0.6.pool Pool 6272 84 93 0 0 4 4 0 -1
branch.exit0 Branch 1568 96 106 1 0 4 4 0 -1
backbone.b1.0.swu SWU 3456 246 271 1 0 4 12 1 -1
backbone.b1.0.mvtu MVTU 55296 468 515 2 0 12 4 1 -1
backbone.b1.3.swu SWU 4800 246 271 1 0 4 12 1 -1
backbone.b1.3.mvtu MVTU 76800 468 515 4 0 12 4 1 -1
backbone.b1.6.pool Pool 1600 84 93 0 0 4 4 1 -1
branch.exit1 Branch 400 96 106 1 0 4 4 1 -1
backbone.b2.0.swu SWU 432 246 271 1 0 4 12 2 -1
backbone.b2.0.mvtu MVTU 13824 468 515 8 0 12 4 2 -1
backbone.b2.3.swu SWU 96 246 271 1 0 4 12 2 -1
backbone.b2.3.mvtu MVTU 3072 468 515 48 0 12 4 2 -1
backbone.b2.7.mvtu MVTU 2048 183 202 4 0 8 2 2 -1
backbone.b2.10.mvtu MVTU 4096 183 202 16 0 8 2 2 -1
backbone.b2.13.mvtu MVTU 160 263 202 0 0 8 2 2 -1
exit0.0.swu SWU 3456 246 271 1 0 4 12 0 0
exit0.0.mvtu MVTU 27648 468 515 1 0 12 4 0 0
exit0.3.pool Pool 1152 84 93 0 0 4 4 0 0
exit0.5.mvtu MVTU 512 183 202 1 0 8 2 0 0
exit0.8.mvtu MVTU 160 263 202 0 0 8 2 0 0
exit1.0.swu SWU 432 246 271 1 0 4 12 1 1
exit1.0.mvtu MVTU 6912 468 515 4 0 12 4 1 1
exit1.3.pool Pool 144 84 93 0 0 4 4 1 1
exit1.5.mvtu MVTU 1024 183 202 2 0 8 2 1 1
exit1.8.mvtu MVTU 160 263 202 0 0 8 2 1 1
path 0 1 2 3 4 5 19 20 21 22 23
path 0 1 2 3 4 5 6 7 8 9 10 11 24 25 26 27 28
path 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
)",
R"(backbone.b0.0.swu SWU 900 366 403 1 0 1 27 0 -1
backbone.b0.0.mvtu MVTU 7200 879 938 0 0 27 4 0 -1
backbone.b0.3.swu SWU 6272 438 482 1 0 4 36 0 -1
backbone.b0.3.mvtu MVTU 25088 2164 2381 1 0 36 8 0 -1
backbone.b0.6.pool Pool 3136 108 119 0 0 8 8 0 -1
branch.exit0 Branch 784 112 124 1 0 8 8 0 -1
backbone.b1.0.swu SWU 2592 278 306 1 0 8 16 1 -1
backbone.b1.0.mvtu MVTU 41472 570 627 2 0 16 4 1 -1
backbone.b1.3.swu SWU 2400 342 377 1 0 4 24 1 -1
backbone.b1.3.mvtu MVTU 38400 775 853 4 0 24 4 1 -1
backbone.b1.6.pool Pool 1600 84 93 0 0 4 4 1 -1
branch.exit1 Branch 400 96 106 1 0 4 4 1 -1
backbone.b2.0.swu SWU 864 198 218 1 0 4 6 2 -1
backbone.b2.0.mvtu MVTU 110592 79 87 12 0 6 1 2 -1
backbone.b2.3.swu SWU 576 166 183 1 0 1 2 2 -1
backbone.b2.3.mvtu MVTU 73728 53 59 16 0 2 1 2 -1
backbone.b2.7.mvtu MVTU 32768 47 52 4 0 1 1 2 -1
backbone.b2.10.mvtu MVTU 65536 47 52 8 0 1 1 2 -1
backbone.b2.13.mvtu MVTU 1280 133 59 0 0 2 1 2 -1
exit0.0.swu SWU 2592 278 306 1 0 8 16 0 0
exit0.0.mvtu MVTU 20736 570 627 1 0 16 4 0 0
exit0.3.pool Pool 1152 84 93 0 0 4 4 0 0
exit0.5.mvtu MVTU 512 183 202 1 0 8 2 0 0
exit0.8.mvtu MVTU 160 263 202 0 0 8 2 0 0
exit1.0.swu SWU 648 214 236 1 0 4 8 1 1
exit1.0.mvtu MVTU 41472 92 102 8 0 8 1 1 1
exit1.3.pool Pool 576 66 73 0 0 1 1 1 1
exit1.5.mvtu MVTU 16384 47 52 2 0 1 1 1 1
exit1.8.mvtu MVTU 1280 133 59 0 0 2 1 1 1
path 0 1 2 3 4 5 19 20 21 22 23
path 0 1 2 3 4 5 6 7 8 9 10 11 24 25 26 27 28
path 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
)"},
};
// clang-format on

TEST(FinnGolden, ModuleTablesMatchPinnedCapture) {
  for (const GoldenTables& golden : kGoldenTables) {
    SCOPED_TRACE("scale " + std::to_string(golden.scale));
    Rng rng(29);
    const CnvConfig cfg = CnvConfig{}.scaled(golden.scale);
    BranchyModel model =
        build_cnv_with_exits(cfg, paper_exits_config(false), rng);
    // One walk, linted per folding, feeds both compiles (the generator's
    // path); the 3-argument compile must emit the same tables.
    const AcceleratorConfig config;
    const ModelWalk walk =
        walk_model(model, config.in_channels, config.image_size);
    const FoldingConfig styled = styled_folding(walk.sites);
    ASSERT_FALSE(analysis::lint_design(model, walk, styled).has_errors());
    const Accelerator acc = compile_accelerator(model, walk, styled, config);
    EXPECT_EQ(module_table(acc), golden.styled);
    EXPECT_EQ(module_table(compile_accelerator(model, styled, config)),
              golden.styled);

    const FoldingConfig reach = reach_aware_folding(
        walk.sites, {0.5, 0.3, 0.2}, analysis::DeviceProfile::zcu104().caps,
        reach_aware_options(model, walk.sites, styled, acc, config.cost));
    ASSERT_NE(reach.folds, styled.folds);
    ASSERT_FALSE(analysis::lint_design(model, walk, reach).has_errors());
    EXPECT_EQ(module_table(compile_accelerator(model, walk, reach, config)),
              golden.reach);
    EXPECT_EQ(module_table(compile_accelerator(model, reach, config)),
              golden.reach);
  }
}

}  // namespace
}  // namespace adapex
