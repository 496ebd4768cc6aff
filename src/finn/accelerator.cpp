#include "finn/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/lint.hpp"

namespace adapex {

namespace {

struct Emitter {
  const FoldingConfig& folding;
  const AcceleratorConfig& config;
  /// Walk-order sites (model/walk.hpp) — the same indexing the folding
  /// config uses, so geometry and cycle costs route through the shared
  /// site helpers (hls/folding.hpp) and cannot drift from the folding
  /// optimizers' objective.
  const std::vector<LayerSite>& sites;
  std::vector<HlsModule> modules;
  std::size_t fold_index = 0;  // walk-order cursor

  /// Emits all modules of one Sequential, whose names and layer input
  /// shapes come from its walk; appends the emitted module indices to
  /// `path`. `stream_pe` is the parallelism (channels per cycle) of the
  /// producing stream, which costs the pool/branch units that run at line
  /// rate. `exit_level` is the number of upstream branch points;
  /// `exit_head` tags exit-head modules.
  void emit_sequential(Sequential& seq, const WalkedSequential& walked,
                       int& stream_pe, int exit_level, int exit_head,
                       std::vector<int>& path) {
    int act_bits_default = 2;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      Layer& layer = seq.layer(i);
      auto emit = [&](HlsModuleKind kind, const char* suffix, long cycles,
                      const Resources& resources, int in_elems,
                      int out_elems) {
        path.push_back(static_cast<int>(modules.size()));
        modules.push_back(HlsModule{
            .kind = kind,
            .name = walked.prefix + "." + std::to_string(i) + suffix,
            .cycles = cycles,
            .resources = resources,
            .exit_level = exit_level,
            .exit_head = exit_head,
            .in_stream_elems = in_elems,
            .out_stream_elems = out_elems});
      };
      switch (layer.kind()) {
        case LayerKind::kConv:
        case LayerKind::kLinear: {
          const std::size_t idx = next_index(layer);
          const LayerSite& site = sites[idx];
          const LayerFold fold = folding.folds[idx];
          const MvtuGeometry g = site_mvtu_geometry(site);
          ADAPEX_ASSERT(g.act_bits == act_bits_default);
          if (site.is_conv) {
            emit(HlsModuleKind::kSwu, ".swu", swu_cycles(g, fold.simd),
                 swu_resources(g, fold.simd, config.cost), stream_pe,
                 fold.simd);
          }
          emit(HlsModuleKind::kMvtu, ".mvtu", site_fold_cycles(site, fold),
               mvtu_resources(g, fold.pe, fold.simd, config.cost), fold.simd,
               fold.pe);
          stream_pe = fold.pe;
          break;
        }
        case LayerKind::kMaxPool: {
          const ActShape& in = walked.layer_in[i];
          emit(HlsModuleKind::kPool, ".pool",
               pool_cycles(in.channels, in.dim, stream_pe),
               pool_resources(in.channels, stream_pe, act_bits_default,
                              config.cost),
               stream_pe, stream_pe);
          break;
        }
        case LayerKind::kActQuant: {
          auto& act = static_cast<ActQuant&>(layer);
          if (act.bits() > 0) act_bits_default = act.bits();
          break;  // absorbed into MVTU thresholds
        }
        case LayerKind::kBatchNorm:
          break;  // absorbed into MVTU thresholds
        case LayerKind::kFlatten:
          break;  // a reindexing of the stream; no hardware
      }
    }
  }

  /// Advances the walk-order cursor for one compute layer, checking the
  /// emit order against the walk sites.
  std::size_t next_index(const Layer& layer) {
    ADAPEX_ASSERT(fold_index < sites.size() &&
                  sites[fold_index].layer == &layer);
    return fold_index++;
  }
};

}  // namespace

Accelerator compile_accelerator(BranchyModel& model,
                                const FoldingConfig& folding,
                                const AcceleratorConfig& config) {
  const ModelWalk walk =
      walk_model(model, config.in_channels, config.image_size);
  analysis::lint_design(model, walk, folding).throw_if_errors();
  return compile_accelerator(model, walk, folding, config);
}

Accelerator compile_accelerator(BranchyModel& model, const ModelWalk& walk,
                                const FoldingConfig& folding,
                                const AcceleratorConfig& config) {
  walk.findings.throw_if_errors();
  ADAPEX_CHECK(folding.folds.size() == walk.sites.size(),
               "folding arity does not match layer count");

  Emitter emitter{folding, config, walk.sites, {}, 0};
  Accelerator acc;
  acc.fclk_mhz = config.fclk_mhz;
  acc.num_exits = static_cast<int>(model.num_exits());

  // Backbone blocks; record each block's output stream width and the
  // module path prefix.
  int stream_pe = 1;
  std::vector<int> backbone_path;
  std::vector<int> block_stream_pe(model.num_blocks());
  // Each exit's path starts as the backbone path up to and including its
  // branch. Exits are sorted by block; count upstream branch points to set
  // exit levels.
  std::vector<std::vector<int>> exit_paths(model.num_exits());

  int exits_seen = 0;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    emitter.emit_sequential(model.block(b), walk.blocks[b], stream_pe,
                            exits_seen, -1, backbone_path);
    block_stream_pe[b] = stream_pe;
    // Insert a branch module per exit attached at this block's output.
    const ActShape& out = walk.blocks[b].out;
    for (std::size_t e = 0; e < model.num_exits(); ++e) {
      if (model.exit(e).after_block != static_cast<int>(b)) continue;
      backbone_path.push_back(static_cast<int>(emitter.modules.size()));
      emitter.modules.push_back(HlsModule{
          .kind = HlsModuleKind::kBranch,
          .name = "branch.exit" + std::to_string(e),
          .cycles = branch_cycles(out.channels, out.dim, stream_pe),
          .resources = branch_resources(out.channels, out.dim, stream_pe, 2,
                                        config.cost),
          .exit_level = exits_seen,
          .exit_head = -1,
          .in_stream_elems = stream_pe,
          .out_stream_elems = stream_pe});
      exit_paths[e] = backbone_path;
      ++exits_seen;
    }
  }

  // Exit heads. The emitter's fold cursor continues in walk order (backbone
  // layers first, then exit layers), matching the walk's sites.
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    int head_pe =
        block_stream_pe[static_cast<std::size_t>(model.exit(e).after_block)];
    emitter.emit_sequential(*model.exit(e).head, walk.exits[e], head_pe,
                            static_cast<int>(e), static_cast<int>(e),
                            exit_paths[e]);
  }

  acc.modules = std::move(emitter.modules);
  for (auto& p : exit_paths) acc.paths.push_back(std::move(p));
  acc.paths.push_back(std::move(backbone_path));

  for (const auto& m : acc.modules) {
    acc.total += m.resources;
    if (m.exit_head >= 0 || m.kind == HlsModuleKind::kBranch) {
      acc.exit_overhead += m.resources;
    }
  }
  return acc;
}

ReachAwareOptions reach_aware_options(const BranchyModel& model,
                                      const std::vector<LayerSite>& sites,
                                      const FoldingConfig& styled,
                                      const Accelerator& styled_acc,
                                      const HlsCostModel& cost) {
  ReachAwareOptions options;
  options.baseline = styled;
  options.cost = cost;
  for (std::size_t e = 0; e < model.num_exits(); ++e) {
    options.exit_after_block.push_back(model.exit(e).after_block);
  }
  options.fixed_overhead =
      styled_acc.total - folding_site_resources(sites, styled, cost);
  return options;
}

std::vector<int> module_predecessors(const Accelerator& acc) {
  std::vector<int> pred(acc.modules.size(), -1);
  for (const auto& path : acc.paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      pred[static_cast<std::size_t>(path[i])] = path[i - 1];
    }
  }
  return pred;
}

std::vector<std::pair<int, int>> accelerator_links(const Accelerator& acc) {
  std::vector<std::pair<int, int>> links;
  for (const auto& path : acc.paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const std::pair<int, int> link{path[i - 1], path[i]};
      if (std::find(links.begin(), links.end(), link) == links.end()) {
        links.push_back(link);
      }
    }
  }
  return links;
}

std::vector<double> realized_fractions(const Accelerator& acc,
                                       const std::vector<int>& exit_of_image) {
  ADAPEX_CHECK(!exit_of_image.empty(), "empty stimulus");
  std::vector<double> fractions(static_cast<std::size_t>(acc.num_exits) + 1,
                                0.0);
  for (int e : exit_of_image) {
    ADAPEX_CHECK(e >= 0 && e <= acc.num_exits, "exit index out of range");
    fractions[static_cast<std::size_t>(e)] += 1.0;
  }
  for (double& f : fractions) f /= static_cast<double>(exit_of_image.size());
  return fractions;
}

double gated_steady_ii(const Accelerator& acc,
                       const std::vector<double>& exit_fractions,
                       int* bottleneck) {
  ADAPEX_CHECK(
      static_cast<int>(exit_fractions.size()) == acc.num_exits + 1,
      "exit fraction arity must equal outputs");
  const auto reach = reach_from_fractions(exit_fractions);
  double ii = 0.0;
  int binding = -1;
  for (std::size_t m = 0; m < acc.modules.size(); ++m) {
    const HlsModule& mod = acc.modules[m];
    const int level = mod.exit_head >= 0 ? mod.exit_head : mod.exit_level;
    const double r = level < static_cast<int>(reach.size())
                         ? reach[static_cast<std::size_t>(level)]
                         : 0.0;
    const double gated = static_cast<double>(mod.cycles) * r;
    if (gated > ii) {
      ii = gated;
      binding = static_cast<int>(m);
    }
  }
  if (bottleneck != nullptr) *bottleneck = binding;
  return ii;
}

std::vector<double> reach_from_fractions(
    const std::vector<double>& fractions) {
  std::vector<double> reach(fractions.size(), 1.0);
  double survived = 1.0;
  for (std::size_t e = 0; e < fractions.size(); ++e) {
    reach[e] = survived;
    survived -= fractions[e];
  }
  return reach;
}

AcceleratorPerf estimate_performance(const Accelerator& acc,
                                     const std::vector<double>& exit_fractions,
                                     const PowerModel& power) {
  ADAPEX_CHECK(static_cast<int>(exit_fractions.size()) == acc.num_exits + 1,
               "exit fraction arity must equal outputs");
  double sum = 0.0;
  for (double f : exit_fractions) {
    ADAPEX_CHECK(f >= -1e-9, "negative exit fraction");
    sum += f;
  }
  ADAPEX_CHECK(std::abs(sum - 1.0) < 1e-6, "exit fractions must sum to 1");

  const auto reach = reach_from_fractions(exit_fractions);
  auto module_reach = [&](const HlsModule& m) {
    const int level = m.exit_level;
    ADAPEX_ASSERT(level >= 0 &&
                  level < static_cast<int>(reach.size()) + 1);
    return level < static_cast<int>(reach.size()) ? reach[static_cast<std::size_t>(level)]
                                                  : 0.0;
  };

  AcceleratorPerf perf;
  // Effective initiation interval: the bottleneck module's expected
  // occupancy per offered input.
  double ii_cycles = 0.0;
  for (const auto& m : acc.modules) {
    ii_cycles = std::max(ii_cycles, m.cycles * module_reach(m));
  }
  ADAPEX_CHECK(ii_cycles > 0.0, "degenerate accelerator (no work)");
  perf.ips = acc.fclk_hz() / ii_cycles;

  // Per-exit latency: sum of module cycles along the exit's path (FINN's
  // analytical latency convention).
  perf.latency_ms_per_exit.resize(acc.paths.size());
  perf.latency_ms = 0.0;
  for (std::size_t e = 0; e < acc.paths.size(); ++e) {
    double cycles = 0.0;
    for (int mi : acc.paths[e]) {
      cycles += static_cast<double>(acc.modules[static_cast<std::size_t>(mi)].cycles);
    }
    perf.latency_ms_per_exit[e] = cycles / acc.fclk_hz() * 1e3;
    perf.latency_ms += exit_fractions[e] * perf.latency_ms_per_exit[e];
  }

  // Energy: work actually performed per inference (gated tail), plus the
  // static share at the achieved rate; peak power at full utilization.
  double dyn_energy = 0.0;
  double dyn_power = 0.0;
  for (const auto& m : acc.modules) {
    const double peak_w = power.module_peak_w(m.resources);
    const double busy_cycles = m.cycles * module_reach(m);
    dyn_energy += peak_w * busy_cycles / acc.fclk_hz();
    dyn_power += peak_w * busy_cycles / ii_cycles;
  }
  perf.peak_power_w = power.static_w + dyn_power;
  perf.energy_per_inf_j = dyn_energy + power.static_w / perf.ips;
  return perf;
}

}  // namespace adapex
