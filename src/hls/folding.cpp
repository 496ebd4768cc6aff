#include "hls/folding.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "finn/accelerator.hpp"
#include "nn/layers.hpp"

namespace adapex {

int largest_divisor_at_most(int n, int cap) {
  ADAPEX_CHECK(n >= 1 && cap >= 1, "divisor search needs positive arguments");
  for (int d = std::min(n, cap); d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

Json FoldingConfig::to_json(const std::vector<LayerSite>& sites) const {
  ADAPEX_CHECK(folds.size() == sites.size(),
               "folding arity does not match layer count");
  Json j = Json::object();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (j.contains(sites[i].name)) {
      throw ConfigError("duplicate layer site name '" + sites[i].name +
                        "': serializing would silently overwrite the earlier "
                        "site's fold");
    }
    Json entry = Json::object();
    entry["PE"] = folds[i].pe;
    entry["SIMD"] = folds[i].simd;
    j[sites[i].name] = std::move(entry);
  }
  return j;
}

FoldingConfig FoldingConfig::from_json(const Json& j,
                                       const std::vector<LayerSite>& sites) {
  FoldingConfig cfg;
  cfg.folds.reserve(sites.size());
  std::set<std::string> seen;
  for (const auto& site : sites) {
    if (!seen.insert(site.name).second) {
      throw ConfigError("duplicate layer site name '" + site.name +
                        "': the JSON entry would alias two distinct layers");
    }
    ADAPEX_CHECK(j.contains(site.name),
                 "folding config missing layer: " + site.name);
    const Json& entry = j.at(site.name);
    LayerFold fold;
    fold.pe = entry.at("PE").as_int<int>();
    fold.simd = entry.at("SIMD").as_int<int>();
    cfg.folds.push_back(fold);
  }
  validate_folding(sites, cfg);
  return cfg;
}

int site_matrix_width(const LayerSite& site) {
  return site.is_conv ? site.kernel * site.kernel * site.in_channels
                      : site.in_channels;
}

long site_fold_cycles(const LayerSite& site, const LayerFold& fold) {
  // Geometry-only view: mvtu_cycles ignores the bit widths, so this agrees
  // bitwise with the compiled module's cycles without needing the layer
  // pointers site_mvtu_geometry requires.
  MvtuGeometry g;
  g.is_conv = site.is_conv;
  g.in_channels = site.in_channels;
  g.out_channels = site.out_channels;
  g.kernel = site.kernel;
  g.in_dim = site.in_dim;
  g.out_dim = site.out_dim;
  return mvtu_cycles(g, fold.pe, fold.simd);
}

// Packed-vs-float audit (ISSUE 10): every cost this file reports —
// mvtu_cycles via site_fold_cycles above, resources via the geometry built
// here — consumes only layer geometry and the *declared* weight/act bit
// widths of the QAT layers. Those are identical whether a point was
// evaluated on the float reference or the packed popcount path, so reported
// ips/cycles/resource claims cannot disagree between eval paths. The one
// place the two paths *can* disagree is upstream of this file entirely:
// reported accuracy. The packed GEMM's integer sum is exact while the float
// GEMM accumulates with rounding, so a logit pair (argmax) or a
// confidence-vs-threshold comparison that lands within float epsilon of a
// tie can resolve differently. nn/eval.cpp pins that seam shut by deriving
// both paths' codes/confidences through the identical epilogue arithmetic
// (tensor/packed.hpp) and test_packed gates decision identity bitwise;
// GenerationReport.points[].eval_path records which path produced each
// point so any residual drift is attributable from the artifact alone.
MvtuGeometry site_mvtu_geometry(const LayerSite& site) {
  ADAPEX_CHECK(site.layer != nullptr && site.container != nullptr,
               "site geometry needs layer/container pointers: " + site.name);
  MvtuGeometry g;
  g.is_conv = site.is_conv;
  g.in_channels = site.in_channels;
  g.out_channels = site.out_channels;
  g.kernel = site.kernel;
  g.in_dim = site.in_dim;
  g.out_dim = site.out_dim;
  int wbits = 0;
  if (site.layer->kind() == LayerKind::kConv) {
    wbits = static_cast<const QuantConv2d*>(site.layer)->weight_bits();
  } else if (site.layer->kind() == LayerKind::kLinear) {
    wbits = static_cast<const QuantLinear*>(site.layer)->weight_bits();
  } else {
    throw ConfigError("site is not a conv/fc layer: " + site.name);
  }
  g.weight_bits = wbits > 0 ? wbits : 32;
  // Activation bits: the last ActQuant preceding the layer in its container
  // (the emit-time act_bits_default semantics of finn/accelerator.cpp).
  int act_bits = 2;
  for (int i = 0; i < site.layer_index; ++i) {
    Layer& l = site.container->layer(static_cast<std::size_t>(i));
    if (l.kind() == LayerKind::kActQuant) {
      const auto& act = static_cast<const ActQuant&>(l);
      if (act.bits() > 0) act_bits = act.bits();
    }
  }
  g.act_bits = act_bits;
  return g;
}

FoldingConfig default_folding(const std::vector<LayerSite>& sites, int pe_cap,
                              int simd_cap) {
  const std::pair<int, int> caps{pe_cap, simd_cap};
  return styled_folding(sites, FoldingStyle{{caps}, caps, caps, caps});
}

FoldingConfig styled_folding(const std::vector<LayerSite>& sites,
                             const FoldingStyle& style) {
  ADAPEX_CHECK(!style.conv_caps_per_block.empty(),
               "folding style needs at least one block cap");
  FoldingConfig cfg;
  cfg.folds.reserve(sites.size());
  for (const auto& site : sites) {
    std::pair<int, int> caps;
    if (site.loc == SiteLoc::kBackbone) {
      if (site.is_conv) {
        const std::size_t block = std::min(
            static_cast<std::size_t>(site.group),
            style.conv_caps_per_block.size() - 1);
        caps = style.conv_caps_per_block[block];
      } else {
        caps = style.fc_caps;
      }
    } else {
      caps = site.is_conv ? style.exit_conv_caps : style.exit_fc_caps;
    }
    LayerFold fold;
    fold.pe = largest_divisor_at_most(site.out_channels, caps.first);
    fold.simd = largest_divisor_at_most(site_matrix_width(site), caps.second);
    cfg.folds.push_back(fold);
  }
  return cfg;
}

FoldingConfig balanced_folding(const std::vector<LayerSite>& sites,
                               long target_cycles, int pe_cap, int simd_cap) {
  ADAPEX_CHECK(target_cycles > 0, "target cycles must be positive");
  FoldingConfig cfg;
  cfg.folds.reserve(sites.size());
  for (const auto& site : sites) {
    // Enumerate divisor pairs within caps; pick the cheapest (pe * simd)
    // meeting the target, falling back to the fastest feasible fold.
    const int in_width = site_matrix_width(site);
    LayerFold best{largest_divisor_at_most(site.out_channels, pe_cap),
                   largest_divisor_at_most(in_width, simd_cap)};
    long best_cost = static_cast<long>(best.pe) * best.simd + 1;
    bool met = false;
    for (int pe = 1; pe <= std::min(site.out_channels, pe_cap); ++pe) {
      if (site.out_channels % pe != 0) continue;
      for (int simd = 1; simd <= std::min(in_width, simd_cap);
           ++simd) {
        if (in_width % simd != 0) continue;
        if (site_fold_cycles(site, LayerFold{pe, simd}) > target_cycles) {
          continue;
        }
        const long cost = static_cast<long>(pe) * simd;
        if (!met || cost < best_cost) {
          best = LayerFold{pe, simd};
          best_cost = cost;
          met = true;
        }
      }
    }
    cfg.folds.push_back(best);
  }
  return cfg;
}

void validate_folding(const std::vector<LayerSite>& sites,
                      const FoldingConfig& folding) {
  ADAPEX_CHECK(folding.folds.size() == sites.size(),
               "folding arity does not match layer count");
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto& site = sites[i];
    const auto& fold = folding.folds[i];
    if (fold.pe < 1 || site.out_channels % fold.pe != 0) {
      throw ConfigError("PE=" + std::to_string(fold.pe) +
                        " does not divide out_channels=" +
                        std::to_string(site.out_channels) + " at " + site.name);
    }
    const int in_width = site_matrix_width(site);
    if (fold.simd < 1 || in_width % fold.simd != 0) {
      throw ConfigError("SIMD=" + std::to_string(fold.simd) +
                        " does not divide matrix width=" +
                        std::to_string(in_width) + " at " + site.name);
    }
  }
}

namespace {

/// Safety cap on reach_aware_folding's greedy reallocation rounds.
constexpr int kMaxReachRounds = 4096;

/// MVTU plus (for conv) SWU resources of one site under one fold — the
/// fabric share the reach-aware optimizer reallocates.
Resources site_fold_resources(const MvtuGeometry& g, const LayerFold& fold,
                              const HlsCostModel& cost) {
  Resources r = mvtu_resources(g, fold.pe, fold.simd, cost);
  if (g.is_conv) r += swu_resources(g, fold.simd, cost);
  return r;
}

/// Gate level of a site: exit heads are gated by their exit index (they see
/// reach[e], the traffic surviving all earlier branch points); backbone
/// sites by the number of branch points strictly upstream — exits attach at
/// a block's *output*, so only exits after earlier blocks count.
int site_gate_level(const LayerSite& site,
                    const std::vector<int>& exit_after_block) {
  if (site.loc == SiteLoc::kExit) return site.group;
  int level = 0;
  for (int b : exit_after_block) {
    if (b < site.group) ++level;
  }
  return level;
}

/// One costed fold alternative of a site.
struct FoldCandidate {
  LayerFold fold;
  long cycles = 0;
  Resources res;
};

/// Conservative LUT slope of the pool/branch followers fed by a conv's
/// output stream: a pool costs 3 and a branch duplicator 2 LUTs per stream
/// lane and activation bit (hls/modules.cpp), so raising a conv's PE above
/// the baseline can grow downstream fabric by at most 5 * act_bits LUTs
/// per extra PE. Charging this on every conv site makes the site-level
/// aggregate an upper bound on the compiled delta (their BRAM is
/// PE-independent, and shrinking PE only shrinks the followers).
long follower_lut_penalty(const MvtuGeometry& g, int pe, int baseline_pe) {
  if (!g.is_conv || pe <= baseline_pe) return 0;
  return 5L * g.act_bits * (pe - baseline_pe);
}

}  // namespace

Resources folding_site_resources(const std::vector<LayerSite>& sites,
                                 const FoldingConfig& folding,
                                 const HlsCostModel& cost) {
  ADAPEX_CHECK(folding.folds.size() == sites.size(),
               "folding arity does not match layer count");
  Resources agg;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    agg += site_fold_resources(site_mvtu_geometry(sites[i]), folding.folds[i],
                               cost);
  }
  return agg;
}

FoldingConfig reach_aware_folding(const std::vector<LayerSite>& sites,
                                  const std::vector<double>& exit_fractions,
                                  const Resources& budget,
                                  const ReachAwareOptions& options) {
  const FoldingConfig& base = options.baseline;
  validate_folding(sites, base);
  ADAPEX_CHECK(!exit_fractions.empty(), "empty exit-fraction regime");
  ADAPEX_CHECK(options.exit_after_block.size() + 1 == exit_fractions.size(),
               "exit_after_block arity must match the exit-fraction list");
  double sum = 0.0;
  for (double f : exit_fractions) {
    ADAPEX_CHECK(f >= -1e-9, "negative exit fraction");
    sum += f;
  }
  ADAPEX_CHECK(std::abs(sum - 1.0) < 1e-6, "exit fractions must sum to 1");

  // reach[L] = survival past branch L — the same partial-sum computation
  // gated_steady_ii uses, so the site-level objective below equals the
  // compiled accelerator's gated II bitwise (every SWU/pool/branch module
  // is dominated by its MVTU at the same gate level; see DESIGN.md).
  const std::vector<double> reach = reach_from_fractions(exit_fractions);
  const std::size_t n = sites.size();
  std::vector<double> site_reach(n, 1.0);
  bool all_full = true;
  for (std::size_t i = 0; i < n; ++i) {
    const int level = site_gate_level(sites[i], options.exit_after_block);
    ADAPEX_CHECK(level >= 0 && level < static_cast<int>(reach.size()),
                 "site gate level out of range: " + sites[i].name);
    site_reach[i] = reach[static_cast<std::size_t>(level)];
    if (site_reach[i] < 1.0) all_full = false;
  }
  // Zero-exit regime: nothing is gated, the baseline is already optimal
  // under its own budget — reproduce it byte-identically.
  if (all_full) return base;

  // Precompute geometry, per-site candidates (every divisor pair), and the
  // baseline costs.
  std::vector<MvtuGeometry> geom(n);
  std::vector<std::vector<FoldCandidate>> cands(n);
  std::vector<long> base_cycles(n);
  std::vector<Resources> base_res(n);
  Resources base_agg;
  for (std::size_t i = 0; i < n; ++i) {
    geom[i] = site_mvtu_geometry(sites[i]);
    const int mw = site_matrix_width(sites[i]);
    for (int pe = 1; pe <= sites[i].out_channels; ++pe) {
      if (sites[i].out_channels % pe != 0) continue;
      for (int simd = 1; simd <= mw; ++simd) {
        if (mw % simd != 0) continue;
        FoldCandidate c;
        c.fold = LayerFold{pe, simd};
        c.cycles = site_fold_cycles(sites[i], c.fold);
        c.res = site_fold_resources(geom[i], c.fold, options.cost);
        cands[i].push_back(c);
      }
    }
    base_cycles[i] = site_fold_cycles(sites[i], base.folds[i]);
    base_res[i] = site_fold_resources(geom[i], base.folds[i], options.cost);
    base_agg += base_res[i];
  }

  // Per-axis reallocation cap: never above the baseline's own aggregate
  // (weak domination on resource use) nor above what the device budget
  // leaves after the fixed fabric.
  const auto head = [](long b, long fixed) { return std::max(0L, b - fixed); };
  Resources cap;
  cap.lut = std::min(base_agg.lut, head(budget.lut, options.fixed_overhead.lut));
  cap.ff = std::min(base_agg.ff, head(budget.ff, options.fixed_overhead.ff));
  cap.bram =
      std::min(base_agg.bram, head(budget.bram, options.fixed_overhead.bram));
  cap.dsp = std::min(base_agg.dsp, head(budget.dsp, options.fixed_overhead.dsp));

  double t_base = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t_base = std::max(t_base, static_cast<double>(base_cycles[i]) * site_reach[i]);
  }

  std::vector<LayerFold> folds = base.folds;
  std::vector<long> cycles = base_cycles;
  std::vector<Resources> res = base_res;

  // Deterministic candidate preference: cheapest first, then fastest.
  const auto cheaper = [](const FoldCandidate& a, const FoldCandidate& b) {
    if (a.res.lut != b.res.lut) return a.res.lut < b.res.lut;
    if (a.res.bram != b.res.bram) return a.res.bram < b.res.bram;
    if (a.res.dsp != b.res.dsp) return a.res.dsp < b.res.dsp;
    if (a.res.ff != b.res.ff) return a.res.ff < b.res.ff;
    if (a.cycles != b.cycles) return a.cycles < b.cycles;
    if (a.fold.pe != b.fold.pe) return a.fold.pe < b.fold.pe;
    return a.fold.simd < b.fold.simd;
  };

  // Phase 1 — shrink: every gated site moves to its cheapest fold whose
  // gated II still meets the baseline bottleneck, without growing any
  // resource axis beyond its own baseline share. The baseline fold always
  // qualifies, so the choice set is never empty.
  for (std::size_t i = 0; i < n; ++i) {
    if (site_reach[i] >= 1.0) continue;
    const FoldCandidate* best = nullptr;
    for (const FoldCandidate& c : cands[i]) {
      if (static_cast<double>(c.cycles) * site_reach[i] > t_base) continue;
      if (!c.res.fits_within(base_res[i])) continue;
      if (best == nullptr || cheaper(c, *best)) best = &c;
    }
    ADAPEX_ASSERT(best != nullptr);
    folds[i] = best->fold;
    cycles[i] = best->cycles;
    res[i] = best->res;
  }

  const auto aggregate = [&]() {
    Resources agg;
    for (std::size_t i = 0; i < n; ++i) {
      agg += res[i];
      const long pl = follower_lut_penalty(geom[i], folds[i].pe,
                                           base.folds[i].pe);
      agg.lut += pl;
      agg.ff += static_cast<long>(
          std::ceil(static_cast<double>(pl) * options.cost.ff_per_lut));
    }
    return agg;
  };
  const auto gated_ii = [&]() {
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t = std::max(t, static_cast<double>(cycles[i]) * site_reach[i]);
    }
    return t;
  };

  // Phase 2 — budget repair: when the budget is tighter than the baseline
  // aggregate, fold sites further down, always taking the move that costs
  // the least gated throughput (best effort: a budget below the all-minimal
  // folding is left unsatisfied rather than thrown).
  Resources agg = aggregate();
  for (int round = 0; !agg.fits_within(cap) && round < kMaxReachRounds;
       ++round) {
    const double t_now = gated_ii();
    std::size_t best_i = n;
    const FoldCandidate* best_c = nullptr;
    double best_t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const FoldCandidate& c : cands[i]) {
        if (!c.res.fits_within(res[i])) continue;
        const bool relieves =
            (agg.lut > cap.lut && c.res.lut < res[i].lut) ||
            (agg.ff > cap.ff && c.res.ff < res[i].ff) ||
            (agg.bram > cap.bram && c.res.bram < res[i].bram) ||
            (agg.dsp > cap.dsp && c.res.dsp < res[i].dsp);
        if (!relieves) continue;
        const double t_if =
            std::max(t_now, static_cast<double>(c.cycles) * site_reach[i]);
        if (best_c == nullptr || t_if < best_t ||
            (t_if == best_t && cheaper(c, *best_c))) {
          best_i = i;
          best_c = &c;
          best_t = t_if;
        }
      }
    }
    if (best_c == nullptr) break;  // every site already minimal
    folds[best_i] = best_c->fold;
    cycles[best_i] = best_c->cycles;
    res[best_i] = best_c->res;
    agg = aggregate();
  }

  // Phase 3 — reinvest: while every bottleneck site has an affordable
  // strictly-faster fold, take the cheapest such step for all of them
  // jointly. With gating, the bottleneck set quickly becomes the
  // full-traffic front end — this is where the fabric freed in phase 1
  // lands. Stops when an upgrade would not fit the cap (greedy first-fit).
  for (int round = 0; round < kMaxReachRounds; ++round) {
    const double t = gated_ii();
    std::vector<std::size_t> bottleneck;
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<double>(cycles[i]) * site_reach[i] == t) {
        bottleneck.push_back(i);
      }
    }
    ADAPEX_ASSERT(!bottleneck.empty());
    std::vector<const FoldCandidate*> upgrade(bottleneck.size(), nullptr);
    bool feasible = true;
    for (std::size_t k = 0; k < bottleneck.size(); ++k) {
      const std::size_t i = bottleneck[k];
      for (const FoldCandidate& c : cands[i]) {
        if (c.cycles >= cycles[i]) continue;
        if (upgrade[k] == nullptr || cheaper(c, *upgrade[k])) upgrade[k] = &c;
      }
      if (upgrade[k] == nullptr) {
        feasible = false;  // a bottleneck site is already at its fastest fold
        break;
      }
    }
    if (!feasible) break;
    // Apply jointly, then check affordability; revert on failure (paying
    // for a partial upgrade would not move the bottleneck).
    const std::vector<LayerFold> saved_folds = folds;
    const std::vector<long> saved_cycles = cycles;
    const std::vector<Resources> saved_res = res;
    for (std::size_t k = 0; k < bottleneck.size(); ++k) {
      const std::size_t i = bottleneck[k];
      folds[i] = upgrade[k]->fold;
      cycles[i] = upgrade[k]->cycles;
      res[i] = upgrade[k]->res;
    }
    if (!aggregate().fits_within(cap)) {
      folds = saved_folds;
      cycles = saved_cycles;
      res = saved_res;
      break;
    }
  }

  FoldingConfig result;
  result.folds = std::move(folds);
  validate_folding(sites, result);
  return result;
}

}  // namespace adapex
