// FINN-style folding configuration.
//
// FINN exposes accelerator parallelism through a JSON configuration that
// assigns each MVTU (the matrix-vector-threshold unit executing one conv or
// fc layer) a number of processing elements (PE) and SIMD lanes:
//   - PE must divide the layer's output channels (conv filters / fc
//     outputs); each PE computes out_channels/PE rows.
//   - SIMD must divide the layer's matrix width — k^2 * ch_in for conv
//     (FINN's MVAU unrolls across the whole im2col window), input features
//     for fc; each lane consumes one input element per cycle.
// These are exactly the two divisibility properties the paper's
// dataflow-aware pruning preserves (section IV-A2).
//
// Folds are indexed in the canonical walk order (see model/walk.hpp).

#pragma once

#include <vector>

#include "common/json.hpp"
#include "hls/modules.hpp"
#include "model/walk.hpp"

namespace adapex {

/// Parallelism of one MVTU.
struct LayerFold {
  int pe = 1;
  int simd = 1;

  friend bool operator==(const LayerFold& a, const LayerFold& b) {
    return a.pe == b.pe && a.simd == b.simd;
  }
  friend bool operator!=(const LayerFold& a, const LayerFold& b) {
    return !(a == b);
  }
};

/// Per-layer folding for a whole accelerator.
struct FoldingConfig {
  std::vector<LayerFold> folds;  ///< One per compute layer, walk order.

  /// Keyed by site name; throws ConfigError when two sites share a name
  /// (a silent overwrite would alias their folds on the round trip).
  Json to_json(const std::vector<LayerSite>& sites) const;
  static FoldingConfig from_json(const Json& j,
                                 const std::vector<LayerSite>& sites);
};

/// The matrix width SIMD must divide: k^2 * ch_in for conv (FINN's MVAU
/// unrolls across the whole im2col window), input features for fc.
int site_matrix_width(const LayerSite& site);

/// Cycles the site's MVTU spends per full-traffic image under `fold` — the
/// single cycles-per-fold model shared by balanced_folding,
/// reach_aware_folding, and the accelerator compiler
/// (finn/accelerator.cpp), so an optimizer objective cannot drift from
/// estimate_performance. Geometry only; works on synthetic sites without
/// layer pointers.
long site_fold_cycles(const LayerSite& site, const LayerFold& fold);

/// Resolves the full MVTU geometry of a walk site exactly as the
/// accelerator compiler does: weight bits from the layer (unquantized ->
/// 32), activation bits from the nearest preceding ActQuant in the same
/// container (default 2). Requires the site's layer/container pointers.
MvtuGeometry site_mvtu_geometry(const LayerSite& site);

/// Aggregate MVTU (+SWU for conv) resources of `folding` over the sites —
/// the fabric share a folding optimizer reallocates. Pool/branch/misc
/// fabric is the caller's fixed overhead (Accelerator::total minus this).
Resources folding_site_resources(const std::vector<LayerSite>& sites,
                                 const FoldingConfig& folding,
                                 const HlsCostModel& cost = HlsCostModel{});

/// Largest divisor of `n` that is <= `cap` (>= 1).
int largest_divisor_at_most(int n, int cap);

/// Generates a folding config for the model: each layer gets the largest
/// PE <= pe_cap dividing its outputs and the largest SIMD <= simd_cap
/// dividing its inputs. Caps model the resource budget a user would spend;
/// FINN's full-scale CNV configs use caps of 16-64, the reduced-scale
/// experiments here default to 4.
FoldingConfig default_folding(const std::vector<LayerSite>& sites,
                              int pe_cap = 4, int simd_cap = 4);

/// Validates PE/SIMD divisibility for every layer; throws ConfigError with
/// the offending layer's name otherwise.
void validate_folding(const std::vector<LayerSite>& sites,
                      const FoldingConfig& folding);

/// Per-depth folding caps mirroring FINN's shipped CNV configuration, which
/// spends generous parallelism on the early full-resolution conv layers and
/// folds the deep, weight-heavy layers tightly (their weight memory
/// bandwidth is the budget limit). The net effect — reproduced here — is
/// that the pipeline bottleneck sits in the deep backbone, *after* the exit
/// branch points, which is what lets a lower confidence threshold raise
/// effective throughput in the paper's experiments.
struct FoldingStyle {
  /// (pe_cap, simd_cap) per backbone block for conv layers. SIMD caps apply
  /// to the matrix width k^2 * ch_in, so early layers can unroll across the
  /// kernel window while keeping PE (and thus pruning granularity) modest.
  std::vector<std::pair<int, int>> conv_caps_per_block = {
      {4, 36}, {4, 12}, {4, 12}};
  /// Caps for backbone fully-connected layers.
  std::pair<int, int> fc_caps = {2, 8};
  /// Caps for exit-head conv layers.
  std::pair<int, int> exit_conv_caps = {4, 12};
  /// Caps for exit-head fully-connected layers.
  std::pair<int, int> exit_fc_caps = {2, 8};
};

/// Generates a folding config following the given per-depth style.
FoldingConfig styled_folding(const std::vector<LayerSite>& sites,
                             const FoldingStyle& style = FoldingStyle{});

/// Balanced folding: picks, per layer, the cheapest (pe * simd) divisor
/// pair whose cycle count meets `target_cycles`, within the caps; layers
/// that cannot meet the target get their fastest feasible fold. Mirrors
/// FINN's target-fps-driven SetFolding transformation.
FoldingConfig balanced_folding(const std::vector<LayerSite>& sites,
                               long target_cycles, int pe_cap, int simd_cap);

/// Inputs of reach_aware_folding beyond the sites and the regime.
/// finn/accelerator.hpp reach_aware_options() fills all four from a
/// compiled styled accelerator.
struct ReachAwareOptions {
  /// Baseline folds the optimizer starts from and must weakly dominate
  /// (same walk order as the sites); required. Callers whose model was
  /// pruned under a pre-prune styled config pass that config here so the
  /// baseline matches the compiled styled accelerator exactly.
  FoldingConfig baseline;
  /// ExitSpec::after_block per exit, ascending — locates the branch points
  /// so every site's gate level (and thus its reach) can be derived. One
  /// entry per exit; exit_fractions has one more entry (the final output).
  std::vector<int> exit_after_block;
  /// Resource model pricing the folds (must match the accelerator's).
  HlsCostModel cost;
  /// Fabric outside the MVTU/SWU sites (pool/branch units, mitigation
  /// logic, ...) charged against the budget but not reallocated:
  /// compiled_total - folding_site_resources(sites, baseline, cost).
  Resources fixed_overhead;
};

/// Reach-aware heterogeneous folding (ATHEENA-style, see DESIGN.md
/// "Reach-aware folding"): under stream gating a post-branch module only
/// sees the traffic fraction reach_m that survives every upstream exit, so
/// its *gated* initiation interval is cycles_m * reach_m. Given an
/// exit-fraction operating regime, this optimizer (1) shrinks PE/SIMD on
/// gated sites to the cheapest fold whose gated II still meets the
/// baseline bottleneck, (2) folds further down if the budget is tighter
/// than the baseline aggregate, then (3) greedily reinvests the freed
/// LUT/FF/BRAM/DSP into the bottleneck sites (the full-traffic front end)
/// while the aggregate stays within both the baseline's resource use and
/// `budget - fixed_overhead` per axis. The result therefore always weakly
/// dominates the baseline: gated throughput is never lower, resource use
/// never higher. A zero-exit regime (all reach == 1) returns the baseline
/// byte-identically. Deterministic: no randomness, stable tie-breaking.
FoldingConfig reach_aware_folding(const std::vector<LayerSite>& sites,
                                  const std::vector<double>& exit_fractions,
                                  const Resources& budget,
                                  const ReachAwareOptions& options);

}  // namespace adapex
