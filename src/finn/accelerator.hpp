// FINN-style dataflow accelerator compiler and analytical performance model.
//
// compile_accelerator() maps a (possibly pruned, possibly branched) CNN to a
// pipeline of streaming HLS modules: SWU+MVTU per conv layer, MVTU per fc
// layer, Pool units, and a Branch (stream duplicator) at every early-exit
// attachment point — the new HLS module the paper adds to FINN. BatchNorm
// and activation quantization are absorbed into MVTU thresholds, as FINN's
// streamlining transformation does.
//
// estimate_performance() evaluates the paper's metrics for a given exit
// distribution: throughput (IPS), per-exit and average latency, power, and
// energy per inference, under the stream-gating service model documented in
// DESIGN.md (backbone work after a taken exit is skipped; exit heads always
// process every input that reaches their branch point).

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hls/folding.hpp"
#include "hls/modules.hpp"
#include "nn/branchy.hpp"

namespace adapex {

/// Power model: static board power plus per-resource dynamic coefficients
/// (at 100% module activity). Defaults are calibrated so the reduced-scale
/// CNV accelerators land in the paper's reported power band (~1.1-1.4 W on
/// the ZCU104).
struct PowerModel {
  double static_w = 0.70;
  double w_per_klut = 0.045;   ///< W per 1000 active LUTs.
  double w_per_kff = 0.015;    ///< W per 1000 active FFs.
  double w_per_bram = 0.004;   ///< W per active BRAM18.
  double w_per_dsp = 0.002;    ///< W per active DSP slice.

  double module_peak_w(const Resources& r) const {
    return w_per_klut * r.lut / 1000.0 + w_per_kff * r.ff / 1000.0 +
           w_per_bram * r.bram + w_per_dsp * r.dsp;
  }
};

/// Accelerator compile options.
struct AcceleratorConfig {
  double fclk_mhz = 100.0;  ///< Paper: ZCU104 at 100 MHz.
  int in_channels = 3;
  int image_size = 32;
  HlsCostModel cost;
};

/// A synthesized dataflow accelerator.
struct Accelerator {
  std::vector<HlsModule> modules;
  /// Module indices on the path of each output (early exits in order, then
  /// the final exit). An input accepted at output e flows through exactly
  /// path[e].
  std::vector<std::vector<int>> paths;
  Resources total;
  /// Resource subtotal of exit-head modules plus branch duplicators (the
  /// "exit overhead" Figure 5(e) tracks).
  Resources exit_overhead;
  double fclk_mhz = 100.0;
  int num_exits = 0;

  double fclk_hz() const { return fclk_mhz * 1e6; }
};

/// Compiles the model against a folding config (walk order must match).
/// Walks the model and throws every design-lint error (lint_design) in one
/// ConfigError before emitting.
Accelerator compile_accelerator(BranchyModel& model,
                                const FoldingConfig& folding,
                                const AcceleratorConfig& config);

/// Emits from a walk of `model` at the config's input shape whose design
/// lint the caller has run clean; re-checks only R2 and the fold count.
Accelerator compile_accelerator(BranchyModel& model, const ModelWalk& walk,
                                const FoldingConfig& folding,
                                const AcceleratorConfig& config);

/// reach_aware_folding's options with the styled design (`styled` over
/// `sites`, compiled to `styled_acc`) as the baseline.
ReachAwareOptions reach_aware_options(const BranchyModel& model,
                                      const std::vector<LayerSite>& sites,
                                      const FoldingConfig& styled,
                                      const Accelerator& styled_acc,
                                      const HlsCostModel& cost);

/// Whether module `m` performs work on an image accepted at output
/// `image_exit` under the stream-gating service model: backbone modules need
/// the image to survive every branch point upstream of them, exit heads
/// process every image that reaches their branch. Shared by the pipeline
/// simulator, the FIFO sizer, and the dataflow verifier so all three gate
/// traffic identically.
inline bool module_touches(const HlsModule& m, int image_exit) {
  if (m.exit_head >= 0) return image_exit >= m.exit_head;
  return image_exit >= m.exit_level;
}

/// Predecessor module index per module (-1 for the source), reconstructed
/// from the path lists. The module graph is a tree fanning out at Branch
/// duplicators, so each module has at most one predecessor.
std::vector<int> module_predecessors(const Accelerator& acc);

/// Deduplicated producer -> consumer links implied by the paths (paths
/// share their backbone prefix), in first-appearance order.
std::vector<std::pair<int, int>> accelerator_links(const Accelerator& acc);

/// Realized exit-fraction vector of a concrete stimulus: one entry per
/// output (exits then final), counts normalized by the stream length.
std::vector<double> realized_fractions(const Accelerator& acc,
                                       const std::vector<int>& exit_of_image);

/// Reach-scaled steady-state initiation interval in cycles: the bottleneck
/// module's expected occupancy per offered input, max_m cycles_m * reach_m.
/// `exit_fractions` must have one entry per output. Returns the II and, via
/// `bottleneck` (optional), the index of the binding module.
double gated_steady_ii(const Accelerator& acc,
                       const std::vector<double>& exit_fractions,
                       int* bottleneck = nullptr);

/// Performance estimate for one (accelerator, exit distribution) pair.
struct AcceleratorPerf {
  double ips = 0.0;              ///< Sustainable inferences per second.
  double latency_ms = 0.0;       ///< Average inference latency.
  std::vector<double> latency_ms_per_exit;
  double peak_power_w = 0.0;     ///< At full utilization (incl. static).
  double energy_per_inf_j = 0.0; ///< At full utilization.
};

/// `exit_fractions` must have one entry per output (exits then final) and
/// sum to ~1; pass {1.0} for a model without early exits.
AcceleratorPerf estimate_performance(const Accelerator& acc,
                                     const std::vector<double>& exit_fractions,
                                     const PowerModel& power);

/// Survival probability before each output: reach[L] = 1 - sum of exit
/// fractions of exits with index < L.
std::vector<double> reach_from_fractions(const std::vector<double>& fractions);

}  // namespace adapex
