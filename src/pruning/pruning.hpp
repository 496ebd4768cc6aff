// Dataflow-aware filter pruning (paper section IV-A2, based on AdaFlow).
//
// For every convolutional layer i the pass removes r_i filters, where r_i
// starts at round(rate * ch_out_i) and is decreased until the two FINN
// dataflow properties hold for the surviving channel count:
//     (ch_out_i - r_i) mod PE_i == 0
//     (ch_out_i - r_i) mod SIMD_consumer == 0   for every consumer MVTU
// (a consumer is the next backbone layer and, at block boundaries, the first
// compute layer of each attached exit head; for an FC consumer the SIMD
// constraint applies to the flattened feature count, i.e. channels times the
// spatial multiplier). Filters are then ranked by the l1-norm of their
// latent float weights [Li et al., ICLR'17] and the smallest r_i are
// removed, with the corresponding surgery applied to the following
// BatchNorm and to every consumer's input slice.
//
// Exit CONV layers participate only when `prune_exits` is set — the paper's
// "pruned" flag — which is the design decision Figure 5 ablates.

#pragma once

#include <string>
#include <vector>

#include "hls/folding.hpp"
#include "nn/branchy.hpp"

namespace adapex {

/// Options for one pruning pass.
struct PruneOptions {
  /// Fraction of filters to remove per conv layer, in [0, 1).
  double rate = 0.0;
  /// Prune CONV layers inside exit heads too ("pruned exits").
  bool prune_exits = false;
  /// The accelerator folding the pruned model must stay synthesizable for.
  FoldingConfig folding;
  /// Input geometry (needed to resolve layer shapes).
  int in_channels = 3;
  int image_size = 32;
  /// When non-empty, prune only the named layer (walk-order site name,
  /// e.g. "backbone.b1.conv0") — used by the sensitivity analysis.
  std::string only_layer;
  /// Ablation only: prune exactly round(rate * n) filters per layer,
  /// ignoring the PE/SIMD divisibility constraints. The resulting model
  /// generally does NOT synthesize against the folding config (prune_model
  /// then skips the post-surgery folding validation so callers can measure
  /// the synthesizability loss themselves).
  bool ignore_dataflow_constraints = false;
};

/// Per-layer outcome of a pruning pass.
struct PrunedLayer {
  std::string name;
  int original_filters = 0;
  int removed = 0;
  int remaining = 0;
  /// True when the divisibility constraints forced removing fewer filters
  /// than round(rate * original).
  bool constrained = false;
};

/// Summary of a pruning pass.
struct PruneReport {
  double requested_rate = 0.0;
  /// Actually removed filters / original filters, over all pruned layers.
  double achieved_rate = 0.0;
  std::vector<PrunedLayer> layers;
};

/// Prunes `model` in place. The folding config must match the *unpruned*
/// model's layer list (walk order); after the pass the same folding is
/// still valid for the pruned model (the dataflow-aware guarantee, asserted
/// internally on a walk of the pruned model). Returns the per-layer report.
/// When `walk_out` is given it receives that post-prune walk (in the
/// ignore_dataflow_constraints ablation the walk is taken but nothing is
/// asserted), so a caller that lints or compiles the pruned model need not
/// walk it again.
PruneReport prune_model(BranchyModel& model, const PruneOptions& options,
                        ModelWalk* walk_out = nullptr);

/// l1 norms of each conv filter (latent float weights), length = filters.
std::vector<float> filter_l1_norms(const QuantConv2d& conv);

/// The `count` filter indices with smallest l1 norm, ascending index order.
std::vector<int> lowest_l1_filters(const QuantConv2d& conv, int count);

}  // namespace adapex
