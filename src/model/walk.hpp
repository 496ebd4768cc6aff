// Structural walk over a BranchyModel.
//
// The one place that knows how activation shapes move through the layer
// graph and how sites are named. It produces the ordered list of compute
// layers (conv + fc — the layers FINN maps to MVTU hardware units) together
// with their geometry: input/output channels, spatial dimensions, and
// kernel size. The walk order is the canonical layer order used everywhere
// an accelerator artifact is indexed per-layer (folding configs, pruning
// reports, resource breakdowns): backbone blocks first (in block order),
// then each exit head (in exit order), each head starting from the output
// shape of the block it taps.
//
// The walk is lenient: a layer whose input shape is wrong becomes an R2
// finding (analysis/lint.hpp) and the walk carries on with that layer's
// declared geometry, so one pass reports every shape violation. The design
// verifier reads the findings; walk_compute_layers throws them.

#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "nn/branchy.hpp"

namespace adapex {

/// Where a compute layer lives.
enum class SiteLoc { kBackbone, kExit };

/// One conv/fc layer with resolved geometry.
struct LayerSite {
  SiteLoc loc = SiteLoc::kBackbone;
  /// Block index for backbone sites; exit index for exit sites.
  int group = 0;
  /// Index of the layer inside its Sequential container.
  int layer_index = 0;
  Layer* layer = nullptr;
  /// The Sequential that owns the layer (for surgery on adjacent layers).
  Sequential* container = nullptr;
  bool is_conv = false;

  int in_channels = 0;   ///< Conv: channels. FC: input features.
  int out_channels = 0;  ///< Conv: filters. FC: output features.
  int kernel = 1;        ///< Conv kernel size (1 for FC).
  int in_dim = 1;        ///< Input feature-map side (1 for FC).
  int out_dim = 1;       ///< Output feature-map side (1 for FC).

  /// Stable human-readable identifier, e.g. "backbone.b0.conv1",
  /// "exit0.conv0", "backbone.b2.fc2".
  std::string name;
};

/// Activation shape between two layers.
struct ActShape {
  int channels = 0;
  int dim = 0;         ///< Feature-map side; 0 after a kernel that did not fit.
  int features = 0;    ///< Valid once flattened.
  bool flattened = false;
};

/// One walked Sequential: a backbone block or an exit head.
struct WalkedSequential {
  /// Site-name prefix: "backbone.b<N>" or "exit<E>". Sites inside are
  /// "<prefix>.conv<K>" / "<prefix>.fc<K>"; other layers are
  /// "<prefix>.<layer index>.<kind>" (e.g. "backbone.b0.3.pool").
  std::string prefix;
  /// Input shape of each layer, indexed like the Sequential.
  std::vector<ActShape> layer_in;
  /// Shape the Sequential emits.
  ActShape out;
};

/// Everything one walk learns about a model.
struct ModelWalk {
  /// Every conv/fc site, in walk order.
  std::vector<LayerSite> sites;
  /// One per backbone block.
  std::vector<WalkedSequential> blocks;
  /// One per exit head. An exit whose after_block names no backbone block
  /// has no shape to start from and is not walked (layer_in stays empty);
  /// the R7 exit-structure rule reports it.
  std::vector<WalkedSequential> exits;
  /// R2 shape-propagation findings; empty for a well-formed model.
  analysis::LintReport findings;
};

/// Walks the model from an in_channels x image_size x image_size input.
/// Never throws on a broken model: shape violations land in `findings`.
ModelWalk walk_model(BranchyModel& model, int in_channels, int image_size);

/// Walks the model and returns all conv/fc sites with geometry, given the
/// input image shape. Throws ConfigError listing every R2 violation when the
/// model's layer shapes are inconsistent with the declared input.
std::vector<LayerSite> walk_compute_layers(BranchyModel& model, int in_channels,
                                           int image_size);

}  // namespace adapex
