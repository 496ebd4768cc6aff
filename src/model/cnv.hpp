// CNV model builder and early-exit configuration.
//
// CNV is the VGG-like quantized CNN shipped with FINN that the paper
// evaluates (CNVW2A2: 2-bit weights and activations). Topology, for
// 3x32x32 inputs and unpadded 3x3 convolutions:
//
//   block 0: conv(3->c0) conv(c0->c1) maxpool2     32->30->28->14
//   block 1: conv(c1->c2) conv(c2->c3) maxpool2    14->12->10->5
//   block 2: conv(c3->c4) conv(c4->c5)              5->3->1
//            flatten, fc(c5->f0), fc(f0->f1), fc(f1->classes)
//
// (each conv/fc except the classifier is followed by BatchNorm + 2-bit
// activation quantization). `width_scale` shrinks all channel/feature widths
// for laptop-scale experiments; 1.0 is the paper's CNV (64/64/128/128/256/256,
// FC 512/512).
//
// Early exits follow the paper's case study: an exit head is CONV (same
// configuration as the block it taps: 3x3, same output channels) + MaxPool
// with k = floor(DIM/2) where DIM is the tapped feature map dimension +
// two FC layers mirroring the CNV classifier. Exits attach after backbone
// blocks (the paper attaches after block 0 and block 1).

#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "nn/branchy.hpp"

namespace adapex {

/// CNV hyperparameters.
struct CnvConfig {
  int in_channels = 3;
  int image_size = 32;
  std::vector<int> conv_channels = {64, 64, 128, 128, 256, 256};
  std::vector<int> fc_features = {512, 512};
  int num_classes = 10;
  int weight_bits = 2;
  int act_bits = 2;

  /// Returns a copy with all widths multiplied by `scale` (minimum 4,
  /// rounded to a multiple of 4 so folding configs stay valid).
  CnvConfig scaled(double scale) const;
};

/// Operations composing an exit head.
enum class ExitOps {
  kConvPoolFc,  ///< CONV + MaxPool + FC + FC (the paper's configuration).
  kPoolFc,      ///< MaxPool + FC + FC (cheaper head).
  kFc,          ///< Global pool + single FC (cheapest head).
};

const char* to_string(ExitOps ops);
ExitOps exit_ops_from_string(const std::string& s);

/// One exit's placement and shape.
struct ExitSpec {
  int after_block = 0;
  ExitOps ops = ExitOps::kConvPoolFc;
};

/// The user-facing exits configuration ("Exits Configuration" in Fig. 3).
struct ExitsConfig {
  std::vector<ExitSpec> exits;
  /// Whether exit CONV layers participate in pruning ("pruned" flag in the
  /// paper; the library generator can build both variants).
  bool prune_exits = false;

  Json to_json() const;
  static ExitsConfig from_json(const Json& j);
};

/// The paper's case-study exits: after block 0 and after block 1, each a
/// CONV+MaxPool+FC+FC head.
ExitsConfig paper_exits_config(bool prune_exits);

/// Builds a CNV without early exits (the FINN baseline model).
BranchyModel build_cnv(const CnvConfig& config, Rng& rng);

/// Builds a CNV with the given early exits attached.
BranchyModel build_cnv_with_exits(const CnvConfig& config,
                                  const ExitsConfig& exits, Rng& rng);

/// Feature-map spatial size at the output of each backbone block
/// (e.g. {14, 5, 1} for 32x32 inputs). Throws ConfigError naming the first
/// layer the image is too small for, and the smallest image size that fits.
std::vector<int> cnv_block_out_dims(const CnvConfig& config);

/// Output channel count at each backbone block's output (the last conv of
/// the block), e.g. {c1, c3, c5}.
std::vector<int> cnv_block_out_channels(const CnvConfig& config);

}  // namespace adapex
