// Fake quantization for quantization-aware training (QAT).
//
// Reproduces the Brevitas-style W2A2 scheme the paper trains CNV with:
//  - Weights: per-output-channel symmetric uniform quantization to
//    `bits` bits with a narrow range (for 2 bits: levels {-1, 0, +1} times a
//    per-channel scale equal to the channel's max |w|). The backward pass is
//    the straight-through estimator (STE): gradients flow to the latent
//    float weights unchanged.
//  - Activations: unsigned uniform quantization to `bits` bits after a
//    ReLU-style clamp, with a per-layer scale tracked as an exponential
//    moving average of the batch maximum during training and frozen at
//    evaluation. STE passes gradients inside the clamp range only.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/packed.hpp"
#include "tensor/tensor.hpp"

namespace adapex {

class BranchyModel;

/// Number of quantization levels on each side for signed narrow-range
/// quantization with `bits` bits (2 bits -> 1, i.e. levels {-1,0,1}).
int signed_qmax(int bits);

/// Quantizes `weight` ([F, ...] with per-row = per-output-channel scaling)
/// in place into `out`. Returns nothing; out is resized to weight's shape.
/// bits <= 0 disables quantization (float passthrough).
void quantize_weight_per_channel(const Tensor& weight, int bits, Tensor& out);

/// Activation quantizer with EMA-tracked scale.
class ActQuantizer {
 public:
  explicit ActQuantizer(int bits) : bits_(bits) {}

  int bits() const { return bits_; }
  float scale() const { return scale_; }
  /// Restores a scale captured from a trained quantizer (marks the EMA as
  /// initialized so evaluation uses it as-is).
  void set_scale(float s) {
    scale_ = s;
    initialized_ = true;
  }

  /// Forward: clamp to [0, scale] and quantize to `bits` unsigned levels.
  /// In training mode the scale EMA is updated from the batch max first.
  /// bits <= 0 disables quantization (plain ReLU behaviour retained by the
  /// caller). Stores the pre-quantization input reference range needed by
  /// backward (the caller keeps the input tensor).
  Tensor forward(const Tensor& input, bool train);

  /// Backward: STE within [0, scale].
  Tensor backward(const Tensor& input, const Tensor& grad_output) const;

 private:
  int bits_;
  float scale_ = 1.0f;
  bool initialized_ = false;
};

// ---------------------------------------------------------------------------
// Post-QAT freeze: exact integer extraction for the packed inference path.
//
// A trained W2A2 model's fake-quant layers only ever produce values of the
// form code * scale (ternary weight codes {-1,0,+1} times a per-channel
// alpha; activation codes {0..3} times scale/levels). freeze_packed walks a
// BranchyModel once, extracts those exact codes into bit-plane-packed
// operands (tensor/packed.hpp), and folds every per-channel float constant
// (alpha, the activation code scale, and the following BatchNorm's eval
// affine) into one per-row (A, B) pair: z = A*S + B, with S the exact
// integer code dot product. A row that feeds an ActQuant then becomes
// FINN's thresholding stage: three integer thresholds on S, derived from
// that float epilogue (packed::derive_thresholds), so the popcount GEMM
// turns its accumulators into codes by integer compares alone.
//
// The first conv group is kept in float ("float front"): the network input
// is a float image, so the frozen model replays conv+BN+quantize exactly as
// the float path does and only enters the integer domain at the first
// activation codes — stage-one codes are bitwise identical by construction.
// Everything downstream is integer-exact in S; the only float arithmetic is
// the classifiers' logits epilogue (and, at freeze time, the float
// epilogue the thresholds are derived from), so packed logits track float
// logits to a tight tolerance and argmax/exit decisions agree bitwise in
// practice (the residual seam is a code/threshold landing within
// float-epsilon of a rounding boundary; see DESIGN.md "Packed integer
// inference").

/// One fused stage of a frozen model segment.
struct PackedStage {
  enum class Kind { kFloatFront, kConv, kLinear, kMaxPool, kFlatten };
  Kind kind = Kind::kFlatten;

  // kFloatFront — the first conv+BN+ActQuant group, replayed in float:
  Tensor qweight;  ///< [F,C,k,k] ternary float weights (as the float path
                   ///< quantizes them at eval).
  Tensor bn_gamma, bn_beta, bn_mean, bn_var;  ///< BatchNorm eval state.

  // kConv / kLinear — popcount GEMM over packed planes:
  packed::PackedWeights weights;  ///< A row with A < 0 is stored negated.
  int in_channels = 0;         ///< kConv: weight C (im2col geometry).
  int kernel = 0;              ///< kConv: weight k.
  std::vector<float> scale_a;  ///< Per-row folded A.
  std::vector<float> bias_b;   ///< Per-row folded B (empty for logits).
  /// Per-row integer thresholds [rows * packed::kActLevels] on the GEMM's
  /// sum, derived from (A, B) and the floored act_scale; empty for logits.
  /// They alone drive the quantize epilogue: (A, B) stay as their
  /// reference.
  std::vector<std::int32_t> thresholds;
  bool logits = false;         ///< Classifier tail: emit float logits.

  // kFloatFront / kConv / kLinear with a consuming ActQuant:
  float act_scale = 1.0f;  ///< The ActQuant scale s.
  int act_levels = 3;      ///< (1 << act bits) - 1.

  // kMaxPool — order-preserving max over activation codes:
  int pool_kernel = 0;
  int pool_stride = 0;
};

/// An ordered run of stages (one backbone block or one exit head).
struct PackedSegment {
  std::vector<PackedStage> stages;
};

/// A frozen BranchyModel: backbone blocks plus exit heads, all reduced to
/// packed integer operands + folded epilogue constants.
struct PackedModel {
  struct Exit {
    int after_block = 0;
    PackedSegment head;
  };
  std::vector<PackedSegment> blocks;
  std::vector<Exit> exits;  ///< Sorted by after_block (BranchyModel order).

  std::size_t num_outputs() const { return exits.size() + 1; }
};

/// Reusable scratch for packed_forward (one per evaluation thread).
struct PackedScratch {
  packed::PackedActivations acts;
  std::vector<std::uint8_t> bufs[4];  ///< Backbone + head code ping-pongs.
  std::vector<std::uint8_t> group;    ///< Grouped narrow-conv GEMM output.
};

/// Structural eligibility for freeze_packed: every compute layer is a 2-bit
/// Conv/Linear followed by BatchNorm+ActQuant (2-bit), except a bare Linear
/// classifier closing the final block and each exit head; MaxPool/Flatten
/// may appear between groups; the first compute layer overall is a conv
/// (float image input). When `reasons` is non-null every violation is
/// appended to it (the lint rule RQ1 precondition).
bool can_freeze(const BranchyModel& model,
                std::vector<std::string>* reasons = nullptr);

/// Freezes a trained W2A2 model into exact integer form. Throws ConfigError
/// aggregating every violation (rule RQ1: freeze-before-pack precondition)
/// when the model is not freezable.
PackedModel freeze_packed(const BranchyModel& model);

/// Runs the frozen model on a float image batch [N,C,H,W]; returns logits
/// per output, early exits first, final exit last — the same contract as
/// BranchyModel::forward(input, /*train=*/false).
std::vector<Tensor> packed_forward(const PackedModel& model,
                                   const Tensor& input, PackedScratch& scratch);

/// How evaluation picks between the float and packed inference paths.
enum class PackedMode {
  kOff,   ///< Always float.
  kOn,    ///< Always packed; error if the model cannot freeze.
  kAuto,  ///< Packed when the model is freezable, float otherwise.
};

}  // namespace adapex
