// Bit-plane-packed W2A2 operands and the popcount-accumulation GEMM.
//
// This is the integer fast path under the float kernel layer
// (tensor/kernels.hpp): once a W2A2 model is frozen (nn/quant.hpp
// freeze_packed), its ternary weights and 2-bit activation codes stop being
// floats entirely. Each 64-bit word carries 64 lanes of one bit plane:
//
//   weights   w in {-1, 0, +1}  ->  plus plane P (bit = w == +1)
//                                   minus plane M (bit = w == -1)
//   act codes a in {0, 1, 2, 3} ->  lo plane L0 (bit 0 of a)
//                                   hi plane L1 (bit 1 of a)
//
// The reduction along K then collapses to AND + popcount: with
// a = 2*hi + lo and w = P - M (per lane),
//
//   S = sum_k w_k * a_k
//     = 2*(popcnt(P & L1) - popcnt(M & L1))
//       + (popcnt(P & L0) - popcnt(M & L0))
//
// i.e. 4 ANDs + 4 popcounts per 64-bit word stand in for 64 multiply-adds.
// S is an exact integer, so every ISA tier produces bitwise-identical
// results by construction — there is no float reduction order to preserve.
// The fused epilogues (bias + clamp/quantize, mirroring the kernel layer's
// bias/ReLU fusion) are the only float math, applied once per output
// element in a fixed per-element order (this translation unit is built with
// -ffp-contract=off like kernels.cpp), so they too are tier-invariant.
//
// Tiers: "scalar" (hardware popcnt via __builtin_popcountll), "avx2"
// (vpshufb nibble-LUT popcount + vpsadbw), "avx512" (the same algorithm on
// 512-bit registers, gated on AVX-512BW/VL), and "avx512vp" (native
// vpopcntq, gated on AVX512VPOPCNTDQ). Selection is the kernel layer's
// (common/isa_dispatch.hpp): widest supported tier at first use,
// ADAPEX_PACKED_ISA env override, force_isa() for tests.
//
// Lanes beyond K in the last word are zero in every plane (pack_* zeroes
// them; pruned channel counts make non-multiple-of-64 K the common case),
// so the AND masks them out with no per-word tail logic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adapex::packed {

/// Number of 64-bit plane words covering a K-long reduction.
inline int plane_words(int k) { return (k + 63) / 64; }

/// Ternary weights, bit-plane packed row-major: row r's planes occupy words
/// [r*words, (r+1)*words).
struct PackedWeights {
  int rows = 0;   ///< Output channels / features.
  int k = 0;      ///< Logical reduction length.
  int words = 0;  ///< plane_words(k).
  std::vector<std::uint64_t> plus;   ///< [rows * words], bit = weight +1.
  std::vector<std::uint64_t> minus;  ///< [rows * words], bit = weight -1.
};

/// 2-bit activation codes, bit-plane packed word-major over the GEMM's
/// N dimension: plane word w of column c lives at [w*cols + c], so the
/// same-word planes of consecutive columns are contiguous. That is what
/// the SIMD tiers vectorize over — a broadcast weight word against 4/8
/// columns per step — which keeps them effective at the small word counts
/// (k = 144..576 -> 3..9 words) real CNV layers produce; a column-major
/// layout would leave those reductions to the scalar tail.
struct PackedActivations {
  int cols = 0;   ///< Output pixels (conv) or batch rows (linear).
  int k = 0;      ///< Logical reduction length (must match the weights').
  int words = 0;  ///< plane_words(k).
  std::vector<std::uint64_t> lo;  ///< [words * cols], bit 0 of the code.
  std::vector<std::uint64_t> hi;  ///< [words * cols], bit 1 of the code.
};

/// Packs ternary weight codes (row-major [rows, k], values -1/0/+1) into
/// bit planes. Tail lanes of the last word are zeroed.
void pack_weights(const std::int8_t* codes, int rows, int k,
                  PackedWeights& out);

/// Inverse of pack_weights (round-trip tests): codes must hold rows*k.
void unpack_weights(const PackedWeights& w, std::int8_t* codes);

/// Packs 2-bit activation codes (row-major [cols, k], values 0..3) into bit
/// planes — the linear-layer layout where each batch row is one column of
/// the packed GEMM. Tail lanes are zeroed.
void pack_activations(const std::uint8_t* codes, int cols, int k,
                      PackedActivations& out);

/// Inverse of pack_activations (round-trip tests): codes must hold cols*k.
void unpack_activations(const PackedActivations& a, std::uint8_t* codes);

/// Fused im2col + packing for `images` images of activation codes
/// [images, C, H, W]: column p = (b, y, x), image-major, holds the
/// K = C*kernel*kernel patch codes in the same (c, ky, kx) order as
/// ops::im2col flattens weights, packed into bit planes. Stride 1, no
/// padding (the CNV topology). Grouping several images into one call gives
/// narrow feature maps (a 3x3 or 1x1 output plane) enough GEMM columns to
/// fill the SIMD column blocks.
///
/// Inputs at most 32 wide with kernel <= 5 (every packed CNV layer) take a
/// bit-row path: each input row's codes are packed once into one 64-bit
/// word (lo plane in bits 0..31, hi plane in 32..63), and a patch's k*k
/// bits per channel are shifted out of k such words at once, several
/// output pixels per SIMD step. Other shapes gather each patch into a
/// contiguous code run first. Either way only in-bounds codes are read,
/// and plane lanes at or past K stay zero.
void pack_activations_im2col(const std::uint8_t* codes, int images,
                             int channels, int height, int width, int kernel,
                             PackedActivations& out);

/// Per-channel constants of the float front's BatchNorm + activation
/// quantizer, as the float path evaluates them (nothing folded).
struct FrontQuant {
  float mean = 0.0f;       ///< BatchNorm running mean.
  float inv_std = 1.0f;    ///< 1 / sqrt(running_var + eps).
  float gamma = 1.0f;      ///< BatchNorm gain.
  float beta = 0.0f;       ///< BatchNorm shift.
  float act_scale = 1.0f;  ///< ActQuant scale s (already floored > 0).
  int act_levels = 3;      ///< (1 << act bits) - 1.
};

/// The float front's BatchNorm + quantize over one run of pre-activations:
/// per element, exactly
///
///   xhat = (x - mean) * inv_std;   v = gamma * xhat + beta;
///   c = clamp(v, 0, s);            q = c / s * levels;
///   code = #{ j < levels : q >= j + 0.5 }
///
/// with clamp as std::clamp spells it (NaN and -0 pass through), so the
/// code is lround(q) for q in [0, levels] and 0 for NaN. Each element is
/// independent and built from exact IEEE ops only, so every ISA tier
/// produces the same codes.
void quantize_front(const float* x, std::size_t n, const FrontQuant& q,
                    std::uint8_t* codes);

/// Max pool over activation codes [planes, H, W] -> [planes, oh, ow] with
/// oh = (H - kernel) / stride + 1 (likewise ow). A kernel-2, stride-2 pool
/// (the CNV backbone's) runs a direct two-row kernel; other shapes run the
/// generic window scan. Codes are order-preserving, so the max code is the
/// code of the float path's max.
void maxpool_codes(const std::uint8_t* in, int planes, int height, int width,
                   int kernel, int stride, std::uint8_t* out);

/// What the fused epilogue does with the exact integer sum S of each output
/// element (row r = out channel, column c = pixel / batch row).
struct Epilogue {
  enum class Mode {
    kInt32,     ///< Store raw S into `s32` (differential tests).
    kQuantize,  ///< z = scale[r]*S + bias[r]; store the 2-bit act code of z.
    kLogits,    ///< Store scale[r]*S + (bias ? bias[r] : 0) as a float.
  };
  Mode mode = Mode::kInt32;
  const float* scale = nullptr;  ///< Per-row A (folded alpha*cs*BN gain).
  const float* bias = nullptr;   ///< Per-row B (folded BN shift); may be null.
  float act_scale = 1.0f;        ///< kQuantize: the consuming ActQuant scale.
  int act_levels = 3;            ///< kQuantize: (1 << bits) - 1.
  std::int32_t* s32 = nullptr;   ///< kInt32 destination.
  std::uint8_t* codes = nullptr; ///< kQuantize destination.
  float* logits = nullptr;       ///< kLogits destination.
  /// Destination strides: element (r, c) lands at r*row_stride +
  /// c*col_stride. Conv uses (cols, 1); linear uses (1, rows) so the output
  /// comes out batch-major without a separate transpose pass.
  std::size_t row_stride = 0;
  std::size_t col_stride = 1;
};

/// The popcount GEMM: for every (row, column) pair computes the exact
/// integer dot product S over the packed planes and applies the fused
/// epilogue. weights.k must equal acts.k.
void popcount_gemm(const PackedWeights& weights, const PackedActivations& acts,
                   const Epilogue& epilogue);

/// Name of the dispatched tier: "avx512vp", "avx512", "avx2", or "scalar".
const char* active_isa();

/// Forces a tier ("avx512vp" | "avx512" | "avx2" | "scalar"), e.g. to
/// verify cross-tier byte-identity in tests. Throws ConfigError when the
/// name is unknown or the host lacks the ISA. Not thread-safe: call only
/// while no packed GEMM is running. The ADAPEX_PACKED_ISA environment
/// variable applies the same override at first use.
void force_isa(const char* name);

}  // namespace adapex::packed
