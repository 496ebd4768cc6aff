// Bit-plane packing, the code maxpool, and the dispatch of the per-tier
// bodies — popcount GEMM, bit-row im2col packer, float-front quantizer
// (see packed.hpp for the layout and the popcount identity;
// packed_core.inl for the tier bodies).
//
// Shares the float kernel layer's dispatch (common/isa_dispatch.hpp): the
// tier bodies are compiled under `#pragma GCC target` regions, the widest
// tier the host CPU supports is picked at first use, ADAPEX_PACKED_ISA
// overrides it, and force_isa() re-pins it for tests. Unlike the float
// kernels there is no reduction order to uphold across tiers — the GEMM
// reduction is an exact integer and the packers move bits, identical
// everywhere by construction, and the float epilogue and quantizer apply
// the same exact IEEE ops per element in every tier.

#include "tensor/packed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/isa_dispatch.hpp"

#ifdef ADAPEX_ISA_MULTIVERSION
#include <immintrin.h>
#endif

namespace adapex::packed {

// ------------------------------------------------------------------ packing

namespace {

/// Gathers the LSB of each of 8 bytes into bits 0..7 (byte j -> bit j):
/// the multiply sums shifted copies of the byte-lane bits so that lane j
/// lands at bit 56+j, pairing each (j, m) with j+m = 7 uniquely.
inline std::uint64_t gather_byte_lsbs(std::uint64_t x) {
  return ((x & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

}  // namespace

void pack_weights(const std::int8_t* codes, int rows, int k,
                  PackedWeights& out) {
  ADAPEX_CHECK(rows > 0 && k > 0, "pack_weights: empty operand");
  out.rows = rows;
  out.k = k;
  out.words = plane_words(k);
  const std::size_t total = static_cast<std::size_t>(rows) * out.words;
  out.plus.assign(total, 0);
  out.minus.assign(total, 0);
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* src = codes + static_cast<std::size_t>(r) * k;
#ifndef NDEBUG
    for (int i = 0; i < k; ++i) {
      ADAPEX_DCHECK(src[i] >= -1 && src[i] <= 1,
                    "pack_weights: code out of ternary range");
    }
#endif
    std::uint64_t* plus = out.plus.data() +
                          static_cast<std::size_t>(r) * out.words;
    std::uint64_t* minus = out.minus.data() +
                           static_cast<std::size_t>(r) * out.words;
    // Eight codes per step: +1 is byte 0x01 and -1 is 0xff, so a lane's
    // plus bit is bit 0 without bit 7, and its minus bit is bit 7.
    int i = 0;
    for (; i + 8 <= k; i += 8) {
      std::uint64_t x;
      std::memcpy(&x, src + i, 8);
      plus[i >> 6] |= gather_byte_lsbs(x & ~(x >> 7)) << (i & 63);
      minus[i >> 6] |= gather_byte_lsbs(x >> 7) << (i & 63);
    }
    for (; i < k; ++i) {
      const std::uint64_t bit = 1ull << (i & 63);
      if (src[i] > 0) {
        plus[i >> 6] |= bit;
      } else if (src[i] < 0) {
        minus[i >> 6] |= bit;
      }
    }
  }
}

void unpack_weights(const PackedWeights& w, std::int8_t* codes) {
  for (int r = 0; r < w.rows; ++r) {
    const std::uint64_t* plus =
        w.plus.data() + static_cast<std::size_t>(r) * w.words;
    const std::uint64_t* minus =
        w.minus.data() + static_cast<std::size_t>(r) * w.words;
    std::int8_t* dst = codes + static_cast<std::size_t>(r) * w.k;
    for (int i = 0; i < w.k; ++i) {
      const std::uint64_t bit = 1ull << (i & 63);
      dst[i] = (plus[i >> 6] & bit) != 0   ? std::int8_t{1}
               : (minus[i >> 6] & bit) != 0 ? std::int8_t{-1}
                                            : std::int8_t{0};
    }
  }
}

namespace {

/// Sizes `out` for cols x k. The planes are not cleared: every packer
/// writes every plane word of every column, tail lanes as zeros.
void size_activations(PackedActivations& out, int cols, int k) {
  out.cols = cols;
  out.k = k;
  out.words = plane_words(k);
  const std::size_t total = static_cast<std::size_t>(cols) * out.words;
  out.lo.resize(total);
  out.hi.resize(total);
}

/// Packs one k-length run of 2-bit codes into its lo/hi plane words; word
/// w is stored at lo[w*stride] / hi[w*stride] (stride = cols for the
/// word-major activation layout). Branchless (random codes make
/// per-element branches mispredict ~50% of the time, which made the old
/// bit-at-a-time loop ~10x slower than the popcount GEMM it feeds) and 8
/// codes per step via the multiply-gather.
void pack_code_run(const std::uint8_t* src, int k, std::uint64_t* lo,
                   std::uint64_t* hi, std::size_t stride) {
  const int words = plane_words(k);
  for (int w = 0; w < words; ++w) {
    const int base = w * 64;
    const int nbits = std::min(64, k - base);
    std::uint64_t lo_w = 0;
    std::uint64_t hi_w = 0;
    int b = 0;
    for (; b + 8 <= nbits; b += 8) {
      std::uint64_t x;
      std::memcpy(&x, src + base + b, 8);
      lo_w |= gather_byte_lsbs(x) << b;
      hi_w |= gather_byte_lsbs(x >> 1) << b;
    }
    for (; b < nbits; ++b) {
      const std::uint64_t code = src[base + b];
      lo_w |= (code & 1u) << b;
      hi_w |= ((code >> 1) & 1u) << b;
    }
    lo[static_cast<std::size_t>(w) * stride] = lo_w;
    hi[static_cast<std::size_t>(w) * stride] = hi_w;
  }
}

}  // namespace

void pack_activations(const std::uint8_t* codes, int cols, int k,
                      PackedActivations& out) {
  ADAPEX_CHECK(cols > 0 && k > 0, "pack_activations: empty operand");
  size_activations(out, cols, k);
  for (int c = 0; c < cols; ++c) {
    const std::uint8_t* src = codes + static_cast<std::size_t>(c) * k;
#ifndef NDEBUG
    for (int i = 0; i < k; ++i) {
      ADAPEX_DCHECK(src[i] <= 3, "pack_activations: code out of 2-bit range");
    }
#endif
    pack_code_run(src, k, out.lo.data() + c, out.hi.data() + c,
                  static_cast<std::size_t>(cols));
  }
}

void unpack_activations(const PackedActivations& a, std::uint8_t* codes) {
  for (int c = 0; c < a.cols; ++c) {
    std::uint8_t* dst = codes + static_cast<std::size_t>(c) * a.k;
    for (int i = 0; i < a.k; ++i) {
      const std::uint64_t bit = 1ull << (i & 63);
      const std::size_t at =
          static_cast<std::size_t>(i >> 6) * a.cols + static_cast<std::size_t>(c);
      dst[i] = static_cast<std::uint8_t>(((a.lo[at] & bit) != 0 ? 1u : 0u) |
                                         ((a.hi[at] & bit) != 0 ? 2u : 0u));
    }
  }
}

namespace {

/// The bit-row path's reach: a row's lo and hi planes share one 64-bit
/// word (32 lanes each), and a channel's k*k patch bits must fit in the
/// 32-bit half they are shifted out of.
constexpr int kBitRowMaxWidth = 32;
constexpr int kBitRowMaxKernel = 5;

/// Generic im2col packing: each output pixel's patch is gathered into a
/// contiguous code run (kernel-length rows are contiguous in the source
/// plane) and packed with the branchless run packer.
void pack_im2col_gather(const std::uint8_t* codes, int images, int channels,
                        int height, int width, int kernel,
                        PackedActivations& out) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  const std::size_t image = static_cast<std::size_t>(channels) * height * width;
  static thread_local std::vector<std::uint8_t> patch;
  patch.resize(static_cast<std::size_t>(out.k));
  std::size_t p = 0;
  for (int b = 0; b < images; ++b) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x, ++p) {
        std::uint8_t* dst = patch.data();
        for (int c = 0; c < channels; ++c) {
          const std::uint8_t* plane =
              codes + static_cast<std::size_t>(b) * image +
              (static_cast<std::size_t>(c) * height + y) * width + x;
          for (int ky = 0; ky < kernel; ++ky) {
            std::memcpy(dst, plane + static_cast<std::size_t>(ky) * width,
                        static_cast<std::size_t>(kernel));
            dst += kernel;
          }
        }
        pack_code_run(patch.data(), out.k, out.lo.data() + p,
                      out.hi.data() + p, static_cast<std::size_t>(out.cols));
      }
    }
  }
}

/// Packs one row of width <= 32 codes into one word: bit x < width holds
/// bit 0 of code x, bit 32+x its bit 1. Bits width..31 and 32+width..63
/// may hold codes past the row (the bit-row packer never reads them).
/// Reads at most `avail` (>= width) bytes.
inline std::uint64_t pack_code_row(const std::uint8_t* src, int width,
                                   std::size_t avail) {
  std::uint64_t word = 0;
  for (int x = 0; x < width; x += 8) {
    const std::size_t at = static_cast<std::size_t>(x);
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, src + at, std::min<std::size_t>(8, avail - at));
    word |= gather_byte_lsbs(chunk) << x;
    word |= gather_byte_lsbs(chunk >> 1) << (32 + x);
  }
  return word;
}

}  // namespace

// ---------------------------------------------------------------- ISA tiers

namespace scalar {
#define ADAPEX_P_LEVEL 0
#include "tensor/packed_core.inl"
#undef ADAPEX_P_LEVEL
}  // namespace scalar

#ifdef ADAPEX_ISA_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#define ADAPEX_P_LEVEL 1
#include "tensor/packed_core.inl"
#undef ADAPEX_P_LEVEL
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512dq")
namespace avx512 {
#define ADAPEX_P_LEVEL 2
#include "tensor/packed_core.inl"
#undef ADAPEX_P_LEVEL
}  // namespace avx512
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512dq,avx512vpopcntdq")
namespace avx512vp {
#define ADAPEX_P_LEVEL 3
#include "tensor/packed_core.inl"
#undef ADAPEX_P_LEVEL
}  // namespace avx512vp
#pragma GCC pop_options
#endif  // ADAPEX_ISA_MULTIVERSION

// ----------------------------------------------------------------- dispatch

namespace {

struct PackedTable {
  const char* name;
  bool (*supported)();
  void (*gemm)(const PackedWeights&, const PackedActivations&,
               const Epilogue&);
  void (*pack_im2col_bits)(const std::uint8_t*, int, int, int, int, int,
                           std::uint64_t*, PackedActivations&);
  void (*quantize_front)(const float*, std::size_t, const FrontQuant&,
                         std::uint8_t*);
};

#define ADAPEX_P_TIER(ns)                                        \
  &ns::tier_popcount_gemm, &ns::tier_pack_im2col_bits,           \
      &ns::tier_quantize_front

constexpr PackedTable kTiers[] = {
#ifdef ADAPEX_ISA_MULTIVERSION
    {"avx512vp", &isa::has_avx512vpopcntdq, ADAPEX_P_TIER(avx512vp)},
    {"avx512", &isa::has_avx512, ADAPEX_P_TIER(avx512)},
    {"avx2", &isa::has_avx2, ADAPEX_P_TIER(avx2)},
#endif
    {"scalar", &isa::baseline, ADAPEX_P_TIER(scalar)},
};

#undef ADAPEX_P_TIER

using Dispatch = isa::TierDispatch<PackedTable>;

Dispatch& dispatch() {
  static Dispatch d(kTiers, "ADAPEX_PACKED_ISA", "packed");
  return d;
}

}  // namespace

const char* active_isa() { return dispatch().active().name; }

void force_isa(const char* name) { dispatch().force(name); }

void popcount_gemm(const PackedWeights& weights, const PackedActivations& acts,
                   const Epilogue& epilogue) {
  ADAPEX_CHECK(weights.k == acts.k,
               "popcount_gemm: reduction length mismatch (" +
                   std::to_string(weights.k) + " vs " +
                   std::to_string(acts.k) + ")");
  dispatch().active().gemm(weights, acts, epilogue);
}

void pack_activations_im2col(const std::uint8_t* codes, int images,
                             int channels, int height, int width, int kernel,
                             PackedActivations& out) {
  ADAPEX_CHECK(images > 0 && channels > 0 && kernel >= 1 &&
                   height >= kernel && width >= kernel,
               "pack_activations_im2col: invalid geometry");
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  size_activations(out, images * oh * ow, channels * kernel * kernel);
  if (width > kBitRowMaxWidth || kernel > kBitRowMaxKernel) {
    pack_im2col_gather(codes, images, channels, height, width, kernel, out);
    return;
  }
  static thread_local std::vector<std::uint64_t> rows;
  rows.resize(static_cast<std::size_t>(images) * channels * height);
  dispatch().active().pack_im2col_bits(codes, images, channels, height, width,
                                       kernel, rows.data(), out);
}

void quantize_front(const float* x, std::size_t n, const FrontQuant& q,
                    std::uint8_t* codes) {
  dispatch().active().quantize_front(x, n, q, codes);
}

void maxpool_codes(const std::uint8_t* in, int planes, int height, int width,
                   int kernel, int stride, std::uint8_t* out) {
  ADAPEX_CHECK(planes >= 0 && kernel >= 1 && stride >= 1 &&
                   height >= kernel && width >= kernel,
               "maxpool_codes: invalid geometry");
  const int oh = (height - kernel) / stride + 1;
  const int ow = (width - kernel) / stride + 1;
  const std::size_t plane = static_cast<std::size_t>(height) * width;
  for (int pl = 0; pl < planes; ++pl) {
    const std::uint8_t* src = in + static_cast<std::size_t>(pl) * plane;
    for (int y = 0; y < oh; ++y) {
      const std::uint8_t* r0 =
          src + static_cast<std::size_t>(y) * stride * width;
      if (kernel == 2 && stride == 2) {
        const std::uint8_t* r1 = r0 + width;
        for (int x = 0; x < ow; ++x) {
          const std::uint8_t top = std::max(r0[2 * x], r0[2 * x + 1]);
          const std::uint8_t bottom = std::max(r1[2 * x], r1[2 * x + 1]);
          *out++ = std::max(top, bottom);
        }
        continue;
      }
      for (int x = 0; x < ow; ++x) {
        std::uint8_t best = 0;
        for (int ky = 0; ky < kernel; ++ky) {
          const std::uint8_t* row = r0 + static_cast<std::size_t>(ky) * width +
                                    static_cast<std::size_t>(x) * stride;
          for (int kx = 0; kx < kernel; ++kx) best = std::max(best, row[kx]);
        }
        *out++ = best;
      }
    }
  }
}

}  // namespace adapex::packed
