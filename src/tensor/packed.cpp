// Bit-plane packing + popcount-GEMM dispatch (see packed.hpp for the
// layout and the popcount identity; packed_core.inl for the tier bodies).
//
// Shares the float kernel layer's dispatch (common/isa_dispatch.hpp): the
// tier bodies are compiled under `#pragma GCC target` regions, the widest
// tier the host CPU supports is picked at first use, ADAPEX_PACKED_ISA
// overrides it, and force_isa() re-pins it for tests. Unlike the float
// kernels there is no determinism contract to uphold across tiers — the
// reduction is an exact integer, identical everywhere by construction.

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
    std::uint64_t* plus = out.plus.data() +
                          static_cast<std::size_t>(r) * out.words;
    std::uint64_t* minus = out.minus.data() +
                           static_cast<std::size_t>(r) * out.words;
    for (int i = 0; i < k; ++i) {
      ADAPEX_DCHECK(src[i] >= -1 && src[i] <= 1,
                    "pack_weights: code out of ternary range");
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

void size_activations(PackedActivations& out, int cols, int k) {
  out.cols = cols;
  out.k = k;
  out.words = plane_words(k);
  const std::size_t total = static_cast<std::size_t>(cols) * out.words;
  out.lo.assign(total, 0);
  out.hi.assign(total, 0);
}

/// Gathers the LSB of each of 8 bytes into bits 0..7 (byte j -> bit j):
/// the multiply sums shifted copies of the byte-lane bits so that lane j
/// lands at bit 56+j, pairing each (j, m) with j+m = 7 uniquely.
inline std::uint64_t gather_byte_lsbs(std::uint64_t x) {
  return ((x & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
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

void pack_activations_im2col(const std::uint8_t* codes, int channels,
                             int height, int width, int kernel,
                             PackedActivations& out) {
  ADAPEX_CHECK(channels > 0 && kernel >= 1 && height >= kernel &&
                   width >= kernel,
               "pack_activations_im2col: invalid geometry");
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  const int cols = oh * ow;
  const int k = channels * kernel * kernel;
  size_activations(out, cols, k);
  // Same patch flattening as ops::im2col: reduction index (c, ky, kx)
  // ascending — the order pack_weights sees a [F, C, k, k] weight row in.
  // Each output pixel's patch is gathered into a contiguous code run
  // (kernel-length rows are contiguous in the source plane) and packed
  // with the branchless run packer; the old transposed loop set one bit
  // per element through strided read-modify-writes. The gather is on the
  // per-image hot path, so the 3x3 case stores its three bytes manually
  // (a runtime-length memcpy per (pixel, channel, ky) — tens of thousands
  // of 3-byte library calls per image — cost more than the packing), and
  // the patch buffer persists across calls.
  static thread_local std::vector<std::uint8_t> patch;
  patch.resize(static_cast<std::size_t>(k));
  int p = 0;
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x, ++p) {
      std::uint8_t* dst = patch.data();
      for (int c = 0; c < channels; ++c) {
        const std::uint8_t* plane =
            codes + (static_cast<std::size_t>(c) * height + y) * width + x;
        if (kernel == 3) {
          const std::uint8_t* r0 = plane;
          const std::uint8_t* r1 = plane + width;
          const std::uint8_t* r2 = plane + 2 * static_cast<std::size_t>(width);
          dst[0] = r0[0];
          dst[1] = r0[1];
          dst[2] = r0[2];
          dst[3] = r1[0];
          dst[4] = r1[1];
          dst[5] = r1[2];
          dst[6] = r2[0];
          dst[7] = r2[1];
          dst[8] = r2[2];
          dst += 9;
        } else {
          for (int ky = 0; ky < kernel; ++ky) {
            std::memcpy(dst, plane + static_cast<std::size_t>(ky) * width,
                        static_cast<std::size_t>(kernel));
            dst += kernel;
          }
        }
      }
      pack_code_run(patch.data(), k, out.lo.data() + p, out.hi.data() + p,
                    static_cast<std::size_t>(cols));
    }
  }
}

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

using GemmFn = void (*)(const PackedWeights&, const PackedActivations&,
                        const Epilogue&);

struct PackedTable {
  const char* name;
  bool (*supported)();
  GemmFn gemm;
};

constexpr PackedTable kTiers[] = {
#ifdef ADAPEX_ISA_MULTIVERSION
    {"avx512vp", &isa::has_avx512vpopcntdq, &avx512vp::tier_popcount_gemm},
    {"avx512", &isa::has_avx512, &avx512::tier_popcount_gemm},
    {"avx2", &isa::has_avx2, &avx2::tier_popcount_gemm},
#endif
    {"scalar", &isa::baseline, &scalar::tier_popcount_gemm},
};

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

}  // namespace adapex::packed
