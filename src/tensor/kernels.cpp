// Blocked GEMM kernel layer: ISA-tiered bodies + runtime dispatch.
//
// kernels_core.inl is compiled three times below — SSE2 (the x86-64
// baseline every build targets), AVX2, and AVX-512 — via `#pragma GCC
// target` regions, and common/isa_dispatch.hpp picks the widest tier the
// host CPU supports at first use. All tiers perform identical float
// operations in identical per-element order (this translation unit is built
// with -ffp-contract=off, see src/CMakeLists.txt), so the dispatch choice
// never changes results — it only changes how many independent output
// columns one instruction covers. Every public entry point calls the
// dispatched tier unconditionally: there is no second, scalar path.

#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>
#include <xmmintrin.h>

#include "common/error.hpp"
#include "common/isa_dispatch.hpp"

namespace adapex::kernels {

namespace {

/// Per-thread packing scratch, grown on demand and reused across calls so
/// the hot path never allocates. thread_local keeps the pool workers'
/// kernels independent.
float* pack_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// a [rows, cols] transposed into per-thread scratch [cols, rows]: the
/// one-time repack that lets gemm_at_b_accumulate and conv_input_grad run
/// the blocked direct kernel (values are only copied).
const float* transposed(const float* a, int rows, int cols) {
  thread_local std::vector<float> buf;
  const std::size_t floats = static_cast<std::size_t>(rows) * cols;
  if (buf.size() < floats) buf.resize(floats);
  float* at = buf.data();
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      at[static_cast<std::size_t>(c) * rows + r] = arow[c];
    }
  }
  return at;
}

/// Per-thread scratch for conv_input_grad's row tiles.
float* tile_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// Walks the im2col rows r, r + 1, ... of a ConvShape: row r = (c, ky, kx)
/// reads the input at offset() = c*H*W + ky*W + kx, the same for every
/// image. One division set per walk instead of per row.
class RowWalk {
 public:
  RowWalk(const ConvShape& s, int r)
      : kernel_(s.kernel),
        height_(s.height),
        width_(s.width),
        c_(r / (s.kernel * s.kernel)),
        ky_(r / s.kernel % s.kernel),
        kx_(r % s.kernel) {}

  std::size_t offset() const {
    return (static_cast<std::size_t>(c_) * height_ + ky_) * width_ + kx_;
  }

  void next() {
    if (++kx_ < kernel_) return;
    kx_ = 0;
    if (++ky_ < kernel_) return;
    ky_ = 0;
    ++c_;
  }

 private:
  int kernel_, height_, width_;
  int c_, ky_, kx_;
};

/// col2im of one im2col row whose input offset is `offset` (RowWalk):
/// grad_x_i[offset + y*width + x] += row[i*patch + y*out_w + x] for every
/// image of the group. Calling it for ascending rows adds each element's
/// terms in col2im's order.
void col2im_row(const float* row, std::size_t offset, const ConvShape& s,
                float* grad_x) {
  const int oh = s.out_h(), ow = s.out_w();
  for (int i = 0; i < s.images; ++i) {
    float* plane = grad_x + i * s.image_size() + offset;
    const float* src = row + static_cast<std::size_t>(i) * s.patch();
    for (int y = 0; y < oh; ++y) {
      float* dst = plane + static_cast<std::size_t>(y) * s.width;
      const float* sp = src + static_cast<std::size_t>(y) * ow;
      for (int x = 0; x < ow; ++x) dst[x] += sp[x];
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- ISA tiers

// Tile geometry per tier: kNR spans several native vectors per row so each
// A-element broadcast/zero-test is amortized over more multiply-adds; kMR is
// sized so the accumulator tile plus one packed-B row still fits the tier's
// register file (16 xmm/ymm, 32 zmm).
namespace sse2 {
#define ADAPEX_K_MR 6
#define ADAPEX_K_NR 8
#define ADAPEX_K_VW 4
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace sse2

#ifdef ADAPEX_ISA_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#define ADAPEX_K_MR 6
#define ADAPEX_K_NR 16
#define ADAPEX_K_VW 8
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq")
namespace avx512 {
#define ADAPEX_K_MR 4
#define ADAPEX_K_NR 64
#define ADAPEX_K_VW 16
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
#undef ADAPEX_K_VW
}  // namespace avx512
#pragma GCC pop_options
#endif  // ADAPEX_ISA_MULTIVERSION

// ----------------------------------------------------------------- dispatch

namespace {

using GemmDirectFn = void (*)(const float*, const float*, const float*,
                              float*, int, int, int, Epilogue);
using GemmDotFn = void (*)(const float*, const float*, const float*, float*,
                           int, int, int, Epilogue);
using ConvForwardFn = void (*)(const float*, const float*, const ConvShape&,
                               const float*, float*, Epilogue);
using ConvGradFn = void (*)(const float*, const float*, const ConvShape&,
                            float*);

struct KernelTable {
  const char* name;
  bool (*supported)();
  GemmDirectFn direct;
  GemmDotFn dot;
  ConvForwardFn conv_forward;
  ConvGradFn conv_weight_grad;
  ConvGradFn conv_input_grad;
};

#define ADAPEX_KERNEL_TIER(tier, probe)                                     \
  {#tier, probe, &tier::tier_gemm_direct, &tier::tier_gemm_dot,             \
   &tier::tier_conv_forward, &tier::tier_conv_weight_grad,                  \
   &tier::tier_conv_input_grad}

constexpr KernelTable kTiers[] = {
#ifdef ADAPEX_ISA_MULTIVERSION
    ADAPEX_KERNEL_TIER(avx512, &isa::has_avx512),
    ADAPEX_KERNEL_TIER(avx2, &isa::has_avx2),
#endif
    ADAPEX_KERNEL_TIER(sse2, &isa::baseline),
};
#undef ADAPEX_KERNEL_TIER

using Dispatch = isa::TierDispatch<KernelTable>;

Dispatch& dispatch() {
  static Dispatch d(kTiers, "ADAPEX_KERNEL_ISA", "kernel");
  return d;
}

}  // namespace

const char* active_isa() { return dispatch().active().name; }

void force_isa(const char* name) { dispatch().force(name); }

// ------------------------------------------------------------ public kernels

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  dispatch().active().direct(a, b, nullptr, c, m, k, n, Epilogue::kNone);
}

void gemm_bias_accumulate(const float* a, const float* b,
                          const float* row_bias, float* c, int m, int k, int n,
                          Epilogue epilogue) {
  dispatch().active().direct(a, b, row_bias, c, m, k, n, epilogue);
}

// A ([K,M]) is repacked to [M,K] once; the blocked direct kernel then
// reduces in the same ascending-k order with the same zero skip as the
// reference k-i-j loop.
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  dispatch().active().direct(transposed(a, k, m), b, nullptr, c, m, k, n,
                             Epilogue::kNone);
}

// Columns past the last full sliver (all of them when n is below one
// sliver) run on a zero-padded sliver with the same per-element reduction.
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  dispatch().active().dot(a, b, nullptr, c, m, k, n, Epilogue::kNone);
}

void gemm_a_bt_bias(const float* a, const float* b, const float* col_bias,
                    float* c, int m, int k, int n, Epilogue epilogue) {
  dispatch().active().dot(a, b, col_bias, c, m, k, n, epilogue);
}

void conv_forward(const float* w, const float* x, const ConvShape& s,
                  const float* row_bias, float* out, Epilogue epilogue) {
  dispatch().active().conv_forward(w, x, s, row_bias, out, epilogue);
}

void conv_weight_grad(const float* dout, const float* x, const ConvShape& s,
                      float* grad_w) {
  dispatch().active().conv_weight_grad(dout, x, s, grad_w);
}

// W^T [rows, F], as gemm_at_b_accumulate's repack, so the kernel walks one
// im2col row's weights contiguously.
void conv_input_grad(const float* w, const float* dout, const ConvShape& s,
                     float* grad_x) {
  dispatch().active().conv_input_grad(transposed(w, s.filters, s.rows()), dout,
                                      s, grad_x);
}

// ------------------------------------------------------- naive references

namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  // i-k-j loop order: streams through B and C rows; good cache behaviour for
  // the (small-M, large-N) shapes im2col produces.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // quantized weights are often exactly zero
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[M,N] += A^T B with A stored [K,M].
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    const float* brow = b + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  // C[M,N] += A B^T with B stored [N,K]: dot products of rows.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

}  // namespace ref

}  // namespace adapex::kernels
