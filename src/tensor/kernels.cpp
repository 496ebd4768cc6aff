// Blocked GEMM kernel layer: ISA-tiered bodies + runtime dispatch.
//
// kernels_core.inl is compiled three times below — SSE2 (the x86-64
// baseline every build targets), AVX2, and AVX-512 — via `#pragma GCC
// target` regions, and common/isa_dispatch.hpp picks the widest tier the
// host CPU supports at first use. All tiers perform identical float
// operations in identical per-element order (this translation unit is built
// with -ffp-contract=off, see src/CMakeLists.txt), so the dispatch choice
// never changes results — it only changes how many independent output
// columns one instruction covers.

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

/// Per-thread scratch for the A^T repack of gemm_at_b_accumulate and
/// conv_input_grad.
float* transpose_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
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
  int nr;  // sliver width: narrower direct GEMMs take the scalar kernel
};

#define ADAPEX_KERNEL_TIER(tier, probe)                                     \
  {#tier, probe, &tier::tier_gemm_direct, &tier::tier_gemm_dot,             \
   &tier::tier_conv_forward, &tier::tier_conv_weight_grad,                  \
   &tier::tier_conv_input_grad, tier::kNR}

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

// ---------------------------------------------------------- adaptive dispatch

// The blocked direct kernels only win when at least one full-width sliver
// engages and the zero-skip is not carrying the load: packing a B panel
// costs a full K x N sweep no matter how many A elements are exactly zero.
// Quantized (W2A2) and pruned weights make the latter common — a naive
// i-k-j loop that skips a whole
// N-wide B-row sweep per zero beats the blocked kernel outright on an 85%
// pruned layer — so the public entry points fall back to a scalar kernel
// with the identical per-element reduction order (see the kernels.hpp
// contract; results are byte-identical either way). The density crossover
// was measured on the tiny-scale CNV conv shapes; the A scan it needs is
// M x K loads against a 2 x M x K x N flop kernel, i.e. noise.
constexpr float kMinBlockedDensity = 0.3f;

bool blocked_profitable(const float* a, std::size_t len, int n, int nr) {
  if (n < nr) return false;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < len; ++i) nnz += a[i] != 0.0f ? 1u : 0u;
  return static_cast<float>(nnz) >=
         kMinBlockedDensity * static_cast<float>(len);
}

// Scalar direct kernel with the fused bias/ReLU epilogues: the reference
// i-k-j order (ascending k per element, exact-zero skip), bias seeding the
// row before the k loop and ReLU applied after it — the same per-element
// operation sequence as the blocked micro-kernels.
void scalar_direct(const float* a, const float* b, const float* row_bias,
                   float* c, int m, int k, int n, Epilogue epilogue) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (row_bias != nullptr) {
      for (int j = 0; j < n; ++j) crow[j] = row_bias[i];
    }
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
    if (epilogue == Epilogue::kRelu) {
      for (int j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
    }
  }
}

// scalar_direct over the implicit im2col operand of `s` (kernels.hpp), one
// im2col row at a time: the row is gathered from the images through a table
// of its columns' pixel offsets, then every filter's nonzero weight on it is
// applied. Interchanging the independent filter loop with the row loop keeps
// each element's order: bias, terms in ascending row order with the zero
// skip, then the ReLU.
void scalar_conv_forward(const float* w, const float* x, const ConvShape& s,
                         const float* row_bias, float* out,
                         Epilogue epilogue) {
  const int rows = s.rows(), n = s.cols();
  const int ow = s.out_w(), patch = s.patch();
  thread_local std::vector<std::size_t> offsets;
  offsets.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const int p = j % patch;
    offsets[static_cast<std::size_t>(j)] =
        static_cast<std::size_t>(j / patch) * s.image_size() +
        static_cast<std::size_t>(p / ow) * s.width + p % ow;
  }
  if (row_bias != nullptr) {
    for (int f = 0; f < s.filters; ++f) {
      std::fill_n(out + static_cast<std::size_t>(f) * n, n, row_bias[f]);
    }
  }
  float* brow = tile_scratch(static_cast<std::size_t>(n));
  RowWalk walk(s, 0);
  for (int r = 0; r < rows; ++r, walk.next()) {
    const float* src = x + walk.offset();
    for (int j = 0; j < n; ++j) brow[j] = src[offsets[j]];
    for (int f = 0; f < s.filters; ++f) {
      const float av = w[static_cast<std::size_t>(f) * rows + r];
      if (av == 0.0f) continue;
      float* crow = out + static_cast<std::size_t>(f) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  if (epilogue == Epilogue::kRelu) {
    const std::size_t len = static_cast<std::size_t>(s.filters) * n;
    for (std::size_t j = 0; j < len; ++j) {
      out[j] = out[j] > 0.0f ? out[j] : 0.0f;
    }
  }
}

// ref::gemm_at_b_accumulate into a zero row followed by col2im, one im2col
// row at a time: the row's terms in ascending filter order with the zero
// skip, then its scatter-add. wt is W^T [rows, F]; a group's dOut blocks are
// laid side by side first so each term is one contiguous pass.
void scalar_conv_input_grad(const float* wt, const float* dout,
                            const ConvShape& s, float* grad_x) {
  const int rows = s.rows(), n = s.cols(), patch = s.patch(), f = s.filters;
  float* row = tile_scratch(static_cast<std::size_t>(f + 1) * n);
  float* panel = row + n;
  if (s.images > 1) {
    for (int fi = 0; fi < f; ++fi) {
      for (int i = 0; i < s.images; ++i) {
        std::memcpy(panel + static_cast<std::size_t>(fi) * n +
                        static_cast<std::size_t>(i) * patch,
                    dout + (static_cast<std::size_t>(i) * f + fi) * patch,
                    sizeof(float) * patch);
      }
    }
    dout = panel;
  }
  RowWalk walk(s, 0);
  for (int r = 0; r < rows; ++r, walk.next()) {
    std::fill_n(row, n, 0.0f);
    const float* wrow = wt + static_cast<std::size_t>(r) * f;
    for (int fi = 0; fi < f; ++fi) {
      const float av = wrow[fi];
      if (av == 0.0f) continue;
      const float* drow = dout + static_cast<std::size_t>(fi) * n;
      for (int j = 0; j < n; ++j) row[j] += av * drow[j];
    }
    col2im_row(row, walk.offset(), s, grad_x);
  }
}

}  // namespace

const char* active_isa() { return dispatch().active().name; }

void force_isa(const char* name) { dispatch().force(name); }

// ------------------------------------------------------------ public kernels

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  const KernelTable& t = dispatch().active();
  if (!blocked_profitable(a, static_cast<std::size_t>(m) * k, n, t.nr)) {
    scalar_direct(a, b, nullptr, c, m, k, n, Epilogue::kNone);
    return;
  }
  t.direct(a, b, nullptr, c, m, k, n, Epilogue::kNone);
}

void gemm_bias_accumulate(const float* a, const float* b,
                          const float* row_bias, float* c, int m, int k, int n,
                          Epilogue epilogue) {
  const KernelTable& t = dispatch().active();
  if (!blocked_profitable(a, static_cast<std::size_t>(m) * k, n, t.nr)) {
    scalar_direct(a, b, row_bias, c, m, k, n, epilogue);
    return;
  }
  t.direct(a, b, row_bias, c, m, k, n, epilogue);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n) {
  const KernelTable& t = dispatch().active();
  if (!blocked_profitable(a, static_cast<std::size_t>(k) * m, n, t.nr)) {
    ref::gemm_at_b_accumulate(a, b, c, m, k, n);
    return;
  }
  // One-time packed transpose of A ([K,M] -> [M,K]); the blocked direct
  // kernel then reduces in the same ascending-k order with the same zero
  // skip as the reference k-i-j loop.
  float* at = transpose_scratch(static_cast<std::size_t>(m) * k);
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::size_t>(kk) * m;
    for (int i = 0; i < m; ++i) {
      at[static_cast<std::size_t>(i) * k + kk] = arow[i];
    }
  }
  t.direct(at, b, nullptr, c, m, k, n, Epilogue::kNone);
}

// The dot kernels need no adaptive gate: columns past the last full sliver
// (all of them when n is below one sliver) run on a zero-padded sliver with
// the same per-element reduction, and the dot form has no zero skip for
// sparsity to feed.
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
  const KernelTable& t = dispatch().active();
  if (!blocked_profitable(w, static_cast<std::size_t>(s.filters) * s.rows(),
                          s.cols(), t.nr)) {
    scalar_conv_forward(w, x, s, row_bias, out, epilogue);
    return;
  }
  t.conv_forward(w, x, s, row_bias, out, epilogue);
}

void conv_weight_grad(const float* dout, const float* x, const ConvShape& s,
                      float* grad_w) {
  dispatch().active().conv_weight_grad(dout, x, s, grad_w);
}

void conv_input_grad(const float* w, const float* dout, const ConvShape& s,
                     float* grad_x) {
  const KernelTable& t = dispatch().active();
  const int rows = s.rows(), f = s.filters;
  // W^T [rows, F], as gemm_at_b_accumulate's repack: both paths walk one
  // im2col row's weights contiguously.
  float* wt = transpose_scratch(static_cast<std::size_t>(rows) * f);
  for (int kk = 0; kk < f; ++kk) {
    const float* wrow = w + static_cast<std::size_t>(kk) * rows;
    for (int i = 0; i < rows; ++i) {
      wt[static_cast<std::size_t>(i) * f + kk] = wrow[i];
    }
  }
  if (!blocked_profitable(w, static_cast<std::size_t>(f) * rows, s.cols(),
                          t.nr)) {
    scalar_conv_input_grad(wt, dout, s, grad_x);
    return;
  }
  t.conv_input_grad(wt, dout, s, grad_x);
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
