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

/// Per-thread scratch for the A^T repack of gemm_at_b_accumulate.
float* transpose_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
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
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
}  // namespace sse2

#ifdef ADAPEX_ISA_MULTIVERSION
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#define ADAPEX_K_MR 6
#define ADAPEX_K_NR 16
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512bw,avx512dq")
namespace avx512 {
#define ADAPEX_K_MR 4
#define ADAPEX_K_NR 64
#include "tensor/kernels_core.inl"
#undef ADAPEX_K_MR
#undef ADAPEX_K_NR
}  // namespace avx512
#pragma GCC pop_options
#endif  // ADAPEX_ISA_MULTIVERSION

// ----------------------------------------------------------------- dispatch

namespace {

using GemmDirectFn = void (*)(const float*, const float*, const float*,
                              float*, int, int, int, Epilogue);
using GemmDotFn = void (*)(const float*, const float*, const float*, float*,
                           int, int, int, Epilogue);

struct KernelTable {
  const char* name;
  bool (*supported)();
  GemmDirectFn direct;
  GemmDotFn dot;
  int nr;  // sliver width: narrower direct GEMMs take the scalar kernel
};

constexpr KernelTable kTiers[] = {
#ifdef ADAPEX_ISA_MULTIVERSION
    {"avx512", &isa::has_avx512, &avx512::tier_gemm_direct,
     &avx512::tier_gemm_dot, avx512::kNR},
    {"avx2", &isa::has_avx2, &avx2::tier_gemm_direct, &avx2::tier_gemm_dot,
     avx2::kNR},
#endif
    {"sse2", &isa::baseline, &sse2::tier_gemm_direct, &sse2::tier_gemm_dot,
     sse2::kNR},
};

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
