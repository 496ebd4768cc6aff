// Blocked, vectorized GEMM micro-kernels with fused epilogues.
//
// This is the performance layer under tensor/ops.hpp: cache-blocked,
// register-tiled GEMM kernels with B-panel packing and a j-vectorized inner
// loop (compiler auto-vectorization over contiguous output columns). The
// implementation is compiled three times — SSE2 baseline, AVX2, AVX-512 —
// and the widest variant the host supports is selected once at runtime
// (common/isa_dispatch.hpp), so default (non -march=native) builds still use
// wide vectors.
//
// Determinism contract (see DESIGN.md "Kernel layer"): every kernel performs
//, per output element, exactly the same sequence of float operations as the
// naive reference implementation in kernels::ref —
//   * gemm_accumulate / gemm_at_b_accumulate: the element's running value
//     lives in C; products are added in ascending-k order; terms whose A
//     operand is exactly 0.0f are skipped.
//   * gemm_a_bt_accumulate: a fresh accumulator starts at 0, sums products
//     in ascending-k order with no zero skip, and is added to C once.
// Blocking/tiling only regroups *independent* output elements (i/j), never
// the per-element reduction, and the translation unit is built with
// -ffp-contract=off so no variant fuses multiply+add. Results are therefore
// byte-identical to the reference at any block size, vector width, and
// thread count.
//
// Because the orders are identical, dispatch is free to pick whichever
// implementation is faster per call: the direct kernels fall back to the
// scalar reference form when N is narrower than one sliver or when A is
// mostly exact zeros (pruned/quantized weights), where the naive zero-skip
// beats packing (below the measured 0.3 density crossover). The choice
// never changes the output bytes.

#pragma once

#include <cstddef>

namespace adapex::kernels {

/// Optional activation fused into the final store of a forward GEMM.
enum class Epilogue {
  kNone,
  kRelu,  ///< out = max(0, out), applied after the full k reduction.
};

/// C[M,N] += A[M,K] * B[K,N]. Blocked i-k-j kernel; skips terms where the A
/// operand is exactly zero (quantized weights are often exact zeros).
void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n);

/// gemm_accumulate with a fused bias/activation epilogue: equivalent to
/// filling row i of C with row_bias[i] (when row_bias != nullptr), running
/// gemm_accumulate, then applying the epilogue — without the extra passes.
/// When row_bias == nullptr, C's existing contents seed the accumulation.
void gemm_bias_accumulate(const float* a, const float* b,
                          const float* row_bias, float* c, int m, int k, int n,
                          Epilogue epilogue);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored [K,M]. Same per-element
/// semantics as gemm_accumulate (ascending k, zero skip); implemented as a
/// one-time packed transpose of A followed by the blocked i-k-j kernel, so
/// the reduction order is unchanged.
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

/// C[M,N] += A[M,K] * B^T[K,N] where B is stored [N,K] (row dot products).
/// Each element's accumulator starts at zero, sums in ascending-k order
/// without a zero skip, and is added to C once — exactly the reference
/// reduction — vectorized across independent output columns via a packed
/// transpose of the B panel.
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

/// gemm_a_bt_accumulate with a fused column-bias/activation epilogue:
/// out[i][j] = epilogue(col_bias[j] + dot) when col_bias != nullptr
/// (overwrites C), else epilogue(C[i][j] + dot).
void gemm_a_bt_bias(const float* a, const float* b, const float* col_bias,
                    float* c, int m, int k, int n, Epilogue epilogue);

/// Name of the dispatched implementation: "avx512", "avx2", or "sse2".
const char* active_isa();

/// Forces a specific implementation tier ("avx512" | "avx2" | "sse2"), e.g.
/// to verify cross-tier byte-identity in tests. Throws ConfigError when the
/// name is unknown or the host lacks the ISA. Not thread-safe: call only
/// while no kernel is running. The ADAPEX_KERNEL_ISA environment variable
/// applies the same override at first use.
void force_isa(const char* name);

/// Naive reference kernels — the exact pre-blocking implementations, kept
/// for differential tests and benchmark baselines.
namespace ref {

void gemm_accumulate(const float* a, const float* b, float* c, int m, int k,
                     int n);
void gemm_at_b_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);
void gemm_a_bt_accumulate(const float* a, const float* b, float* c, int m,
                          int k, int n);

}  // namespace ref

}  // namespace adapex::kernels
