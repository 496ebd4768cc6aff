// Differential tests for the blocked kernel layer (tensor/kernels.hpp):
// on every ISA tier the host supports, every blocked kernel must be
// byte-identical to the retained naive reference at awkward shapes and
// fused epilogues must equal their unfused compositions bit for bit; all
// tiers must agree with each other, and the end-to-end
// train -> eval pipeline must be byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "model/cnv.hpp"
#include "nn/eval.hpp"
#include "nn/trainer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace adapex {
namespace {

// Shapes chosen to exercise every tail path of the blocked kernels: smaller
// than one register tile, exact tile multiples, one-past multiples, primes,
// degenerate single rows/columns, and k larger than the cache block.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 5, 7},    {4, 8, 8},
    {4, 16, 32}, {5, 17, 33},  {7, 129, 65}, {8, 256, 64}, {9, 257, 129},
    {1, 300, 9}, {13, 31, 97}, {16, 64, 96}, {33, 10, 31},
    // Dot-kernel column tails at the conv weight-gradient widths (cin*9 =
    // 27, 108) and around one AVX-512 sliver, with m not a multiple of any
    // tier's kMR.
    {5, 900, 27}, {7, 784, 44}, {13, 100, 63}, {11, 9, 65}, {9, 144, 108},
    // One-vector tails: conv2's weight gradient at cin 16 (n = 16 past
    // 128), the 10-class classifier (n = 10), and a pruned cin-8 gradient.
    {12, 784, 16}, {16, 96, 10}, {7, 784, 8},
};

std::vector<float> random_matrix(std::size_t len, std::uint64_t seed,
                                 bool inject_zeros) {
  Rng rng(seed);
  std::vector<float> out(len);
  for (auto& v : out) {
    // uniform01 in [0,1): shift to be sign-varied.
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    // ~25% exact zeros to exercise the zero-skip path (quantized weights).
    if (inject_zeros && rng.bernoulli(0.25)) v = 0.0f;
  }
  return out;
}

/// Runs `body` once per ISA tier the host supports, restoring the tier.
template <typename Fn>
void for_each_isa(Fn&& body) {
  const std::string initial = kernels::active_isa();
  for (const char* isa : {"sse2", "avx2", "avx512"}) {
    try {
      kernels::force_isa(isa);
    } catch (const ConfigError&) {
      continue;  // host lacks this tier
    }
    body(isa);
  }
  kernels::force_isa(initial.c_str());
}

TEST(Kernels, GemmAccumulateMatchesReferenceBitwise) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 11, true);
      const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 22, false);
      // Nonzero initial C: accumulate semantics, not overwrite.
      auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 33, false);
      auto c_blk = c_ref;
      kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), s.m, s.k,
                                    s.n);
      kernels::gemm_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k, s.n);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

TEST(Kernels, GemmAtBMatchesReferenceBitwise) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      // A stored [K,M].
      const auto a = random_matrix(static_cast<std::size_t>(s.k) * s.m, 44, true);
      const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 55, false);
      auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 66, false);
      auto c_blk = c_ref;
      kernels::ref::gemm_at_b_accumulate(a.data(), b.data(), c_ref.data(), s.m,
                                         s.k, s.n);
      kernels::gemm_at_b_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k,
                                    s.n);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

TEST(Kernels, GemmABtMatchesReferenceBitwise) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 77, false);
      // B stored [N,K].
      const auto b = random_matrix(static_cast<std::size_t>(s.n) * s.k, 88, false);
      // Nonzero initial C is the important case: the dot kernel must keep the
      // reference's "fresh accumulator, then one add into C" order, which is
      // NOT equivalent to seeding the accumulator with C.
      auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 99, false);
      auto c_blk = c_ref;
      kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c_ref.data(), s.m,
                                         s.k, s.n);
      kernels::gemm_a_bt_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k,
                                    s.n);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

// ~90% exact zeros in A: the blocked kernels' zero skip drops most terms of
// every element, and the output bytes must still equal the reference's.
TEST(Kernels, SparseWeightsMatchReferenceBitwise) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      Rng zrng(1234);
      auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 111, false);
      for (auto& v : a) {
        if (zrng.bernoulli(0.9)) v = 0.0f;
      }
      const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 112, false);
      const auto bias = random_matrix(static_cast<std::size_t>(s.m), 113, false);
      auto c_ref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 114, false);
      auto c_blk = c_ref;
      kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), s.m, s.k,
                                    s.n);
      kernels::gemm_accumulate(a.data(), b.data(), c_blk.data(), s.m, s.k, s.n);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_blk.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;

      // Fused bias+relu with the same sparse A.
      std::vector<float> c_fref(static_cast<std::size_t>(s.m) * s.n);
      for (int i = 0; i < s.m; ++i) {
        for (int j = 0; j < s.n; ++j) {
          c_fref[static_cast<std::size_t>(i) * s.n + j] =
              bias[static_cast<std::size_t>(i)];
        }
      }
      kernels::ref::gemm_accumulate(a.data(), b.data(), c_fref.data(), s.m, s.k,
                                    s.n);
      for (auto& v : c_fref) v = v > 0.0f ? v : 0.0f;
      std::vector<float> c_fused(static_cast<std::size_t>(s.m) * s.n, -1.0f);
      kernels::gemm_bias_accumulate(a.data(), b.data(), bias.data(),
                                    c_fused.data(), s.m, s.k, s.n,
                                    kernels::Epilogue::kRelu);
      ASSERT_EQ(0, std::memcmp(c_fref.data(), c_fused.data(),
                               c_fref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;

      // A^T B with sparse A ([K,M]), repacked before the blocked kernel.
      const auto at = random_matrix(static_cast<std::size_t>(s.k) * s.m, 115, false);
      auto at_sparse = at;
      Rng zrng2(5678);
      for (auto& v : at_sparse) {
        if (zrng2.bernoulli(0.9)) v = 0.0f;
      }
      auto c_tref = random_matrix(static_cast<std::size_t>(s.m) * s.n, 116, false);
      auto c_tblk = c_tref;
      kernels::ref::gemm_at_b_accumulate(at_sparse.data(), b.data(),
                                         c_tref.data(), s.m, s.k, s.n);
      kernels::gemm_at_b_accumulate(at_sparse.data(), b.data(), c_tblk.data(),
                                    s.m, s.k, s.n);
      ASSERT_EQ(0, std::memcmp(c_tref.data(), c_tblk.data(),
                               c_tref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

TEST(Kernels, FusedRowBiasEpilogueMatchesComposition) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 101, true);
      const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 102, false);
      const auto bias = random_matrix(static_cast<std::size_t>(s.m), 103, false);
      // Composition: fill rows with bias, then plain accumulate, then relu.
      std::vector<float> c_ref(static_cast<std::size_t>(s.m) * s.n);
      for (int i = 0; i < s.m; ++i) {
        for (int j = 0; j < s.n; ++j) {
          c_ref[static_cast<std::size_t>(i) * s.n + j] =
              bias[static_cast<std::size_t>(i)];
        }
      }
      kernels::ref::gemm_accumulate(a.data(), b.data(), c_ref.data(), s.m, s.k,
                                    s.n);
      for (auto& v : c_ref) v = v > 0.0f ? v : 0.0f;

      std::vector<float> c_fused(static_cast<std::size_t>(s.m) * s.n, -1.0f);
      kernels::gemm_bias_accumulate(a.data(), b.data(), bias.data(),
                                    c_fused.data(), s.m, s.k, s.n,
                                    kernels::Epilogue::kRelu);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_fused.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

TEST(Kernels, FusedColBiasEpilogueMatchesComposition) {
  for_each_isa([](const char* isa) {
    for (const auto& s : kShapes) {
      const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 201, false);
      const auto b = random_matrix(static_cast<std::size_t>(s.n) * s.k, 202, false);
      const auto bias = random_matrix(static_cast<std::size_t>(s.n), 203, false);
      std::vector<float> c_ref(static_cast<std::size_t>(s.m) * s.n);
      for (int i = 0; i < s.m; ++i) {
        for (int j = 0; j < s.n; ++j) {
          c_ref[static_cast<std::size_t>(i) * s.n + j] =
              bias[static_cast<std::size_t>(j)];
        }
      }
      kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c_ref.data(), s.m,
                                         s.k, s.n);
      for (auto& v : c_ref) v = v > 0.0f ? v : 0.0f;

      std::vector<float> c_fused(static_cast<std::size_t>(s.m) * s.n, -1.0f);
      kernels::gemm_a_bt_bias(a.data(), b.data(), bias.data(), c_fused.data(),
                              s.m, s.k, s.n, kernels::Epilogue::kRelu);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_fused.data(),
                               c_ref.size() * sizeof(float)))
          << isa << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
  });
}

TEST(Kernels, AllSupportedIsaTiersAgreeBitwise) {
  const Shape s{9, 257, 129};
  const auto a = random_matrix(static_cast<std::size_t>(s.m) * s.k, 301, true);
  const auto b = random_matrix(static_cast<std::size_t>(s.k) * s.n, 302, false);
  const auto bt = random_matrix(static_cast<std::size_t>(s.n) * s.k, 303, false);
  const auto c0 = random_matrix(static_cast<std::size_t>(s.m) * s.n, 304, false);

  std::vector<std::vector<float>> direct_results;
  std::vector<std::vector<float>> dot_results;
  for_each_isa([&](const char* /*isa*/) {
    auto c_direct = c0;
    kernels::gemm_accumulate(a.data(), b.data(), c_direct.data(), s.m, s.k,
                             s.n);
    direct_results.push_back(std::move(c_direct));
    auto c_dot = c0;
    kernels::gemm_a_bt_accumulate(a.data(), bt.data(), c_dot.data(), s.m, s.k,
                                  s.n);
    dot_results.push_back(std::move(c_dot));
  });

  ASSERT_GE(direct_results.size(), 1u);  // sse2 is always supported
  for (std::size_t i = 1; i < direct_results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(direct_results[0].data(),
                             direct_results[i].data(),
                             direct_results[0].size() * sizeof(float)));
    EXPECT_EQ(0,
              std::memcmp(dot_results[0].data(), dot_results[i].data(),
                          dot_results[0].size() * sizeof(float)));
  }
}

TEST(Kernels, ForceIsaRejectsUnknownName) {
  EXPECT_THROW(kernels::force_isa("avx9000"), ConfigError);
  EXPECT_THROW(kernels::force_isa(nullptr), Error);
}

TEST(Kernels, MaxpoolMatchesNaiveReferenceWithArgmax) {
  Rng rng(7);
  for (const auto [h, w, kernel, stride] :
       {std::array<int, 4>{8, 8, 2, 2}, std::array<int, 4>{9, 7, 2, 2},
        std::array<int, 4>{8, 8, 3, 1}, std::array<int, 4>{11, 5, 3, 2}}) {
    Tensor x({2, 3, h, w});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      if (rng.bernoulli(0.2)) x[i] = 0.5f;  // ties exercise argmax order
    }
    std::vector<int> argmax;
    Tensor out = ops::maxpool_forward(x, kernel, stride, argmax);

    // Naive reference: the original unhoisted scan.
    const int oh = ops::out_dim(h, kernel, stride);
    const int ow = ops::out_dim(w, kernel, stride);
    std::size_t oi = 0;
    for (int n = 0; n < 2; ++n) {
      for (int c = 0; c < 3; ++c) {
        const float* plane =
            x.data() + (static_cast<std::size_t>(n) * 3 + c) * h * w;
        for (int y = 0; y < oh; ++y) {
          for (int xx = 0; xx < ow; ++xx) {
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = 0;
            for (int ky = 0; ky < kernel; ++ky) {
              for (int kx = 0; kx < kernel; ++kx) {
                const int idx = (y * stride + ky) * w + (xx * stride + kx);
                if (plane[idx] > best) {
                  best = plane[idx];
                  best_idx = idx;
                }
              }
            }
            ASSERT_EQ(best, out[oi]) << "k=" << kernel << " s=" << stride;
            ASSERT_EQ(best_idx, argmax[oi]) << "k=" << kernel
                                            << " s=" << stride;
            ++oi;
          }
        }
      }
    }
  }
}

TEST(Kernels, AugmentImageIntoMatchesAugmentImage) {
  Rng fill(5);
  Tensor img({3, 16, 16});
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(fill.uniform());
  }
  for (bool flip : {false, true}) {
    // Same seed on both sides: the draws (dx, dy, flip) must line up.
    Rng rng_a(99), rng_b(99);
    for (int round = 0; round < 8; ++round) {
      Tensor via_tensor = augment_image(img, flip, rng_a);
      std::vector<float> via_span(img.numel());
      augment_image_into(img.data(), via_span.data(), 3, 16, 16, flip, rng_b);
      ASSERT_EQ(0, std::memcmp(via_tensor.data(), via_span.data(),
                               via_span.size() * sizeof(float)));
    }
  }
}

TEST(Kernels, FusedForwardOpsMatchUnfusedCompositionBitwise) {
  Rng rng(21);
  Tensor x({2, 3, 12, 12});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  Tensor wt({5, 3, 3, 3});
  wt.randn_(rng, 0.5f);
  Tensor bias({5});
  bias.randn_(rng, 0.5f);
  Tensor plain = ops::relu_forward(ops::conv2d_forward(x, wt, bias));
  Tensor fused = ops::conv2d_forward(x, wt, bias, /*fuse_relu=*/true);
  ASSERT_EQ(plain.shape(), fused.shape());
  EXPECT_EQ(0, std::memcmp(plain.data(), fused.data(),
                           plain.numel() * sizeof(float)));

  Tensor xl({4, 30});
  for (std::size_t i = 0; i < xl.numel(); ++i) {
    xl[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  Tensor wl({9, 30});
  wl.randn_(rng, 0.5f);
  Tensor bl({9});
  bl.randn_(rng, 0.5f);
  Tensor lplain = ops::relu_forward(ops::linear_forward(xl, wl, bl));
  Tensor lfused = ops::linear_forward(xl, wl, bl, /*fuse_relu=*/true);
  ASSERT_EQ(lplain.shape(), lfused.shape());
  EXPECT_EQ(0, std::memcmp(lplain.data(), lfused.data(),
                           lplain.numel() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Training-step differential suite: conv2d_forward / conv2d_backward against
// a per-image composition of the naive kernels::ref GEMMs, bit for bit, at
// the tiny-CNV layer shapes, on every ISA tier the host supports.

struct ConvCase {
  int batch, cin, hw, fout;  // 3x3 kernel: output plane (hw-2)^2
};
// Output planes 900, 784, 144, 100, 9 and 1 (the tiny CNV's conv1..conv6),
// cin*9 of 27, 108, 216 and 432, batches 1, 3, 16 and 32, and a batch of 29
// whose narrow-plane image groups come out uneven.
const ConvCase kConvCases[] = {
    {3, 3, 32, 12},  {1, 12, 30, 12}, {3, 12, 14, 24}, {16, 24, 12, 24},
    {32, 48, 5, 48}, {16, 48, 3, 48}, {3, 24, 5, 17},  {32, 48, 3, 10},
    {1, 3, 5, 7},    {3, 12, 3, 5},   {16, 24, 3, 24}, {1, 48, 5, 9},
    {29, 12, 5, 7},
};

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed,
                     double zero_fraction) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.bernoulli(zero_fraction)
               ? 0.0f
               : static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// One image at a time: im2col, bias fill, ref GEMM, then ReLU.
Tensor ref_conv_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                        bool relu) {
  const int batch = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int fout = w.dim(0), k = w.dim(2), kdim = cin * k * k;
  const int oh = h - k + 1, ow = wd - k + 1;
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  std::vector<float> col(static_cast<std::size_t>(kdim) * patch);
  Tensor out({batch, fout, oh, ow});
  for (int n = 0; n < batch; ++n) {
    ops::im2col(x.data() + static_cast<std::size_t>(n) * cin * h * wd, cin, h,
                wd, k, col.data());
    float* c = out.data() + static_cast<std::size_t>(n) * fout * patch;
    if (!bias.empty()) {
      for (int f = 0; f < fout; ++f) {
        std::fill_n(c + static_cast<std::size_t>(f) * patch, patch,
                    bias[static_cast<std::size_t>(f)]);
      }
    }
    kernels::ref::gemm_accumulate(w.data(), col.data(), c, fout, kdim,
                                  static_cast<int>(patch));
    if (relu) {
      for (std::size_t i = 0; i < fout * patch; ++i) c[i] = c[i] > 0.0f ? c[i] : 0.0f;
    }
  }
  return out;
}

/// One image at a time: dW += dOut col^T, dcol = W^T dOut then col2im, and
/// the bias row sums, each accumulated in ascending image order.
void ref_conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                       Tensor& dx, Tensor& dw, Tensor& db) {
  const int batch = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int fout = w.dim(0), k = w.dim(2), kdim = cin * k * k;
  const std::size_t patch =
      static_cast<std::size_t>(h - k + 1) * static_cast<std::size_t>(wd - k + 1);
  std::vector<float> col(static_cast<std::size_t>(kdim) * patch);
  std::vector<float> dcol(col.size());
  dx = Tensor(x.shape());
  for (int n = 0; n < batch; ++n) {
    const std::size_t img = static_cast<std::size_t>(n) * cin * h * wd;
    const float* dout = dy.data() + static_cast<std::size_t>(n) * fout * patch;
    ops::im2col(x.data() + img, cin, h, wd, k, col.data());
    kernels::ref::gemm_a_bt_accumulate(dout, col.data(), dw.data(), fout,
                                       static_cast<int>(patch), kdim);
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    kernels::ref::gemm_at_b_accumulate(w.data(), dout, dcol.data(), kdim,
                                       fout, static_cast<int>(patch));
    ops::col2im_accumulate(dcol.data(), cin, h, wd, k, dx.data() + img);
    for (int f = 0; f < fout; ++f) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < patch; ++p) {
        acc += dout[static_cast<std::size_t>(f) * patch + p];
      }
      db[static_cast<std::size_t>(f)] += acc;
    }
  }
}

TEST(Kernels, ConvForwardMatchesPerImageReferenceBitwise) {
  for_each_isa([](const char* isa) {
    std::uint64_t seed = 500;
    for (const auto& cc : kConvCases) {
      // ~40% exact-zero weights exercise the zero skip.
      const Tensor x = random_tensor({cc.batch, cc.cin, cc.hw, cc.hw}, ++seed, 0.1);
      const Tensor w = random_tensor({cc.fout, cc.cin, 3, 3}, ++seed, 0.4);
      const Tensor bias = random_tensor({cc.fout}, ++seed, 0.0);
      for (const bool with_bias : {false, true}) {
        for (const bool relu : {false, true}) {
          const Tensor& b = with_bias ? bias : Tensor();
          const Tensor got = ops::conv2d_forward(x, w, b, relu);
          ASSERT_TRUE(same_bits(ref_conv_forward(x, w, b, relu), got))
              << isa << " batch=" << cc.batch << " cin=" << cc.cin
              << " hw=" << cc.hw << " bias=" << with_bias << " relu=" << relu;
        }
      }
    }
  });
}

TEST(Kernels, ConvBackwardMatchesPerImageReferenceBitwise) {
  for_each_isa([](const char* isa) {
    std::uint64_t seed = 700;
    for (const auto& cc : kConvCases) {
      const int o = cc.hw - 2;
      const Tensor x = random_tensor({cc.batch, cc.cin, cc.hw, cc.hw}, ++seed, 0.1);
      const Tensor w = random_tensor({cc.fout, cc.cin, 3, 3}, ++seed, 0.4);
      const Tensor dy = random_tensor({cc.batch, cc.fout, o, o}, ++seed, 0.2);
      // Nonzero starting gradients: backward accumulates into them.
      const Tensor dw0 = random_tensor(w.shape(), ++seed, 0.0);
      const Tensor db0 = random_tensor({cc.fout}, ++seed, 0.0);

      Tensor dx_ref, dw_ref = dw0, db_ref = db0;
      ref_conv_backward(x, w, dy, dx_ref, dw_ref, db_ref);

      Tensor dx, dw = dw0, db = db0;
      ops::conv2d_backward(x, w, dy, dx, dw, db);
      ASSERT_TRUE(same_bits(dx_ref, dx)) << isa << " dx batch=" << cc.batch
                                         << " cin=" << cc.cin << " hw=" << cc.hw;
      ASSERT_TRUE(same_bits(dw_ref, dw)) << isa << " dW batch=" << cc.batch
                                         << " cin=" << cc.cin << " hw=" << cc.hw;
      ASSERT_TRUE(same_bits(db_ref, db)) << isa << " db batch=" << cc.batch
                                         << " cin=" << cc.cin << " hw=" << cc.hw;

      // Skipping the input gradient leaves dx untouched and the parameter
      // gradients bit-identical.
      Tensor dx_skip({1}), dw_skip = dw0, db_skip = db0;
      ops::conv2d_backward(x, w, dy, dx_skip, dw_skip, db_skip,
                           /*need_input_grad=*/false);
      EXPECT_EQ(dx_skip.shape(), std::vector<int>{1});
      ASSERT_TRUE(same_bits(dw_ref, dw_skip)) << isa << " batch=" << cc.batch;
      ASSERT_TRUE(same_bits(db_ref, db_skip)) << isa << " batch=" << cc.batch;
    }
  });
}

// The channel counts the pruning sweep produces, on every tier, with and
// without narrow-plane image grouping, and with 40% and 85% zero weights.
// The weight-gradient rows cin*9 = 27, 36, 72, 144, 180 and 252 end in tail
// slivers of every width (16/32/48/64 on avx512). Filter 0 is all zeros with
// a -0.0 bias, so a kernel that seeds its accumulators by adding to 0.0f
// instead of copying the bias shows.
TEST(Kernels, ConvPrunedChannelsMatchPerImageReferenceBitwise) {
  struct Plane {
    int batch, hw;
  };
  // A 28x28 output (one image per GEMM), then 3x3 and 1x1 outputs whose
  // image groups are 81 and 70 columns wide, past one avx512 sliver, and
  // the narrow planes of a batch of 16 (1x1: 16 columns; 3x3: 144) and of
  // one image (1x1: 1 column), so every tier's forward and input-gradient
  // tails run below one vector, below one sliver and past one sliver.
  const Plane planes[] = {{2, 30}, {9, 5}, {70, 3}, {16, 3}, {16, 5}, {1, 3}};
  for_each_isa([&](const char* isa) {
    std::uint64_t seed = 900;
    for (const int cin : {3, 4, 8, 16, 20, 28}) {
      for (const int fout : {4, 8, 16, 20}) {
        for (const Plane& pl : planes) {
          for (const double zeros : {0.4, 0.85}) {
            const int o = pl.hw - 2;
            const Tensor x =
                random_tensor({pl.batch, cin, pl.hw, pl.hw}, ++seed, 0.1);
            Tensor w = random_tensor({fout, cin, 3, 3}, ++seed, zeros);
            std::fill_n(w.data(), cin * 9, 0.0f);
            Tensor bias = random_tensor({fout}, ++seed, 0.0);
            bias[0] = -0.0f;
            const std::string where =
                std::string(isa) + " cin=" + std::to_string(cin) +
                " fout=" + std::to_string(fout) +
                " hw=" + std::to_string(pl.hw) +
                " zeros=" + std::to_string(zeros);
            for (const bool relu : {false, true}) {
              ASSERT_TRUE(same_bits(ref_conv_forward(x, w, bias, relu),
                                    ops::conv2d_forward(x, w, bias, relu)))
                  << where << " relu=" << relu;
            }

            const Tensor dy =
                random_tensor({pl.batch, fout, o, o}, ++seed, 0.2);
            const Tensor dw0 = random_tensor(w.shape(), ++seed, 0.0);
            const Tensor db0 = random_tensor({fout}, ++seed, 0.0);
            Tensor dx_ref, dw_ref = dw0, db_ref = db0;
            ref_conv_backward(x, w, dy, dx_ref, dw_ref, db_ref);
            Tensor dx, dw = dw0, db = db0;
            ops::conv2d_backward(x, w, dy, dx, dw, db);
            ASSERT_TRUE(same_bits(dx_ref, dx)) << where << " dx";
            ASSERT_TRUE(same_bits(dw_ref, dw)) << where << " dW";
            ASSERT_TRUE(same_bits(db_ref, db)) << where << " db";

            Tensor dx_skip({1}), dw_skip = dw0, db_skip = db0;
            ops::conv2d_backward(x, w, dy, dx_skip, dw_skip, db_skip,
                                 /*need_input_grad=*/false);
            EXPECT_EQ(dx_skip.shape(), std::vector<int>{1}) << where;
            ASSERT_TRUE(same_bits(dw_ref, dw_skip)) << where << " dW skip";
            ASSERT_TRUE(same_bits(db_ref, db_skip)) << where << " db skip";
          }
        }
      }
    }
  });
}

// BranchyModel::backward skips the model input's gradient (block 0's first
// conv runs backward_params); every parameter gradient must still equal a
// full layer-by-layer backward through every layer, bit for bit.
TEST(Kernels, BranchyBackwardMatchesFullLayerByLayerBackward) {
  Rng rng(17);
  CnvConfig cfg = CnvConfig{}.scaled(0.1875);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  BranchyModel full = model.clone();
  const Tensor x = random_tensor({5, 3, 32, 32}, 18, 0.0);
  const auto logits = model.forward(x, true);
  const auto logits_full = full.forward(x, true);
  std::vector<Tensor> grads;
  for (std::size_t o = 0; o < logits.size(); ++o) {
    ASSERT_TRUE(same_bits(logits[o], logits_full[o]));
    grads.push_back(random_tensor(logits[o].shape(), 19 + o, 0.0));
  }
  model.backward(grads);

  auto backward_all = [](Sequential& seq, Tensor g) {
    for (std::size_t i = seq.size(); i-- > 0;) g = seq.layer(i).backward(g);
    return g;
  };
  std::vector<Tensor> exit_grad(full.num_exits());
  for (std::size_t e = 0; e < full.num_exits(); ++e) {
    exit_grad[e] = backward_all(*full.exit(e).head, grads[e]);
  }
  Tensor g = grads.back();
  for (int b = static_cast<int>(full.num_blocks()) - 1; b >= 0; --b) {
    for (std::size_t e = 0; e < full.num_exits(); ++e) {
      if (full.exit(e).after_block == b) g.add_(exit_grad[e]);
    }
    g = backward_all(full.block(static_cast<std::size_t>(b)), g);
  }
  EXPECT_EQ(g.shape(), x.shape());

  const auto got = model.params();
  const auto want = full.params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_TRUE(same_bits(want[p]->grad, got[p]->grad)) << "param " << p;
  }
}

// End-to-end keystone: a seeded train -> eval pipeline must produce
// byte-identical evaluation records whether the eval runs serially or across
// worker threads (the batch grid and per-batch math are thread-invariant).
TEST(Kernels, TrainEvalByteIdenticalAcrossThreadCounts) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 60;
  spec.test_size = 50;
  SyntheticDataset data = make_synthetic(spec);

  Rng rng(42);
  CnvConfig cfg = CnvConfig{}.scaled(0.125);
  cfg.num_classes = spec.num_classes;
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  train_model(model, data.train, spec.flip_symmetry, tc);

  const auto serial = evaluate_exits(model, data.test, 16, /*num_threads=*/1);
  for (int threads : {2, 4}) {
    const auto parallel = evaluate_exits(model, data.test, 16, threads);
    ASSERT_EQ(serial.confidence.size(), parallel.confidence.size());
    for (std::size_t s = 0; s < serial.confidence.size(); ++s) {
      ASSERT_EQ(0, std::memcmp(serial.confidence[s].data(),
                               parallel.confidence[s].data(),
                               serial.confidence[s].size() * sizeof(float)))
          << "threads=" << threads << " sample=" << s;
      ASSERT_TRUE(serial.correct[s] == parallel.correct[s]);
    }
  }
}

}  // namespace
}  // namespace adapex
