// Unit tests for the tensor type and numeric kernels, including numerical
// gradient checks of every backward pass against finite differences.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace adapex {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 2u * 3 * 4 * 5);
  EXPECT_EQ(t.ndim(), 4);
  t.at4(1, 2, 3, 4) = 7.5f;
  EXPECT_FLOAT_EQ(t[t.numel() - 1], 7.5f);
  EXPECT_FLOAT_EQ(t.at4(0, 0, 0, 0), 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.dim(1), 4);
  for (std::size_t i = 0; i < r.numel(); ++i) {
    EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
  }
}

TEST(Tensor, ReshapeRejectsWrongCount) {
  Tensor t({2, 6});
  EXPECT_THROW(t.reshaped({5, 5}), Error);
}

TEST(Tensor, AddAndScale) {
  Tensor a({3});
  Tensor b({3});
  a[0] = 1; a[1] = 2; a[2] = 3;
  b[0] = 10; b[1] = 20; b[2] = 30;
  a.add_(b);
  a.scale_(0.5f);
  EXPECT_FLOAT_EQ(a[0], 5.5f);
  EXPECT_FLOAT_EQ(a[2], 16.5f);
}

TEST(Tensor, AddShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a.add_(b), Error);
}

TEST(Ops, OutDim) {
  EXPECT_EQ(ops::out_dim(32, 3, 1), 30);
  EXPECT_EQ(ops::out_dim(28, 2, 2), 14);
  EXPECT_EQ(ops::out_dim(12, 7, 7), 1);
  EXPECT_THROW(ops::out_dim(2, 3, 1), Error);
}

TEST(Ops, GemmMatchesManual) {
  // A[2,3] * B[3,2]
  std::vector<float> a = {1, 2, 3, 4, 5, 6};
  std::vector<float> b = {7, 8, 9, 10, 11, 12};
  std::vector<float> c(4, 0.0f);
  kernels::gemm_accumulate(a.data(), b.data(), c.data(), 2, 3, 2);
  EXPECT_FLOAT_EQ(c[0], 58);
  EXPECT_FLOAT_EQ(c[1], 64);
  EXPECT_FLOAT_EQ(c[2], 139);
  EXPECT_FLOAT_EQ(c[3], 154);
}

TEST(Ops, GemmTransposedVariantsAgree) {
  Rng rng(7);
  const int m = 4, k = 5, n = 3;
  std::vector<float> a(m * k), b(k * n), at(k * m), bt(n * k);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) {
      a[i * k + j] = static_cast<float>(rng.normal());
      at[j * m + i] = a[i * k + j];
    }
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) {
      b[i * n + j] = static_cast<float>(rng.normal());
      bt[j * k + i] = b[i * n + j];
    }
  }
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f), c3(m * n, 0.0f);
  kernels::gemm_accumulate(a.data(), b.data(), c1.data(), m, k, n);
  kernels::gemm_at_b_accumulate(at.data(), b.data(), c2.data(), m, k, n);
  kernels::gemm_a_bt_accumulate(a.data(), bt.data(), c3.data(), m, k, n);
  for (int i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-5f);
    EXPECT_NEAR(c1[i], c3[i], 1e-5f);
  }
}

TEST(Ops, Im2ColRoundTripAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the adjoint property that makes the
  // conv backward correct.
  Rng rng(11);
  const int c = 2, h = 6, w = 6, k = 3;
  const int oh = h - k + 1, ow = w - k + 1;
  Tensor x({c, h, w});
  x.randn_(rng, 1.0f);
  std::vector<float> col(static_cast<std::size_t>(c * k * k) * oh * ow);
  ops::im2col(x.data(), c, h, w, k, col.data());
  std::vector<float> y(col.size());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  Tensor back({c, h, w});
  ops::col2im_accumulate(y.data(), c, h, w, k, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) lhs += static_cast<double>(col[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, ConvForwardMatchesDirectLoop) {
  Rng rng(3);
  const int n = 2, cin = 3, h = 5, w = 5, f = 4, k = 3;
  Tensor x({n, cin, h, w});
  x.randn_(rng, 1.0f);
  Tensor wt({f, cin, k, k});
  wt.randn_(rng, 0.5f);
  Tensor bias({f});
  bias.randn_(rng, 0.1f);
  Tensor y = ops::conv2d_forward(x, wt, bias);
  ASSERT_EQ(y.shape(), (std::vector<int>{n, f, 3, 3}));
  for (int ni = 0; ni < n; ++ni) {
    for (int fi = 0; fi < f; ++fi) {
      for (int oy = 0; oy < 3; ++oy) {
        for (int ox = 0; ox < 3; ++ox) {
          double acc = bias[static_cast<std::size_t>(fi)];
          for (int ci = 0; ci < cin; ++ci) {
            for (int ky = 0; ky < k; ++ky) {
              for (int kx = 0; kx < k; ++kx) {
                acc += static_cast<double>(x.at4(ni, ci, oy + ky, ox + kx)) *
                       wt.at4(fi, ci, ky, kx);
              }
            }
          }
          EXPECT_NEAR(y.at4(ni, fi, oy, ox), acc, 1e-4);
        }
      }
    }
  }
}

TEST(Ops, ConvBackwardGradcheck) {
  Rng rng(5);
  const int n = 1, cin = 2, h = 5, w = 5, f = 3, k = 3;
  Tensor x({n, cin, h, w});
  x.randn_(rng, 1.0f);
  Tensor wt({f, cin, k, k});
  wt.randn_(rng, 0.5f);
  Tensor bias;

  // Loss = sum(conv(x, w)); analytic gradients.
  Tensor y = ops::conv2d_forward(x, wt, bias);
  Tensor dy(y.shape());
  dy.fill(1.0f);
  Tensor dx, dw(wt.shape()), db;
  ops::conv2d_backward(x, wt, dy, dx, dw, db);

  // Finite differences on a handful of elements of x and w.
  const float eps = 1e-3f;
  auto loss_of = [&](void) {
    Tensor out = ops::conv2d_forward(x, wt, bias);
    return out.sum();
  };
  for (std::size_t i : {0ul, 7ul, 23ul, x.numel() - 1}) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of();
    x[i] = orig - eps;
    const double lm = loss_of();
    x[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), dx[i], 2e-2) << "dx at " << i;
  }
  for (std::size_t i : {0ul, 11ul, wt.numel() - 1}) {
    const float orig = wt[i];
    wt[i] = orig + eps;
    const double lp = loss_of();
    wt[i] = orig - eps;
    const double lm = loss_of();
    wt[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), dw[i], 2e-2) << "dw at " << i;
  }
}

TEST(Ops, LinearBackwardGradcheck) {
  Rng rng(9);
  const int n = 3, in = 4, out = 2;
  Tensor x({n, in});
  x.randn_(rng, 1.0f);
  Tensor wt({out, in});
  wt.randn_(rng, 0.5f);
  Tensor bias;
  Tensor y = ops::linear_forward(x, wt, bias);
  Tensor dy(y.shape());
  dy.fill(1.0f);
  Tensor dx, dw(wt.shape()), db;
  ops::linear_backward(x, wt, dy, dx, dw, db);

  const float eps = 1e-3f;
  auto loss_of = [&](void) { return ops::linear_forward(x, wt, bias).sum(); };
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of();
    x[i] = orig - eps;
    const double lm = loss_of();
    x[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), dx[i], 1e-2);
  }
  for (std::size_t i = 0; i < wt.numel(); ++i) {
    const float orig = wt[i];
    wt[i] = orig + eps;
    const double lp = loss_of();
    wt[i] = orig - eps;
    const double lm = loss_of();
    wt[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), dw[i], 1e-2);
  }
}

TEST(Ops, MaxPoolForwardBackward) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<int> argmax;
  Tensor y = ops::maxpool_forward(x, 2, 2, argmax);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 5);
  EXPECT_FLOAT_EQ(y[1], 7);
  EXPECT_FLOAT_EQ(y[2], 13);
  EXPECT_FLOAT_EQ(y[3], 15);
  Tensor dy(y.shape());
  dy.fill(1.0f);
  Tensor dx = ops::maxpool_backward(x, dy, 2, 2, argmax);
  EXPECT_FLOAT_EQ(dx[5], 1.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[15], 1.0f);
  double total = dx.sum();
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(2);
  Tensor logits({4, 10});
  logits.randn_(rng, 3.0f);
  Tensor p = ops::softmax(logits);
  for (int n = 0; n < 4; ++n) {
    double s = 0.0;
    for (int k = 0; k < 10; ++k) {
      EXPECT_GE(p.at2(n, k), 0.0f);
      s += p.at2(n, k);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000.0f;
  logits[1] = 999.0f;
  logits[2] = -1000.0f;
  Tensor p = ops::softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[0], p[1]);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-5);
}

TEST(Ops, CrossEntropyGradcheck) {
  Rng rng(13);
  Tensor logits({3, 5});
  logits.randn_(rng, 1.0f);
  std::vector<int> labels = {0, 3, 4};
  Tensor grad;
  const double loss = ops::cross_entropy(logits, labels, grad);
  EXPECT_GT(loss, 0.0);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor g;
    const float orig = logits[i];
    logits[i] = orig + eps;
    const double lp = ops::cross_entropy(logits, labels, g);
    logits[i] = orig - eps;
    const double lm = ops::cross_entropy(logits, labels, g);
    logits[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), grad[i], 1e-3);
  }
}

TEST(Ops, CrossEntropyPerfectPredictionLowLoss) {
  Tensor logits({1, 3});
  logits[0] = 20.0f;
  logits[1] = 0.0f;
  logits[2] = 0.0f;
  Tensor grad;
  EXPECT_LT(ops::cross_entropy(logits, {0}, grad), 1e-6);
}

}  // namespace
}  // namespace adapex
