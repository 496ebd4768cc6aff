#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/kernels.hpp"

namespace adapex::ops {

int out_dim(int in, int kernel, int stride) {
  ADAPEX_CHECK(kernel >= 1 && stride >= 1 && in >= kernel,
               "invalid pooling/conv geometry");
  return (in - kernel) / stride + 1;
}

namespace {

// Convolutions whose output plane is narrower than one register sliver of
// the widest kernel tier would run one latency-bound narrow GEMM per image
// (conv5/conv6 of CNV: 3x3 and 1x1 planes). They instead treat a group of
// images as one GEMM of about kGroupCols columns, which bounds the grouped
// output panel at F*kGroupCols floats. The batch is split into equal
// groups, so no short last group falls back to a narrow GEMM. Grouping only
// regroups independent output columns, never a per-element reduction.
constexpr std::size_t kNarrowPatch = 64;
constexpr std::size_t kGroupCols = 256;

int image_group(int batch, std::size_t patch) {
  if (patch >= kNarrowPatch || batch <= 1) return 1;
  const int max_group =
      static_cast<int>(std::max<std::size_t>(1, kGroupCols / patch));
  const int groups = (batch + max_group - 1) / max_group;
  return (batch + groups - 1) / groups;
}

kernels::ConvShape conv_shape(const Tensor& input, const Tensor& weight,
                              int images) {
  return {images,       input.dim(1),  input.dim(2),
          input.dim(3), weight.dim(2), weight.dim(0)};
}

}  // namespace

void im2col(const float* img, int channels, int height, int width, int kernel,
            float* col) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  for (int c = 0; c < channels; ++c) {
    const float* plane = img + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        for (int y = 0; y < oh; ++y) {
          std::memcpy(col, plane + static_cast<std::size_t>(y + ky) * width + kx,
                      static_cast<std::size_t>(ow) * sizeof(float));
          col += ow;
        }
      }
    }
  }
}

void col2im_accumulate(const float* col, int channels, int height, int width,
                       int kernel, float* img) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  for (int c = 0; c < channels; ++c) {
    float* plane = img + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        for (int y = 0; y < oh; ++y) {
          float* dst = plane + static_cast<std::size_t>(y + ky) * width + kx;
          for (int x = 0; x < ow; ++x) dst[x] += col[x];
          col += ow;
        }
      }
    }
  }
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, bool fuse_relu) {
  ADAPEX_CHECK(input.ndim() == 4, "conv2d input must be [N,C,H,W]");
  ADAPEX_CHECK(weight.ndim() == 4, "conv2d weight must be [F,C,k,k]");
  const int batch = input.dim(0), cin = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int fout = weight.dim(0), k = weight.dim(2);
  ADAPEX_CHECK(weight.dim(1) == cin, "conv2d channel mismatch: input has " +
                                         std::to_string(cin) + " channels");
  ADAPEX_CHECK(weight.dim(2) == weight.dim(3), "conv2d kernel must be square");
  const int oh = out_dim(h, k, 1), ow = out_dim(w, k, 1);
  const std::size_t patch = static_cast<std::size_t>(oh) * ow;
  const std::size_t image = static_cast<std::size_t>(cin) * h * w;
  const int group = image_group(batch, patch);
  // A single image's [F, oh*ow] block of `out` already has the output
  // panel's layout and is written in place; a multi-image group's panel is
  // per-thread scratch, scattered to the images' blocks afterwards.
  thread_local std::vector<float> group_out;
  if (group > 1) {
    group_out.resize(static_cast<std::size_t>(fout) * group * patch);
  }

  Tensor out({batch, fout, oh, ow});
  const auto epilogue =
      fuse_relu ? kernels::Epilogue::kRelu : kernels::Epilogue::kNone;
  for (int n0 = 0; n0 < batch; n0 += group) {
    const int g = std::min(group, batch - n0);
    const std::size_t cols = static_cast<std::size_t>(g) * patch;
    float* optr = out.data() + static_cast<std::size_t>(n0) * fout * patch;
    float* cptr = g == 1 ? optr : group_out.data();
    if (g > 1 && bias.empty()) std::fill_n(cptr, fout * cols, 0.0f);
    // Bias broadcast and (optionally) ReLU are fused into the kernel's
    // accumulate/store instead of separate fill/activation passes.
    kernels::conv_forward(weight.data(), input.data() + n0 * image,
                          conv_shape(input, weight, g),
                          bias.empty() ? nullptr : bias.data(), cptr,
                          epilogue);
    if (g == 1) continue;
    // Scatter the [F, g*oh*ow] panel to the images' [F, oh*ow] blocks.
    for (int i = 0; i < g; ++i) {
      float* dst = optr + static_cast<std::size_t>(i) * fout * patch;
      for (int f = 0; f < fout; ++f) {
        std::memcpy(dst + static_cast<std::size_t>(f) * patch,
                    cptr + static_cast<std::size_t>(f) * cols + i * patch,
                    patch * sizeof(float));
      }
    }
  }
  return out;
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     bool need_input_grad) {
  const int batch = input.dim(0), cin = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int fout = weight.dim(0), k = weight.dim(2);
  const std::size_t patch =
      static_cast<std::size_t>(out_dim(h, k, 1)) * out_dim(w, k, 1);
  const std::size_t image = static_cast<std::size_t>(cin) * h * w;
  // dW += dOut * col^T: one fresh dot per image, added in ascending image
  // order (the reduction order is part of the contract; see DESIGN.md).
  kernels::conv_weight_grad(grad_output.data(), input.data(),
                            conv_shape(input, weight, batch),
                            grad_weight.data());
  if (!grad_bias.empty()) {
    for (int n = 0; n < batch; ++n) {
      const float* dout =
          grad_output.data() + static_cast<std::size_t>(n) * fout * patch;
      for (int f = 0; f < fout; ++f) {
        const float* drow = dout + static_cast<std::size_t>(f) * patch;
        float acc = 0.0f;
        for (std::size_t p = 0; p < patch; ++p) acc += drow[p];
        grad_bias[static_cast<std::size_t>(f)] += acc;
      }
    }
  }
  if (!need_input_grad) return;
  // dX = col2im(W^T * dOut) per group of narrow-plane images.
  grad_input = Tensor(input.shape());
  const int group = image_group(batch, patch);
  for (int n0 = 0; n0 < batch; n0 += group) {
    const int g = std::min(group, batch - n0);
    kernels::conv_input_grad(
        weight.data(),
        grad_output.data() + static_cast<std::size_t>(n0) * fout * patch,
        conv_shape(input, weight, g), grad_input.data() + n0 * image);
  }
}

Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, bool fuse_relu) {
  ADAPEX_CHECK(input.ndim() == 2, "linear input must be [N,In]");
  const int batch = input.dim(0), in = input.dim(1), out = weight.dim(0);
  ADAPEX_CHECK(weight.dim(1) == in,
               "linear weight expects " + std::to_string(weight.dim(1)) +
                   " inputs, got " + std::to_string(in));
  Tensor y({batch, out});
  // y = epilogue(bias + x * W^T): the bias broadcast (and optional ReLU) is
  // fused into the kernel's store instead of a separate fill pass.
  kernels::gemm_a_bt_bias(
      input.data(), weight.data(), bias.empty() ? nullptr : bias.data(),
      y.data(), batch, in, out,
      fuse_relu ? kernels::Epilogue::kRelu : kernels::Epilogue::kNone);
  return y;
}

void linear_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias) {
  const int batch = input.dim(0), in = input.dim(1), out = weight.dim(0);
  grad_input = Tensor(input.shape());
  // dX = dY * W
  kernels::gemm_accumulate(grad_output.data(), weight.data(),
                           grad_input.data(), batch, out, in);
  // dW += dY^T * X
  kernels::gemm_at_b_accumulate(grad_output.data(), input.data(),
                                grad_weight.data(), out, batch, in);
  if (!grad_bias.empty()) {
    for (int n = 0; n < batch; ++n) {
      for (int f = 0; f < out; ++f) {
        grad_bias[static_cast<std::size_t>(f)] += grad_output.at2(n, f);
      }
    }
  }
}

Tensor maxpool_forward(const Tensor& input, int kernel, int stride,
                       std::vector<int>& argmax) {
  const int batch = input.dim(0), ch = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = out_dim(h, kernel, stride), ow = out_dim(w, kernel, stride);
  Tensor out({batch, ch, oh, ow});
  argmax.assign(out.numel(), 0);
  std::size_t oi = 0;
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < ch; ++c) {
      const float* plane =
          input.data() + (static_cast<std::size_t>(n) * ch + c) * h * w;
      if (kernel == 2 && stride == 2) {
        // Fast path for the pool shape the CNV topology uses everywhere:
        // hoist the two row pointers and the flat base index out of the
        // window scan. Same scan order ((ky,kx) ascending) and same strict
        // `>` compare against a -inf start as the generic path, so values
        // and argmax ties are bit-identical.
        for (int y = 0; y < oh; ++y) {
          const int iy0 = 2 * y;
          const float* r0 = plane + static_cast<std::size_t>(iy0) * w;
          const float* r1 = r0 + w;
          for (int x = 0; x < ow; ++x) {
            const int ix0 = 2 * x;
            const int base = iy0 * w + ix0;
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = 0;
            if (r0[ix0] > best) { best = r0[ix0]; best_idx = base; }
            if (r0[ix0 + 1] > best) { best = r0[ix0 + 1]; best_idx = base + 1; }
            if (r1[ix0] > best) { best = r1[ix0]; best_idx = base + w; }
            if (r1[ix0 + 1] > best) {
              best = r1[ix0 + 1];
              best_idx = base + w + 1;
            }
            out[oi] = best;
            argmax[oi] = best_idx;
            ++oi;
          }
        }
        continue;
      }
      for (int y = 0; y < oh; ++y) {
        const int iy0 = y * stride;
        for (int x = 0; x < ow; ++x) {
          const int ix0 = x * stride;
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          const float* wrow = plane + static_cast<std::size_t>(iy0) * w + ix0;
          int rowbase = iy0 * w + ix0;
          for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
              if (wrow[kx] > best) {
                best = wrow[kx];
                best_idx = rowbase + kx;
              }
            }
            wrow += w;
            rowbase += w;
          }
          out[oi] = best;
          argmax[oi] = best_idx;
          ++oi;
        }
      }
    }
  }
  return out;
}

Tensor maxpool_backward(const Tensor& input, const Tensor& grad_output,
                        int kernel, int stride,
                        const std::vector<int>& argmax) {
  const int batch = input.dim(0), ch = input.dim(1), h = input.dim(2),
            w = input.dim(3);
  const int oh = out_dim(h, kernel, stride), ow = out_dim(w, kernel, stride);
  ADAPEX_ASSERT(argmax.size() == grad_output.numel());
  Tensor grad_input(input.shape());
  std::size_t oi = 0;
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < ch; ++c) {
      float* plane =
          grad_input.data() + (static_cast<std::size_t>(n) * ch + c) * h * w;
      for (int i = 0; i < oh * ow; ++i, ++oi) {
        plane[argmax[oi]] += grad_output[oi];
      }
    }
  }
  return grad_input;
}

Tensor relu_forward(const Tensor& input) {
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return out;
}

Tensor relu_backward(const Tensor& input, const Tensor& grad_output) {
  Tensor grad(input.shape());
  for (std::size_t i = 0; i < input.numel(); ++i) {
    grad[i] = input[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad;
}

Tensor softmax(const Tensor& logits) {
  ADAPEX_CHECK(logits.ndim() == 2, "softmax expects [N,K] logits");
  const int batch = logits.dim(0), k = logits.dim(1);
  Tensor out(logits.shape());
  for (int n = 0; n < batch; ++n) {
    float maxv = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < k; ++j) maxv = std::max(maxv, logits.at2(n, j));
    double denom = 0.0;
    for (int j = 0; j < k; ++j) {
      const float e = std::exp(logits.at2(n, j) - maxv);
      out.at2(n, j) = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int j = 0; j < k; ++j) out.at2(n, j) *= inv;
  }
  return out;
}

double cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                     Tensor& grad) {
  const int batch = logits.dim(0), k = logits.dim(1);
  ADAPEX_CHECK(static_cast<int>(labels.size()) == batch,
               "labels size must equal batch size");
  grad = softmax(logits);
  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(batch);
  for (int n = 0; n < batch; ++n) {
    const int y = labels[static_cast<std::size_t>(n)];
    ADAPEX_CHECK(y >= 0 && y < k, "label out of range");
    const float p = std::max(grad.at2(n, y), 1e-12f);
    loss -= std::log(p);
    grad.at2(n, y) -= 1.0f;
  }
  grad.scale_(invn);
  return loss / batch;
}

}  // namespace adapex::ops
