// Numeric kernels: GEMM, convolution (implicit im2col), pooling, batch
// normalization, activations, softmax, and their backward passes.
//
// Forward/backward pairs implement exactly the math the nn layer graph needs
// for quantization-aware training. All kernels are single-threaded and
// deterministic; convolution is unpadded with stride 1 (the CNV topology the
// paper evaluates uses only 3x3 valid convolutions).
//
// The GEMMs route through the blocked, vectorized kernel layer in
// tensor/kernels.hpp, which is byte-identical to the naive references it
// replaced (see the determinism contract there and DESIGN.md "Kernel
// layer").

#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace adapex::ops {

/// Output spatial size of an unpadded convolution/pool: floor((in-k)/s)+1.
int out_dim(int in, int kernel, int stride);

/// im2col for one image: input [C,H,W] -> col [C*kh*kw, oh*ow], stride 1,
/// no padding. The conv ops never build this panel; it is the reference
/// form their kernels are tested against.
void im2col(const float* img, int channels, int height, int width, int kernel,
            float* col);

/// col2im scatter-accumulate (the adjoint of im2col).
void col2im_accumulate(const float* col, int channels, int height, int width,
                       int kernel, float* img);

/// Convolution forward. input [N,C,H,W], weight [F,C,k,k], bias [F] (may be
/// empty), output [N,F,oh,ow]. The kernels pack the im2col operand straight
/// from the input (kernels::conv_forward); no im2col panel is built. With
/// fuse_relu the ReLU is applied in the GEMM epilogue — bit-identical to
/// conv2d_forward followed by relu_forward, without the extra pass.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, bool fuse_relu = false);

/// Convolution backward: fills grad_input (same shape as input), accumulates
/// into grad_weight/grad_bias. With need_input_grad == false grad_input is
/// left untouched and its GEMM and scatter are skipped; the weight and bias
/// gradients are bit-identical.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias,
                     bool need_input_grad = true);

/// Linear forward: input [N,In], weight [Out,In], bias [Out] -> [N,Out].
/// With fuse_relu the ReLU is applied in the GEMM epilogue — bit-identical
/// to linear_forward followed by relu_forward, without the extra pass.
Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, bool fuse_relu = false);

/// Linear backward.
void linear_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor& grad_input,
                     Tensor& grad_weight, Tensor& grad_bias);

/// Max-pool forward with kernel k and stride s; records argmax indices for
/// the backward pass (flat index into the input's HxW plane).
Tensor maxpool_forward(const Tensor& input, int kernel, int stride,
                       std::vector<int>& argmax);

/// Max-pool backward using recorded argmax indices.
Tensor maxpool_backward(const Tensor& input, const Tensor& grad_output,
                        int kernel, int stride, const std::vector<int>& argmax);

/// ReLU forward (elementwise max(0, x)).
Tensor relu_forward(const Tensor& input);

/// ReLU backward: passes gradient where input > 0.
Tensor relu_backward(const Tensor& input, const Tensor& grad_output);

/// Row-wise softmax of logits [N,K].
Tensor softmax(const Tensor& logits);

/// Mean cross-entropy loss of logits [N,K] against labels[N]; also returns
/// dLoss/dlogits in grad (same shape as logits), already divided by N.
double cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                     Tensor& grad);

}  // namespace adapex::ops
