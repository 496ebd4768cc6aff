#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "nn/branchy.hpp"
#include "tensor/ops.hpp"

namespace adapex {

int signed_qmax(int bits) {
  ADAPEX_CHECK(bits >= 2 && bits <= 8, "signed quantization needs 2..8 bits");
  return (1 << (bits - 1)) - 1;
}

namespace {

/// Ternary (TWN-style) quantization of one weight row, shared between the
/// fake-quant forward and freeze_packed so both see the same codes and
/// scale: threshold at 0.7 * mean|w| (the scale is the mean magnitude of
/// the survivors — far better conditioned for training than max-abs
/// scaling, which zeroes ~60% of a Gaussian weight tensor and over-weights
/// outliers). Fills `codes` with {-1, 0, +1} and returns the per-row alpha
/// (0 when the row dies, in which case every code is 0).
float ternary_row(const float* src, std::size_t n, std::int8_t* codes) {
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_abs += std::abs(src[i]);
  mean_abs /= static_cast<double>(n);
  const float delta = static_cast<float>(0.7 * mean_abs);
  if (delta < 1e-12f) {
    std::fill(codes, codes + n, std::int8_t{0});
    return 0.0f;
  }
  double alpha = 0.0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(src[i]) > delta) {
      alpha += std::abs(src[i]);
      ++survivors;
      codes[i] = src[i] > 0 ? std::int8_t{1} : std::int8_t{-1};
    } else {
      codes[i] = 0;
    }
  }
  return survivors > 0 ? static_cast<float>(alpha / survivors) : 0.0f;
}

}  // namespace

void quantize_weight_per_channel(const Tensor& weight, int bits, Tensor& out) {
  out = Tensor(weight.shape());
  if (bits <= 0) {
    out = weight;
    return;
  }
  const int qmax = signed_qmax(bits);
  const int rows = weight.dim(0);
  const std::size_t per_row = weight.numel() / static_cast<std::size_t>(rows);
  std::vector<std::int8_t> codes(bits == 2 ? per_row : 0);
  for (int r = 0; r < rows; ++r) {
    const float* src = weight.data() + static_cast<std::size_t>(r) * per_row;
    float* dst = out.data() + static_cast<std::size_t>(r) * per_row;
    if (bits == 2) {
      const float a = ternary_row(src, per_row, codes.data());
      for (std::size_t i = 0; i < per_row; ++i) {
        dst[i] = codes[i] > 0 ? a : (codes[i] < 0 ? -a : 0.0f);
      }
      continue;
    }
    float maxabs = 0.0f;
    for (std::size_t i = 0; i < per_row; ++i) {
      maxabs = std::max(maxabs, std::abs(src[i]));
    }
    if (maxabs < 1e-12f) {
      std::fill(dst, dst + per_row, 0.0f);
      continue;
    }
    const float scale = maxabs / static_cast<float>(qmax);
    for (std::size_t i = 0; i < per_row; ++i) {
      const float q = std::round(src[i] / scale);
      dst[i] = scale * std::clamp(q, -static_cast<float>(qmax),
                                  static_cast<float>(qmax));
    }
  }
}

// The ActQuantizer loops are written branch-free, as value selects over
// unconditional loads with no libm call, so the compiler if-converts and
// vectorizes them. Each per-element result is bit-identical to the scalar
// form std::clamp / std::round / short-circuit `&&` spell, including for
// +-0, subnormals, NaN and +-Inf (tests/test_nn.cpp pins this).

Tensor ActQuantizer::forward(const Tensor& input, bool train) {
  const float* x = input.data();
  const std::size_t len = input.numel();
  if (train || !initialized_) {
    // max(0, max_i x_i) over the non-NaN inputs in independent lanes, then
    // across lanes: `acc < v ? v : acc` never lets a NaN in and only a
    // strictly larger value replaces +0, so the lane split cannot change
    // the result of the serial std::max scan.
    constexpr std::size_t kLanes = 16;
    float lane[kLanes] = {};
    std::size_t i = 0;
    for (; i + kLanes <= len; i += kLanes) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        lane[j] = lane[j] < x[i + j] ? x[i + j] : lane[j];
      }
    }
    float batch_max = 0.0f;
    for (; i < len; ++i) batch_max = batch_max < x[i] ? x[i] : batch_max;
    for (const float v : lane) batch_max = batch_max < v ? v : batch_max;
    if (batch_max > 1e-12f) {
      constexpr float kMomentum = 0.1f;
      scale_ = initialized_ ? (1.0f - kMomentum) * scale_ + kMomentum * batch_max
                            : batch_max;
      initialized_ = true;
    }
  }
  Tensor out(input.shape());
  float* y = out.data();
  const float s = std::max(scale_, 1e-12f);
  if (bits_ <= 0) {
    // Quantization disabled: plain ReLU (std::max(x, 0): NaN and -0 pass).
    for (std::size_t i = 0; i < len; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
    return out;
  }
  const float levels = static_cast<float>((1 << bits_) - 1);
  for (std::size_t i = 0; i < len; ++i) {
    // std::clamp(x, 0, s), as values.
    float v = x[i] < 0.0f ? 0.0f : x[i];
    v = s < v ? s : v;
    const float q = v / s * levels;  // in [0, levels], or -0 or NaN
    // std::round(q) for q >= 0: truncate through int (exact, q < 2^31; the
    // select keeps NaN out of the conversion), then round the half away
    // from zero — q - t is exact, so 0.49999997f stays below the tie.
    // q <= +0, NaN and -0 keep q itself, as round() does.
    const float qs = q > 0.0f ? q : 0.0f;
    const float t = static_cast<float>(static_cast<int>(qs));
    const float r = qs - t >= 0.5f ? t + 1.0f : t;
    y[i] = (q > 0.0f ? r : q) / levels * s;
  }
  return out;
}

Tensor ActQuantizer::backward(const Tensor& input,
                              const Tensor& grad_output) const {
  Tensor grad(input.shape());
  const float s = std::max(scale_, 1e-12f);
  const float* x = input.data();
  const float* g = grad_output.data();
  float* dx = grad.data();
  const std::size_t len = input.numel();
  // STE window (0, s), or (0, inf] with quantization disabled; `&` rather
  // than `&&` so both compares and the gradient load are unconditional.
  if (bits_ <= 0) {
    for (std::size_t i = 0; i < len; ++i) {
      const float gi = g[i];
      dx[i] = x[i] > 0.0f ? gi : 0.0f;
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      const float gi = g[i];
      dx[i] = (x[i] > 0.0f) & (x[i] < s) ? gi : 0.0f;
    }
  }
  return grad;
}

// ------------------------------------------------------------------- freeze

namespace {

/// Walk state threaded through the backbone: whether the data has entered
/// the integer code domain yet, and the code scale (act scale / levels) the
/// next packed layer's weights must be folded with.
struct FreezeState {
  bool packed = false;
  float cs_in = 0.0f;
};

/// Extracts one conv/linear + BatchNorm + ActQuant group (or a bare
/// classifier linear) into a packed stage. `weight` is the latent float
/// tensor; rows = out channels, k = per-row reduction length.
void extract_packed_stage(const Tensor& weight, const BatchNorm* bn,
                          const ActQuant* act, const FreezeState& st,
                          PackedStage& stage) {
  const int rows = weight.dim(0);
  const std::size_t k = weight.numel() / static_cast<std::size_t>(rows);
  std::vector<std::int8_t> codes(static_cast<std::size_t>(rows) * k);
  std::vector<float> alpha(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    alpha[static_cast<std::size_t>(r)] =
        ternary_row(weight.data() + static_cast<std::size_t>(r) * k, k,
                    codes.data() + static_cast<std::size_t>(r) * k);
  }
  packed::pack_weights(codes.data(), rows, static_cast<int>(k),
                       stage.weights);
  stage.scale_a.resize(static_cast<std::size_t>(rows));
  if (bn != nullptr) {
    // Fold alpha, the incoming code scale, and the BN eval affine into one
    // per-row (A, B): BN(x) = g*x + (beta - g*mean) with g = gamma*inv_std,
    // and x = alpha*cs_in*S, so z = (g*alpha*cs_in)*S + (beta - g*mean).
    stage.bias_b.resize(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      const float inv_std =
          1.0f / std::sqrt(bn->running_var()[i] + BatchNorm::kEps);
      const float g = bn->gamma()[i] * inv_std;
      stage.scale_a[i] = g * alpha[i] * st.cs_in;
      stage.bias_b[i] = bn->beta()[i] - g * bn->running_mean()[i];
    }
    stage.act_scale = act->scale();
    stage.act_levels = (1 << act->bits()) - 1;
  } else {
    // Bare classifier: logits = alpha*cs_in*S per row, no shift.
    stage.logits = true;
    for (int r = 0; r < rows; ++r) {
      stage.scale_a[static_cast<std::size_t>(r)] =
          alpha[static_cast<std::size_t>(r)] * st.cs_in;
    }
  }
}

/// Freezes one Sequential (backbone block or exit head). `is_tail` marks a
/// segment that must end in a bare classifier Linear. Appends every
/// violation to `errors`; builds stages into `out` when non-null (errors
/// leave `out` partially built — callers discard it on failure).
void freeze_sequential(const Sequential& seq, const std::string& where,
                       bool is_tail, FreezeState& st,
                       std::vector<std::string>& errors, PackedSegment* out) {
  const auto fail = [&](std::size_t i, const std::string& msg) {
    errors.push_back(where + ", layer " + std::to_string(i) + " (" +
                     seq.layer(i).name() + "): " + msg);
  };
  bool produced_logits = false;
  std::size_t i = 0;
  while (i < seq.size()) {
    const Layer& layer = seq.layer(i);
    const auto* conv = dynamic_cast<const QuantConv2d*>(&layer);
    const auto* lin = dynamic_cast<const QuantLinear*>(&layer);
    if (conv != nullptr || lin != nullptr) {
      const int weight_bits = conv ? conv->weight_bits() : lin->weight_bits();
      const Tensor& weight =
          conv ? conv->weight().value : lin->weight().value;
      if (weight_bits != 2) {
        fail(i, "weight_bits=" + std::to_string(weight_bits) +
                    " (packed path needs W2)");
        return;
      }
      const auto* bn = i + 1 < seq.size()
                           ? dynamic_cast<const BatchNorm*>(&seq.layer(i + 1))
                           : nullptr;
      const auto* act = i + 2 < seq.size()
                            ? dynamic_cast<const ActQuant*>(&seq.layer(i + 2))
                            : nullptr;
      if (bn != nullptr && act != nullptr) {
        if (act->bits() != 2) {
          fail(i + 2, "activation bits=" + std::to_string(act->bits()) +
                          " (packed path needs A2)");
          return;
        }
        if (bn->channels() != weight.dim(0)) {
          fail(i + 1, "BatchNorm channels do not match the producer");
          return;
        }
        if (conv != nullptr && !st.packed) {
          // First compute group overall: the input is a float image, so
          // this group replays in float and emits the first codes.
          if (out != nullptr) {
            PackedStage stage;
            stage.kind = PackedStage::Kind::kFloatFront;
            quantize_weight_per_channel(weight, 2, stage.qweight);
            stage.bn_gamma = bn->gamma();
            stage.bn_beta = bn->beta();
            stage.bn_mean = bn->running_mean();
            stage.bn_var = bn->running_var();
            stage.act_scale = act->scale();
            stage.act_levels = (1 << act->bits()) - 1;
            out->stages.push_back(std::move(stage));
          }
        } else if (!st.packed) {
          fail(i, "the first compute layer must be a convolution on the "
                  "float input");
          return;
        } else if (out != nullptr) {
          PackedStage stage;
          stage.kind = conv != nullptr ? PackedStage::Kind::kConv
                                       : PackedStage::Kind::kLinear;
          if (conv != nullptr) {
            stage.in_channels = conv->in_channels();
            stage.kernel = conv->kernel();
          }
          extract_packed_stage(weight, bn, act, st, stage);
          out->stages.push_back(std::move(stage));
        }
        st.packed = true;
        st.cs_in = std::max(act->scale(), 1e-12f) /
                   static_cast<float>((1 << act->bits()) - 1);
        i += 3;
        continue;
      }
      if (lin != nullptr && is_tail && i + 1 == seq.size()) {
        if (!st.packed) {
          fail(i, "classifier before any quantized activation");
          return;
        }
        if (out != nullptr) {
          PackedStage stage;
          stage.kind = PackedStage::Kind::kLinear;
          extract_packed_stage(weight, nullptr, nullptr, st, stage);
          out->stages.push_back(std::move(stage));
        }
        produced_logits = true;
        i += 1;
        continue;
      }
      fail(i, is_tail ? "not followed by BatchNorm+ActQuant and not the "
                        "closing classifier"
                      : "not followed by BatchNorm+ActQuant");
      return;
    }
    if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
      if (!st.packed) {
        fail(i, "MaxPool before the first quantized activation");
        return;
      }
      if (out != nullptr) {
        PackedStage stage;
        stage.kind = PackedStage::Kind::kMaxPool;
        stage.pool_kernel = pool->kernel();
        stage.pool_stride = pool->stride();
        out->stages.push_back(std::move(stage));
      }
      i += 1;
      continue;
    }
    if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
      if (out != nullptr) {
        PackedStage stage;
        stage.kind = PackedStage::Kind::kFlatten;
        out->stages.push_back(std::move(stage));
      }
      i += 1;
      continue;
    }
    fail(i, "unsupported layer for the packed path");
    return;
  }
  if (is_tail && !produced_logits) {
    errors.push_back(where + ": does not end in a classifier Linear");
  }
}

/// Shared walk behind can_freeze / freeze_packed.
void freeze_walk(const BranchyModel& model, std::vector<std::string>& errors,
                 PackedModel* out) {
  if (model.num_blocks() == 0) {
    errors.push_back("model has no blocks");
    return;
  }
  FreezeState st;
  std::size_t e = 0;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    const bool tail = b + 1 == model.num_blocks();
    PackedSegment seg;
    freeze_sequential(model.block(b), "block " + std::to_string(b), tail, st,
                      errors, out != nullptr ? &seg : nullptr);
    if (out != nullptr) out->blocks.push_back(std::move(seg));
    while (e < model.num_exits() &&
           model.exit(e).after_block == static_cast<int>(b)) {
      // Heads tap the block output codes: freeze them from a snapshot of
      // the walk state so the backbone's cs_in keeps flowing untouched.
      FreezeState hs = st;
      PackedModel::Exit frozen;
      frozen.after_block = model.exit(e).after_block;
      freeze_sequential(*model.exit(e).head, "exit " + std::to_string(e),
                        /*is_tail=*/true, hs, errors,
                        out != nullptr ? &frozen.head : nullptr);
      if (out != nullptr) out->exits.push_back(std::move(frozen));
      ++e;
    }
  }
}

}  // namespace

bool can_freeze(const BranchyModel& model, std::vector<std::string>* reasons) {
  std::vector<std::string> errors;
  freeze_walk(model, errors, nullptr);
  if (reasons != nullptr) {
    reasons->insert(reasons->end(), errors.begin(), errors.end());
  }
  return errors.empty();
}

PackedModel freeze_packed(const BranchyModel& model) {
  std::vector<std::string> errors;
  PackedModel out;
  freeze_walk(model, errors, &out);
  if (!errors.empty()) {
    std::string msg =
        "cannot freeze model for packed inference (rule RQ1): ";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i > 0) msg += "; ";
      msg += errors[i];
    }
    throw ConfigError(msg);
  }
  return out;
}

// ----------------------------------------------------------- packed forward

namespace {

/// Shape-tracking view over a code buffer (the buffers themselves are raw
/// byte pools; Flatten only rewrites the view).
struct CodeView {
  const std::uint8_t* data = nullptr;
  int n = 0, c = 0, h = 0, w = 0;
  std::size_t numel() const {
    return static_cast<std::size_t>(n) * c * h * w;
  }
};

/// Float front: conv + BN + ActQuant replayed exactly as the float path
/// runs them at eval, emitting the activation codes instead of the
/// dequantized values (same round, so the codes are bitwise identical to
/// what the float path's next layer would consume).
void run_float_front(const PackedStage& st, const Tensor& input,
                     std::vector<std::uint8_t>& buf, CodeView& view) {
  static const Tensor kNoBias;
  const Tensor x = ops::conv2d_forward(input, st.qweight, kNoBias);
  const int n = x.dim(0);
  const int f = x.dim(1);
  const std::size_t plane =
      static_cast<std::size_t>(x.dim(2)) * static_cast<std::size_t>(x.dim(3));
  buf.resize(x.numel());
  packed::FrontQuant q;
  q.act_scale = std::max(st.act_scale, 1e-12f);
  q.act_levels = st.act_levels;
  for (int c = 0; c < f; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    q.mean = st.bn_mean[i];
    q.inv_std = 1.0f / std::sqrt(st.bn_var[i] + BatchNorm::kEps);
    q.gamma = st.bn_gamma[i];
    q.beta = st.bn_beta[i];
    for (int b = 0; b < n; ++b) {
      const std::size_t base =
          (static_cast<std::size_t>(b) * f + static_cast<std::size_t>(c)) *
          plane;
      packed::quantize_front(x.data() + base, plane, q, buf.data() + base);
    }
  }
  view = {buf.data(), n, f, x.dim(2), x.dim(3)};
}

/// Order-preserving max pool over codes: the code -> value map is strictly
/// increasing, so the per-window max code selects exactly the element the
/// float path's maxpool_forward picks.
void run_code_maxpool(const PackedStage& st, const CodeView& in,
                      std::vector<std::uint8_t>& buf, CodeView& view) {
  const int oh = ops::out_dim(in.h, st.pool_kernel, st.pool_stride);
  const int ow = ops::out_dim(in.w, st.pool_kernel, st.pool_stride);
  buf.resize(static_cast<std::size_t>(in.n) * in.c * oh * ow);
  packed::maxpool_codes(in.data, in.n * in.c, in.h, in.w, st.pool_kernel,
                        st.pool_stride, buf.data());
  view = {buf.data(), in.n, in.c, oh, ow};
}

/// A conv whose output plane has fewer pixels than this runs one GEMM per
/// group of images with at least this many columns in total, so the GEMM's
/// SIMD column blocks stay full (conv5's 3x3 and conv6's 1x1 planes).
constexpr int kGroupColumns = 64;

/// Packed conv: im2col-pack, popcount GEMM, and fused quantize into
/// [N, rows, oh, ow] codes in `buf`.
void run_packed_conv(const PackedStage& st, const CodeView& in,
                     std::vector<std::uint8_t>& buf, PackedScratch& sc,
                     CodeView& view) {
  const int oh = in.h - st.kernel + 1;
  const int ow = in.w - st.kernel + 1;
  const std::size_t pixels = static_cast<std::size_t>(oh) * ow;
  const int rows = st.weights.rows;
  const std::size_t in_image = static_cast<std::size_t>(in.c) * in.h * in.w;
  const std::size_t out_image = static_cast<std::size_t>(rows) * pixels;
  buf.resize(static_cast<std::size_t>(in.n) * out_image);
  packed::Epilogue e;
  e.mode = packed::Epilogue::Mode::kQuantize;
  e.scale = st.scale_a.data();
  e.bias = st.bias_b.data();
  e.act_scale = std::max(st.act_scale, 1e-12f);
  e.act_levels = st.act_levels;
  e.col_stride = 1;
  const int group = std::min(
      in.n, static_cast<int>((kGroupColumns + pixels - 1) / pixels));
  for (int b0 = 0; b0 < in.n; b0 += group) {
    const int g = std::min(group, in.n - b0);
    packed::pack_activations_im2col(
        in.data + static_cast<std::size_t>(b0) * in_image, g, in.c, in.h,
        in.w, st.kernel, sc.acts);
    std::uint8_t* dst = buf.data() + static_cast<std::size_t>(b0) * out_image;
    if (g == 1) {
      e.codes = dst;
      e.row_stride = pixels;
      packed::popcount_gemm(st.weights, sc.acts, e);
      continue;
    }
    // The grouped GEMM emits [rows, g * pixels]; scatter each image's
    // pixel run back to [g, rows, pixels].
    const std::size_t run = static_cast<std::size_t>(g) * pixels;
    sc.group.resize(static_cast<std::size_t>(rows) * run);
    e.codes = sc.group.data();
    e.row_stride = run;
    packed::popcount_gemm(st.weights, sc.acts, e);
    const std::uint8_t* src = sc.group.data();
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
      for (std::size_t i = 0; i < static_cast<std::size_t>(g); ++i) {
        std::uint8_t* out = dst + i * out_image + r * pixels;
        for (std::size_t p = 0; p < pixels; ++p) out[p] = *src++;
      }
    }
  }
  view = {buf.data(), in.n, rows, oh, ow};
}

/// Runs one frozen segment. `float_in` feeds a leading float-front stage
/// (backbone block 0); otherwise `view` holds the input codes. Returns the
/// logits tensor when the segment ends in a classifier stage (empty
/// otherwise); `view` tracks the segment's code output.
Tensor run_segment(const PackedSegment& seg, const Tensor* float_in,
                   CodeView& view, std::vector<std::uint8_t>& alt0,
                   std::vector<std::uint8_t>& alt1, PackedScratch& sc) {
  // Alternate output buffers; never write the buffer `view` points into
  // (the backbone reuses the same pair across blocks).
  int flip = (view.data != nullptr && !alt0.empty() &&
              view.data >= alt0.data() && view.data < alt0.data() + alt0.size())
                 ? 1
                 : 0;
  const auto out_buf = [&]() -> std::vector<std::uint8_t>& {
    std::vector<std::uint8_t>& b = flip != 0 ? alt1 : alt0;
    flip ^= 1;
    return b;
  };
  Tensor logits;
  for (const PackedStage& st : seg.stages) {
    switch (st.kind) {
      case PackedStage::Kind::kFloatFront: {
        ADAPEX_CHECK(float_in != nullptr,
                     "packed_forward: float front without a float input");
        run_float_front(st, *float_in, out_buf(), view);
        break;
      }
      case PackedStage::Kind::kConv:
        run_packed_conv(st, view, out_buf(), sc, view);
        break;
      case PackedStage::Kind::kLinear: {
        const int in_features = view.c * view.h * view.w;
        const int rows = st.weights.rows;
        packed::pack_activations(view.data, view.n, in_features, sc.acts);
        packed::Epilogue e;
        e.scale = st.scale_a.data();
        e.row_stride = 1;
        e.col_stride = static_cast<std::size_t>(rows);
        if (st.logits) {
          logits = Tensor({view.n, rows});
          e.mode = packed::Epilogue::Mode::kLogits;
          e.logits = logits.data();
          // The classifier is the last stage; `view` goes stale, which is
          // fine — the caller consumes the returned logits.
        } else {
          std::vector<std::uint8_t>& buf = out_buf();
          buf.resize(static_cast<std::size_t>(view.n) * rows);
          e.mode = packed::Epilogue::Mode::kQuantize;
          e.bias = st.bias_b.data();
          e.act_scale = std::max(st.act_scale, 1e-12f);
          e.act_levels = st.act_levels;
          e.codes = buf.data();
          view = {buf.data(), view.n, rows, 1, 1};
        }
        packed::popcount_gemm(st.weights, sc.acts, e);
        break;
      }
      case PackedStage::Kind::kMaxPool:
        run_code_maxpool(st, view, out_buf(), view);
        break;
      case PackedStage::Kind::kFlatten:
        view.c = view.c * view.h * view.w;
        view.h = 1;
        view.w = 1;
        break;
    }
  }
  return logits;
}

}  // namespace

std::vector<Tensor> packed_forward(const PackedModel& model,
                                   const Tensor& input,
                                   PackedScratch& scratch) {
  ADAPEX_CHECK(input.ndim() == 4, "packed_forward expects [N,C,H,W] input");
  ADAPEX_CHECK(!model.blocks.empty(), "packed_forward: empty model");
  std::vector<Tensor> outputs(model.num_outputs());
  CodeView view;
  std::size_t e = 0;
  Tensor final_logits;
  for (std::size_t b = 0; b < model.blocks.size(); ++b) {
    Tensor t = run_segment(model.blocks[b], b == 0 ? &input : nullptr, view,
                           scratch.bufs[0], scratch.bufs[1], scratch);
    if (b + 1 == model.blocks.size()) final_logits = std::move(t);
    while (e < model.exits.size() &&
           model.exits[e].after_block == static_cast<int>(b)) {
      CodeView head_view = view;
      outputs[e] = run_segment(model.exits[e].head, nullptr, head_view,
                               scratch.bufs[2], scratch.bufs[3], scratch);
      ADAPEX_CHECK(!outputs[e].empty(),
                   "packed_forward: exit head produced no logits");
      ++e;
    }
  }
  ADAPEX_CHECK(!final_logits.empty(),
               "packed_forward: final block produced no logits");
  outputs.back() = std::move(final_logits);
  return outputs;
}

}  // namespace adapex
