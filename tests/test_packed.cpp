// Tests for the bit-plane-packed W2A2 inference path (tensor/packed.hpp,
// nn/quant.hpp freeze_packed / packed_forward, nn/eval.hpp dispatch):
// pack/unpack round-trips, popcount GEMM vs integer and float references,
// cross-tier byte-identity, bitwise differentials of the packed_forward
// stages (front quantizer, im2col packing, code maxpool, grouped narrow
// GEMMs) against their plain reference forms at every ISA tier, freeze
// preconditions (rule RQ1), bitwise
// argmax/exit-decision agreement with the float path on a trained CNV,
// thread-count byte-identity, and library byte-identity packed-on vs
// packed-off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/scale.hpp"
#include "data/dataset.hpp"
#include "library/generator.hpp"
#include "model/cnv.hpp"
#include "nn/eval.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "tensor/packed.hpp"

namespace adapex {
namespace {

// Reduction lengths chosen to exercise the word tails: below one word,
// exact multiples of 64, one past, primes, and pruned-channel style
// non-multiples of 32 (the packing unit is 64 lanes; a pruned CNV layer's
// C*k*k is rarely a multiple of either).
const int kLens[] = {1, 7, 31, 57, 63, 64, 65, 91, 128, 130, 300};

std::vector<std::int8_t> random_ternary(int rows, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> codes(static_cast<std::size_t>(rows) * k);
  for (auto& c : codes) {
    const double u = rng.uniform();
    c = u < 0.4 ? std::int8_t{0} : (u < 0.7 ? std::int8_t{1} : std::int8_t{-1});
  }
  return codes;
}

std::vector<std::uint8_t> random_acts(int cols, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(cols) * k);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.uniform() * 4.0);
    if (c > 3) c = 3;
  }
  return codes;
}

TEST(Packed, WeightRoundTripIsExact) {
  for (int k : kLens) {
    const int rows = 5;
    const auto codes = random_ternary(rows, k, 1000 + static_cast<unsigned>(k));
    packed::PackedWeights w;
    packed::pack_weights(codes.data(), rows, k, w);
    EXPECT_EQ(w.words, (k + 63) / 64);
    std::vector<std::int8_t> back(codes.size(), 99);
    packed::unpack_weights(w, back.data());
    EXPECT_EQ(codes, back) << "k=" << k;
    // Tail lanes beyond k must be zero in every plane (the GEMM relies on
    // it instead of masking).
    for (int r = 0; r < rows; ++r) {
      const std::size_t last = static_cast<std::size_t>(r) * w.words + w.words - 1;
      const int used = k - (w.words - 1) * 64;
      if (used < 64) {
        const std::uint64_t mask = ~((1ull << used) - 1);
        EXPECT_EQ(0u, w.plus[last] & mask);
        EXPECT_EQ(0u, w.minus[last] & mask);
      }
    }
  }
}

TEST(Packed, ActivationRoundTripIsExact) {
  for (int k : kLens) {
    const int cols = 7;
    const auto codes = random_acts(cols, k, 2000 + static_cast<unsigned>(k));
    packed::PackedActivations a;
    packed::pack_activations(codes.data(), cols, k, a);
    std::vector<std::uint8_t> back(codes.size(), 99);
    packed::unpack_activations(a, back.data());
    EXPECT_EQ(codes, back) << "k=" << k;
  }
}

TEST(Packed, PopcountGemmMatchesIntegerReference) {
  for (int k : kLens) {
    const int rows = 9;
    const int cols = 13;
    const auto wc = random_ternary(rows, k, 3000 + static_cast<unsigned>(k));
    const auto ac = random_acts(cols, k, 4000 + static_cast<unsigned>(k));
    packed::PackedWeights w;
    packed::pack_weights(wc.data(), rows, k, w);
    packed::PackedActivations a;
    packed::pack_activations(ac.data(), cols, k, a);

    std::vector<std::int32_t> got(static_cast<std::size_t>(rows) * cols, -7);
    packed::Epilogue e;
    e.mode = packed::Epilogue::Mode::kInt32;
    e.s32 = got.data();
    e.row_stride = static_cast<std::size_t>(cols);
    e.col_stride = 1;
    packed::popcount_gemm(w, a, e);

    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        std::int32_t ref = 0;
        for (int i = 0; i < k; ++i) {
          ref += wc[static_cast<std::size_t>(r) * k + i] *
                 static_cast<std::int32_t>(ac[static_cast<std::size_t>(c) * k + i]);
        }
        ASSERT_EQ(ref, got[static_cast<std::size_t>(r) * cols + c])
            << "k=" << k << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(Packed, EpiloguesMatchManualComposition) {
  const int rows = 6, cols = 10, k = 91;
  const auto wc = random_ternary(rows, k, 51);
  const auto ac = random_acts(cols, k, 52);
  packed::PackedWeights w;
  packed::pack_weights(wc.data(), rows, k, w);
  packed::PackedActivations a;
  packed::pack_activations(ac.data(), cols, k, a);

  std::vector<std::int32_t> s32(static_cast<std::size_t>(rows) * cols);
  packed::Epilogue ei;
  ei.mode = packed::Epilogue::Mode::kInt32;
  ei.s32 = s32.data();
  ei.row_stride = static_cast<std::size_t>(cols);
  packed::popcount_gemm(w, a, ei);

  Rng rng(53);
  std::vector<float> scale(rows), bias(rows);
  for (int r = 0; r < rows; ++r) {
    scale[static_cast<std::size_t>(r)] =
        static_cast<float>(rng.uniform() * 0.02 + 0.001);
    bias[static_cast<std::size_t>(r)] =
        static_cast<float>(rng.uniform() * 0.5 - 0.25);
  }
  const float act_scale = 0.8f;

  // Quantize epilogue == manual z -> clamp -> round pipeline on the raw S.
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(rows) * cols, 99);
  packed::Epilogue eq;
  eq.mode = packed::Epilogue::Mode::kQuantize;
  eq.scale = scale.data();
  eq.bias = bias.data();
  eq.act_scale = act_scale;
  eq.act_levels = 3;
  eq.codes = codes.data();
  eq.row_stride = static_cast<std::size_t>(cols);
  packed::popcount_gemm(w, a, eq);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t at = static_cast<std::size_t>(r) * cols + c;
      const float z = scale[static_cast<std::size_t>(r)] *
                          static_cast<float>(s32[at]) +
                      bias[static_cast<std::size_t>(r)];
      const float clamped = std::clamp(z, 0.0f, act_scale);
      const auto want = static_cast<std::uint8_t>(
          std::lround(clamped / act_scale * 3.0f));
      ASSERT_EQ(want, codes[at]) << "r=" << r << " c=" << c;
    }
  }

  // Logits epilogue with the linear layout (row_stride=1, col_stride=rows):
  // element (r, c) lands batch-major.
  std::vector<float> logits(static_cast<std::size_t>(rows) * cols, -1.0f);
  packed::Epilogue el;
  el.mode = packed::Epilogue::Mode::kLogits;
  el.scale = scale.data();
  el.logits = logits.data();
  el.row_stride = 1;
  el.col_stride = static_cast<std::size_t>(rows);
  packed::popcount_gemm(w, a, el);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const float want = scale[static_cast<std::size_t>(r)] *
                         static_cast<float>(
                             s32[static_cast<std::size_t>(r) * cols + c]);
      ASSERT_EQ(want,
                logits[static_cast<std::size_t>(c) * rows + r]);
    }
  }
}

TEST(Packed, AllSupportedIsaTiersAgreeBitwise) {
  const std::string initial = packed::active_isa();
  const int rows = 11, cols = 17, k = 257;
  const auto wc = random_ternary(rows, k, 61);
  const auto ac = random_acts(cols, k, 62);
  packed::PackedWeights w;
  packed::pack_weights(wc.data(), rows, k, w);
  packed::PackedActivations a;
  packed::pack_activations(ac.data(), cols, k, a);
  std::vector<float> scale(rows, 0.003f), bias(rows, -0.1f);

  std::vector<std::vector<std::int32_t>> s32_by_tier;
  std::vector<std::vector<std::uint8_t>> codes_by_tier;
  int tiers = 0;
  for (const char* isa : {"scalar", "avx2", "avx512", "avx512vp"}) {
    try {
      packed::force_isa(isa);
    } catch (const ConfigError&) {
      continue;  // host lacks this tier
    }
    ++tiers;
    std::vector<std::int32_t> s32(static_cast<std::size_t>(rows) * cols);
    packed::Epilogue ei;
    ei.mode = packed::Epilogue::Mode::kInt32;
    ei.s32 = s32.data();
    ei.row_stride = static_cast<std::size_t>(cols);
    packed::popcount_gemm(w, a, ei);
    s32_by_tier.push_back(std::move(s32));

    std::vector<std::uint8_t> codes(static_cast<std::size_t>(rows) * cols);
    packed::Epilogue eq;
    eq.mode = packed::Epilogue::Mode::kQuantize;
    eq.scale = scale.data();
    eq.bias = bias.data();
    eq.act_scale = 0.9f;
    eq.codes = codes.data();
    eq.row_stride = static_cast<std::size_t>(cols);
    packed::popcount_gemm(w, a, eq);
    codes_by_tier.push_back(std::move(codes));
  }
  packed::force_isa(initial.c_str());

  ASSERT_GE(tiers, 1);  // scalar is always supported
  for (std::size_t i = 1; i < s32_by_tier.size(); ++i) {
    EXPECT_EQ(s32_by_tier[0], s32_by_tier[i]);
    EXPECT_EQ(codes_by_tier[0], codes_by_tier[i]);
  }
}

/// Every packed ISA tier this host supports (scalar always).
std::vector<std::string> supported_tiers() {
  const std::string initial = packed::active_isa();
  std::vector<std::string> tiers;
  for (const char* isa : {"scalar", "avx2", "avx512", "avx512vp"}) {
    try {
      packed::force_isa(isa);
      tiers.emplace_back(isa);
    } catch (const ConfigError&) {
    }
  }
  packed::force_isa(initial.c_str());
  return tiers;
}

/// Runs fn once per supported tier with that tier forced, then restores
/// the initial one.
template <typename Fn>
void for_each_tier(Fn&& fn) {
  const std::string initial = packed::active_isa();
  for (const std::string& isa : supported_tiers()) {
    packed::force_isa(isa.c_str());
    fn(isa);
  }
  packed::force_isa(initial.c_str());
}

/// The float front's BN + quantize as the scalar loop spelled it before it
/// moved into the packed tiers: std::clamp and a runtime threshold count.
std::uint8_t reference_front_code(float x, const packed::FrontQuant& q) {
  const float xhat = (x - q.mean) * q.inv_std;
  const float v = q.gamma * xhat + q.beta;
  const float clamped = std::clamp(v, 0.0f, q.act_scale);
  const float level =
      clamped / q.act_scale * static_cast<float>(q.act_levels);
  std::uint8_t code = 0;
  for (int l = 0; l < q.act_levels; ++l) {
    code = static_cast<std::uint8_t>(
        code + (level >= static_cast<float>(l) + 0.5f ? 1 : 0));
  }
  return code;
}

TEST(PackedStages, FrontQuantizerMatchesScalarReferenceBitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const int levels : {1, 3, 15}) {
    for (const float s : {1.0f, 0.7f, 3.0f, 1e-12f}) {
      // Specials, values at and around s, and every rounding tie
      // (j + 0.5) / levels * s with its neighbours a few ulps away.
      std::vector<float> xs = {0.0f,
                               -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::min() / 2.0f,
                               std::numeric_limits<float>::min(),
                               std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::quiet_NaN(),
                               kInf,
                               -kInf,
                               std::numeric_limits<float>::max(),
                               -std::numeric_limits<float>::max(),
                               s,
                               -s,
                               2.0f * s};
      for (int j = -1; j <= levels; ++j) {
        float t = (static_cast<float>(j) + 0.5f) / static_cast<float>(levels) *
                  s;
        xs.push_back(t);
        float up = t;
        float down = t;
        for (int u = 0; u < 3; ++u) {
          up = std::nextafter(up, kInf);
          down = std::nextafter(down, -kInf);
          xs.push_back(up);
          xs.push_back(down);
        }
      }
      float near_s_up = s;
      float near_s_down = s;
      for (int u = 0; u < 3; ++u) {
        near_s_up = std::nextafter(near_s_up, kInf);
        near_s_down = std::nextafter(near_s_down, -kInf);
        xs.push_back(near_s_up);
        xs.push_back(near_s_down);
      }
      Rng rng(static_cast<std::uint64_t>(levels) * 131 + 7);
      for (int i = 0; i < 301; ++i) {  // odd length: every vector tail
        xs.push_back(static_cast<float>(rng.normal(0.5, 1.0)) * s);
      }

      packed::FrontQuant identity_bn;
      identity_bn.act_scale = s;
      identity_bn.act_levels = levels;
      packed::FrontQuant folded = identity_bn;
      folded.mean = 0.25f * s;
      folded.inv_std = 1.7f;
      folded.gamma = -0.9f;
      folded.beta = 0.6f * s;
      for (const packed::FrontQuant& q : {identity_bn, folded}) {
        std::vector<std::uint8_t> want(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
          want[i] = reference_front_code(xs[i], q);
        }
        for_each_tier([&](const std::string& isa) {
          std::vector<std::uint8_t> got(xs.size(), 0xee);
          packed::quantize_front(xs.data(), xs.size(), q, got.data());
          for (std::size_t i = 0; i < xs.size(); ++i) {
            ASSERT_EQ(want[i], got[i])
                << isa << " levels=" << levels << " s=" << s
                << " x=" << xs[i] << " gamma=" << q.gamma;
          }
        });
      }
    }
  }
}

/// pack_activations_im2col's reference: ops::im2col of the codes as
/// floats, transposed to one [pixels, K] code row per output pixel
/// (image-major), then pack_activations.
packed::PackedActivations reference_im2col_pack(
    const std::vector<std::uint8_t>& codes, int images, int channels,
    int height, int width, int kernel) {
  const int oh = height - kernel + 1;
  const int ow = width - kernel + 1;
  const int pixels = oh * ow;
  const int k = channels * kernel * kernel;
  const std::size_t image = static_cast<std::size_t>(channels) * height * width;
  std::vector<std::uint8_t> rows(static_cast<std::size_t>(images) * pixels * k);
  std::vector<float> img(image);
  std::vector<float> col(static_cast<std::size_t>(k) * pixels);
  for (int b = 0; b < images; ++b) {
    for (std::size_t i = 0; i < image; ++i) {
      img[i] = static_cast<float>(codes[b * image + i]);
    }
    ops::im2col(img.data(), channels, height, width, kernel, col.data());
    for (int p = 0; p < pixels; ++p) {
      for (int j = 0; j < k; ++j) {
        rows[(static_cast<std::size_t>(b) * pixels + p) * k + j] =
            static_cast<std::uint8_t>(col[static_cast<std::size_t>(j) * pixels + p]);
      }
    }
  }
  packed::PackedActivations ref;
  packed::pack_activations(rows.data(), images * pixels, k, ref);
  return ref;
}

TEST(PackedStages, Im2colPackingMatchesIm2colThenPack) {
  struct Case {
    int kernel, channels, height, width;
  };
  // K = channels * kernel^2 covers 9, 36, 63, 64, 65, 72, 144 and 576; the
  // geometries cover square and odd planes, the 30-wide conv2 input, the
  // 32-wide limit of the bit-row path, a 33-wide input that takes the
  // gather path, and 1x1 outputs.
  const Case cases[] = {
      {3, 1, 5, 5},   {3, 4, 6, 7},    {3, 7, 3, 3},    {3, 8, 14, 14},
      {3, 16, 12, 12}, {3, 64, 5, 5},  {3, 64, 3, 3},   {3, 12, 30, 30},
      {3, 4, 32, 32}, {3, 4, 33, 9},   {3, 7, 9, 40},   {1, 9, 4, 4},
      {1, 36, 3, 5},  {1, 63, 2, 2},   {1, 64, 3, 3},   {1, 65, 1, 1},
      {1, 72, 5, 1},  {1, 144, 2, 3},  {1, 576, 1, 2},  {1, 5, 33, 2},
  };
  std::uint64_t seed = 500;
  for (const Case& c : cases) {
    for (const int images : {1, 3}) {
      // Exactly sized: the last pixel's last channel row ends the buffer,
      // so an over-read is an out-of-bounds access under ASan.
      const auto codes = random_acts(
          images, c.channels * c.height * c.width, ++seed);
      const packed::PackedActivations ref = reference_im2col_pack(
          codes, images, c.channels, c.height, c.width, c.kernel);
      for_each_tier([&](const std::string& isa) {
        packed::PackedActivations got;
        // Stale, larger contents: every plane word must be rewritten.
        got.lo.assign(ref.lo.size() + 64, ~0ull);
        got.hi.assign(ref.hi.size() + 64, ~0ull);
        packed::pack_activations_im2col(codes.data(), images, c.channels,
                                        c.height, c.width, c.kernel, got);
        EXPECT_EQ(ref.cols, got.cols) << isa;
        EXPECT_EQ(ref.k, got.k) << isa;
        EXPECT_EQ(ref.words, got.words) << isa;
        EXPECT_EQ(ref.lo, got.lo)
            << isa << " kernel=" << c.kernel << " C=" << c.channels << " "
            << c.height << "x" << c.width << " images=" << images;
        EXPECT_EQ(ref.hi, got.hi)
            << isa << " kernel=" << c.kernel << " C=" << c.channels << " "
            << c.height << "x" << c.width << " images=" << images;
      });
    }
  }
}

TEST(PackedStages, CodeMaxPoolMatchesGenericWindowScan) {
  struct Case {
    int height, width, kernel, stride;
  };
  const Case cases[] = {
      {2, 2, 2, 2},  {3, 3, 2, 2},  {5, 7, 2, 2},  {28, 28, 2, 2},
      {29, 31, 2, 2}, {10, 9, 2, 2}, {5, 5, 3, 1},  {12, 12, 7, 7},
      {3, 3, 3, 1},  {6, 7, 2, 1},  {7, 6, 3, 2},  {4, 4, 1, 1},
  };
  const int planes = 3;
  std::uint64_t seed = 900;
  for (const Case& c : cases) {
    const auto in = random_acts(planes, c.height * c.width, ++seed);
    const int oh = (c.height - c.kernel) / c.stride + 1;
    const int ow = (c.width - c.kernel) / c.stride + 1;
    std::vector<std::uint8_t> want;
    for (int pl = 0; pl < planes; ++pl) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          std::uint8_t best = 0;
          for (int ky = 0; ky < c.kernel; ++ky) {
            for (int kx = 0; kx < c.kernel; ++kx) {
              best = std::max(
                  best, in[(static_cast<std::size_t>(pl) * c.height +
                            y * c.stride + ky) * c.width +
                           x * c.stride + kx]);
            }
          }
          want.push_back(best);
        }
      }
    }
    std::vector<std::uint8_t> got(want.size(), 0xee);
    packed::maxpool_codes(in.data(), planes, c.height, c.width, c.kernel,
                          c.stride, got.data());
    EXPECT_EQ(want, got) << c.height << "x" << c.width << " kernel="
                         << c.kernel << " stride=" << c.stride;
  }
}

TEST(Packed, ForceIsaRejectsUnknownName) {
  EXPECT_THROW(packed::force_isa("avx9000"), ConfigError);
  EXPECT_THROW(packed::force_isa(nullptr), Error);
}

// ------------------------------------------------------------- model level

/// One trained tiny CNV with exits shared across the model-level tests.
struct TrainedFixture {
  SyntheticDataset data;
  BranchyModel model;
};

TrainedFixture& trained() {
  static TrainedFixture* fx = [] {
    SyntheticSpec spec = cifar10_like_spec();
    spec.train_size = 96;
    spec.test_size = 64;
    Rng rng(42);
    CnvConfig cfg = CnvConfig{}.scaled(0.125);
    cfg.num_classes = spec.num_classes;
    auto* f = new TrainedFixture{
        make_synthetic(spec),
        build_cnv_with_exits(cfg, paper_exits_config(false), rng)};
    TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 16;
    train_model(f->model, f->data.train, spec.flip_symmetry, tc);
    return f;
  }();
  return *fx;
}

TEST(PackedModel, FreezeEligibilityAndRq1) {
  TrainedFixture& fx = trained();
  std::vector<std::string> reasons;
  EXPECT_TRUE(can_freeze(fx.model, &reasons)) << (reasons.empty()
                                                      ? std::string()
                                                      : reasons.front());
  EXPECT_TRUE(reasons.empty());

  // Wider-bit models (W4A2, W2A4) must be rejected with an aggregated RQ1
  // error naming the offending width.
  Rng rng(7);
  struct Wide {
    int weight_bits, act_bits;
    const char* reason;
  };
  for (const Wide& c : {Wide{4, 2, "weight_bits=4"},
                        Wide{2, 4, "activation bits=4"}}) {
    CnvConfig cfg = CnvConfig{}.scaled(0.125);
    cfg.weight_bits = c.weight_bits;
    cfg.act_bits = c.act_bits;
    BranchyModel wide = build_cnv(cfg, rng);
    reasons.clear();
    EXPECT_FALSE(can_freeze(wide, &reasons)) << c.reason;
    EXPECT_FALSE(reasons.empty()) << c.reason;
    try {
      freeze_packed(wide);
      ADD_FAILURE() << "freeze_packed should reject " << c.reason;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("RQ1"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(c.reason), std::string::npos)
          << e.what();
    }
  }
}

TEST(PackedModel, ForwardMatchesFloatLogitsAndDecisionsAtEveryTier) {
  TrainedFixture& fx = trained();
  const PackedModel frozen = freeze_packed(fx.model);

  std::vector<int> order(32);
  for (int i = 0; i < 32; ++i) order[static_cast<std::size_t>(i)] = i;
  const Tensor batch = fx.data.test.batch_images(order.data(), 32);
  const auto float_logits = fx.model.forward(batch, /*train=*/false);

  const std::string initial = packed::active_isa();
  for (const char* isa : {"scalar", "avx2", "avx512", "avx512vp"}) {
    try {
      packed::force_isa(isa);
    } catch (const ConfigError&) {
      continue;
    }
    PackedScratch scratch;
    const auto packed_logits = packed_forward(frozen, batch, scratch);
    ASSERT_EQ(float_logits.size(), packed_logits.size()) << isa;
    for (std::size_t e = 0; e < float_logits.size(); ++e) {
      ASSERT_EQ(float_logits[e].shape(), packed_logits[e].shape()) << isa;
      for (int n = 0; n < float_logits[e].dim(0); ++n) {
        int fbest = 0, pbest = 0;
        for (int c = 1; c < float_logits[e].dim(1); ++c) {
          if (float_logits[e].at2(n, c) > float_logits[e].at2(n, fbest)) {
            fbest = c;
          }
          if (packed_logits[e].at2(n, c) > packed_logits[e].at2(n, pbest)) {
            pbest = c;
          }
        }
        // Bitwise decision agreement; logits agree to a tight tolerance
        // (the packed reduction is exact, only the folded epilogue and the
        // float path's accumulation order differ).
        ASSERT_EQ(fbest, pbest) << isa << " exit=" << e << " n=" << n;
        for (int c = 0; c < float_logits[e].dim(1); ++c) {
          ASSERT_NEAR(float_logits[e].at2(n, c), packed_logits[e].at2(n, c),
                      2e-4)
              << isa << " exit=" << e << " n=" << n << " c=" << c;
        }
      }
    }
  }
  packed::force_isa(initial.c_str());
}

// Narrow conv planes (conv5's 3x3, conv6's 1x1) run one GEMM per group of
// images; each image's logits must equal a batch-of-one forward, which
// runs every conv per image.
TEST(PackedModel, GroupedNarrowGemmsMatchPerImageForward) {
  TrainedFixture& fx = trained();
  const PackedModel frozen = freeze_packed(fx.model);
  for_each_tier([&](const std::string& isa) {
    for (const int batch : {1, 3, 29, 32}) {
      std::vector<int> order(static_cast<std::size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        order[static_cast<std::size_t>(i)] = (i * 7 + batch) % fx.data.test.size();
      }
      PackedScratch scratch;
      const auto grouped = packed_forward(
          frozen, fx.data.test.batch_images(order.data(), batch), scratch);
      for (int i = 0; i < batch; ++i) {
        const auto single = packed_forward(
            frozen,
            fx.data.test.batch_images(&order[static_cast<std::size_t>(i)], 1),
            scratch);
        ASSERT_EQ(grouped.size(), single.size());
        for (std::size_t e = 0; e < grouped.size(); ++e) {
          const int classes = grouped[e].dim(1);
          ASSERT_EQ(0, std::memcmp(grouped[e].data() +
                                       static_cast<std::size_t>(i) * classes,
                                   single[e].data(),
                                   sizeof(float) * classes))
              << isa << " batch=" << batch << " image=" << i << " exit=" << e;
        }
      }
    }
  });
}

TEST(PackedModel, EvaluateExitsDecisionIdentityPackedVsFloat) {
  TrainedFixture& fx = trained();
  const auto f = evaluate_exits(fx.model, fx.data.test, 16, 1,
                                PackedMode::kOff);
  const auto p = evaluate_exits(fx.model, fx.data.test, 16, 1,
                                PackedMode::kOn);
  ASSERT_EQ(f.correct.size(), p.correct.size());
  for (std::size_t s = 0; s < f.correct.size(); ++s) {
    // Argmax-correctness must agree bitwise sample by sample...
    ASSERT_TRUE(f.correct[s] == p.correct[s]) << "sample " << s;
    for (std::size_t e = 0; e < f.confidence[s].size(); ++e) {
      ASSERT_NEAR(f.confidence[s][e], p.confidence[s][e], 2e-4);
    }
  }
  // ...and so must every threshold decision the library sweep derives.
  for (int t = 0; t <= 100; t += 5) {
    const auto sf = apply_threshold(f, t / 100.0);
    const auto sp = apply_threshold(p, t / 100.0);
    ASSERT_EQ(sf.accuracy, sp.accuracy) << "threshold " << t;
    ASSERT_EQ(sf.exit_fraction, sp.exit_fraction) << "threshold " << t;
  }
}

TEST(PackedModel, EvalRecordsByteIdenticalAtAnyThreadCountBothPaths) {
  // Batch 12 over 64 test images: five full batches and a partial one of
  // 4. Loops claim batches in whatever order the threads reach them, so
  // identity here means no record depends on which loop ran its batch.
  TrainedFixture& fx = trained();
  for (const PackedMode mode : {PackedMode::kOn, PackedMode::kOff}) {
    const auto serial = evaluate_exits(fx.model, fx.data.test, 12, 1, mode);
    ASSERT_EQ(serial.num_samples(), 64u);
    for (int threads : {2, 3, 4, 7}) {
      const auto parallel =
          evaluate_exits(fx.model, fx.data.test, 12, threads, mode);
      ASSERT_EQ(serial.num_samples(), parallel.num_samples());
      for (std::size_t s = 0; s < serial.num_samples(); ++s) {
        ASSERT_EQ(serial.confidence[s].size(), parallel.confidence[s].size());
        ASSERT_EQ(0, std::memcmp(serial.confidence[s].data(),
                                 parallel.confidence[s].data(),
                                 serial.confidence[s].size() * sizeof(float)))
            << "mode=" << static_cast<int>(mode) << " threads=" << threads
            << " sample=" << s;
        ASSERT_EQ(0, std::memcmp(serial.correct[s].data(),
                                 parallel.correct[s].data(),
                                 serial.correct[s].size()))
            << "mode=" << static_cast<int>(mode) << " threads=" << threads
            << " sample=" << s;
      }
    }
  }
}

TEST(PackedModel, ResolvedEvalPathFollowsModeAndModel) {
  TrainedFixture& fx = trained();
  EXPECT_STREQ("float", resolved_eval_path(fx.model, PackedMode::kOff));
  EXPECT_STREQ("packed", resolved_eval_path(fx.model, PackedMode::kOn));
  EXPECT_STREQ("packed", resolved_eval_path(fx.model, PackedMode::kAuto));
  Rng rng(7);
  CnvConfig wide = CnvConfig{}.scaled(0.125);
  wide.weight_bits = 4;
  BranchyModel w4 = build_cnv(wide, rng);
  EXPECT_STREQ("float", resolved_eval_path(w4, PackedMode::kAuto));
}

// ------------------------------------------------------------ library level

TEST(PackedLibrary, ByteIdenticalPackedOnVsOffAtAnyThreadCount) {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.prune_rates_pct = {0, 50};
  spec.conf_thresholds_pct = {0, 50, 100};

  spec.eval_path = "float";
  spec.num_threads = 1;
  GenerationReport float_report;
  spec.report = &float_report;
  const std::string float_bytes =
      generate_library(spec).to_json().dump(1);

  spec.eval_path = "packed";
  spec.num_threads = 2;
  GenerationReport packed_report;
  spec.report = &packed_report;
  const std::string packed_bytes =
      generate_library(spec).to_json().dump(1);

  EXPECT_EQ(float_bytes, packed_bytes);

  // The report records which path evaluated each computed point.
  ASSERT_FALSE(float_report.points.empty());
  for (const auto& pt : float_report.points) {
    EXPECT_EQ("float", pt.eval_path) << "point " << pt.index;
  }
  for (const auto& pt : packed_report.points) {
    EXPECT_EQ("packed", pt.eval_path) << "point " << pt.index;
  }
}

TEST(PackedLibrary, LintRuleRq2) {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());

  spec.eval_path = "sideways";
  auto report = lint_gen_spec(spec);
  EXPECT_TRUE(report.has_errors());
  EXPECT_NE(report.error_message().find("RQ2"), std::string::npos);

  for (const char* path : {"auto", "float", "packed"}) {
    spec.eval_path = path;
    report = lint_gen_spec(spec);
    for (const auto& f : report.diagnostics) {
      EXPECT_NE(f.rule_id.substr(0, 2), "RQ") << path << ": " << f.message;
    }
  }
}

}  // namespace
}  // namespace adapex
