// Tests for the bit-plane-packed W2A2 inference path (tensor/packed.hpp,
// nn/quant.hpp freeze_packed / packed_forward, nn/eval.hpp dispatch):
// pack/unpack round-trips, popcount GEMM vs integer and float references
// over every row/column tail, cross-tier byte-identity, bitwise
// differentials of the packed_forward stages (front quantizer, im2col
// packing, code maxpool, integer thresholds, grouped narrow GEMMs) against
// their plain reference forms at every ISA tier, freeze
// preconditions (rule RQ1), bitwise
// argmax/exit-decision agreement with the float path on a trained CNV,
// thread-count byte-identity, and library byte-identity packed-on vs
// packed-off.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
#include "hls/folding.hpp"
#include "library/generator.hpp"
#include "model/cnv.hpp"
#include "model/walk.hpp"
#include "nn/eval.hpp"
#include "nn/trainer.hpp"
#include "pruning/pruning.hpp"
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

/// Exact integer S = codes(w row r) . codes(a column c), [rows, cols].
std::vector<std::int32_t> reference_sums(const std::vector<std::int8_t>& wc,
                                         const std::vector<std::uint8_t>& ac,
                                         int rows, int cols, int k) {
  std::vector<std::int32_t> s(static_cast<std::size_t>(rows) * cols, 0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      std::int32_t sum = 0;
      for (int i = 0; i < k; ++i) {
        sum += wc[static_cast<std::size_t>(r) * k + i] *
               static_cast<std::int32_t>(ac[static_cast<std::size_t>(c) * k + i]);
      }
      s[static_cast<std::size_t>(r) * cols + c] = sum;
    }
  }
  return s;
}

/// The manual float quantize composition on a raw sum: z -> clamp -> round.
std::uint8_t manual_code(std::int32_t s, float a, float b, float act_scale) {
  const float z = a * static_cast<float>(s) + b;
  const float clamped = std::clamp(z, 0.0f, act_scale);
  return static_cast<std::uint8_t>(std::lround(clamped / act_scale * 3.0f));
}

/// Packs `wc` for a quantize epilogue over rows (a[r], b[r], act_scale):
/// derives each row's thresholds into `t` and negates the rows whose sign
/// is -1, as freeze_packed does.
packed::PackedWeights pack_quantizing_rows(std::vector<std::int8_t> wc, int k,
                                           const std::vector<float>& a,
                                           const std::vector<float>& b,
                                           float act_scale,
                                           std::vector<std::int32_t>& t) {
  const int rows = static_cast<int>(a.size());
  t.assign(static_cast<std::size_t>(rows) * packed::kActLevels, 0);
  for (int r = 0; r < rows; ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    if (packed::derive_thresholds(a[i], b[i], act_scale, k,
                                  t.data() + i * packed::kActLevels) < 0) {
      for (int j = 0; j < k; ++j) {
        std::int8_t& w = wc[i * static_cast<std::size_t>(k) + j];
        w = static_cast<std::int8_t>(-w);
      }
    }
  }
  packed::PackedWeights w;
  packed::pack_weights(wc.data(), rows, k, w);
  return w;
}

// Every tier, every register-block row remainder (rows 1..9 against the
// 4-row block) and every column-step tail (cols 1..17 against the 4/8
// column steps, plus one past the 256-column chunk), in every epilogue:
// raw sums, threshold codes in the conv (row-major) and linear
// (batch-major) layouts, and logits.
TEST(Packed, PopcountGemmMatchesIntegerReference) {
  constexpr int kMaxRows = 9;
  std::vector<int> col_counts;
  for (int c = 1; c <= 17; ++c) col_counts.push_back(c);
  col_counts.push_back(257);
  const int max_cols = col_counts.back();
  for (int k : kLens) {
    // Prefixes of one operand pair: the first `rows` weight rows and the
    // first `cols` activation columns, so one reference serves every shape.
    const auto wc = random_ternary(kMaxRows, k, 3000 + static_cast<unsigned>(k));
    const auto ac = random_acts(max_cols, k, 4000 + static_cast<unsigned>(k));
    const auto ref = reference_sums(wc, ac, kMaxRows, max_cols, k);
    // Per-row thresholds around the sums' spread, plus both range ends.
    const std::int32_t step = 1 + k / 64;
    std::vector<std::int32_t> t;
    std::vector<float> scale;
    for (int r = 0; r < kMaxRows; ++r) {
      const std::int32_t lo = r == 0 ? -3 * k : -(r + 1) * step;
      const std::int32_t hi = r == 1 ? 3 * k + 1 : (r % 3) * step + 1;
      t.insert(t.end(), {lo, std::min(0, hi), hi});
      scale.push_back(0.01f * static_cast<float>(r + 1));
    }
    for (int rows = 1; rows <= kMaxRows; ++rows) {
      packed::PackedWeights w;
      packed::pack_weights(wc.data(), rows, k, w);
      for (const int cols : col_counts) {
        packed::PackedActivations a;
        packed::pack_activations(ac.data(), cols, k, a);
        const std::size_t n = static_cast<std::size_t>(rows) * cols;
        for_each_tier([&](const std::string& isa) {
          const std::string where = isa + " k=" + std::to_string(k) +
                                    " rows=" + std::to_string(rows) +
                                    " cols=" + std::to_string(cols);
          std::vector<std::int32_t> got(n, -7);
          packed::Epilogue ei;
          ei.mode = packed::Epilogue::Mode::kInt32;
          ei.s32 = got.data();
          ei.row_stride = static_cast<std::size_t>(cols);
          packed::popcount_gemm(w, a, ei);

          std::vector<std::uint8_t> conv(n, 0xee);
          std::vector<std::uint8_t> linear(n, 0xee);
          packed::Epilogue eq;
          eq.mode = packed::Epilogue::Mode::kQuantize;
          eq.thresholds = t.data();
          eq.codes = conv.data();
          eq.row_stride = static_cast<std::size_t>(cols);
          packed::popcount_gemm(w, a, eq);
          eq.codes = linear.data();
          eq.row_stride = 1;
          eq.col_stride = static_cast<std::size_t>(rows);
          packed::popcount_gemm(w, a, eq);

          std::vector<float> logits(n, -1.0f);
          packed::Epilogue el;
          el.mode = packed::Epilogue::Mode::kLogits;
          el.scale = scale.data();
          el.logits = logits.data();
          el.row_stride = static_cast<std::size_t>(cols);
          packed::popcount_gemm(w, a, el);

          for (int r = 0; r < rows; ++r) {
            const std::int32_t* tr = t.data() + r * packed::kActLevels;
            for (int c = 0; c < cols; ++c) {
              const std::size_t rc = static_cast<std::size_t>(r) * cols + c;
              const std::size_t cr = static_cast<std::size_t>(c) * rows + r;
              const std::int32_t s =
                  ref[static_cast<std::size_t>(r) * max_cols + c];
              const auto code = static_cast<std::uint8_t>(
                  (s >= tr[0]) + (s >= tr[1]) + (s >= tr[2]));
              ASSERT_EQ(s, got[rc]) << where << " r=" << r << " c=" << c;
              ASSERT_EQ(code, conv[rc]) << where << " r=" << r << " c=" << c;
              ASSERT_EQ(code, linear[cr])
                  << where << " r=" << r << " c=" << c;
              ASSERT_EQ(scale[static_cast<std::size_t>(r)] *
                            static_cast<float>(s),
                        logits[rc])
                  << where << " r=" << r << " c=" << c;
            }
          }
        });
      }
    }
  }
}

TEST(Packed, EpiloguesMatchManualComposition) {
  const int rows = 6, cols = 10, k = 91;
  const auto wc = random_ternary(rows, k, 51);
  const auto ac = random_acts(cols, k, 52);
  packed::PackedActivations a;
  packed::pack_activations(ac.data(), cols, k, a);
  const auto s32 = reference_sums(wc, ac, rows, cols, k);

  // Scales of both signs: the rows with A < 0 take the negated-weight path.
  Rng rng(53);
  std::vector<float> scale(rows), bias(rows);
  for (int r = 0; r < rows; ++r) {
    const float mag = static_cast<float>(rng.uniform() * 0.02 + 0.001);
    scale[static_cast<std::size_t>(r)] = r % 2 == 1 ? -mag : mag;
    bias[static_cast<std::size_t>(r)] =
        static_cast<float>(rng.uniform() * 0.5 - 0.25) +
        (r % 2 == 1 ? 0.3f : 0.0f);
  }
  const float act_scale = 0.8f;

  // Threshold epilogue == manual z -> clamp -> round pipeline on the raw S.
  std::vector<std::int32_t> t;
  const packed::PackedWeights w =
      pack_quantizing_rows(wc, k, scale, bias, act_scale, t);
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(rows) * cols, 99);
  packed::Epilogue eq;
  eq.mode = packed::Epilogue::Mode::kQuantize;
  eq.thresholds = t.data();
  eq.codes = codes.data();
  eq.row_stride = static_cast<std::size_t>(cols);
  packed::popcount_gemm(w, a, eq);
  int nonzero = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t at = static_cast<std::size_t>(r) * cols + c;
      const std::uint8_t want =
          manual_code(s32[at], scale[static_cast<std::size_t>(r)],
                      bias[static_cast<std::size_t>(r)], act_scale);
      ASSERT_EQ(want, codes[at]) << "r=" << r << " c=" << c;
      nonzero += want != 0;
    }
  }
  EXPECT_GT(nonzero, 0);

  // Logits epilogue with the linear layout (row_stride=1, col_stride=rows):
  // element (r, c) lands batch-major.
  packed::PackedWeights plain;
  packed::pack_weights(wc.data(), rows, k, plain);
  std::vector<float> logits(static_cast<std::size_t>(rows) * cols, -1.0f);
  packed::Epilogue el;
  el.mode = packed::Epilogue::Mode::kLogits;
  el.scale = scale.data();
  el.logits = logits.data();
  el.row_stride = 1;
  el.col_stride = static_cast<std::size_t>(rows);
  packed::popcount_gemm(plain, a, el);
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
  const int rows = 11, cols = 17, k = 257;
  const auto wc = random_ternary(rows, k, 61);
  const auto ac = random_acts(cols, k, 62);
  packed::PackedWeights w;
  packed::pack_weights(wc.data(), rows, k, w);
  packed::PackedActivations a;
  packed::pack_activations(ac.data(), cols, k, a);
  const std::vector<float> scale(rows, 0.003f), bias(rows, -0.1f);
  const float act_scale = 0.9f;
  std::vector<std::int32_t> t;
  const packed::PackedWeights wq =
      pack_quantizing_rows(wc, k, scale, bias, act_scale, t);

  std::vector<std::vector<std::int32_t>> s32_by_tier;
  std::vector<std::vector<std::uint8_t>> codes_by_tier;
  for_each_tier([&](const std::string&) {
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
    eq.thresholds = t.data();
    eq.codes = codes.data();
    eq.row_stride = static_cast<std::size_t>(cols);
    packed::popcount_gemm(wq, a, eq);
    codes_by_tier.push_back(std::move(codes));
  });

  ASSERT_GE(s32_by_tier.size(), 1u);  // scalar is always supported
  for (std::size_t i = 1; i < s32_by_tier.size(); ++i) {
    EXPECT_EQ(s32_by_tier[0], s32_by_tier[i]);
    EXPECT_EQ(codes_by_tier[0], codes_by_tier[i]);
  }
  for (std::size_t at = 0; at < s32_by_tier[0].size(); ++at) {
    ASSERT_EQ(manual_code(s32_by_tier[0][at], 0.003f, -0.1f, act_scale),
              codes_by_tier[0][at])
        << "element " << at;
  }
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

/// One quantizing row under test: its float epilogue, the direction the
/// GEMM sums it in, and its integer thresholds.
struct ThresholdRow {
  float a = 0.0f, b = 0.0f, act_scale = 1.0f;
  int sign = 1;
  std::int32_t t[packed::kActLevels] = {};
};

/// For every x in [-3k, 3k]: the tier's threshold epilogue on sum x must
/// equal reference_code(sign * x) of the row's float epilogue. The GEMM of
/// an all +1 and an all -1 weight row per tested row, against "ramp"
/// columns whose codes sum to 0..3k, produces every x on every tier.
void expect_thresholds_match(int k, const std::vector<ThresholdRow>& rows,
                             const std::string& what) {
  const int cols = 3 * k + 1;
  std::vector<std::uint8_t> ramp(static_cast<std::size_t>(cols) * k, 0);
  for (int c = 0; c < cols; ++c) {
    int left = c;
    for (int i = 0; i < k && left > 0; ++i) {
      const int v = std::min(3, left);
      ramp[static_cast<std::size_t>(c) * k + i] = static_cast<std::uint8_t>(v);
      left -= v;
    }
  }
  packed::PackedActivations a;
  packed::pack_activations(ramp.data(), cols, k, a);
  const int n = static_cast<int>(rows.size()) * 2;
  std::vector<std::int8_t> wc(static_cast<std::size_t>(n) * k);
  std::vector<std::int32_t> t;
  std::vector<std::uint8_t> want(static_cast<std::size_t>(n) * cols);
  for (const ThresholdRow& row : rows) {  // the documented range and order
    ASSERT_LE(-3 * k, row.t[0]) << what << " a=" << row.a << " b=" << row.b;
    ASSERT_LE(row.t[0], row.t[1]) << what << " a=" << row.a << " b=" << row.b;
    ASSERT_LE(row.t[1], row.t[2]) << what << " a=" << row.a << " b=" << row.b;
    ASSERT_LE(row.t[2], 3 * k + 1) << what << " a=" << row.a << " b=" << row.b;
  }
  for (int r = 0; r < n; ++r) {
    const ThresholdRow& row = rows[static_cast<std::size_t>(r / 2)];
    const int dir = r % 2 == 0 ? 1 : -1;  // this GEMM row's sum is dir * c
    std::fill_n(wc.begin() + static_cast<std::ptrdiff_t>(r) * k, k,
                static_cast<std::int8_t>(dir));
    t.insert(t.end(), row.t, row.t + packed::kActLevels);
    for (int c = 0; c < cols; ++c) {
      want[static_cast<std::size_t>(r) * cols + c] = packed::reference_code(
          row.sign * dir * c, row.a, row.b, row.act_scale);
    }
  }
  packed::PackedWeights w;
  packed::pack_weights(wc.data(), n, k, w);
  for_each_tier([&](const std::string& isa) {
    std::vector<std::uint8_t> got(want.size(), 0xee);
    packed::Epilogue e;
    e.mode = packed::Epilogue::Mode::kQuantize;
    e.thresholds = t.data();
    e.codes = got.data();
    e.row_stride = static_cast<std::size_t>(cols);
    packed::popcount_gemm(w, a, e);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < cols; ++c) {
        const std::size_t at = static_cast<std::size_t>(r) * cols + c;
        const ThresholdRow& row = rows[static_cast<std::size_t>(r / 2)];
        ASSERT_EQ(want[at], got[at])
            << what << " " << isa << " row " << r / 2 << " (a=" << row.a
            << " b=" << row.b << " s=" << row.act_scale << " t={" << row.t[0]
            << "," << row.t[1] << "," << row.t[2] << "}) at x="
            << (r % 2 == 0 ? c : -c);
      }
    }
  });
}

TEST(PackedStages, IntegerThresholdsMatchFloatEpilogue) {
  // Every quantizing row of a frozen, pruned CNV.
  TrainedFixture& fx = trained();
  BranchyModel pruned = fx.model.clone();
  PruneOptions po;
  po.rate = 0.5;
  po.folding = styled_folding(walk_compute_layers(pruned, 3, 32));
  prune_model(pruned, po);
  const PackedModel frozen = freeze_packed(pruned);
  std::vector<const PackedSegment*> segments;
  for (const PackedSegment& seg : frozen.blocks) segments.push_back(&seg);
  for (const PackedModel::Exit& x : frozen.exits) segments.push_back(&x.head);
  int stages = 0;
  for (const PackedSegment* seg : segments) {
    for (const PackedStage& st : seg->stages) {
      if (st.thresholds.empty()) continue;
      ++stages;
      std::vector<ThresholdRow> rows(static_cast<std::size_t>(st.weights.rows));
      for (std::size_t r = 0; r < rows.size(); ++r) {
        rows[r].a = st.scale_a[r];
        rows[r].b = st.bias_b[r];
        rows[r].act_scale = std::max(st.act_scale, 1e-12f);
        rows[r].sign = st.scale_a[r] < 0.0f ? -1 : 1;
        std::copy_n(st.thresholds.data() + r * packed::kActLevels,
                    packed::kActLevels, rows[r].t);
      }
      expect_thresholds_match(st.weights.k, rows,
                              "stage " + std::to_string(stages));
    }
  }
  EXPECT_GE(stages, 6);  // 5 packed convs + the hidden linears at least

  // Adversarial rows through derive_thresholds itself.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (const int k : {1, 91}) {
    const float top = 0.01f * static_cast<float>(3 * k);
    const std::vector<std::array<float, 3>> cases = {
        {0.01f, 0.2f, 0.8f},      // plain positive A
        {-0.01f, 0.5f, 0.8f},     // negative A: the negated-weight path
        {-0.3f, -0.2f, 0.8f},     // negative A, codes only for S < 0
        {0.0f, 0.5f, 0.8f},       // zero A: constant code
        {-0.0f, 0.3f, 0.8f},      // negative zero A
        {kInf, 0.0f, 0.8f},       // +Inf A (NaN at S = 0)
        {-kInf, 0.0f, 0.8f},      // -Inf A
        {kInf, -kInf, 0.8f},      // NaN or -Inf everywhere
        {kNaN, 0.1f, 0.8f},       // NaN A
        {0.01f, kNaN, 0.8f},      // NaN B
        {0.001f, -1e3f, 0.8f},    // never reaches 1: all thresholds 3k+1
        {0.001f, 1e3f, 0.8f},     // always 3: all thresholds -3k
        {0.01f, top + 0.2f, 1.0f},  // code 1 at S = -3k, t_1 at the low end
        {0.01f, 0.84f - top, 1.0f},  // code 3 only at S = 3k
        {1e-14f, 0.0f, 1e-12f},   // act_scale at its floor
        {-1e-13f, 1e-12f, 1e-12f},
        {0.5f, 0.0f, 3.0f},       // v = 1.5 exactly at S = 3
    };
    std::vector<ThresholdRow> rows;
    for (const auto& c : cases) {
      ThresholdRow row;
      row.a = c[0];
      row.b = c[1];
      row.act_scale = c[2];
      row.sign = packed::derive_thresholds(row.a, row.b, row.act_scale, k,
                                           row.t);
      EXPECT_EQ(row.sign, row.a < 0.0f ? -1 : 1) << "a=" << row.a;
      rows.push_back(row);
    }
    expect_thresholds_match(k, rows, "adversarial k=" + std::to_string(k));
    EXPECT_EQ((std::vector<std::int32_t>{3 * k + 1, 3 * k + 1, 3 * k + 1}),
              std::vector<std::int32_t>(rows[10].t, rows[10].t + 3));
    EXPECT_EQ((std::vector<std::int32_t>{-3 * k, -3 * k, -3 * k}),
              std::vector<std::int32_t>(rows[11].t, rows[11].t + 3));
    EXPECT_EQ(-3 * k, rows[12].t[0]);
    EXPECT_EQ(3 * k, rows[13].t[2]);
    if (k >= 3) {
      // The boundary row's second threshold sits exactly where v == 1.5.
      EXPECT_EQ(2, packed::reference_code(3, 0.5f, 0.0f, 3.0f));
      EXPECT_EQ(3, rows[16].t[1]);
    }
  }
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
