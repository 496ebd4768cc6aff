// Packed W2A2 popcount-GEMM bench: packed vs float GEMM throughput across
// the CNV layer shapes at every supported ISA tier, the activation-packing
// amortization curve, per-shape conv GEMM times of the eval-packed models
// (threshold epilogue vs raw sums), and the end-to-end evaluate_exits()
// speedup of the packed inference path over the float layer graph (the
// >=3x gate).
//
//   ./build/bench/bench_packed            # full tables + speedup measurement
//   ./build/bench/bench_packed --smoke    # CI gate: packed/float decision
//                                         # identity + a loose speedup bound
//
// The speedup is the median over interleaved float/packed pairs of the
// per-pair ratio, so a slow stretch of a shared runner hits both sides of
// a pair instead of one side's best-of-N. The smoke mode is wired into the
// perf-smoke CI job; the end-to-end record of the packed path is
// perfbench's eval-packed workload (perfbench/README.md).

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tensor/kernels.hpp"
#include "tensor/packed.hpp"

namespace adapex {
namespace {

using bench::Timer;

/// One GEMM problem shaped like a CNV layer: rows = output channels,
/// k = C_in * 3 * 3 (or in_features), cols = output pixels (or batch).
struct Shape {
  const char* name;
  int rows;
  int k;
  int cols;
};

// The full-scale CNV backbone (conv 64..256, fc 512) plus one pruned
// layer whose k is not a multiple of 64 (tail-lane handling is on the
// hot path for every pruned design point).
const Shape kShapes[] = {
    {"conv1 64x576x1024", 64, 3 * 64 * 9 / 3, 1024},  // 64 in-ch, 32x32
    {"conv3 128x1152x256", 128, 128 * 9, 256},
    {"conv5 256x2304x64", 256, 256 * 9, 64},
    {"fc1 512x4096xB32", 512, 4096, 32},
    {"pruned 91x1017x256", 91, 113 * 9, 256},
};

double flops(const Shape& s) {
  return 2.0 * s.rows * s.k * s.cols;
}

std::vector<std::int8_t> ternary_codes(int rows, int k, Rng& rng) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(rows) * k);
  for (auto& c : w) {
    const double u = rng.uniform();
    c = u < 0.4 ? std::int8_t{0} : (u < 0.7 ? std::int8_t{1} : std::int8_t{-1});
  }
  return w;
}

std::vector<std::uint8_t> act_codes(int cols, int k, Rng& rng) {
  std::vector<std::uint8_t> a(static_cast<std::size_t>(cols) * k);
  for (auto& c : a) {
    c = static_cast<std::uint8_t>(rng.uniform() * 3.999);
  }
  return a;
}

/// Runs fn repeatedly until ~min_s wall seconds elapse; returns seconds per
/// call.
template <typename Fn>
double time_per_call(Fn&& fn, double min_s = 0.10) {
  fn();  // warm up (and fault in the buffers)
  int iters = 1;
  for (;;) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    const double s = t.seconds();
    if (s >= min_s) return s / iters;
    iters = s > 1e-4 ? static_cast<int>(iters * (min_s / s) + 1) : iters * 10;
  }
}

/// Packed vs float GEMM GOPS across the CNV shapes, one row per
/// (shape, tier); float baseline is the blocked kernels::gemm_accumulate.
void gemm_table(bool smoke) {
  std::vector<std::string> tiers;
  const std::string initial = packed::active_isa();
  for (const char* isa : {"scalar", "avx2", "avx512", "avx512vp"}) {
    try {
      packed::force_isa(isa);
      tiers.emplace_back(isa);
    } catch (const ConfigError&) {
    }
  }
  packed::force_isa(initial.c_str());

  TextTable table({"shape", "tier", "packed_gops", "float_gops", "speedup"});
  Rng rng(11);
  for (const Shape& s : kShapes) {
    if (smoke && std::strncmp(s.name, "conv3", 5) != 0) continue;

    // Float baseline: C[rows,cols] += A[rows,k] * B[k,cols].
    std::vector<float> fa(static_cast<std::size_t>(s.rows) * s.k, 0.5f);
    std::vector<float> fb(static_cast<std::size_t>(s.k) * s.cols, 0.25f);
    std::vector<float> fc(static_cast<std::size_t>(s.rows) * s.cols);
    const double float_s = time_per_call([&] {
      kernels::gemm_accumulate(fa.data(), fb.data(), fc.data(), s.rows, s.k,
                               s.cols);
    });
    const double float_gops = flops(s) / float_s * 1e-9;

    const auto wc = ternary_codes(s.rows, s.k, rng);
    const auto ac = act_codes(s.cols, s.k, rng);
    packed::PackedWeights w;
    packed::pack_weights(wc.data(), s.rows, s.k, w);
    packed::PackedActivations a;
    packed::pack_activations(ac.data(), s.cols, s.k, a);
    std::vector<std::int32_t> out(static_cast<std::size_t>(s.rows) * s.cols);
    packed::Epilogue e;
    e.mode = packed::Epilogue::Mode::kInt32;
    e.s32 = out.data();
    e.row_stride = static_cast<std::size_t>(s.cols);

    for (const std::string& isa : tiers) {
      packed::force_isa(isa.c_str());
      const double packed_s =
          time_per_call([&] { packed::popcount_gemm(w, a, e); });
      const double packed_gops = flops(s) / packed_s * 1e-9;
      table.add_row({s.name, isa, TextTable::num(packed_gops, 1),
                     TextTable::num(float_gops, 1),
                     TextTable::num(packed_gops / float_gops, 2)});
    }
  }
  packed::force_isa(initial.c_str());
  bench::emit(table, "bench_packed_gemm");
}

/// Activation-packing amortization: packing is O(cols*k) while the GEMM is
/// O(rows*cols*k), so the packing share of a layer's time falls as 1/rows.
/// The curve locates the row count where packing drops below 10% overhead.
void amortization_curve() {
  TextTable table(
      {"rows", "pack_ms", "gemm_ms", "pack_share_pct", "eff_speedup_vs_float"});
  const int k = 1152, cols = 256;
  Rng rng(13);
  const auto ac = act_codes(cols, k, rng);
  for (int rows : {8, 16, 32, 64, 128, 256}) {
    const auto wc = ternary_codes(rows, k, rng);
    packed::PackedWeights w;
    packed::pack_weights(wc.data(), rows, k, w);
    packed::PackedActivations a;
    const double pack_s = time_per_call(
        [&] { packed::pack_activations(ac.data(), cols, k, a); });
    std::vector<std::int32_t> out(static_cast<std::size_t>(rows) * cols);
    packed::Epilogue e;
    e.mode = packed::Epilogue::Mode::kInt32;
    e.s32 = out.data();
    e.row_stride = static_cast<std::size_t>(cols);
    const double gemm_s =
        time_per_call([&] { packed::popcount_gemm(w, a, e); });

    std::vector<float> fa(static_cast<std::size_t>(rows) * k, 0.5f);
    std::vector<float> fb(static_cast<std::size_t>(k) * cols, 0.25f);
    std::vector<float> fc(static_cast<std::size_t>(rows) * cols);
    const double float_s = time_per_call(
        [&] { kernels::gemm_accumulate(fa.data(), fb.data(), fc.data(), rows,
                                       k, cols); });

    table.add_row({std::to_string(rows), TextTable::num(pack_s * 1e3, 3),
                   TextTable::num(gemm_s * 1e3, 3),
                   TextTable::num(pack_s / (pack_s + gemm_s) * 100.0, 1),
                   TextTable::num(float_s / (pack_s + gemm_s), 2)});
  }
  bench::emit(table, "bench_packed_amortization");
}

/// Per-shape conv GEMM times for the eval-packed workload's models (CNV
/// width 0.25 with exits, pruned 0/25/50/75%): every packed conv GEMM a
/// batch-32 packed_forward issues, timed with the production epilogue (the
/// frozen stage's integer thresholds to codes) beside raw int32 sums, on
/// the active tier. Weights and thresholds are the frozen stages'; the
/// activation codes are random.
void conv_shape_table() {
  constexpr int kBatch = 32;
  // packed_forward groups images so a narrow conv's GEMM has at least this
  // many columns (nn/quant.cpp, kGroupColumns).
  constexpr int kGroupColumns = 64;
  TextTable table({"rate", "stage", "rows", "k", "cols", "int32_us",
                   "codes_us", "codes_gops"});
  CnvConfig cnv = CnvConfig{}.scaled(0.25);
  Rng rng(7);
  const BranchyModel base =
      build_cnv_with_exits(cnv, paper_exits_config(false), rng);
  for (const int rate : {0, 25, 50, 75}) {
    BranchyModel model = base.clone();
    PruneOptions po;
    po.rate = rate / 100.0;
    po.folding = styled_folding(
        walk_compute_layers(model, cnv.in_channels, cnv.image_size));
    prune_model(model, po);
    const PackedModel frozen = freeze_packed(model);
    // Walk the backbone's code geometry; heads tap it after their block.
    int h = cnv.image_size;
    const auto time_segment = [&](const PackedSegment& seg, int hh,
                                  const char* part, std::size_t index) {
      int conv = 0;
      for (const PackedStage& st : seg.stages) {
        if (st.kind == PackedStage::Kind::kFloatFront) {
          hh -= st.qweight.dim(2) - 1;
        } else if (st.kind == PackedStage::Kind::kMaxPool) {
          hh = (hh - st.pool_kernel) / st.pool_stride + 1;
        } else if (st.kind == PackedStage::Kind::kConv) {
          hh -= st.kernel - 1;
          const int pixels = hh * hh;
          const int images =
              std::min(kBatch, (kGroupColumns + pixels - 1) / pixels);
          const int cols = images * pixels;
          const int rows = st.weights.rows;
          const auto ac = act_codes(cols, st.weights.k, rng);
          packed::PackedActivations a;
          packed::pack_activations(ac.data(), cols, st.weights.k, a);
          std::vector<std::int32_t> sums(static_cast<std::size_t>(rows) * cols);
          std::vector<std::uint8_t> codes(sums.size());
          packed::Epilogue ei;
          ei.mode = packed::Epilogue::Mode::kInt32;
          ei.s32 = sums.data();
          ei.row_stride = static_cast<std::size_t>(cols);
          packed::Epilogue eq;
          eq.mode = packed::Epilogue::Mode::kQuantize;
          eq.thresholds = st.thresholds.data();
          eq.codes = codes.data();
          eq.row_stride = static_cast<std::size_t>(cols);
          const double int32_s = time_per_call(
              [&] { packed::popcount_gemm(st.weights, a, ei); }, 0.02);
          const double codes_s = time_per_call(
              [&] { packed::popcount_gemm(st.weights, a, eq); }, 0.02);
          std::string stage = part;
          stage += std::to_string(index);
          stage += ".conv";
          stage += std::to_string(conv++);
          table.add_row(
              {std::to_string(rate), stage,
               std::to_string(rows), std::to_string(st.weights.k),
               std::to_string(cols), TextTable::num(int32_s * 1e6, 1),
               TextTable::num(codes_s * 1e6, 1),
               TextTable::num(2.0 * rows * st.weights.k * cols / codes_s *
                                  1e-9,
                              1)});
        }
      }
      return hh;
    };
    std::size_t e = 0;
    for (std::size_t b = 0; b < frozen.blocks.size(); ++b) {
      h = time_segment(frozen.blocks[b], h, "b", b);
      for (; e < frozen.exits.size() &&
             frozen.exits[e].after_block == static_cast<int>(b);
           ++e) {
        time_segment(frozen.exits[e].head, h, "exit", e);
      }
    }
  }
  std::cout << "conv GEMM per shape, batch " << kBatch << ", tier "
            << packed::active_isa() << ":\n";
  bench::emit(table, "bench_packed_conv_shapes");
}

struct EvalFixture {
  SyntheticDataset data;
  BranchyModel model;
};

EvalFixture make_eval_fixture(int test_size, double scale) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 64;
  spec.test_size = test_size;
  Rng rng(42);
  CnvConfig cfg = CnvConfig{}.scaled(scale);
  cfg.num_classes = spec.num_classes;
  EvalFixture fx{make_synthetic(spec),
                 build_cnv_with_exits(cfg, paper_exits_config(false), rng)};
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  train_model(fx.model, fx.data.train, spec.flip_symmetry, tc);
  return fx;
}

/// Gate: packed and float evaluation must agree on every argmax decision
/// (ExitEvaluation::correct) and on every derived threshold decision.
/// Returns the measured packed-over-float speedup: the median per-pair
/// ratio over `pairs` interleaved float/packed evaluations.
double eval_speedup_and_identity(EvalFixture& fx, int pairs) {
  const auto f = evaluate_exits(fx.model, fx.data.test, 32, 1,
                                PackedMode::kOff);
  const auto p = evaluate_exits(fx.model, fx.data.test, 32, 1,
                                PackedMode::kOn);
  if (f.correct != p.correct) {
    std::cerr << "FAIL: packed vs float argmax-correctness records differ\n";
    std::exit(2);
  }
  for (int t = 0; t <= 100; t += 5) {
    const auto sf = apply_threshold(f, t / 100.0);
    const auto sp = apply_threshold(p, t / 100.0);
    if (sf.accuracy != sp.accuracy || sf.exit_fraction != sp.exit_fraction) {
      std::cerr << "FAIL: threshold " << t << " decisions differ\n";
      std::exit(2);
    }
  }
  std::cout << "decision identity: OK (correct records byte-equal, all "
               "thresholds 0..100 identical)\n";

  // Interleaved pairs, alternating which side runs first; the gate reads
  // the median of the per-pair float/packed ratios.
  std::vector<double> ratios;
  std::vector<double> float_ms;
  std::vector<double> packed_ms;
  for (int r = 0; r < pairs; ++r) {
    double float_s = 0.0;
    double packed_s = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool packed_side = (side == 0) == (r % 2 == 1);
      Timer t;
      evaluate_exits(fx.model, fx.data.test, 32, 1,
                     packed_side ? PackedMode::kOn : PackedMode::kOff);
      (packed_side ? packed_s : float_s) = t.seconds();
    }
    ratios.push_back(float_s / packed_s);
    float_ms.push_back(float_s * 1e3);
    packed_ms.push_back(packed_s * 1e3);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  const double speedup = median(ratios);
  std::cout << "evaluate_exits over " << pairs << " interleaved pairs: float "
            << TextTable::num(median(float_ms), 1) << " ms, packed "
            << TextTable::num(median(packed_ms), 1)
            << " ms (freeze included; medians), per-pair speedup median "
            << TextTable::num(speedup, 2) << "x (range "
            << TextTable::num(*std::min_element(ratios.begin(), ratios.end()),
                              2)
            << ".."
            << TextTable::num(*std::max_element(ratios.begin(), ratios.end()),
                              2)
            << ") on " << packed::active_isa() << "\n";
  return speedup;
}

/// Interleaved float/packed pairs behind the speedup gate (odd, so the
/// median is one measured pair).
constexpr int kSpeedupPairs = 7;

int run(bool smoke) {
  bench::print_header("BENCH packed",
                      "bit-packed W2A2 popcount inference vs float path");
  std::cout << "active packed ISA tier: " << packed::active_isa() << "\n";

  gemm_table(smoke);
  if (!smoke) {
    amortization_curve();
    conv_shape_table();
  }

  // Smoke uses a smaller test set so the gate stays fast on CI; the full
  // mode measures at the scale evaluate_exits runs during generation.
  EvalFixture fx = smoke ? make_eval_fixture(128, 0.125)
                         : make_eval_fixture(256, 0.25);
  const double speedup = eval_speedup_and_identity(fx, kSpeedupPairs);

  // The PR gate is >=3x at generation scale; the smoke bound is looser
  // because shared CI runners are noisy and the smoke model is smaller.
  const double bound = smoke ? 2.0 : 3.0;
  if (speedup < bound) {
    std::cerr << "FAIL: packed evaluate_exits speedup " << speedup
              << "x below the " << bound << "x gate\n";
    return 1;
  }
  std::cout << (smoke ? "[smoke] " : "") << "packed speedup gate (>="
            << bound << "x): OK\n";
  return 0;
}

}  // namespace
}  // namespace adapex

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return adapex::run(smoke);
}
