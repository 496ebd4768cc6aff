// Micro-benchmarks (google-benchmark) of the hot kernels: the conv/GEMM
// training kernels, the early-exit evaluation path (float and packed), the
// accelerator
// compile, the event-driven pipeline simulator, one dataflow
// cross-validation, and the serving simulator (edge episode, fleet arrival
// merge, fleet episode). These bound the cost of a library-generation run
// and catch performance regressions.

#include <benchmark/benchmark.h>

#include "analysis/dataflow.hpp"
#include "core/adapex.hpp"
#include "edge/fleet.hpp"
#include "nn/quant.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/packed.hpp"

namespace {

using namespace adapex;

// Blocked kernel (routes through tensor/kernels.hpp dispatch).
void BM_GemmAccumulate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmAccumulate)->Arg(64)->Arg(128)->Arg(256);

// Retained naive i-k-j reference: the "before" baseline the blocked kernel
// is compared against (same build, same flags).
void BM_GemmRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::ref::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

// 85%-zero A: the blocked kernel's exact-zero skip at a density no
// workload reaches (pruning removes whole filters, so pruned weights are
// smaller, not sparser).
void BM_GemmSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.bernoulli(0.85) ? 0.0f : 1.5f;
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::gemm_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmSparse)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmABt)->Arg(64)->Arg(256);

// Dot-kernel column tails at the conv2 weight-gradient shape (m = 12
// filters, k = 784 pixels): 16 columns take one tail sliver, 17 columns a
// wider one.
void BM_GemmABtTail(benchmark::State& state) {
  const int m = 12, k = 784, n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(m) * k, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * k, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    kernels::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2L * m * k * n);
}
BENCHMARK(BM_GemmABtTail)->Arg(16)->Arg(17);

void BM_GemmABtRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::ref::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmABtRef)->Arg(64)->Arg(256);

void BM_GemmAtB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.5f);
  std::vector<float> b(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    kernels::gemm_at_b_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * n * n * n);
}
BENCHMARK(BM_GemmAtB)->Arg(64)->Arg(256);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(1);
  Tensor x({8, 16, 16, 16});
  x.randn_(rng, 1.0f);
  Tensor w({32, 16, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor bias;
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, bias);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(7);
  Tensor x({8, 16, 16, 16});
  x.randn_(rng, 1.0f);
  Tensor w({32, 16, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor bias;
  Tensor y = ops::conv2d_forward(x, w, bias);
  Tensor dy(y.shape());
  dy.randn_(rng, 1.0f);
  Tensor dw(w.shape());
  Tensor db;
  for (auto _ : state) {
    Tensor dx;
    ops::conv2d_backward(x, w, dy, dx, dw, db);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

// The tiny-preset CNV's conv layers at training batch 16, keyed by output
// plane size: conv1 (900), conv2 (784), conv3 (144), conv5 (9), conv6 (1).
struct CnvConvShape {
  int patch, cin, hw, fout;
};
constexpr CnvConvShape kCnvConvShapes[] = {
    {900, 3, 32, 12}, {784, 12, 30, 12}, {144, 12, 14, 24},
    {9, 24, 5, 48},   {1, 48, 3, 48},
};

const CnvConvShape& cnv_conv_shape(const benchmark::State& state) {
  for (const auto& s : kCnvConvShapes) {
    if (s.patch == state.range(0)) return s;
  }
  return kCnvConvShapes[0];
}

void cnv_conv_args(benchmark::internal::Benchmark* b) {
  for (const auto& s : kCnvConvShapes) b->Arg(s.patch);
}

void BM_Conv2dCnvForward(benchmark::State& state) {
  const CnvConvShape& s = cnv_conv_shape(state);
  Rng rng(10);
  Tensor x({16, s.cin, s.hw, s.hw});
  x.randn_(rng, 1.0f);
  Tensor w({s.fout, s.cin, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor bias;
  for (auto _ : state) {
    Tensor y = ops::conv2d_forward(x, w, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 16L * s.patch * s.fout * s.cin *
                          9 * 2);
}
BENCHMARK(BM_Conv2dCnvForward)->Apply(cnv_conv_args);

void BM_Conv2dCnvBackward(benchmark::State& state) {
  const CnvConvShape& s = cnv_conv_shape(state);
  Rng rng(11);
  Tensor x({16, s.cin, s.hw, s.hw});
  x.randn_(rng, 1.0f);
  Tensor w({s.fout, s.cin, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor dy({16, s.fout, s.hw - 2, s.hw - 2});
  dy.randn_(rng, 1.0f);
  Tensor dw(w.shape());
  Tensor db;
  for (auto _ : state) {
    Tensor dx;
    ops::conv2d_backward(x, w, dy, dx, dw, db);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 16L * s.patch * s.fout * s.cin *
                          9 * 4);
}
BENCHMARK(BM_Conv2dCnvBackward)->Apply(cnv_conv_args);

// The model's first conv (conv1, 3 -> 12 channels on 32x32) as training runs
// it: weight gradient only, no input gradient.
void BM_Conv2dCnvBackwardNoInputGrad(benchmark::State& state) {
  Rng rng(14);
  Tensor x({16, 3, 32, 32});
  x.randn_(rng, 1.0f);
  Tensor w({12, 3, 3, 3});
  w.randn_(rng, 0.5f);
  Tensor dy({16, 12, 30, 30});
  dy.randn_(rng, 1.0f);
  Tensor dw(w.shape());
  Tensor dx, db;
  for (auto _ : state) {
    ops::conv2d_backward(x, w, dy, dx, dw, db, /*need_input_grad=*/false);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 16L * 900 * 12 * 3 * 9 * 2);
}
BENCHMARK(BM_Conv2dCnvBackwardNoInputGrad);

// The conv weight gradient alone (kernels::conv_weight_grad, batch 16) at
// conv2's shape (12 -> 12 channels on 30x30) and at the pruned input
// widths the sweep produces there, keyed by input channels: cin 8 and 16
// give 72 and 144 gradient columns, whose 16-wide tails are one vector on
// avx512.
void BM_ConvWeightGrad(benchmark::State& state) {
  const int cin = static_cast<int>(state.range(0));
  const kernels::ConvShape s{16, cin, 30, 30, 3, 12};
  Rng rng(15);
  Tensor x({16, cin, 30, 30});
  x.randn_(rng, 1.0f);
  Tensor dy({16, 12, 28, 28});
  dy.randn_(rng, 1.0f);
  Tensor dw({12, cin, 3, 3});
  for (auto _ : state) {
    kernels::conv_weight_grad(dy.data(), x.data(), s, dw.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 16L * s.patch() * s.rows() *
                          12 * 2);
}
BENCHMARK(BM_ConvWeightGrad)->Arg(12)->Arg(8)->Arg(16);

// The 2-bit activation quantizer on conv2's training output (16x12x28x28).
void BM_ActQuantForward(benchmark::State& state) {
  Rng rng(12);
  Tensor x({16, 12, 28, 28});
  x.randn_(rng, 1.0f);
  ActQuantizer aq(2);
  for (auto _ : state) {
    Tensor y = aq.forward(x, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.numel()));
}
BENCHMARK(BM_ActQuantForward);

void BM_ActQuantBackward(benchmark::State& state) {
  Rng rng(13);
  Tensor x({16, 12, 28, 28});
  x.randn_(rng, 1.0f);
  Tensor dy(x.shape());
  dy.randn_(rng, 1.0f);
  ActQuantizer aq(2);
  aq.forward(x, /*train=*/true);
  for (auto _ : state) {
    Tensor dx = aq.backward(x, dy);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.numel()));
}
BENCHMARK(BM_ActQuantBackward);

void BM_LinearForward(benchmark::State& state) {
  Rng rng(8);
  Tensor x({32, 512});
  x.randn_(rng, 1.0f);
  Tensor w({256, 512});
  w.randn_(rng, 0.5f);
  Tensor bias({256});
  bias.randn_(rng, 0.5f);
  for (auto _ : state) {
    Tensor y = ops::linear_forward(x, w, bias);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2L * 32 * 512 * 256);
}
BENCHMARK(BM_LinearForward);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(9);
  Tensor x({8, 32, 32, 32});
  x.randn_(rng, 1.0f);
  std::vector<int> argmax;
  for (auto _ : state) {
    Tensor y = ops::maxpool_forward(x, 2, 2, argmax);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPool);

void BM_CnvInference(benchmark::State& state) {
  Rng rng(2);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  Tensor x({1, 3, 32, 32});
  x.randn_(rng, 1.0f);
  for (auto _ : state) {
    auto outs = model.forward(x, false);
    benchmark::DoNotOptimize(outs.back().data());
  }
}
BENCHMARK(BM_CnvInference);

void BM_EvaluateExits(benchmark::State& state) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 8;
  spec.test_size = 256;
  SyntheticDataset data = make_synthetic(spec);
  Rng rng(5);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  cfg.num_classes = spec.num_classes;
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto eval = evaluate_exits(model, data.test, 32, threads);
    benchmark::DoNotOptimize(eval.confidence.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.test_size);
}
BENCHMARK(BM_EvaluateExits)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Packed im2col of one 32-image batch of 2-bit codes at the tiny-CNV packed
// conv inputs, keyed by output plane: conv2 (784), conv3 (144), conv4
// (100), conv5 (9), conv6 (1).
struct PackShape {
  int plane, cin, hw;
};
constexpr PackShape kPackShapes[] = {
    {784, 12, 30}, {144, 12, 14}, {100, 24, 12}, {9, 24, 5}, {1, 48, 3},
};

void BM_PackIm2col(benchmark::State& state) {
  PackShape s = kPackShapes[0];
  for (const auto& p : kPackShapes) {
    if (p.plane == state.range(0)) s = p;
  }
  constexpr int kImages = 32;
  Rng rng(14);
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(kImages) * s.cin *
                                  s.hw * s.hw);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.uniform_index(4));
  packed::PackedActivations acts;
  for (auto _ : state) {
    packed::pack_activations_im2col(codes.data(), kImages, s.cin, s.hw, s.hw,
                                    3, acts);
    benchmark::DoNotOptimize(acts.lo.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kImages * s.plane * s.cin * 9);
}
BENCHMARK(BM_PackIm2col)->Arg(784)->Arg(144)->Arg(100)->Arg(9)->Arg(1);

// One batch-32 packed_forward of a frozen CNV with exits; the argument is
// the width scale in thousandths (125 = 0.125, 250 = 0.25).
void BM_PackedForward(benchmark::State& state) {
  Rng rng(15);
  CnvConfig cfg = CnvConfig{}.scaled(static_cast<double>(state.range(0)) /
                                     1000.0);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  const PackedModel frozen = freeze_packed(model);
  Tensor x({32, 3, 32, 32});
  x.randn_(rng, 1.0f);
  PackedScratch scratch;
  for (auto _ : state) {
    auto outs = packed_forward(frozen, x, scratch);
    benchmark::DoNotOptimize(outs.back().data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_PackedForward)->Arg(125)->Arg(250)->Unit(benchmark::kMillisecond);

void BM_TrainEpoch(benchmark::State& state) {
  SyntheticSpec spec = cifar10_like_spec();
  spec.train_size = 128;
  spec.test_size = 8;
  SyntheticDataset data = make_synthetic(spec);
  Rng rng(6);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  cfg.num_classes = spec.num_classes;
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  for (auto _ : state) {
    state.PauseTiming();
    BranchyModel model =
        build_cnv_with_exits(cfg, paper_exits_config(false), rng);
    state.ResumeTiming();
    auto history = train_model(model, data.train, spec.flip_symmetry, tc);
    benchmark::DoNotOptimize(history.data());
  }
  state.SetItemsProcessed(state.iterations() * spec.train_size);
}
BENCHMARK(BM_TrainEpoch)->Unit(benchmark::kMillisecond);

void BM_CompileAccelerator(benchmark::State& state) {
  Rng rng(3);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  auto folding = styled_folding(sites);
  for (auto _ : state) {
    Accelerator acc = compile_accelerator(model, folding, AcceleratorConfig{});
    benchmark::DoNotOptimize(acc.total.lut);
  }
}
BENCHMARK(BM_CompileAccelerator);

/// The 0.25-width CNV with its paper exits, styled folding.
Accelerator small_cnv_accelerator() {
  Rng rng(4);
  CnvConfig cfg = CnvConfig{}.scaled(0.25);
  BranchyModel model = build_cnv_with_exits(cfg, paper_exits_config(false), rng);
  auto sites = walk_compute_layers(model, cfg.in_channels, cfg.image_size);
  return compile_accelerator(model, styled_folding(sites), AcceleratorConfig{});
}

/// A mid-threshold exit mix, like the rows of a verify_dataflow Library.
const std::vector<double> kVerifyMix = {0.3, 0.2, 0.5};

void BM_PipelineSim(benchmark::State& state) {
  const Accelerator acc = small_cnv_accelerator();
  std::vector<int> exits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < exits.size(); ++i) exits[i] = static_cast<int>(i % 3);
  for (auto _ : state) {
    auto result = simulate_pipeline(acc, exits);
    benchmark::DoNotOptimize(result.steady_ii_cycles);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineSim)->Arg(128)->Arg(1024);

// The paced, unbounded, link-recording run cross_validate and size_fifos
// measure occupancy with, at a cross-validation-sized stream.
void BM_PipelineSimPaced(benchmark::State& state) {
  const Accelerator acc = small_cnv_accelerator();
  const auto exits = analysis::make_gated_stimulus(
      kVerifyMix, static_cast<std::size_t>(state.range(0)));
  PipelineSimOptions paced;
  paced.injection_interval_cycles =
      gated_steady_ii(acc, realized_fractions(acc, exits));
  paced.fifo_depth = 0;
  paced.record_link_occupancy = true;
  for (auto _ : state) {
    auto result = simulate_pipeline(acc, exits, paced);
    benchmark::DoNotOptimize(result.links.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineSimPaced)->Arg(10240);

// One dataflow cross-validation: two analyses plus the free and paced
// simulator runs, what a verify_dataflow generation pays per distinct
// (accelerator, exit distribution).
void BM_CrossValidate(benchmark::State& state) {
  const Accelerator acc = small_cnv_accelerator();
  for (auto _ : state) {
    const auto cv = analysis::cross_validate(acc, kVerifyMix);
    if (!cv.passed) {
      state.SkipWithError(cv.summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(cv.measured_ii_cycles);
  }
}
BENCHMARK(BM_CrossValidate)->Unit(benchmark::kMillisecond);

// A synthetic two-entry library keeps the serving benches independent of
// training: an accurate 500 IPS entry and a pruned 1200 IPS one.
Library serving_library() {
  Library lib;
  lib.dataset = "bench";
  lib.reference_accuracy = 0.9;
  lib.static_power_w = 0.7;
  AcceleratorRecord a0;
  a0.id = 0;
  lib.accelerators.push_back(a0);
  AcceleratorRecord a1;
  a1.id = 1;
  a1.prune_rate_pct = 50;
  lib.accelerators.push_back(a1);
  LibraryEntry e0;
  e0.accel_id = 0;
  e0.variant = ModelVariant::kNotPrunedExits;
  e0.conf_threshold_pct = 50;
  e0.accuracy = 0.9;
  e0.exit_fractions = {0.5, 0.5};
  e0.ips = 500;
  e0.latency_ms = 3.0;
  e0.peak_power_w = 1.3;
  e0.energy_per_inf_j = 0.004;
  lib.entries.push_back(e0);
  LibraryEntry e1 = e0;
  e1.accel_id = 1;
  e1.prune_rate_pct = 50;
  e1.accuracy = 0.8;
  e1.ips = 1200;
  lib.entries.push_back(e1);
  return lib;
}

void BM_EdgeEpisode(benchmark::State& state) {
  const Library lib = serving_library();
  EdgeScenario sc;
  sc.cameras = 20;
  sc.ips_per_camera = 30;
  for (auto _ : state) {
    auto m = simulate_edge(lib, {AdaptPolicy::kAdaPEx, 0.10}, sc);
    benchmark::DoNotOptimize(m.qoe);
  }
}
BENCHMARK(BM_EdgeEpisode);

// perfbench serve-fleet's shape offering about `requests` requests over
// serving_library(): 8 devices in 2 failure domains, an interactive and a
// batch tenant at 1.3x the accurate entry's throughput per device,
// staggered reconfiguration and circuit breakers.
FleetScenario serve_fleet_shape(double requests) {
  const double offered = 1.3 * 500.0 * 8;
  FleetScenario f;
  f.base.duration_s = requests / offered;
  f.base.faults.stall_prob = 0.02;
  f.base.faults.stall_duration_s = 0.5;
  f.base.faults.reconfig_fail_prob = 0.02;
  f.base.faults.seu_weight_prob = 0.005;
  for (int i = 0; i < 8; ++i) {
    FleetDeviceSpec d;
    d.domain = i % 2;
    f.devices.push_back(d);
  }
  for (int g = 0; g < 2; ++g) {
    FailureDomain dom;
    dom.spike_prob = 0.05;
    dom.spike_duration_s = 3.0;
    dom.transient_mult = 6.0;
    dom.seu_mult = 4.0;
    f.fleet_faults.domains.push_back(dom);
  }
  TenantSpec interactive;
  interactive.workload.base_ips = offered * 0.6;
  interactive.workload.period_s = 0.25;
  interactive.workload.deviation = 0.4;
  interactive.slo_latency_ms = 250.0;
  interactive.priority = 1;
  TenantSpec batch;
  batch.workload.base_ips = offered * 0.4;
  batch.workload.period_s = 0.25;
  batch.workload.pattern = WorkloadPattern::kDiurnal;
  f.tenants = {interactive, batch};
  for (TenantSpec& t : f.tenants) t.workload.duration_s = f.base.duration_s;
  f.breaker.open_after_failures = 3;
  f.stagger.enabled = true;
  f.stagger.min_capacity_fraction = 0.70;
  return f;
}

// Arrival generation plus the (time, tenant) merge, drained the way
// simulate_fleet reads it.
void BM_FleetArrivals(benchmark::State& state) {
  const FleetScenario f = serve_fleet_shape(static_cast<double>(state.range(0)));
  std::vector<WorkloadSpec> tenants;
  for (const TenantSpec& t : f.tenants) tenants.push_back(t.workload);
  long arrivals = 0;
  for (auto _ : state) {
    double last = 0.0;
    for (FleetArrivalStream s(tenants, f.base.seed); !s.empty(); s.pop()) {
      last = s.front().time_s;
      ++arrivals;
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_FleetArrivals)->Arg(100000)->Arg(1000000)->Unit(
    benchmark::kMillisecond);

// One serve-fleet episode at about 100k requests; items are simulated
// events, so items_per_second is comparable to serve-fleet's work_per_s.
void BM_FleetEpisode(benchmark::State& state) {
  const Library lib = serving_library();
  const FleetScenario f = serve_fleet_shape(1e5);
  long events = 0;
  for (auto _ : state) {
    const FleetMetrics m = simulate_fleet(lib, {AdaptPolicy::kAdaPEx, 0.10}, f);
    events += m.events;
    benchmark::DoNotOptimize(m.p99_latency_ms);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_FleetEpisode)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
