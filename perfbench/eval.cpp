// eval-packed: evaluate_exits on the packed popcount path.
//
// One early-exit CNV (width 0.25) is trained for one epoch and pruned to
// 0/25/50/75% during set-up; the timed operation evaluates all four models
// on a 512-image test set with the packed path on min(4, nproc) threads.
// This exercises tensor/packed and nn/quant and bypasses training, so a
// packed-path change shows here and not in gen-train.

#include <numeric>
#include <optional>
#include <thread>

#include "core/adapex.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace adapex;

constexpr int kRates[] = {0, 25, 50, 75};
constexpr int kTestImages = 512;
constexpr int kBatch = 32;

struct EvalInputs {
  SyntheticDataset data;
  std::vector<BranchyModel> models;  ///< One per kRates entry.
};

EvalInputs build_inputs(const Options& opt, Tracer* tr) {
  SyntheticSpec ds = cifar10_like_spec();
  ds.train_size = 256;
  ds.test_size = kTestImages;
  ds.seed = opt.seed;
  EvalInputs in{[&] {
                  Tracer::Scope s(tr, "data.make_synthetic");
                  return make_synthetic(ds);
                }(),
                {}};
  CnvConfig cnv = CnvConfig{}.scaled(0.25);
  cnv.num_classes = ds.num_classes;
  Rng rng(opt.seed);
  BranchyModel base;
  {
    Tracer::Scope s(tr, "nn.build_cnv");
    base = build_cnv_with_exits(cnv, paper_exits_config(false), rng);
  }
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.lr = 1e-2;
  tc.seed = opt.seed + 11;
  {
    Tracer::Scope s(tr, "nn.train_base");
    train_model(base, in.data.train, ds.flip_symmetry, tc);
  }
  auto sites = walk_compute_layers(base, cnv.in_channels, cnv.image_size);
  const FoldingConfig folding = styled_folding(sites);
  for (int rate : kRates) {
    BranchyModel m;
    {
      Tracer::Scope s(tr, "nn.clone");
      m = base.clone();
    }
    PruneOptions po;
    po.rate = rate / 100.0;
    po.folding = folding;
    {
      Tracer::Scope s(tr, "pruning.prune_model");
      prune_model(m, po);
    }
    in.models.push_back(std::move(m));
  }
  return in;
}

using Sweep = std::vector<ExitEvaluation>;

Sweep evaluate_all(EvalInputs& in, int threads, PackedMode mode, Tracer* tr) {
  Sweep out;
  for (BranchyModel& m : in.models) {
    Tracer::Scope s(tr, "nn.evaluate_exits");
    out.push_back(evaluate_exits(m, in.data.test, kBatch, threads, mode));
  }
  return out;
}

bool same_records(const Sweep& a, const Sweep& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].confidence != b[i].confidence || a[i].correct != b[i].correct) {
      return false;
    }
  }
  return a.size() == b.size();
}

/// The exit each sample takes at `threshold` (the runtime rule of
/// apply_threshold: first exit whose confidence clears it, else the last).
std::size_t taken_exit(const ExitEvaluation& e, std::size_t s,
                       double threshold) {
  const std::size_t exits = e.num_exits();
  for (std::size_t x = 0; x + 1 < exits; ++x) {
    if (e.confidence[s][x] >= threshold) return x;
  }
  return exits - 1;
}

/// Packed vs float disagreements on one model: per-exit `correct` records
/// that differ, and per-sample exit decisions that differ at any of the 21
/// paper thresholds.
struct Disagreement {
  long correct = 0;
  long decisions = 0;
};

Disagreement disagreement(const ExitEvaluation& a, const ExitEvaluation& b) {
  Disagreement d;
  for (std::size_t s = 0; s < a.num_samples(); ++s) {
    for (std::size_t x = 0; x < a.num_exits(); ++x) {
      d.correct += a.correct[s][x] != b.correct[s][x];
    }
    for (int t = 0; t <= 100; t += 5) {
      d.decisions += taken_exit(a, s, t / 100.0) != taken_exit(b, s, t / 100.0);
    }
  }
  return d;
}

std::vector<Tensor> test_batches(const Dataset& test) {
  std::vector<Tensor> batches;
  std::vector<int> idx(kBatch);
  for (int start = 0; start + kBatch <= test.size(); start += kBatch) {
    std::iota(idx.begin(), idx.end(), start);
    batches.push_back(test.batch_images(idx));
  }
  return batches;
}

/// Per-call costs of the packed path on the unpruned model: freeze,
/// single-thread forward latency over >= 640 batches, multi-thread batch
/// scaling, the float forward for reference, and the share of a
/// single-thread evaluate_exits spent outside freeze + forward.
void packed_probe(EvalInputs& in, const Options& opt, Tracer& tr,
                  Outcome& out) {
  BranchyModel& model = in.models.front();
  Samples freeze;
  std::optional<PackedModel> frozen;
  for (int i = 0; i < 5; ++i) {
    freeze.add(time_call([&] {
      auto s = tr.span("nn.freeze_packed");
      frozen = freeze_packed(model);
    }));
  }
  out.detail(freeze.summary("nn.freeze_packed_ms", "ms", 1e3));

  const std::vector<Tensor> batches = test_batches(in.data.test);
  constexpr int kForwardBatches = 640;
  Samples fwd;
  PackedScratch scratch;
  const double one_thread_s = time_call([&] {
    for (int b = 0; b < kForwardBatches; ++b) {
      fwd.add(time_call([&] {
        auto s = tr.span("nn.packed_forward");
        packed_forward(*frozen, batches[b % batches.size()], scratch);
      }));
    }
  });
  out.detail("nn.packed_forward_ms_p50", fwd.quantile(0.5) * 1e3, "ms");
  out.detail("nn.packed_forward_ms_p95", fwd.quantile(0.95) * 1e3, "ms");

  const int per_thread = kForwardBatches / opt.threads;
  const double multi_s = time_call([&] {
    std::vector<std::thread> workers;
    for (int t = 0; t < opt.threads; ++t) {
      workers.emplace_back([&, t] {
        PackedScratch local;
        for (int b = 0; b < per_thread; ++b) {
          auto s = tr.span("nn.packed_forward");
          packed_forward(*frozen, batches[(b + t) % batches.size()], local);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  });
  const double scaling = (per_thread * opt.threads / multi_s) /
                         (kForwardBatches / one_thread_s);
  out.detail("nn.packed_scaling", scaling, "x");

  BranchyModel float_model = model.clone();
  Samples float_fwd;
  for (int b = 0; b < 32; ++b) {
    float_fwd.add(time_call([&] {
      auto s = tr.span("nn.float_forward");
      float_model.forward(batches[b % batches.size()], false);
    }));
  }
  out.detail("nn.float_forward_ms_p50", float_fwd.median() * 1e3, "ms");

  Samples eval1;
  for (int i = 0; i < 3; ++i) {
    eval1.add(time_call([&] {
      auto s = tr.span("nn.evaluate_exits");
      evaluate_exits(model, in.data.test, kBatch, 1, PackedMode::kOn);
    }));
  }
  const double inside = freeze.median() +
                        fwd.median() * static_cast<double>(batches.size());
  out.detail("nn.eval_outside_forward_share", 1.0 - inside / eval1.median(),
             "ratio");
}

}  // namespace

Outcome run_eval_packed(const Options& opt) {
  Outcome out;
  out.config["threads"] = opt.threads;
  out.config["test_images"] = kTestImages;
  if (opt.trace) {
    Tracer tr;
    EvalInputs in = build_inputs(opt, &tr);
    // Alternate untraced and traced sweeps over the same window: the
    // difference of their medians is the tracing overhead.
    Samples plain, traced;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 6 || seconds_since(start) < opt.seconds; ++rep) {
      Tracer* t = rep % 2 == 1 ? &tr : nullptr;
      (t != nullptr ? traced : plain).add(time_call(
          [&] { evaluate_all(in, opt.threads, PackedMode::kOn, t); }));
    }
    out.detail("trace.overhead_pct",
               100.0 * (traced.median() / plain.median() - 1.0), "%");
    packed_probe(in, opt, tr, out);
    finish_trace(out, tr, {}, opt, "eval-packed");
    return out;
  }

  Samples setup;
  EvalInputs in =
      repeated_setup([&] { return build_inputs(opt, nullptr); }, setup);
  out.metric(setup.summary("setup_s", "s"));

  // Warm-up sweep: untimed; its records are the identity reference.
  const Sweep ref = evaluate_all(in, opt.threads, PackedMode::kOn, nullptr);
  const Samples walls = time_loop(opt.seconds, 10, [&](int rep) {
    out.check(same_records(evaluate_all(in, opt.threads, PackedMode::kOn,
                                        nullptr),
                           ref),
              "packed repetition " + std::to_string(rep) + " differs");
  });
  const double images = static_cast<double>(kTestImages) * std::size(kRates);
  out.metric(walls.rates(images).summary("work_per_s", "1/s"));
  out.detail(walls.summary("eval_sweep_ms", "ms", 1e3));
  out.detail(walls.rates(images).summary("eval_images_per_s", "images/s"));

  // Checked once, untimed.
  out.check(same_records(evaluate_all(in, 1, PackedMode::kOn, nullptr), ref),
            "packed 1-thread records differ from the multi-thread records");
  // Packed and float agree except at near-tie samples, where a value lands
  // within float epsilon of an activation-rounding or argmax boundary
  // (DESIGN.md "Packed integer inference"); on these 1-epoch models that
  // happens to a few records at some seeds. Up to 1% may differ; a broken
  // packed path differs on far more.
  const Sweep floats = evaluate_all(in, opt.threads, PackedMode::kOff, nullptr);
  Disagreement total;
  for (std::size_t i = 0; i < floats.size(); ++i) {
    const Disagreement d = disagreement(ref[i], floats[i]);
    total.correct += d.correct;
    total.decisions += d.decisions;
  }
  const double records = static_cast<double>(kTestImages) * std::size(kRates);
  const double exits = static_cast<double>(ref.front().num_exits());
  out.check(total.correct <= 0.01 * records * exits,
            "packed and float correct records differ on more than 1%");
  out.check(total.decisions <= 0.01 * records * 21,
            "packed and float exit decisions differ on more than 1%");
  out.detail("nn.packed_float.correct_mismatches", double(total.correct),
             "count");
  out.detail("nn.packed_float.decision_mismatches", double(total.decisions),
             "count");
  return out;
}

}  // namespace perfbench
