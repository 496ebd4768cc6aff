// gen-train and gen-verify: the design-time Library Generator.
//
// gen-train runs the full paper sweep (53 design points x 21 thresholds) on
// a cut-down training budget, so training dominates and the verifier is
// bypassed. gen-verify runs a shorter sweep with minimal training but with
// reach-aware regimes, dataflow verification and the checkpoint journal on,
// then reloads the published Library from the cache: verifier, journal and
// cache code dominate and training is small. The traced run replays the
// sweep serially through the same public calls run_design_point makes.

#include <filesystem>
#include <functional>
#include <numeric>
#include <optional>
#include <unistd.h>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "common/integrity.hpp"
#include "core/adapex.hpp"
#include "harness.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace adapex;
namespace fs = std::filesystem;

LibraryGenSpec base_spec(const Options& opt) {
  LibraryGenSpec spec =
      make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny(), opt.seed);
  spec.dataset.seed = opt.seed;
  spec.num_threads = opt.threads;
  spec.eval_path = "auto";
  return spec;
}

LibraryGenSpec gen_train_spec(const Options& opt) {
  LibraryGenSpec spec = base_spec(opt);
  spec.dataset.train_size = 96;
  spec.dataset.test_size = 64;
  spec.initial_train.epochs = 3;
  spec.retrain.epochs = 1;
  return spec;
}

LibraryGenSpec gen_verify_spec(const Options& opt) {
  LibraryGenSpec spec = base_spec(opt);
  spec.dataset.train_size = 64;
  spec.dataset.test_size = 64;
  spec.initial_train.epochs = 1;
  spec.retrain.epochs = 1;
  spec.reach_regimes = {{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}, {0.0, 0.0, 1.0}};
  spec.verify_dataflow = true;
  return spec;
}

std::size_t design_points(const LibraryGenSpec& spec) {
  std::size_t n = 0;
  for (ModelVariant v : spec.variants) {
    for (int rate : spec.prune_rates_pct) {
      if (!(v == ModelVariant::kPrunedExits && rate == 0)) ++n;
    }
  }
  return n;
}

/// One untraced generate_library call.
struct GenRun {
  double wall_s = 0.0;
  /// Start -> reference-accuracy message: dataset, serial base training of
  /// both families and the reference evaluation.
  double pre_sweep_s = 0.0;
  GenerationReport report;
  std::string bytes;
};

GenRun run_generate(LibraryGenSpec spec, Library* keep = nullptr) {
  GenRun r;
  spec.report = &r.report;
  const auto t0 = std::chrono::steady_clock::now();
  spec.on_progress = [&r, t0](const std::string& msg) {
    if (msg.rfind("reference accuracy", 0) == 0) {
      r.pre_sweep_s = seconds_since(t0);
    }
  };
  Library lib = generate_library(spec);
  r.wall_s = seconds_since(t0);
  r.bytes = lib.to_json().dump(1);
  if (keep != nullptr) *keep = std::move(lib);
  return r;
}

/// Untimed warm-up run (its bytes are the identity reference), then timed
/// repetitions for opt.seconds; `journal_of(rep)` gives each repetition a
/// fresh journal directory ("" = no journal).
template <typename JournalOf>
std::vector<GenRun> timed_generations(const Options& opt, LibraryGenSpec spec,
                                      JournalOf&& journal_of, GenRun& ref,
                                      Library& ref_lib, Outcome& out) {
  spec.journal_dir = journal_of(0);
  ref = run_generate(spec, &ref_lib);
  out.check(ref.report.quarantined() == 0, "warm-up run quarantined points");
  std::vector<GenRun> runs;
  const auto start = std::chrono::steady_clock::now();
  while (runs.size() < 3 || seconds_since(start) < opt.seconds) {
    spec.journal_dir = journal_of(static_cast<int>(runs.size()) + 1);
    runs.push_back(run_generate(spec));
    out.check(runs.back().bytes == ref.bytes,
              "repetition " + std::to_string(runs.size()) +
                  " is not byte-identical to the first run");
    out.check(runs.back().report.quarantined() == 0,
              "repetition " + std::to_string(runs.size()) +
                  " quarantined design points");
  }
  return runs;
}

void report_generations(Outcome& out, const std::vector<GenRun>& runs,
                        std::size_t points) {
  Samples wall, busy, wall_max, ckpt, pre;
  long quarantined = 0;
  for (const GenRun& r : runs) {
    wall.add(r.wall_s);
    busy.add(r.report.compute_wall_s);
    ckpt.add(r.report.checkpoint_wall_s);
    pre.add(r.pre_sweep_s);
    double mx = 0.0;
    for (const PointOutcome& p : r.report.points) mx = std::max(mx, p.wall_s);
    wall_max.add(mx);
    quarantined += static_cast<long>(r.report.quarantined());
  }
  out.metric(wall.rates(static_cast<double>(points)).summary("work_per_s",
                                                              "1/s"));
  out.detail(wall.summary("gen_wall_s", "s"));
  out.detail(busy.summary("library.point_busy_s", "s"));
  out.detail(wall_max.summary("library.point_wall_max_s", "s"));
  out.detail(pre.summary("library.pre_sweep_s", "s"));
  out.detail("library.pre_sweep_share", pre.median() / wall.median(), "ratio");
  out.detail(ckpt.summary("library.checkpoint_s", "s"));
  out.detail("library.checkpoint_share_pct",
             100.0 * ckpt.median() / wall.median(), "%");
  out.detail("library.points_quarantined", static_cast<double>(quarantined),
             "count");
  out.detail("library.design_points", static_cast<double>(points), "count");

  Json paths = Json::object();
  for (const PointOutcome& p : runs.front().report.points) {
    const std::string key = p.eval_path.empty() ? "none" : p.eval_path;
    paths[key] = (paths.contains(key) ? paths.at(key).as_number() : 0.0) + 1;
  }
  out.config["eval_path_points"] = paths;
}

// ---------------------------------------------------------------------------
// Traced run.

using Counts = std::map<std::string, double>;

/// Serial replay of generate_library through the public calls that
/// generate_library and run_design_point make, one span per call. Returns
/// the synthesized dataset for the layer probe.
SyntheticDataset replay_sweep(const LibraryGenSpec& spec, Tracer& tr,
                              Counts& counts) {
  SyntheticDataset data = [&] {
    auto s = tr.span("data.make_synthetic");
    return make_synthetic(spec.dataset);
  }();
  const bool flip = spec.dataset.flip_symmetry;
  auto train = [&](BranchyModel& m, const TrainConfig& tc, const char* name) {
    auto s = tr.span(name);
    train_model(m, data.train, flip, tc);
    counts["nn.train.images"] += double(data.train.size()) * tc.epochs;
  };
  auto base = [&](bool exits, std::uint64_t seed) {
    Rng rng(seed);
    BranchyModel m;
    {
      auto s = tr.span("nn.build_cnv");
      m = exits ? build_cnv_with_exits(spec.cnv, spec.exits, rng)
                : build_cnv(spec.cnv, rng);
    }
    {
      auto s = tr.span("analysis.lint_design");
      auto sites = walk_compute_layers(m, spec.accel.in_channels,
                                       spec.accel.image_size);
      analysis::lint_design(m, styled_folding(sites, spec.folding_style),
                            spec.accel);
    }
    train(m, spec.initial_train, "nn.train_base");
    return m;
  };
  BranchyModel plain = base(false, spec.seed);
  BranchyModel ee = base(true, spec.seed + 1);
  {
    auto s = tr.span("nn.evaluate_exits");
    evaluate_exits(plain, data.test, 32, 1, PackedMode::kAuto);
  }

  for (ModelVariant variant : spec.variants) {
    for (int rate : spec.prune_rates_pct) {
      if (variant == ModelVariant::kPrunedExits && rate == 0) continue;
      auto point = tr.span("library.design_point");
      const bool has_exits = variant != ModelVariant::kNoExit;
      BranchyModel m = [&] {
        auto s = tr.span("nn.clone");
        return (has_exits ? ee : plain).clone();
      }();
      auto sites = walk_compute_layers(m, spec.accel.in_channels,
                                       spec.accel.image_size);
      const FoldingConfig folding = styled_folding(sites, spec.folding_style);
      PruneOptions popts;
      popts.rate = rate / 100.0;
      popts.prune_exits = variant == ModelVariant::kPrunedExits;
      popts.folding = folding;
      popts.in_channels = spec.accel.in_channels;
      popts.image_size = spec.accel.image_size;
      PruneReport pruned;
      {
        auto s = tr.span("pruning.prune_model");
        pruned = prune_model(m, popts);
      }
      if (pruned.achieved_rate > 0.0) {
        TrainConfig rt = spec.retrain;
        rt.seed = derive_seed(spec.seed, static_cast<std::uint64_t>(variant),
                              static_cast<std::uint64_t>(rate));
        train(m, rt, "nn.train_retrain");
      }
      ExitEvaluation eval;
      {
        auto s = tr.span("nn.evaluate_exits");
        eval = evaluate_exits(m, data.test, 32, 1, PackedMode::kAuto);
      }

      auto emit = [&](const Accelerator& acc) {
        std::vector<double> thresholds = {2.0};
        if (has_exits) {
          thresholds.clear();
          for (int ct : spec.conf_thresholds_pct) {
            thresholds.push_back(ct / 100.0);
          }
        }
        for (double t : thresholds) {
          const EarlyExitStats stats = apply_threshold(eval, t);
          LibraryEntry e;
          e.variant = variant;
          e.prune_rate_pct = rate;
          e.accuracy = stats.accuracy;
          e.exit_fractions =
              has_exits ? stats.exit_fraction : std::vector<double>{1.0};
          AcceleratorPerf perf;
          {
            auto s = tr.span("finn.estimate_performance");
            perf = estimate_performance(acc, e.exit_fractions, spec.power);
          }
          e.ips = perf.ips;
          e.latency_ms = perf.latency_ms;
          e.peak_power_w = perf.peak_power_w;
          e.energy_per_inf_j = perf.energy_per_inf_j;
          if (spec.verify_dataflow) {
            {
              auto s = tr.span("analysis.lint_entry_reach");
              analysis::lint_entry_reach(acc, e);
            }
            auto s = tr.span("analysis.cross_validate");
            analysis::cross_validate(acc, e.exit_fractions);
          }
        }
      };

      Accelerator acc;
      {
        auto s = tr.span("finn.compile_accelerator");
        acc = compile_accelerator(m, folding, spec.accel);
      }
      emit(acc);
      if (!has_exits || spec.reach_regimes.empty()) continue;

      auto pruned_sites = walk_compute_layers(m, spec.accel.in_channels,
                                              spec.accel.image_size);
      ReachAwareOptions ra;
      ra.baseline = folding;
      ra.cost = spec.accel.cost;
      for (const ExitSpec& x : spec.exits.exits) {
        ra.exit_after_block.push_back(x.after_block);
      }
      ra.fixed_overhead =
          acc.total -
          folding_site_resources(pruned_sites, folding, spec.accel.cost);
      for (const std::vector<double>& regime : spec.reach_regimes) {
        FoldingConfig reach;
        {
          auto s = tr.span("hls.reach_aware_folding");
          reach = reach_aware_folding(pruned_sites, regime,
                                      spec.reach_device.caps, ra);
        }
        Accelerator acc_ra;
        {
          auto s = tr.span("finn.compile_accelerator");
          acc_ra = compile_accelerator(m, reach, spec.accel);
        }
        {
          auto s = tr.span("analysis.analyze_dataflow");
          analysis::DataflowOptions dopts;
          dopts.device = spec.reach_device;
          analysis::analyze_dataflow(acc_ra, regime, dopts);
        }
        {
          auto s = tr.span("analysis.cross_validate");
          analysis::CrossValidateOptions cv;
          cv.dataflow.device = spec.reach_device;
          analysis::cross_validate(acc_ra, regime, cv);
        }
        emit(acc_ra);
      }
    }
  }
  return data;
}

const char* layer_span(LayerKind kind, bool forward) {
  switch (kind) {
    case LayerKind::kConv: return forward ? "nn.conv.fwd" : "nn.conv.bwd";
    case LayerKind::kLinear: return forward ? "nn.linear.fwd" : "nn.linear.bwd";
    case LayerKind::kBatchNorm: return forward ? "nn.bn.fwd" : "nn.bn.bwd";
    case LayerKind::kActQuant:
      return forward ? "nn.actquant.fwd" : "nn.actquant.bwd";
    case LayerKind::kMaxPool: return forward ? "nn.pool.fwd" : "nn.pool.bwd";
    case LayerKind::kFlatten: return nullptr;
  }
  return nullptr;
}

/// Runs one layer call under its kind's span and adds its wall time to
/// `ms[span]` (Flatten has no span; its time stays in nn.train_step).
template <typename Fn>
Tensor timed_layer(Tracer& tr, LayerKind kind, bool forward,
                   std::map<std::string, double>& ms, Fn&& fn) {
  const char* name = layer_span(kind, forward);
  Tensor y;
  const double s = time_call([&] {
    Tracer::Scope span(name != nullptr ? &tr : nullptr, name);
    y = fn();
  });
  if (name != nullptr) ms[name] += s * 1e3;
  return y;
}

/// One training step at batch 16 on the gen-train early-exit model, timed
/// per Layer::forward / Layer::backward (mirroring BranchyModel's own
/// forward/backward order) and summed per layer kind. Repeated five times;
/// details report per-kind medians.
void layer_probe(const LibraryGenSpec& spec, const SyntheticDataset& data,
                 Tracer& tr, Outcome& out) {
  Rng rng(spec.seed + 1);
  BranchyModel model = build_cnv_with_exits(spec.cnv, spec.exits, rng);
  Sgd sgd(model.params(), {spec.initial_train.lr, spec.initial_train.momentum,
                           spec.initial_train.weight_decay});
  std::vector<int> idx(16);
  std::iota(idx.begin(), idx.end(), 0);
  const Tensor batch = data.train.batch_images(idx);
  const std::vector<int> labels = data.train.batch_labels(idx);
  const auto weights =
      resolve_exit_weights(spec.initial_train, model.num_outputs());

  std::map<std::string, Samples> per_kind;
  double conv_flops = 0.0;
  for (int step = 0; step < 5; ++step) {
    auto step_span = tr.span("nn.train_step");
    std::map<std::string, double> ms;
    conv_flops = 0.0;
    auto forward = [&](Sequential& seq, Tensor x) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        Layer& layer = seq.layer(i);
        x = timed_layer(tr, layer.kind(), true, ms,
                        [&] { return layer.forward(x, true); });
        if (const auto* conv = dynamic_cast<const QuantConv2d*>(&layer)) {
          conv_flops += 2.0 * static_cast<double>(x.numel()) *
                        conv->in_channels() * conv->kernel() * conv->kernel();
        }
      }
      return x;
    };
    auto backward = [&](Sequential& seq, Tensor g) {
      for (std::size_t i = seq.size(); i-- > 0;) {
        Layer& layer = seq.layer(i);
        g = timed_layer(tr, layer.kind(), false, ms,
                        [&] { return layer.backward(g); });
      }
      return g;
    };

    std::vector<Tensor> logits(model.num_outputs());
    Tensor x = batch;
    for (std::size_t b = 0; b < model.num_blocks(); ++b) {
      x = forward(model.block(b), x);
      for (std::size_t e = 0; e < model.num_exits(); ++e) {
        if (model.exit(e).after_block == static_cast<int>(b)) {
          logits[e] = forward(*model.exit(e).head, x);
        }
      }
    }
    logits.back() = x;
    std::vector<Tensor> grads(logits.size());
    for (std::size_t e = 0; e < logits.size(); ++e) {
      ops::cross_entropy(logits[e], labels, grads[e]);
      grads[e].scale_(static_cast<float>(weights[e]));
    }
    std::vector<Tensor> exit_grad(model.num_exits());
    for (std::size_t e = 0; e < model.num_exits(); ++e) {
      exit_grad[e] = backward(*model.exit(e).head, grads[e]);
    }
    Tensor g = grads.back();
    for (int b = static_cast<int>(model.num_blocks()) - 1; b >= 0; --b) {
      for (std::size_t e = 0; e < model.num_exits(); ++e) {
        if (model.exit(e).after_block == b) g.add_(exit_grad[e]);
      }
      g = backward(model.block(static_cast<std::size_t>(b)), g);
    }
    ms["nn.optim.step"] += 1e3 * time_call([&] {
      auto s = tr.span("nn.optim.step");
      sgd.step();
    });
    for (const auto& [name, v] : ms) per_kind[name].add(v);
  }
  for (const auto& [name, s] : per_kind) {
    out.detail(s.summary(name + "_ms", "ms"));
  }
  const double conv_fwd_s = per_kind["nn.conv.fwd"].median() * 1e-3;
  out.detail("nn.conv.fwd_gflops", conv_flops / conv_fwd_s * 1e-9, "GFLOP/s");
}

/// The traced run of both gen workloads: serial replay with spans, layer
/// probe, then one untraced run for the fidelity gate. The gate compares
/// the replay's busy time with the untraced run's serial-equivalent busy
/// time (pre-sweep wall + summed per-point wall); beyond 15% the traced
/// numbers no longer describe the real flow and are marked stale. The
/// untraced run is serial, so contention between sweep workers does not
/// inflate its per-point walls.
void traced_generation(const Options& opt, const LibraryGenSpec& spec,
                       const std::string& workload, Outcome& out,
                       const std::function<void(Tracer&)>& extra = {}) {
  Tracer tr;
  Counts counts;
  std::optional<SyntheticDataset> data;
  const double replay_s =
      time_call([&] { data = replay_sweep(spec, tr, counts); });
  layer_probe(spec, *data, tr, out);

  LibraryGenSpec serial = spec;
  serial.num_threads = 1;
  const GenRun ref = run_generate(serial);
  out.check(ref.report.quarantined() == 0, "untraced run quarantined points");
  const double serial_equiv = ref.pre_sweep_s + ref.report.compute_wall_s;
  const double dev_pct = 100.0 * (replay_s / serial_equiv - 1.0);
  const bool stale = std::abs(dev_pct) > 15.0;
  out.detail("trace.replay_busy_s", replay_s, "s");
  out.detail("trace.serial_equiv_busy_s", serial_equiv, "s");
  out.detail("trace.fidelity_dev_pct", dev_pct, "%");
  out.detail("trace.stale", stale ? 1.0 : 0.0, "bool");
  const auto stats = tr.stats();
  const auto busy = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_s;
  };
  for (const char* name : {"nn.train_base", "nn.train_retrain", "nn.clone",
                           "nn.evaluate_exits", "pruning.prune_model",
                           "finn.compile_accelerator",
                           "finn.estimate_performance",
                           "hls.reach_aware_folding",
                           "analysis.analyze_dataflow",
                           "analysis.cross_validate"}) {
    if (stats.count(name) != 0) {
      out.detail(std::string(name) + ".busy_s", busy(name), "s");
    }
  }
  out.detail("nn.train.us_per_image",
             1e6 * (busy("nn.train_base") + busy("nn.train_retrain")) /
                 counts["nn.train.images"],
             "us");
  const auto cv = stats.find("analysis.cross_validate");
  if (cv != stats.end()) {
    out.detail("analysis.cross_validate.ms_per_call",
               1e3 * cv->second.total_s / static_cast<double>(cv->second.calls),
               "ms");
  }
  out.report += std::string("fidelity gate: replay ") +
                std::to_string(replay_s) + " s vs serial-equivalent " +
                std::to_string(serial_equiv) + " s (" +
                std::to_string(dev_pct) + "%): " +
                (stale ? "STALE, traced gen numbers are not valid\n" : "ok\n");
  if (extra) extra(tr);
  finish_trace(out, tr, counts, opt, workload);
}

/// The cache-hit read path split into its three public steps: publish the
/// cache from the spec's (complete) journal, then load it 20 times.
void traced_cache_loads(const LibraryGenSpec& spec, const std::string& dir,
                        Tracer& tr, Outcome& out) {
  const std::string bytes =
      generate_or_load_library(spec, dir).to_json().dump(1);
  const std::string path =
      dir + "/library_" + library_cache_key(spec) + ".json";
  Samples parse, unseal, from;
  for (int i = 0; i < 20; ++i) {
    const std::string text = read_file(path);
    Json doc, payload;
    Library lib;
    parse.add(time_call([&] {
      auto s = tr.span("library.json_parse");
      doc = Json::parse(text);
    }));
    unseal.add(time_call([&] {
      auto s = tr.span("library.unseal");
      payload = open_document(doc, "library");
    }));
    from.add(time_call([&] {
      auto s = tr.span("library.from_json");
      lib = Library::from_json(payload);
    }));
    out.check(lib.to_json().dump(1) == bytes,
              "traced cache load differs from the published bytes");
  }
  out.detail(parse.summary("library.json_parse_ms", "ms", 1e3));
  out.detail(unseal.summary("library.unseal_ms", "ms", 1e3));
  out.detail(from.summary("library.from_json_ms", "ms", 1e3));
}

/// The Library-quality numbers next to the host-time ones (paper Table I
/// and the headline IPS ratio); deterministic for a seed.
void report_quality(const Library& lib, std::uint64_t seed, Outcome& out) {
  const RuntimePolicy policy{AdaptPolicy::kAdaPEx, 0.10};
  const RuntimeManager manager(lib, policy);
  double finn_ips = 0.0;
  for (const LibraryEntry& e : lib.entries) {
    if (e.variant == ModelVariant::kNoExit && e.prune_rate_pct == 0) {
      finn_ips = e.ips;
      break;
    }
  }
  double best_ips = 0.0;
  for (int i : manager.eligible()) {
    best_ips = std::max(best_ips, lib.entries[static_cast<std::size_t>(i)].ips);
  }
  out.check(finn_ips > 0.0 && best_ips > 0.0,
            "library lacks the FINN entry or any eligible entry");
  out.detail("lib_ips_gain", finn_ips > 0.0 ? best_ips / finn_ips : 0.0, "x");
  EdgeScenario scenario;
  scenario.seed = seed;
  const EdgeMetrics m = simulate_edge_runs(
      lib, policy, scale_to_library(scenario, lib, 1.30), 10);
  out.detail("lib_qoe", m.qoe, "ratio");
  out.detail("library.accelerators", double(lib.accelerators.size()), "count");
  out.detail("library.entries", double(lib.entries.size()), "count");
}

}  // namespace

Outcome run_gen_train(const Options& opt) {
  Outcome out;
  out.config["threads"] = opt.threads;
  if (opt.trace) {
    traced_generation(opt, gen_train_spec(opt), "gen-train", out);
    return out;
  }
  Samples setup;
  const LibraryGenSpec spec = repeated_setup(
      [&] {
        LibraryGenSpec s = gen_train_spec(opt);
        make_synthetic(s.dataset);
        return s;
      },
      setup);
  out.metric(setup.summary("setup_s", "s"));
  GenRun ref;
  Library lib;
  const auto runs = timed_generations(
      opt, spec, [](int) { return std::string(); }, ref, lib, out);
  report_generations(out, runs, design_points(spec));
  report_quality(lib, opt.seed, out);
  return out;
}

Outcome run_gen_verify(const Options& opt) {
  Outcome out;
  const fs::path tmp = fs::absolute(
      fs::path(opt.out_dir) / ("tmp-gen-verify-" + std::to_string(getpid())));
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{tmp};
  // Repetition `rep` journals into a fresh directory and drops the
  // previous repetition's, so only the latest journal is kept on disk.
  auto journal_of = [&tmp](int rep) {
    const fs::path dir = tmp / ("journal" + std::to_string(rep));
    fs::remove_all(tmp / ("journal" + std::to_string(rep - 1)));
    return dir.string();
  };

  out.config["threads"] = opt.threads;
  if (opt.trace) {
    fs::create_directories(tmp);
    LibraryGenSpec traced = gen_verify_spec(opt);
    traced.journal_dir = journal_of(0);
    traced_generation(opt, traced, "gen-verify", out, [&](Tracer& tr) {
      traced_cache_loads(traced, (tmp / "cache").string(), tr, out);
    });
    return out;
  }
  Samples setup;
  const LibraryGenSpec spec = repeated_setup(
      [&] {
        LibraryGenSpec s = gen_verify_spec(opt);
        make_synthetic(s.dataset);
        fs::remove_all(tmp);
        fs::create_directories(tmp);
        return s;
      },
      setup);
  out.metric(setup.summary("setup_s", "s"));

  GenRun ref;
  Library lib;
  const auto runs = timed_generations(opt, spec, journal_of, ref, lib, out);
  report_generations(out, runs, design_points(spec));
  out.detail("library.accelerators", double(lib.accelerators.size()), "count");
  out.detail("library.entries", double(lib.entries.size()), "count");

  // The last repetition's journal is intact: a rerun replays every point
  // from it and publishes the cache, then the cache-hit read path loads it.
  LibraryGenSpec replay = spec;
  replay.journal_dir =
      (tmp / ("journal" + std::to_string(runs.size()))).string();
  GenerationReport replay_report;
  replay.report = &replay_report;
  const std::string cache_dir = (tmp / "cache").string();
  const Library replayed = generate_or_load_library(replay, cache_dir);
  out.check(replayed.to_json().dump(1) == ref.bytes,
            "journal full replay differs from the fresh bytes");
  out.check(replay_report.count(PointStatus::kReplayed) ==
                replay_report.points.size(),
            "journal replay recomputed design points");
  replay.report = nullptr;
  Samples loads;
  for (int i = 0; i < 20; ++i) {
    Library loaded;
    loads.add(time_call(
        [&] { loaded = generate_or_load_library(replay, cache_dir); }));
    out.check(loaded.to_json().dump(1) == ref.bytes,
              "cache-hit load differs from the fresh bytes");
  }
  out.detail(loads.summary("lib_load_ms", "ms", 1e3));
  return out;
}

void write_fixture(const std::string& path, int threads) {
  LibraryGenSpec spec =
      make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny(), 7);
  spec.num_threads = threads;
  const Library lib = generate_library(spec);
  // open_document ignores envelope keys it does not know, so the comment
  // rides in the envelope, ahead of the sealed payload.
  Json doc = Json::object();
  doc["comment"] =
      "serve-fleet fixture: generate_library(make_gen_spec(cifar10_like_spec(),"
      " ExperimentScale::tiny(), 7)), written by `bench_adapex --write-fixture"
      " <path>`";
  const Json sealed = Json::parse(seal_document("library", lib.to_json()));
  for (const auto& [key, value] : sealed.as_object()) doc[key] = *value;
  atomic_write_file(path, doc.dump(1));
}

}  // namespace perfbench
