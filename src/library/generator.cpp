#include "library/generator.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <system_error>
#include <utility>

#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "common/thread_pool.hpp"
#include "library/cache.hpp"
#include "nn/eval.hpp"
#include "nn/quant.hpp"
#include "pruning/pruning.hpp"

namespace adapex {

void set_paper_sweeps(LibraryGenSpec& spec) {
  spec.prune_rates_pct.clear();
  for (int r = 0; r <= 85; r += 5) spec.prune_rates_pct.push_back(r);
  spec.conf_thresholds_pct.clear();
  for (int t = 0; t <= 100; t += 5) spec.conf_thresholds_pct.push_back(t);
}

analysis::LintReport lint_gen_spec(const LibraryGenSpec& spec) {
  analysis::LintReport report;

  // RG1: the journal directory must be creatable and writable; probed with
  // an actual temp file because access bits alone miss read-only mounts.
  if (!spec.journal_dir.empty()) {
    const std::filesystem::path dir(spec.journal_dir);
    std::error_code ec;
    if (std::filesystem::exists(dir, ec) &&
        !std::filesystem::is_directory(dir, ec)) {
      report.add("RG1", analysis::Severity::kError, "journal_dir",
                 "journal_dir '" + spec.journal_dir +
                     "' exists and is not a directory",
                 "point journal_dir at a (creatable) directory");
    } else {
      std::filesystem::create_directories(dir, ec);
      const std::string probe = (dir / (".rg1_probe." +
                                        std::to_string(::getpid())))
                                    .string();
      bool writable = !ec;
      if (writable) {
        try {
          write_file(probe, "probe");
          std::filesystem::remove(probe, ec);
        } catch (const Error&) {
          writable = false;
        }
      }
      if (!writable) {
        report.add("RG1", analysis::Severity::kError, "journal_dir",
                   "journal_dir '" + spec.journal_dir +
                       "' cannot be created or written",
                   "check permissions / choose a writable directory");
      }
    }

    // RG5: a relative journal path resumes only from the same CWD.
    if (dir.is_relative()) {
      report.add("RG5", analysis::Severity::kWarning, "journal_dir",
                 "journal_dir '" + spec.journal_dir +
                     "' is relative: resuming from another working "
                     "directory will silently start a fresh journal",
                 "use an absolute path");
    }
  }

  // RG2: retry-count bounds.
  analysis::SpecCheck retries(report, "max_point_retries");
  if (retries.non_negative("RG2", "max_point_retries",
                           spec.max_point_retries, "0 disables retries") &&
      spec.max_point_retries > 8) {
    report.add("RG2", analysis::Severity::kWarning, "max_point_retries",
               std::to_string(spec.max_point_retries) +
                   " retries per point: deterministic failures will burn "
                   "that many full retrain passes, and every retry forks "
                   "the seed stream further from the canonical run",
               "keep retries <= 8");
  }

  // RG3: emitting partial libraries can mask verifier rejections.
  if (spec.partial_policy == PartialPolicy::kEmitPartial &&
      spec.verify_dataflow) {
    report.add("RG3", analysis::Severity::kWarning, "partial_policy",
               "emit_partial together with verify_dataflow: a point the "
               "dataflow verifier rejects is quarantined and silently "
               "missing from the Library instead of failing the run",
               "use PartialPolicy::kFail when verifying, or audit the "
               "GenerationReport for quarantined points");
  }

  // RQ2: eval-path well-formedness. (RQ1, the freeze-before-pack
  // precondition, is enforced at runtime by freeze_packed — eligibility
  // depends on the trained model, which a spec lint cannot see.)
  if (spec.eval_path != "auto" && spec.eval_path != "float" &&
      spec.eval_path != "packed") {
    report.add("RQ2", analysis::Severity::kError, "eval_path",
               "unknown eval_path '" + spec.eval_path + "'",
               "use auto, float, or packed");
  }

  return report;
}

namespace {

void progress(const LibraryGenSpec& spec, const std::string& msg) {
  if (spec.on_progress) spec.on_progress(msg);
}

/// Verifies a freshly-built base model against the spec's folding style
/// before any training epoch is spent on it, and returns that folding for
/// the family's design points. Every design-rule violation is reported in
/// one structured ConfigError (see analysis/lint.hpp).
FoldingConfig verify_base_design(BranchyModel& model,
                                 const LibraryGenSpec& spec,
                                 const char* family) {
  const ModelWalk walk =
      walk_model(model, spec.accel.in_channels, spec.accel.image_size);
  // A shape-broken walk (e.g. AcceleratorConfig input channels that do not
  // match the CNV) has no sites to fold; its R2 findings are reported
  // against an empty folding.
  const FoldingConfig folding =
      walk.findings.has_errors()
          ? FoldingConfig{}
          : styled_folding(walk.sites, spec.folding_style);
  const analysis::LintReport report =
      analysis::lint_design(model, walk, folding);
  if (report.has_errors()) {
    throw ConfigError(std::string(family) + " " + report.error_message());
  }
  return folding;
}

/// One (variant, prune-rate) task of the design-point sweep.
struct DesignPoint {
  ModelVariant variant = ModelVariant::kNoExit;
  int rate_pct = 0;
  std::uint64_t retrain_seed = 0;
};

/// Everything a design-point task produces. Tasks fill exactly their own
/// slot; the Library is assembled from the slots in sweep order after the
/// barrier, which is what makes the output independent of scheduling. A
/// point yields one styled accelerator plus, when reach regimes are
/// configured and the point has exits, one reach-aware accelerator per
/// regime (ids pre-assigned from the point's contiguous id block).
struct DesignPointResult {
  std::vector<AcceleratorRecord> accelerators;
  std::vector<LibraryEntry> entries;
  std::string progress_msg;
  /// Inference path that evaluated the point ("packed" / "float"),
  /// recorded into the GenerationReport. Not journaled: a replayed point
  /// evaluated nothing in this run.
  std::string eval_path;
  /// Wall time in the dataflow verifier calls and the number of
  /// cross_validate runs (PointOutcome.verify_s / cross_validations).
  double verify_s = 0.0;
  int cross_validations = 0;
};

/// Maps the spec's eval_path knob to the evaluate_exits mode. Values are
/// validated by lint_gen_spec (rule RQ2) before the sweep starts.
PackedMode eval_mode_from_spec(const LibraryGenSpec& spec) {
  if (spec.eval_path == "float") return PackedMode::kOff;
  if (spec.eval_path == "packed") return PackedMode::kOn;
  return PackedMode::kAuto;
}

/// Serializes on_progress calls and releases messages in their canonical
/// order: message k is held until messages 0..k-1 have been published, so
/// the progress stream reads identically at any thread count even though
/// base training, the reference evaluation, and the design points overlap.
class OrderedProgressSink {
 public:
  explicit OrderedProgressSink(const LibraryGenSpec& spec) : spec_(spec) {}

  void publish(std::size_t index, const std::string& msg) {
    if (!spec_.on_progress) return;
    std::lock_guard<std::mutex> lock(mutex_);
    buffered_[index] = msg;
    for (auto it = buffered_.begin();
         it != buffered_.end() && it->first == next_; it = buffered_.begin()) {
      spec_.on_progress(it->second);
      buffered_.erase(it);
      ++next_;
    }
  }

 private:
  const LibraryGenSpec& spec_;
  std::mutex mutex_;
  std::map<std::size_t, std::string> buffered_;
  std::size_t next_ = 0;
};

/// The design points in sweep order (the serial loop's iteration order),
/// with per-point retrain seeds derived via splitmix64 so that no two
/// (variant, rate) pairs can share a training stream. The old additive
/// `seed + 1000 + rate*3 + variant` scheme packed every stream into a tiny
/// window above the root seed, so two runs whose roots differ by a small
/// amount (15 reuses the grid's retrain streams shifted by one rate step;
/// ~1000 collides retrain streams with the other run's base-training
/// seeds seed+1 / seed+11) silently trained from identical streams. The
/// splitmix derivation keeps uniqueness a checkable property instead of an
/// arithmetic coincidence, so it is asserted here for the whole sweep.
std::vector<DesignPoint> enumerate_design_points(const LibraryGenSpec& spec) {
  std::vector<DesignPoint> points;
  std::set<std::uint64_t> seen;
  for (ModelVariant variant : spec.variants) {
    for (int rate_pct : spec.prune_rates_pct) {
      // pruned-exits and not-pruned-exits coincide at rate 0; emit once.
      if (variant == ModelVariant::kPrunedExits && rate_pct == 0) continue;
      DesignPoint p;
      p.variant = variant;
      p.rate_pct = rate_pct;
      p.retrain_seed =
          derive_seed(spec.seed, static_cast<std::uint64_t>(variant),
                      static_cast<std::uint64_t>(rate_pct));
      ADAPEX_CHECK(seen.insert(p.retrain_seed).second,
                   "retrain seed collision across the (variant, rate) sweep");
      points.push_back(p);
    }
  }
  return points;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Clones the family base model, prunes, retrains, compiles, and evaluates
/// one design point. Touches only task-local state plus the const-shared
/// base models, foldings, dataset, and spec — safe to run concurrently.
DesignPointResult run_design_point(const LibraryGenSpec& spec,
                                   const SyntheticDataset& data,
                                   const BranchyModel& base,
                                   const FoldingConfig& folding,
                                   const DesignPoint& point,
                                   int accel_id_base) {
  DesignPointResult result;
  const bool has_exits = point.variant != ModelVariant::kNoExit;

  BranchyModel model = base.clone();
  PruneOptions popts;
  popts.rate = point.rate_pct / 100.0;
  popts.prune_exits = point.variant == ModelVariant::kPrunedExits;
  popts.folding = folding;
  popts.in_channels = spec.accel.in_channels;
  popts.image_size = spec.accel.image_size;
  const PruneReport report = prune_model(model, popts);

  if (report.achieved_rate > 0.0) {
    TrainConfig rt = spec.retrain;
    rt.seed = point.retrain_seed;
    train_model(model, data.train, spec.dataset.flip_symmetry, rt);
  }

  // Serial eval (num_threads=1): run_design_point already executes inside a
  // design-point pool worker, beside the other points that keep the
  // generator's threads busy.
  // Evaluated once; all accelerators of this point share the model, so the
  // per-threshold exit statistics are identical across them.
  const PackedMode eval_mode = eval_mode_from_spec(spec);
  result.eval_path = resolved_eval_path(model, eval_mode);
  const ExitEvaluation eval = evaluate_exits(
      model, data.test, /*batch_size=*/32, /*num_threads=*/1, eval_mode);

  // Builds the record and Library rows of one synthesized accelerator,
  // runs the optional per-entry verification, and applies the mitigation
  // tax — identical to the pre-reach single-accelerator flow when called
  // once with the styled design.
  auto emit_accelerator = [&](const Accelerator& acc, int accel_id,
                              const char* folding_mode,
                              const std::vector<double>& regime) {
    AcceleratorRecord rec;
    rec.id = accel_id;
    rec.variant = point.variant;
    rec.prune_rate_pct = point.rate_pct;
    rec.resources = acc.total;
    rec.exit_overhead = acc.exit_overhead;
    // Reconfiguration time is modeled from the functional design; the
    // mitigation logic below adds a few percent of fabric that the
    // bitstream model deliberately ignores.
    rec.reconfig_ms = spec.reconfig.time_ms(acc);
    rec.folding_mode = folding_mode;
    rec.reach_regime = regime;

    // Soft-error mitigation overheads (finn/mitigation.hpp): extra fabric
    // on the accelerator record, and a throughput/power tax applied to
    // every Library row after it is built. Skipped entirely when no
    // mitigation is enabled, so mitigation-free libraries are
    // byte-identical.
    MitigationReport mitigation;
    if (spec.mitigation.any()) {
      mitigation =
          estimate_mitigation(acc, spec.mitigation, spec.mitigation_cost);
      rec.resources += mitigation.overhead;
      rec.mitigation = spec.mitigation;
      rec.mitigation_overhead = mitigation.overhead;
    }

    // One row per confidence threshold. A no-exit model has the single
    // threshold -1, evaluated at 2.0, which no confidence clears; its one
    // output then takes exit_fraction {1.0} exactly.
    const std::vector<int> thresholds =
        has_exits ? spec.conf_thresholds_pct : std::vector<int>{-1};
    std::vector<LibraryEntry> entries;
    for (int ct : thresholds) {
      const auto stats = apply_threshold(eval, ct < 0 ? 2.0 : ct / 100.0);
      const auto perf =
          estimate_performance(acc, stats.exit_fraction, spec.power);
      LibraryEntry entry;
      entry.accel_id = accel_id;
      entry.variant = point.variant;
      entry.prune_rate_pct = point.rate_pct;
      entry.conf_threshold_pct = ct;
      entry.accuracy = stats.accuracy;
      entry.exit_fractions = stats.exit_fraction;
      entry.ips = perf.ips;
      entry.latency_ms = perf.latency_ms;
      entry.peak_power_w = perf.peak_power_w;
      entry.energy_per_inf_j = perf.energy_per_inf_j;
      entries.push_back(entry);
    }
    // Dataflow verification runs on the untaxed rows: the mitigation
    // throughput factor below is a modeled derate the reach-scaled II
    // cannot see, so the agreement contract is checked where the models
    // coincide. R12 checks every row; cross-validation depends only on
    // (accelerator, exit distribution), so thresholds that realize the
    // same distribution are simulated once, at the first of them in row
    // order — a failure still names the same threshold.
    if (spec.verify_dataflow) {
      const auto t_verify = std::chrono::steady_clock::now();
      std::vector<const std::vector<double>*> validated;
      for (const auto& entry : entries) {
        analysis::LintReport drift = analysis::lint_entry_reach(acc, entry);
        if (drift.has_errors()) {
          throw ConfigError(drift.error_message());
        }
        const bool seen = std::any_of(
            validated.begin(), validated.end(),
            [&](const std::vector<double>* f) {
              return *f == entry.exit_fractions;
            });
        if (seen) continue;
        validated.push_back(&entry.exit_fractions);
        const analysis::CrossValidation cv =
            analysis::cross_validate(acc, entry.exit_fractions);
        ++result.cross_validations;
        if (!cv.passed) {
          throw ConfigError("dataflow cross-validation failed for " +
                            std::string(to_string(point.variant)) + " rate " +
                            std::to_string(point.rate_pct) + "% threshold " +
                            std::to_string(entry.conf_threshold_pct) + "%: " +
                            cv.summary() + "\n" + cv.lint.error_message());
        }
      }
      result.verify_s += seconds_since(t_verify);
    }

    if (spec.mitigation.any()) {
      // ECC read-modify-write narrows the effective memory bandwidth; the
      // mitigation fabric draws its own dynamic power.
      const double factor = mitigation.throughput_factor;
      const double mit_w = spec.power.module_peak_w(mitigation.overhead);
      for (auto& entry : entries) {
        entry.ips *= factor;
        entry.latency_ms /= factor;
        entry.peak_power_w += mit_w;
        entry.energy_per_inf_j =
            entry.energy_per_inf_j / factor + mit_w / std::max(entry.ips, 1e-9);
      }
    }
    result.accelerators.push_back(std::move(rec));
    for (auto& entry : entries) result.entries.push_back(std::move(entry));
  };

  // One walk of the pruned model serves every folding of this point (the
  // styled folds stay valid: pruning preserves the divisibility of the
  // folds it was given).
  const ModelWalk walk =
      walk_model(model, spec.accel.in_channels, spec.accel.image_size);
  auto compile = [&](const FoldingConfig& f) {
    analysis::lint_design(model, walk, f).throw_if_errors();
    return compile_accelerator(model, walk, f, spec.accel);
  };
  const Accelerator acc = compile(folding);
  emit_accelerator(acc, accel_id_base, "styled", {});

  // Reach-aware Pareto points: one extra accelerator per configured exit
  // regime, sharing the pruned model and its evaluation. Every point is
  // gated behind the dataflow verifier unconditionally — the optimizer can
  // never ship a config the static model rejects or the transaction-level
  // simulator disagrees with.
  if (has_exits && !spec.reach_regimes.empty()) {
    const ReachAwareOptions ra_opts =
        reach_aware_options(model, walk.sites, folding, acc, spec.accel.cost);
    for (std::size_t k = 0; k < spec.reach_regimes.size(); ++k) {
      const std::vector<double>& regime = spec.reach_regimes[k];
      ADAPEX_CHECK(static_cast<int>(regime.size()) == acc.num_exits + 1,
                   "reach regime arity must equal accelerator outputs");
      const Accelerator acc_ra = compile(reach_aware_folding(
          walk.sites, regime, spec.reach_device.caps, ra_opts));

      // cross_validate fails on the static rules R8-R14 before simulating.
      const auto t_verify = std::chrono::steady_clock::now();
      analysis::CrossValidateOptions cv_opts;
      cv_opts.dataflow.device = spec.reach_device;
      const analysis::CrossValidation cv =
          analysis::cross_validate(acc_ra, regime, cv_opts);
      ++result.cross_validations;
      result.verify_s += seconds_since(t_verify);
      const std::string where = " (" + std::string(to_string(point.variant)) +
                                " rate " + std::to_string(point.rate_pct) +
                                "%, regime " + std::to_string(k) + ")";
      if (!cv.passed) {
        throw ConfigError("reach-aware cross-validation failed" + where +
                          ": " + cv.summary() + "\n" +
                          cv.lint.error_message());
      }
      // The optimizer never uses more fabric than the styled baseline, so
      // a fitting styled design must stay fitting.
      if (spec.reach_device.fits(acc.total) &&
          !spec.reach_device.fits(acc_ra.total)) {
        throw ConfigError("reach-aware folding exceeded the device budget" +
                          where);
      }
      emit_accelerator(acc_ra, accel_id_base + 1 + static_cast<int>(k),
                       "reach", regime);
    }
  }

  result.progress_msg = std::string(to_string(point.variant)) + " rate " +
                        std::to_string(point.rate_pct) + "%: achieved " +
                        std::to_string(report.achieved_rate);
  return result;
}

/// Retry attempts retrain from a stream forked off the point's canonical
/// seed with this salt, so attempt k of point p can never collide with any
/// canonical (variant, rate) stream of the sweep.
constexpr std::uint64_t kRetrySalt = 0x7265747279ULL;  // "retry"

}  // namespace

Library generate_library(const LibraryGenSpec& spec) {
  const auto t_start = std::chrono::steady_clock::now();
  lint_gen_spec(spec).throw_if_errors();
  ADAPEX_CHECK(spec.cnv.num_classes == spec.dataset.num_classes,
               "CNV class count must match the dataset");
  ADAPEX_CHECK(!spec.prune_rates_pct.empty(), "no pruning rates configured");
  ADAPEX_CHECK(!spec.variants.empty(), "no model variants configured");

  GenerationReport scratch;
  GenerationReport& report = spec.report != nullptr ? *spec.report : scratch;
  report = GenerationReport{};

  // The journal is keyed by the artifact-cache key: a checkpoint can only
  // ever be replayed against the spec that produced it.
  GenerationJournal journal;
  if (!spec.journal_dir.empty()) {
    journal = GenerationJournal(
        spec.journal_dir, library_cache_key(spec),
        [&spec](const std::string& m) { progress(spec, m); });
  }

  const std::vector<DesignPoint> points = enumerate_design_points(spec);
  std::vector<DesignPointResult> results(points.size());
  std::vector<PointOutcome> outcomes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    outcomes[i].index = i;
    outcomes[i].variant = points[i].variant;
    outcomes[i].rate_pct = points[i].rate_pct;
  }
  std::vector<char> done(points.size(), 0);

  // Replay pass (serial, sweep order): every intact checkpoint whose
  // identity matches the canonical design point is restored verbatim.
  // Checkpoints written by a retried point carry a forked retrain seed, so
  // the identity check quarantines them and the point is recomputed from
  // its canonical stream — resumed output stays byte-identical to an
  // uninterrupted run.
  for (std::size_t i = 0; i < points.size(); ++i) {
    JournalPoint jp;
    if (!journal.load_point(i, points[i].variant, points[i].rate_pct,
                            points[i].retrain_seed, &jp)) {
      continue;
    }
    results[i].accelerators = std::move(jp.accelerators);
    results[i].entries = std::move(jp.entries);
    results[i].progress_msg = std::move(jp.progress_msg);
    done[i] = 1;
    outcomes[i].status = PointStatus::kReplayed;
    outcomes[i].attempts = 0;
    progress(spec, "journal: replayed " +
                       std::string(to_string(points[i].variant)) + " rate " +
                       std::to_string(points[i].rate_pct) + "%");
  }

  double journal_ref = 0.0;
  const bool have_meta = journal.load_meta(&journal_ref);

  // Base models are only (re)trained for the families that still have work:
  // the plain CNV also anchors the reference accuracy, so it is needed
  // whenever the meta checkpoint is missing. Each family trains from its
  // own independent RNG stream (seed / seed+1), so skipping one never
  // shifts the other — byte-identity survives partial replay.
  bool need_plain = !have_meta;
  bool need_ee = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (done[i]) continue;
    if (points[i].variant == ModelVariant::kNoExit) {
      need_plain = true;
    } else {
      need_ee = true;
    }
  }

  // Generated only when some family still trains or evaluates: a fully
  // replayed resume (all points + meta) touches neither the dataset nor
  // the RNG streams.
  std::optional<SyntheticDataset> data;
  if (need_plain || need_ee) data = make_synthetic(spec.dataset);

  Library lib;
  lib.dataset = spec.dataset.name;
  lib.static_power_w = spec.power.static_w;
  lib.mitigation = spec.mitigation;

  // Build each needed base model and check it against the design rules on
  // the calling thread, in family order, before any epoch is spent: a spec
  // that violates them fails with the same ConfigError at every thread
  // count, and no training task is ever started for it.
  BranchyModel base_plain;
  FoldingConfig folding_plain;
  if (need_plain) {
    Rng init_rng(spec.seed);
    base_plain = build_cnv(spec.cnv, init_rng);
    folding_plain = verify_base_design(base_plain, spec, "no-exit CNV:");
  }
  BranchyModel base_ee;
  FoldingConfig folding_ee;
  if (need_ee) {
    Rng ee_rng(spec.seed + 1);
    base_ee = build_cnv_with_exits(spec.cnv, spec.exits, ee_rng);
    folding_ee = verify_base_design(base_ee, spec, "early-exit CNV:");
  }

  // Pre-assign each design point a contiguous accelerator-id block (styled
  // first, then one id per reach regime for exit points), so ids are dense,
  // stable across thread counts, and reduce to 0..N-1 when no regimes are
  // configured.
  std::vector<int> id_base(points.size());
  {
    int next_id = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      id_base[i] = next_id;
      const bool point_has_exits = points[i].variant != ModelVariant::kNoExit;
      next_id += 1 + static_cast<int>(point_has_exits
                                          ? spec.reach_regimes.size()
                                          : 0);
    }
  }

  // Runs one design point to its final outcome: attempt, retry on fresh
  // forked seed streams, then quarantine. Catches everything — a failing
  // point must never take down its worker or sibling points — and
  // checkpoints each success the moment it lands. Touches only slot i.
  auto attempt_point = [&](std::size_t i) {
    const DesignPoint& p = points[i];
    PointOutcome& out = outcomes[i];
    const auto t_point = std::chrono::steady_clock::now();
    std::string last_error;
    for (int attempt = 0; attempt <= spec.max_point_retries; ++attempt) {
      try {
        if (spec.point_fault_hook) spec.point_fault_hook(i, attempt);
        DesignPoint run = p;
        if (attempt > 0) {
          run.retrain_seed =
              derive_seed(p.retrain_seed, kRetrySalt,
                          static_cast<std::uint64_t>(attempt));
        }
        const bool ee = p.variant != ModelVariant::kNoExit;
        results[i] =
            run_design_point(spec, *data, ee ? base_ee : base_plain,
                             ee ? folding_ee : folding_plain, run, id_base[i]);
        out.status =
            attempt == 0 ? PointStatus::kComputed : PointStatus::kRetried;
        out.attempts = attempt + 1;
        out.error = last_error;
        out.eval_path = results[i].eval_path;
        out.verify_s = results[i].verify_s;
        out.cross_validations = results[i].cross_validations;
        if (journal.enabled()) {
          const auto t_ckpt = std::chrono::steady_clock::now();
          JournalPoint jp;
          jp.index = i;
          jp.variant = p.variant;
          jp.rate_pct = p.rate_pct;
          // The seed actually used: a retried point journals its fork, and
          // the replay identity check above makes the next resume recompute
          // it from the canonical stream instead of replaying the fork.
          jp.retrain_seed = run.retrain_seed;
          jp.accelerators = results[i].accelerators;
          jp.entries = results[i].entries;
          jp.progress_msg = results[i].progress_msg;
          journal.record_point(jp);
          out.checkpoint_s = seconds_since(t_ckpt);
        }
        out.wall_s = seconds_since(t_point);
        return;
      } catch (const std::exception& e) {
        last_error = e.what();
      } catch (...) {
        last_error = "unknown exception";
      }
    }
    out.status = PointStatus::kQuarantined;
    out.attempts = spec.max_point_retries + 1;
    out.error = last_error;
    out.wall_s = seconds_since(t_point);
    results[i] = DesignPointResult{};
    journal.record_failure(i, p.variant, p.rate_pct, out.attempts, last_error);
  };

  auto outcome_message = [&](std::size_t i) -> std::string {
    const PointOutcome& out = outcomes[i];
    if (out.status == PointStatus::kQuarantined) {
      return "design point " + std::to_string(i) + " (" +
             std::string(to_string(out.variant)) + " rate " +
             std::to_string(out.rate_pct) + "%) quarantined after " +
             std::to_string(out.attempts) + " attempts: " + out.error;
    }
    std::string msg = results[i].progress_msg;
    if (out.status == PointStatus::kRetried) {
      msg += " [retried x" + std::to_string(out.attempts - 1) + "]";
    }
    return msg;
  };

  // The still-undone design points, in sweep order. Only these report, so
  // the ordered progress sink never waits on a replayed point.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!done[i]) todo.push_back(i);
  }

  // Progress slots in the canonical order of the messages: the base-training
  // banners, the reference accuracy, then one slot per undone point.
  std::size_t next_slot = 0;
  const std::size_t plain_slot = need_plain ? next_slot++ : 0;
  const std::size_t ee_slot = need_ee ? next_slot++ : 0;
  const std::size_t reference_slot = next_slot++;
  const std::size_t first_point_slot = next_slot;
  OrderedProgressSink sink(spec);

  // The steps of the generation graph. Each family's base trains once and
  // its design points fork from it; every step writes only its own state
  // (one base model, one report field, the reference accuracy, or slot i),
  // so the steps may run in any order their dependencies allow.
  auto train_base = [&](BranchyModel& base, std::size_t slot,
                        const std::string& banner, double& wall_s) {
    sink.publish(slot, banner);
    const auto t_base = std::chrono::steady_clock::now();
    train_model(base, data->train, spec.dataset.flip_symmetry,
                spec.initial_train);
    wall_s = seconds_since(t_base);
  };
  const std::string epochs = std::to_string(spec.initial_train.epochs);
  auto train_plain = [&] {
    train_base(base_plain, plain_slot,
               "training no-exit CNV (" + epochs + " epochs)",
               report.base_wall_s.plain);
  };
  auto train_ee = [&] {
    train_base(base_ee, ee_slot,
               "training early-exit CNV (joint loss, " + epochs + " epochs)",
               report.base_wall_s.early_exit);
  };
  // Reference accuracy: unpruned no-exit model (journaled in meta.json so a
  // fully-replayed resume never retrains just to recompute one scalar).
  auto reference = [&] {
    if (have_meta) {
      lib.reference_accuracy = journal_ref;
      sink.publish(reference_slot, "journal: replayed reference accuracy " +
                                       std::to_string(journal_ref));
      return;
    }
    auto eval = evaluate_exits(base_plain, data->test, /*batch_size=*/32,
                               /*num_threads=*/1, eval_mode_from_spec(spec));
    lib.reference_accuracy = apply_threshold(eval, 2.0).accuracy;
    sink.publish(reference_slot, "reference accuracy (FINN, unpruned): " +
                                     std::to_string(lib.reference_accuracy));
    journal.record_meta(lib.reference_accuracy);
  };
  auto sweep_point = [&](std::size_t t) {
    const std::size_t i = todo[t];
    attempt_point(i);  // never throws: failures quarantine in-slot
    sink.publish(first_point_slot + t, outcome_message(i));
  };

  const std::size_t num_threads =
      std::min(ThreadPool::thread_count(spec.num_threads),
               std::max<std::size_t>(todo.size(), 1));
  if (num_threads > 1) {
    progress(spec, "sweeping " + std::to_string(todo.size()) +
                       " design points on " + std::to_string(num_threads) +
                       " threads");
  }
  // Dependency-driven schedule, the same at every thread count: dataset ->
  // {plain base -> reference eval -> plain points, EE base -> EE points}.
  // Each base task submits its family's points as continuations, so one
  // family's points fill idle workers while the other base still trains; a
  // single worker runs EE base, plain base, reference eval, EE points, plain
  // points. The reference eval runs serially inside its task (pool tasks
  // must not spin up nested pools); evaluation is bitwise thread-count
  // independent.
  ThreadPool pool(num_threads);
  auto submit_family = [&](bool exits) {
    for (std::size_t t = 0; t < todo.size(); ++t) {
      if ((points[todo[t]].variant != ModelVariant::kNoExit) == exits) {
        pool.submit([&, t] { sweep_point(t); });
      }
    }
  };
  pool.submit([&] {
    if (need_ee) train_ee();
    submit_family(/*exits=*/true);
  });
  pool.submit([&] {
    if (need_plain) train_plain();
    reference();
    submit_family(/*exits=*/false);
  });
  // attempt_point contains every expected failure; the pool's capture path
  // covers the base trainings and the reference evaluation, and drains the
  // continuations a failed step would have fed.
  pool.wait();

  // Flight record first — on a kFail throw below the caller's report still
  // explains exactly which points died and what succeeded before them.
  report.points = outcomes;
  for (const auto& o : outcomes) {
    report.compute_wall_s += o.wall_s;
    report.checkpoint_wall_s += o.checkpoint_s;
    report.verify_wall_s += o.verify_s;
  }
  report.total_wall_s = seconds_since(t_start);

  std::vector<std::size_t> quarantined;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (outcomes[i].status == PointStatus::kQuarantined) {
      quarantined.push_back(i);
    }
  }
  if (!quarantined.empty()) {
    if (spec.partial_policy == PartialPolicy::kFail) {
      std::string msg = "library generation: " +
                        std::to_string(quarantined.size()) +
                        " design point(s) quarantined:";
      for (std::size_t i : quarantined) {
        msg += "\n  - " + std::string(to_string(points[i].variant)) +
               " rate " + std::to_string(points[i].rate_pct) + "% (after " +
               std::to_string(outcomes[i].attempts) +
               " attempts): " + outcomes[i].error;
      }
      throw ConfigError(msg);
    }
    report.partial = true;
    progress(spec, "emitting PARTIAL library: " +
                       std::to_string(quarantined.size()) +
                       " design point(s) quarantined");
  }

  for (auto& result : results) {
    for (auto& rec : result.accelerators) {
      lib.accelerators.push_back(std::move(rec));
    }
    for (auto& entry : result.entries) lib.entries.push_back(std::move(entry));
  }
  return lib;
}

}  // namespace adapex
