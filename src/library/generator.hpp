// The AdaPEx Library Generator (design-time step, paper section IV-A).
//
// Pipeline per Figure 3: Early-Exit Training -> Dataflow-Aware Pruning (one
// pruned model per rate step) -> retraining -> CNN compilation & "HLS
// synthesis" (accelerator compile + analytical models) -> Library rows with
// accuracy and throughput per (model, confidence threshold).
//
// Three model families are generated: the plain CNV (for the FINN and
// PR-Only baselines) and the early-exit CNV with pruned and with not-pruned
// exit heads (the design decision Figure 5 ablates). The early-exit model is
// trained once with the BranchyNet joint loss and cloned before each
// pruning pass. Test-set evaluation runs once per pruned model; confidence
// thresholds are applied as post-processing (nn/eval.hpp).
//
// Parallelism and determinism: generation is a dependency graph on one
// FIFO thread pool (common/thread_pool.hpp), at every thread count:
//
//   dataset -+- plain base -- reference eval -- plain design points
//            +- EE base ------------------------ EE design points
//
// The graph runs as nested joins (ThreadPool::run_and_join): an outer join
// over the two families, each of which trains its base and then joins over
// its (variant, prune-rate) design points. Given two threads both base
// trainings start at once, and one family's points run while the other
// base still trains. Every design point clones the trained base, prunes,
// retrains, compiles, and evaluates entirely on task-local state. Retrain
// seeds are derived per design point with derive_seed(spec.seed, variant,
// rate) (common/rng.hpp) rather than from the schedule, results land in
// pre-assigned slots, and Library rows are assembled in sweep order after
// the barrier, so the generated Library is byte-identical for every thread
// count (one thread runs the same graph alone, in queue order). Every
// progress message is released in one canonical order through one
// mutex-guarded sink.
//
// Crash safety and failure isolation (library/journal.hpp): with
// `journal_dir` set, every completed design point is checkpointed to disk
// the moment it finishes, and a rerun with the same spec replays intact
// checkpoints instead of recomputing them — the resumed Library is
// byte-identical to an uninterrupted run. A design point that throws is
// quarantined instead of aborting the sweep: it is retried up to
// `max_point_retries` times on a fresh derived seed stream, then either
// fails the run (PartialPolicy::kFail, after every other point finished)
// or is explicitly omitted from a partial Library
// (PartialPolicy::kEmitPartial). Per-point outcomes, retry/quarantine
// counts, and the checkpoint overhead land in an optional
// GenerationReport.

#pragma once

#include <functional>
#include <vector>

#include "analysis/device.hpp"
#include "analysis/diagnostics.hpp"
#include "data/dataset.hpp"
#include "finn/accelerator.hpp"
#include "finn/reconfig.hpp"
#include "library/journal.hpp"
#include "library/library.hpp"
#include "model/cnv.hpp"
#include "nn/trainer.hpp"

namespace adapex {

/// Everything the generator needs.
struct LibraryGenSpec {
  SyntheticSpec dataset;
  /// Must have num_classes == dataset.num_classes (checked).
  CnvConfig cnv;
  /// Exit locations/ops (the prune flag is driven per-variant).
  ExitsConfig exits;
  std::vector<ModelVariant> variants = {ModelVariant::kNoExit,
                                        ModelVariant::kPrunedExits,
                                        ModelVariant::kNotPrunedExits};
  /// Paper: 0..85% in 5% steps (18 models per family).
  std::vector<int> prune_rates_pct;
  /// Paper: 0..100% in 5% steps.
  std::vector<int> conf_thresholds_pct;
  TrainConfig initial_train;
  TrainConfig retrain;
  FoldingStyle folding_style;
  AcceleratorConfig accel;
  PowerModel power;
  ReconfigModel reconfig;
  /// Soft-error mitigations synthesized into every accelerator (all off by
  /// default: the paper's setup). When any mitigation is enabled, its
  /// resource and throughput overheads (finn/mitigation.hpp) are applied to
  /// the accelerator records and Library rows.
  SeuMitigation mitigation;
  MitigationCostModel mitigation_cost;
  /// Reach-aware folding regimes (ATHEENA-style heterogeneous folds): for
  /// every exit-fraction regime listed here, each early-exit design point
  /// additionally synthesizes an accelerator whose post-branch folds are
  /// shrunk to the regime's reach and whose freed fabric is reinvested in
  /// the full-traffic front end (hls/folding.hpp reach_aware_folding),
  /// emitted as extra Pareto rows. Every such accelerator is gated behind
  /// the dataflow verifier regardless of `verify_dataflow`: cross_validate
  /// (whose static pass runs rules R8-R14 first) must pass on the regime,
  /// or generation throws. Each regime needs one fraction per output (exits
  /// then final). Empty (the default): the mode is off and the generated
  /// Library is byte-identical to previous schemas.
  std::vector<std::vector<double>> reach_regimes;
  /// Device whose resource caps bound reach-aware reallocation.
  analysis::DeviceProfile reach_device = analysis::DeviceProfile::zcu104();
  std::uint64_t seed = 7;
  /// Generation parallelism: 0 resolves ADAPEX_THREADS (default:
  /// hardware_concurrency). Every count runs the same task graph as nested
  /// joins on a pool of count - 1 workers plus the calling thread (at 1 the
  /// caller runs it alone). The generated Library is byte-identical at
  /// every thread count, so this is deliberately NOT part of the artifact
  /// cache key.
  int num_threads = 0;
  /// Check every Library row against the dataflow verifier
  /// (analysis/dataflow.hpp): the entry's recorded throughput must match
  /// the reach-scaled static model (R12), and the static II/occupancy
  /// bounds must bracket the transaction-level simulator on the entry's
  /// exit distribution — cross-validated once per distinct distribution
  /// per accelerator, since the check depends on nothing else. Failures
  /// throw ConfigError naming the first threshold that fails. Off by
  /// default (it simulates two streams per distinct distribution); like
  /// num_threads it does not change the generated Library, so it must
  /// never enter an artifact cache key. The time it takes is reported in
  /// GenerationReport (verify_s, cross_validations, verify_wall_s).
  bool verify_dataflow = false;
  /// Which inference path evaluates each design point's test sweep (and
  /// the base model's reference accuracy): "auto" (default) takes the
  /// packed popcount path whenever the frozen W2A2 model is eligible
  /// (nn/quant.hpp); "float" forces the float layer graph; "packed" forces
  /// the packed path and fails generation when the model cannot freeze
  /// (rule RQ1). Values are validated by lint rule RQ2. Packed and float
  /// evaluation agree bitwise on every argmax/exit decision in practice, so
  /// the generated Library is byte-identical either way — like num_threads
  /// this deliberately never enters the artifact cache key. The path each
  /// point actually used is recorded in GenerationReport (eval_path per
  /// point).
  std::string eval_path = "auto";
  /// Crash-safe checkpointing: when non-empty, every completed design
  /// point is journaled under `<journal_dir>/<artifact cache key>` the
  /// moment it finishes (library/journal.hpp), and a rerun with the same
  /// spec verifies and replays finished checkpoints instead of recomputing
  /// them. Checkpoints are checksummed; a corrupt one is quarantined to
  /// `<file>.corrupt` and its point recomputed. The resumed Library is
  /// byte-identical to an uninterrupted run, so — like num_threads — this
  /// never enters the artifact cache key. Empty (default): no journal.
  std::string journal_dir;
  /// Retries per failing design point beyond the first attempt (rule RG2).
  /// Each retry retrains from a fresh splitmix64-derived seed stream so a
  /// transient numeric/environment failure gets new randomness; a point
  /// that only succeeds on a retry therefore carries non-canonical rows
  /// and its checkpoint is journaled under the seed it actually used (a
  /// later resume recomputes it from the canonical seed instead of
  /// replaying the fork).
  int max_point_retries = 0;
  /// What a design point that still fails after its retries does to the
  /// sweep (library/journal.hpp). kFail (default) throws one aggregated
  /// ConfigError after every other point finished — with a journal, all
  /// that finished work survives for the next attempt. kEmitPartial emits
  /// a Library missing the quarantined points, explicit in the report.
  PartialPolicy partial_policy = PartialPolicy::kFail;
  /// Optional flight recorder: when set, filled with per-point outcomes
  /// (computed/replayed/retried/quarantined, attempts, wall time) and the
  /// checkpoint-overhead share. Not part of the cache key.
  GenerationReport* report = nullptr;
  /// Test/chaos seam: invoked at the start of every design-point attempt
  /// with (sweep index, 0-based attempt). A throw from here is handled
  /// exactly like a point failure (retry, then quarantine) — the resume
  /// tests and `bench_00 --smoke` use it to induce deterministic
  /// mid-sweep failures. Not part of the cache key.
  std::function<void(std::size_t, int)> point_fault_hook;
  /// Progress sink (e.g. [](const std::string& s){ std::cerr << s << "\n"; }).
  /// May be called from worker threads, but calls are serialized under a
  /// mutex and messages arrive in one order at every thread count (base
  /// training, reference accuracy, then design points in sweep order); a
  /// multi-threaded run adds one "sweeping N design points" banner first.
  std::function<void(const std::string&)> on_progress;
};

/// Fills prune_rates_pct / conf_thresholds_pct with the paper's sweeps.
void set_paper_sweeps(LibraryGenSpec& spec);

/// Lint rules RG1-RG3 and RG5 over the crash-safety knobs of a generation
/// spec (catalog in analysis/lint.hpp):
///   RG1 (error)   journal_dir exists as a non-directory, or cannot be
///                 created/written (probed with a temp file).
///   RG2 (error)   max_point_retries < 0; (warning) > 8 — that many
///                 retries of a deterministic failure only burn time and
///                 fork the seed stream further from the canonical run.
///   RG3 (warning) PartialPolicy::kEmitPartial together with
///                 verify_dataflow: a verifier-rejected point would be
///                 quarantined and silently missing instead of failing the
///                 run loudly.
///   RG5 (warning) journal_dir is a relative path — resumability then
///                 depends on the working directory of the next run.
/// and the packed-inference rule RQ2 (RQ1, the freeze-before-pack
/// precondition, is enforced at runtime by nn/quant.hpp freeze_packed):
///   RQ2 (error)   eval_path is not one of auto | float | packed.
/// generate_library runs it as a precondition (throw_if_errors).
analysis::LintReport lint_gen_spec(const LibraryGenSpec& spec);

/// Runs the full design-time flow and returns the Library.
Library generate_library(const LibraryGenSpec& spec);

}  // namespace adapex
