// Warms the library cache both evaluation datasets depend on.
//
// Runs the full AdaPEx design-time flow (early-exit training,
// dataflow-aware pruning sweep, retraining, accelerator synthesis, library
// table) for the CIFAR-10-like and GTSRB-like datasets. Every figure/table
// bench loads these cached libraries, so running this binary first (bench
// binaries sort alphabetically) makes the rest fast.
//
// The design-point sweep is parallel (ADAPEX_THREADS, default: all cores)
// and byte-identical at any thread count. When the library is actually
// generated (cache miss) on more than one thread, the bench also times a
// serial regeneration and reports the speedup; set ADAPEX_BENCH_SPEEDUP=0
// to skip that extra serial run.
//
// `--smoke` switches to the crash-safety drill (CI's robustness-smoke job):
// a bounded sweep runs uninterrupted for reference, a journaled run is
// killed mid-sweep by an induced design-point fault, the resume must
// reproduce the reference bytes exactly, and a fresh journaled run gates
// the checkpoint overhead (sum of per-point publish time over summed
// per-point compute time) under 2%. Exit code 1 on any violation.

#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace adapex;
using namespace adapex::bench;

/// A sweep small enough to run three times in CI yet wide enough to cross
/// all three families (8 design points).
LibraryGenSpec smoke_spec() {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.dataset.train_size = 120;
  spec.dataset.test_size = 60;
  spec.initial_train.epochs = 3;
  spec.retrain.epochs = 1;
  spec.prune_rates_pct = {0, 25, 50};
  spec.conf_thresholds_pct = {0, 50};
  return spec;
}

int run_smoke() {
  print_header("smoke",
               "crash-safe generation: interrupt/resume identity and "
               "checkpoint overhead");
  const std::string journal = results_dir() + "/smoke_journal";
  const std::string journal_clean = journal + "_overhead";
  std::filesystem::remove_all(journal);
  std::filesystem::remove_all(journal_clean);

  // 1. Uninterrupted journal-free run: the identity reference and the
  //    no-journal wall-time baseline.
  LibraryGenSpec ref_spec = smoke_spec();
  GenerationReport ref_report;
  ref_spec.report = &ref_report;
  std::cout << "reference run (no journal)...\n";
  Timer ref_timer;
  const std::string ref_bytes =
      generate_library(ref_spec).to_json().dump(1);
  const double ref_s = ref_timer.seconds();

  // 2. Journaled run killed mid-sweep: an induced fault quarantines one
  //    design point, PartialPolicy::kFail aborts the run — but every point
  //    that finished first was already checkpointed.
  LibraryGenSpec crash_spec = smoke_spec();
  crash_spec.journal_dir = journal;
  crash_spec.point_fault_hook = [](std::size_t i, int) {
    if (i == 4) throw ConfigError("induced mid-sweep failure");
  };
  GenerationReport crash_report;
  crash_spec.report = &crash_report;
  std::cout << "journaled run with induced mid-sweep failure...\n";
  bool aborted = false;
  try {
    generate_library(crash_spec);
  } catch (const ConfigError&) {
    aborted = true;
  }
  if (!aborted) {
    std::cerr << "ERROR: induced failure did not abort the journaled run\n";
    return 1;
  }

  // 3. Resume: replay the survivors, recompute the rest, demand identity.
  LibraryGenSpec resume_spec = smoke_spec();
  resume_spec.journal_dir = journal;
  GenerationReport resume_report;
  resume_spec.report = &resume_report;
  std::cout << "resuming from the journal...\n";
  const std::string resumed_bytes =
      generate_library(resume_spec).to_json().dump(1);
  const bool identical = resumed_bytes == ref_bytes;
  if (!identical) {
    std::cerr << "ERROR: resumed library differs from the uninterrupted "
                 "reference\n";
  }
  if (resume_report.count(PointStatus::kReplayed) == 0) {
    std::cerr << "ERROR: resume replayed nothing — the journal was ignored\n";
    return 1;
  }

  // 4. Fresh journaled run end to end: the checkpoint-overhead gate.
  LibraryGenSpec ovh_spec = smoke_spec();
  ovh_spec.journal_dir = journal_clean;
  GenerationReport ovh_report;
  ovh_spec.report = &ovh_report;
  std::cout << "fresh journaled run (overhead measurement)...\n";
  Timer ovh_timer;
  generate_library(ovh_spec);
  const double journaled_s = ovh_timer.seconds();
  const double overhead = ovh_report.checkpoint_overhead();

  TextTable table({"reference_s", "journaled_s", "resume_replayed",
                   "resume_computed", "checkpoint_overhead_pct",
                   "resume_identical"});
  table.add_row(
      {TextTable::num(ref_s, 1), TextTable::num(journaled_s, 1),
       std::to_string(resume_report.count(PointStatus::kReplayed)),
       std::to_string(resume_report.count(PointStatus::kComputed)),
       TextTable::num(100.0 * overhead, 3), identical ? "yes" : "NO"});
  emit(table, "smoke_resume");
  std::cout << "resume report: " << resume_report.summary() << "\n";

  std::filesystem::remove_all(journal);
  std::filesystem::remove_all(journal_clean);
  if (!identical) return 1;
  if (overhead >= 0.02) {
    std::cerr << "ERROR: checkpoint overhead "
              << TextTable::num(100.0 * overhead, 3)
              << "% exceeds the 2% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapex;
  using namespace adapex::bench;

  if (argc > 1 && std::string(argv[1]) == "--smoke") return run_smoke();

  const bool want_speedup = env::get("ADAPEX_BENCH_SPEEDUP") != "0";

  print_header("setup", "AdaPEx design-time flow (library generation)");
  for (const auto& dataset : {cifar10_like_spec(), gtsrb_like_spec()}) {
    LibraryGenSpec spec = bench_spec(dataset);
    const std::size_t threads = spec.num_threads > 0
                                    ? static_cast<std::size_t>(spec.num_threads)
                                    : ThreadPool::env_thread_count();
    const std::string cached_path = default_artifact_dir() + "/library_" +
                                    library_cache_key(spec) + ".json";
    const bool cache_hit = std::filesystem::exists(cached_path);

    Timer timer;
    std::cout << "dataset " << dataset.name << " (" << threads
              << " threads)...\n";
    Library lib = generate_or_load_library(spec, default_artifact_dir());
    const double parallel_s = timer.seconds();

    std::string serial_s = "-";
    std::string speedup = "-";
    if (!cache_hit && want_speedup && threads > 1) {
      std::cout << "  serial baseline (ADAPEX_THREADS=1)...\n";
      LibraryGenSpec serial_spec = spec;
      serial_spec.num_threads = 1;
      Timer serial_timer;
      Library serial_lib = generate_library(serial_spec);
      const double s = serial_timer.seconds();
      serial_s = TextTable::num(s, 1);
      speedup = TextTable::num(s / parallel_s, 2) + "x";
      // Determinism spot check: the parallel sweep must reproduce the
      // serial bytes exactly (see generator.hpp).
      if (serial_lib.to_json().dump(1) != lib.to_json().dump(1)) {
        std::cerr << "ERROR: parallel library differs from serial library\n";
        return 1;
      }
    }

    TextTable table({"dataset", "entries", "accelerators", "ref_accuracy",
                     "threads", "gen_or_load_s", "serial_s", "speedup"});
    table.add_row({lib.dataset, std::to_string(lib.entries.size()),
                   std::to_string(lib.accelerators.size()),
                   TextTable::num(lib.reference_accuracy, 3),
                   std::to_string(threads), TextTable::num(parallel_s, 1),
                   serial_s, speedup});
    emit(table, "setup_" + lib.dataset);
  }
  return 0;
}
