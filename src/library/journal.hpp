// Per-design-point checkpoint journal for crash-safe library generation.
//
// Library generation retrains and compiles ~48 design points (~minutes even
// after the PR-5 kernels); before this journal existed a crash, OOM kill,
// or one throwing task at point 40 lost the whole run, because the Library
// artifact is only published atomically at the very end. The journal makes
// every completed (variant × rate) design point durable the moment it
// finishes:
//
//   <journal_dir>/<cache key>/
//     meta.json             reference accuracy (the one scalar computed
//                           outside the point sweep)
//     point_<i>.json        the i-th sweep point's LibraryEntry rows +
//                           accelerator records + progress message
//     point_<i>.error.json  quarantine record of a point that kept failing
//                           (error text + attempt count)
//
// The directory is keyed by the artifact-cache key (library/cache.hpp), so
// a journal can never be replayed against a different spec; each file is a
// sealed document (common/integrity.hpp) whose content checksum is verified
// on replay, published with the pid-salted tmp+rename idiom. On restart
// with the same spec, generate_library() replays intact finished points and
// recomputes only the missing (or corrupt — those are quarantined to
// `<file>.corrupt`) ones; because every point retrains from its own
// splitmix64-derived seed, the resumed Library is byte-identical to an
// uninterrupted run.
//
// GenerationReport is the sweep's flight record: per-point outcome
// (computed / replayed / retried / quarantined), attempts, wall time, and
// the checkpoint-overhead share. PartialPolicy decides what a still-failing
// point does to the sweep: fail it (default), or emit a partial Library
// whose missing points are explicit in the report.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "library/library.hpp"

namespace adapex {

/// What a design point that still fails after its retries does to the run.
enum class PartialPolicy {
  kFail,         ///< The sweep throws (after every other point finished).
  kEmitPartial,  ///< Emit a Library missing the point; report it explicitly.
};

const char* to_string(PartialPolicy policy);

/// How one design point reached its final state.
enum class PointStatus {
  kComputed,     ///< Freshly computed on the first attempt.
  kReplayed,     ///< Restored from an intact journal checkpoint.
  kRetried,      ///< Computed after >= 1 failed attempt (fresh seed stream).
  kQuarantined,  ///< Still failing after all retries; excluded or fatal.
};

const char* to_string(PointStatus status);

/// One design point's outcome in the generation report.
struct PointOutcome {
  std::size_t index = 0;  ///< Sweep-order index.
  ModelVariant variant = ModelVariant::kNoExit;
  int rate_pct = 0;
  PointStatus status = PointStatus::kComputed;
  /// Attempts spent, including the successful one (1 for a clean point,
  /// 0 for a replayed one).
  int attempts = 1;
  /// Wall time of the point (compute + checkpoint publish; ~0 on replay).
  double wall_s = 0.0;
  /// Share of wall_s spent serializing + publishing the checkpoint.
  double checkpoint_s = 0.0;
  /// Last error text (set for retried and quarantined points).
  std::string error;
  /// Inference path that evaluated the point: "packed" or "float" (empty
  /// for replayed/quarantined points, which evaluated nothing this run).
  std::string eval_path;

  Json to_json() const;
};

/// Flight record of one generate_library() run.
struct GenerationReport {
  std::vector<PointOutcome> points;  ///< Sweep order.
  /// True when the emitted Library is missing quarantined points
  /// (PartialPolicy::kEmitPartial only).
  bool partial = false;
  /// Whole generate_library() call. With more than one thread the base
  /// trainings overlap each other and the sweep, so this is not the sum of
  /// base_wall_s and the point walls.
  double total_wall_s = 0.0;
  double compute_wall_s = 0.0;     ///< Sum of point wall_s (CPU-ish basis).
  double checkpoint_wall_s = 0.0;  ///< Sum of point checkpoint_s.
  /// Base-model training wall time per family; 0 for a family this run did
  /// not train (a journal replay left it nothing to compute).
  struct BaseWall {
    double plain = 0.0;       ///< no-exit CNV
    double early_exit = 0.0;  ///< early-exit CNV (joint loss)
  };
  BaseWall base_wall_s;

  std::size_t count(PointStatus status) const;
  std::size_t ok() const;  ///< computed + replayed + retried.
  std::size_t quarantined() const { return count(PointStatus::kQuarantined); }

  /// Journal overhead as a fraction of the summed per-point wall time
  /// (thread-count independent, unlike a wall-clock ratio). 0 when no
  /// point computed anything.
  double checkpoint_overhead() const;

  /// "12 points: 10 computed, 1 replayed, 1 retried, 0 quarantined; ..."
  std::string summary() const;

  Json to_json() const;
};

/// Everything one completed design point produced — the unit of journal
/// replay. Serialization round-trips bit-exactly (doubles print with
/// %.17g; the 64-bit retrain seed is stored as hex, not as a lossy JSON
/// double), which is what makes resumed libraries byte-identical.
struct JournalPoint {
  std::size_t index = 0;
  ModelVariant variant = ModelVariant::kNoExit;
  int rate_pct = 0;
  std::uint64_t retrain_seed = 0;
  std::vector<AcceleratorRecord> accelerators;
  std::vector<LibraryEntry> entries;
  std::string progress_msg;

  Json to_json() const;
  static JournalPoint from_json(const Json& j);
};

/// The on-disk checkpoint journal of one generation spec. Default
/// construction yields a disabled journal (every query misses, every
/// record is a no-op), so the generator can thread one object through
/// both the journaled and journal-free paths.
class GenerationJournal {
 public:
  GenerationJournal() = default;

  /// Opens (creating as needed) `<root>/<key>`. `log` receives one-line
  /// notes about replays and quarantines (may be null).
  GenerationJournal(const std::string& root, const std::string& key,
                    std::string checksum_mode,
                    std::function<void(const std::string&)> log = nullptr);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Replays the checkpoint of design point `index` when present, intact
  /// (checksum), and matching the expected identity (variant, rate, seed).
  /// A corrupt or mismatched checkpoint is quarantined to `<file>.corrupt`
  /// and reported through the log sink; the function then returns false so
  /// the caller recomputes the point.
  bool load_point(std::size_t index, ModelVariant variant, int rate_pct,
                  std::uint64_t retrain_seed, JournalPoint* out) const;

  /// Publishes a completed point's checkpoint (atomic tmp+rename) and
  /// clears any stale quarantine record of the same index.
  void record_point(const JournalPoint& point) const;

  /// Publishes a quarantine record for a point that exhausted its retries.
  void record_failure(std::size_t index, ModelVariant variant, int rate_pct,
                      int attempts, const std::string& error) const;

  /// Reference accuracy of the sweep's base model (meta.json). When both
  /// the meta and every point replay, generation skips base training
  /// entirely.
  bool load_meta(double* reference_accuracy) const;
  void record_meta(double reference_accuracy) const;

  std::string point_path(std::size_t index) const;
  std::string failure_path(std::size_t index) const;
  std::string meta_path() const;

 private:
  void note(const std::string& msg) const;

  std::string dir_;
  std::string checksum_mode_ = "fnv1a64";
  std::function<void(const std::string&)> log_;
};

}  // namespace adapex
