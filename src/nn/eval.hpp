// Early-exit evaluation.
//
// Evaluating a confidence-threshold sweep is done in two stages so a test
// set is run through the model exactly once per model:
//   1. evaluate_exits() records, for every test sample and every exit, the
//      softmax confidence (max class probability — the paper's confidence
//      measure) and whether that exit's prediction is correct.
//   2. apply_threshold() post-processes those records for any confidence
//      threshold: a sample takes the first exit whose confidence clears the
//      threshold (the final exit always accepts), exactly the runtime rule.

#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "nn/branchy.hpp"

namespace adapex {

/// Per-sample, per-exit evaluation records for one model on one test set.
struct ExitEvaluation {
  /// confidence[sample][exit]: max softmax probability at that exit.
  std::vector<std::vector<float>> confidence;
  /// correct[sample][exit]: 1 if that exit's argmax equals the label.
  std::vector<std::vector<std::uint8_t>> correct;

  std::size_t num_samples() const { return confidence.size(); }
  std::size_t num_exits() const {
    return confidence.empty() ? 0 : confidence.front().size();
  }
};

/// Early-exit statistics for one (model, confidence threshold) pair.
struct EarlyExitStats {
  /// TOP-1 accuracy under the early-exit decision rule.
  double accuracy = 0.0;
  /// Fraction of samples accepted at each exit (sums to 1; final exit last).
  std::vector<double> exit_fraction;
  /// Per-exit TOP-1 accuracy ignoring the decision rule (all samples).
  std::vector<double> per_exit_accuracy;
};

/// Runs the full test set through the model (eval mode) in batches.
///
/// Batches run on at most `num_threads` threads at once (0 =
/// ADAPEX_THREADS / hardware concurrency; 1 = serial on the caller). Above
/// one, the caller and num_threads - 1 tasks on the process-wide
/// ThreadPool::shared() each claim the next unclaimed batch until none is
/// left; the pool is started by the first such call. The batch grid is
/// fixed by batch_size, and each claiming loop builds its own forward state
/// (a model clone on the float path) at its first batch and fills disjoint
/// per-sample slots, so results are byte-identical at any thread count.
/// Concurrent calls, pool tasks included, share the pool safely.
///
/// `mode` selects the inference path (nn/quant.hpp): kOff runs the float
/// layer graph; kOn freezes the model and runs the packed popcount path
/// (throws if the model is not freezable, rule RQ1); kAuto (default) goes
/// packed exactly when the model is freezable. The packed path freezes once
/// and shares the frozen model const across loops (its forward is
/// cache-free), so the thread-count byte-identity contract holds on both
/// paths.
ExitEvaluation evaluate_exits(BranchyModel& model, const Dataset& test,
                              int batch_size = 32, int num_threads = 0,
                              PackedMode mode = PackedMode::kAuto);

/// The inference path evaluate_exits would take for `model` under `mode`:
/// "packed" or "float" (recorded per design point in GenerationReport).
const char* resolved_eval_path(const BranchyModel& model,
                               PackedMode mode = PackedMode::kAuto);

/// Applies the early-exit rule for `confidence_threshold` in [0, 1].
EarlyExitStats apply_threshold(const ExitEvaluation& eval,
                               double confidence_threshold);

}  // namespace adapex
