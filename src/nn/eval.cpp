#include "nn/eval.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>

#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace adapex {

namespace {

/// Runs the fixed batch grid of `test` and writes each sample's pre-sized
/// result row in place: on the caller when threads <= 1, otherwise in
/// `threads` loops on the shared pool (the caller runs one) that each claim
/// the next unclaimed batch until none is left. A loop calls
/// make_forward(parallel) at its first batch for its own forward state, a
/// callable Tensor -> std::vector<Tensor> of per-exit logits, so a loop
/// that finds no batch left builds none. Batch boundaries depend only on
/// (test.size(), batch_size), so every sample is evaluated inside the same
/// batch — hence with bit-identical forward math — no matter which loop
/// claims it.
template <typename MakeForward>
void evaluate_batches(const MakeForward& make_forward, const Dataset& test,
                      int batch_size, std::size_t threads,
                      ExitEvaluation& eval) {
  // One iota'd index buffer shared by every batch (test-set order), instead
  // of rebuilding an index vector element-by-element per batch.
  std::vector<int> order(static_cast<std::size_t>(test.size()));
  std::iota(order.begin(), order.end(), 0);
  const int num_batches = (test.size() + batch_size - 1) / batch_size;

  threads = std::min(threads, static_cast<std::size_t>(num_batches));
  const bool parallel = threads > 1;
  std::atomic<int> next_batch{0};
  const auto run = [&](std::size_t /*loop*/) {
    std::optional<decltype(make_forward(parallel))> forward;
    for (int b = next_batch++; b < num_batches; b = next_batch++) {
      if (!forward) forward.emplace(make_forward(parallel));
      const int start = b * batch_size;
      const int end = std::min(start + batch_size, test.size());
      Tensor batch = test.batch_images(order.data() + start, end - start);
      const std::vector<int> labels =
          test.batch_labels(order.data() + start, end - start);

      auto logits = (*forward)(batch);
      for (std::size_t e = 0; e < logits.size(); ++e) {
        const Tensor probs = ops::softmax(logits[e]);
        for (int i = 0; i < end - start; ++i) {
          int best = 0;
          for (int k = 1; k < probs.dim(1); ++k) {
            if (probs.at2(i, k) > probs.at2(i, best)) best = k;
          }
          const auto s = static_cast<std::size_t>(start + i);
          eval.confidence[s][e] = probs.at2(i, best);
          eval.correct[s][e] =
              best == labels[static_cast<std::size_t>(i)] ? 1 : 0;
        }
      }
    }
  };

  if (!parallel) {
    run(0);
    return;
  }
  ThreadPool::shared().run_and_join(threads, run);
}

/// Resolves the effective path: kAuto probes freezability, kOn lets
/// freeze_packed raise the RQ1 error itself.
bool use_packed_path(const BranchyModel& model, PackedMode mode) {
  if (mode == PackedMode::kOff) return false;
  if (mode == PackedMode::kOn) return true;
  return can_freeze(model);
}

}  // namespace

const char* resolved_eval_path(const BranchyModel& model, PackedMode mode) {
  return use_packed_path(model, mode) ? "packed" : "float";
}

ExitEvaluation evaluate_exits(BranchyModel& model, const Dataset& test,
                              int batch_size, int num_threads,
                              PackedMode mode) {
  ADAPEX_CHECK(test.size() > 0, "empty test set");
  ADAPEX_CHECK(batch_size > 0, "batch size must be positive");
  const auto samples = static_cast<std::size_t>(test.size());
  const std::size_t exits = model.num_outputs();

  ExitEvaluation eval;
  // Pre-size every row once; the batch loop then writes result slots in
  // place instead of resizing per (exit x sample).
  eval.confidence.assign(samples, std::vector<float>(exits, 0.0f));
  eval.correct.assign(samples, std::vector<std::uint8_t>(exits, 0));

  const std::size_t threads = ThreadPool::thread_count(num_threads);

  if (use_packed_path(model, mode)) {
    // Packed path: freeze once and share the frozen model const across
    // loops; packed_forward keeps all mutable state in the per-loop scratch,
    // so no clone is needed.
    const PackedModel frozen = freeze_packed(model);
    evaluate_batches(
        [&frozen](bool /*parallel*/) {
          return [&frozen, scratch = PackedScratch()](
                     const Tensor& batch) mutable {
            return packed_forward(frozen, batch, scratch);
          };
        },
        test, batch_size, threads, eval);
    return eval;
  }

  // Float path: forward mutates layer caches even in eval mode, so each
  // parallel loop runs its own clone; a serial run uses the model in place.
  evaluate_batches(
      [&model](bool parallel) {
        std::unique_ptr<BranchyModel> local;
        if (parallel) local = std::make_unique<BranchyModel>(model.clone());
        return [&model, local = std::move(local)](const Tensor& batch) {
          return (local ? *local : model).forward(batch, /*train=*/false);
        };
      },
      test, batch_size, threads, eval);
  return eval;
}

EarlyExitStats apply_threshold(const ExitEvaluation& eval,
                               double confidence_threshold) {
  // Thresholds above 1.0 are allowed: no confidence can clear them, which
  // disables early exits entirely (the no-early-exit operating point).
  ADAPEX_CHECK(confidence_threshold >= 0.0,
               "confidence threshold must be non-negative");
  const std::size_t samples = eval.num_samples();
  const std::size_t exits = eval.num_exits();
  ADAPEX_CHECK(samples > 0 && exits > 0, "empty evaluation");

  EarlyExitStats stats;
  stats.exit_fraction.assign(exits, 0.0);
  stats.per_exit_accuracy.assign(exits, 0.0);
  std::size_t correct = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    // First exit whose confidence clears the threshold; the final exit
    // always accepts.
    std::size_t taken = exits - 1;
    for (std::size_t e = 0; e + 1 < exits; ++e) {
      if (eval.confidence[s][e] >= confidence_threshold) {
        taken = e;
        break;
      }
    }
    stats.exit_fraction[taken] += 1.0;
    if (eval.correct[s][taken]) ++correct;
    for (std::size_t e = 0; e < exits; ++e) {
      stats.per_exit_accuracy[e] += eval.correct[s][e];
    }
  }
  for (double& f : stats.exit_fraction) f /= static_cast<double>(samples);
  for (double& a : stats.per_exit_accuracy) a /= static_cast<double>(samples);
  stats.accuracy = static_cast<double>(correct) / static_cast<double>(samples);
  return stats;
}

}  // namespace adapex
