// Small FIFO thread pool.
//
// Built for the library generator's design-point sweep: a few dozen coarse
// tasks (seconds each) and a single barrier. Every task goes into one
// mutex-guarded FIFO queue and workers pop its front — task granularity here
// is milliseconds-to-seconds, so per-worker or lock-free queues would buy
// nothing — which also keeps the pool trivially ThreadSanitizer-clean.
//
// Continuations: a running task may submit() further tasks (that is how the
// generator chains "train a base model, then sweep its design points"), and
// wait() covers them — a continuation is counted before the task that
// submitted it finishes, so the barrier cannot open between the two. Tasks
// must not call wait() themselves.
//
// Determinism contract: tasks start in submission order (one worker runs
// them in it) but overlap on arbitrary threads. Callers that need
// deterministic output (the library generator does — see
// library/generator.hpp) must make every task self-contained (own RNG
// stream, own model clone) and write results into pre-assigned slots, never
// into shared accumulators.
//
// Exception contract: a task that throws no longer escapes into the worker
// thread (which would std::terminate the process). The first exception is
// captured, every task still queued at that point — continuations submitted
// after it included — is drained without running (the sweep is already
// doomed; finishing it would only delay the report), and the next wait()
// rethrows the captured exception. After the rethrow the pool is reusable:
// submit()/wait() cycles behave as if freshly constructed. Callers that need
// per-task failure isolation (retry, quarantine) must catch inside the task
// — the library generator does — and then this capture path is only a
// backstop.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex {

/// Fixed-size FIFO pool; tasks are submitted then awaited via wait().
/// Destruction joins all workers (after draining pending tasks).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    const std::size_t n = num_threads == 0 ? 1 : num_threads;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. May be called from a running task of this pool (a
  /// continuation); the next wait() then also waits for it.
  void submit(std::function<void()> task) {
    ADAPEX_CHECK(task != nullptr, "thread pool: null task");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push_back(std::move(task));
      ++pending_;
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted task — continuations submitted by running
  /// tasks included — has finished running (or been drained after a
  /// failure). Must not be called from a task. If any task threw, rethrows
  /// the *first* captured exception and resets the failure state, leaving
  /// the pool reusable for subsequent submit()/wait() rounds.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// Thread count from `ADAPEX_THREADS` (>= 1), defaulting to
  /// hardware_concurrency when unset (or 1 if even that is unknown).
  /// Throws ConfigError on a non-positive or non-numeric value.
  static std::size_t env_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(
        env::positive_int("ADAPEX_THREADS", hw == 0 ? 1 : hw));
  }

  /// `requested` when positive, else env_thread_count(): the rule every
  /// `num_threads` option (0 = from the environment) resolves through.
  static std::size_t thread_count(int requested) {
    return requested > 0 ? static_cast<std::size_t>(requested)
                         : env_thread_count();
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped and fully drained
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      // Once a task has failed the remaining queued tasks are drained unrun.
      const bool run = !first_error_;
      lock.unlock();
      if (run) {
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> error_lock(mutex_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
      task = nullptr;  // release captures before the barrier can open
      lock.lock();
      if (--pending_ == 0) all_done_.notify_all();
    }
  }

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  /// Queued tasks in submission order; workers pop the front.
  std::deque<std::function<void()>> tasks_;
  /// Submitted tasks not yet finished (or drained); wait() blocks on 0.
  std::size_t pending_ = 0;
  bool stop_ = false;
  /// First task exception of the current submit/wait round, rethrown (and
  /// cleared) by wait(). Guarded by mutex_. An exception that is never
  /// wait()ed for is dropped at destruction — destroying a pool without the
  /// barrier already forfeits the results.
  std::exception_ptr first_error_;
};

}  // namespace adapex
