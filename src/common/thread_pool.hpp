// Small work-stealing thread pool.
//
// Built for the library generator's design-point sweep: a few dozen coarse
// tasks (seconds each) and a single barrier. Each worker owns a deque;
// submit() deals tasks round-robin, a worker pops from the front of its own
// deque and steals from the back of a victim's when it runs dry. Queues are
// mutex-guarded — task granularity here is milliseconds-to-seconds, so
// lock-free deques would buy nothing — which also keeps the pool trivially
// ThreadSanitizer-clean.
//
// Continuations: a running task may submit() further tasks (that is how the
// generator chains "train a base model, then sweep its design points"), and
// wait() covers them — a continuation is counted before the task that
// submitted it finishes, so the barrier cannot open between the two. Tasks
// must not call wait() themselves.
//
// Determinism contract: the pool schedules tasks in an arbitrary order on
// arbitrary threads. Callers that need deterministic output (the library
// generator does — see library/generator.hpp) must make every task
// self-contained (own RNG stream, own model clone) and write results into
// pre-assigned slots, never into shared accumulators.
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

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex {

/// Fixed-size work-stealing pool; tasks are submitted then awaited via
/// wait(). Destruction joins all workers (after draining pending tasks).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads)
      : queues_(num_threads == 0 ? 1 : num_threads) {
    const std::size_t n = queues_.size();
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
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
    Queue& q = queues_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size()];
    {
      // The push and both counts move together under the sleep mutex, so a
      // worker that sees queued_ > 0 is guaranteed a task to pop.
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      ++pending_;
      {
        std::lock_guard<std::mutex> qlock(q.mutex);
        q.tasks.push_back(std::move(task));
      }
      ++queued_;
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted task — continuations submitted by running
  /// tasks included — has finished running (or been drained after a
  /// failure). Must not be called from a task. If any task threw, rethrows
  /// the *first* captured exception and resets the failure state, leaving
  /// the pool reusable for subsequent submit()/wait() rounds.
  void wait() {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      failed_.store(false, std::memory_order_release);
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

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop(std::size_t self, std::function<void()>& out) {
    // Own queue first (front: submission order), then steal from the back
    // of each other queue.
    {
      Queue& q = queues_[self];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
        return true;
      }
    }
    for (std::size_t k = 1; k < queues_.size(); ++k) {
      Queue& q = queues_[(self + k) % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.back());
        q.tasks.pop_back();
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    for (;;) {
      {
        // Claim one queued task under the lock before popping it: the count
        // is checked and decremented atomically with the sleep decision, so
        // a submit() can never slip in between a failed pop and the wait.
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        work_available_.wait(lock, [this] { return stop_ || queued_ > 0; });
        if (queued_ == 0) return;  // stopped and fully drained
        --queued_;
      }
      // Every claim is backed by a pushed task that no other claim owns, so
      // the scan finds one; a racing thief can only make it look again.
      std::function<void()> task;
      while (!try_pop(self, task)) {
      }
      // Once a task has failed the remaining queued tasks are drained
      // unrun: the relaxed-then-confirm pattern keeps the hot path at one
      // atomic load while the capture itself is serialized under the sleep
      // mutex (first writer wins).
      if (!failed_.load(std::memory_order_acquire)) {
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> lock(sleep_mutex_);
          if (!first_error_) {
            first_error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
          }
        }
      }
      task = nullptr;  // release captures before the barrier can open
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      if (--pending_ == 0) all_done_.notify_all();
    }
  }

  std::vector<Queue> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0};

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  /// Submitted tasks not yet finished (or drained); wait() blocks on 0.
  std::size_t pending_ = 0;
  /// Pushed tasks not yet claimed by a worker; workers sleep on 0.
  std::size_t queued_ = 0;
  bool stop_ = false;
  /// First task exception of the current submit/wait round, rethrown (and
  /// cleared) by wait(). Guarded by sleep_mutex_; failed_ mirrors its
  /// presence for the workers' lock-free fast path. An exception that is
  /// never wait()ed for is dropped at destruction — destroying a pool
  /// without the barrier already forfeits the results.
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};
};

}  // namespace adapex
