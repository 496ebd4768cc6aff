// Small FIFO thread pool.
//
// Built for the library generator's design-point sweep (a few dozen coarse
// tasks, seconds each, and a single barrier) and for evaluate_exits' batch
// loops. Every task goes into one mutex-guarded FIFO queue and workers pop
// its front — task granularity here is milliseconds-to-seconds, so
// per-worker or lock-free queues would buy nothing — which also keeps the
// pool trivially ThreadSanitizer-clean.
//
// Two ways to wait:
//   - submit() + wait(): one barrier over every submitted task, for the
//     pool's owner (the generator). Continuations: a running task may
//     submit() further tasks (that is how the generator chains "train a
//     base model, then sweep its design points"), and wait() covers them —
//     a continuation is counted before the task that submitted it
//     finishes, so the barrier cannot open between the two. Tasks must not
//     call wait() themselves.
//   - run_and_join(count, task): a fork-join over `count` calls of `task`,
//     tracked by the call's own counter and its own first-exception slot,
//     so concurrent callers (any thread, a pool task included) never see
//     each other's tasks or failures, and wait() never sees theirs. The
//     caller runs task(0) itself and, while its other calls are unfinished,
//     pops and runs tasks from the queue instead of blocking; a call made
//     from inside a pool task therefore cannot deadlock.
//
// The shared pool: ThreadPool::shared() is one process-wide pool for
// run_and_join callers (evaluate_exits), started on first use, sized from
// env_thread_count() and joined at exit. A forked child never uses its
// parent's pool — the workers were not copied — and starts its own.
//
// Determinism contract: tasks start in submission order (one worker runs
// them in it) but overlap on arbitrary threads. Callers that need
// deterministic output (the library generator does — see
// library/generator.hpp) must make every task self-contained (own RNG
// stream, own model clone) and write results into pre-assigned slots, never
// into shared accumulators.
//
// Exception contract: a task that throws no longer escapes into the worker
// thread (which would std::terminate the process). For submit()ted tasks
// the first exception is captured, every such task still queued at that
// point — continuations submitted after it included — is drained without
// running (the sweep is already doomed; finishing it would only delay the
// report), and the next wait() rethrows the captured exception. After the
// rethrow the pool is reusable: submit()/wait() cycles behave as if freshly
// constructed. run_and_join does the same per call: its first exception
// skips the call's still-queued tasks and is rethrown once every running
// one has finished; other calls and the wait() round are unaffected.
// Callers that need per-task failure isolation (retry, quarantine) must
// catch inside the task — the library generator does — and then this
// capture path is only a backstop.

#pragma once

#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex {

/// Fixed-size FIFO pool; tasks are submitted then awaited via wait(), or
/// fork-joined via run_and_join(). Destruction joins all workers (after
/// draining pending tasks).
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
      tasks_.push_back(Task{std::move(task), nullptr});
      ++pending_;
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted task — continuations submitted by running
  /// tasks included — has finished running (or been drained after a
  /// failure). Must not be called from a task. If any task threw, rethrows
  /// the *first* captured exception and resets the failure state, leaving
  /// the pool reusable for subsequent submit()/wait() rounds. Tasks of
  /// run_and_join calls are not waited for.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// Runs task(0) .. task(count - 1), count >= 1, and returns when all have
  /// finished: task(0) on the calling thread, the others as queued tasks.
  /// While any is unfinished the caller pops and runs queued tasks (its own
  /// or anyone's) and blocks only when the queue is empty, so it may be
  /// called from any thread, a task of this pool included. Rethrows the
  /// call's first exception; the call's tasks still queued by then are
  /// skipped.
  void run_and_join(std::size_t count,
                    const std::function<void(std::size_t)>& task) {
    ADAPEX_CHECK(count > 0, "thread pool: run_and_join of no tasks");
    Join join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 1; i < count; ++i) {
        tasks_.push_back(Task{[&task, i] { task(i); }, &join});
      }
      join.pending = count - 1;
    }
    for (std::size_t i = 1; i < count; ++i) work_available_.notify_one();
    try {
      task(0);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!join.error) join.error = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    while (join.pending > 0) {
      if (tasks_.empty()) {
        join_done_.wait(
            lock, [&] { return join.pending == 0 || !tasks_.empty(); });
        continue;
      }
      run_front(lock);
    }
    if (join.error) std::rethrow_exception(join.error);
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

  /// The process-wide pool for run_and_join callers: env_thread_count() - 1
  /// workers (at least one; the caller is the other thread), started by the
  /// first call and joined at exit. In a forked child the parent's pool has
  /// no workers, so the child abandons it unjoined and starts its own.
  static ThreadPool& shared() {
    struct Holder {
      std::mutex mutex;
      ThreadPool* pool = nullptr;  ///< Owned by the process `owner`.
      pid_t owner = 0;
      ~Holder() {
        if (owner == getpid()) delete pool;
      }
    };
    static Holder holder;
    std::lock_guard<std::mutex> lock(holder.mutex);
    if (holder.pool == nullptr || holder.owner != getpid()) {
      const std::size_t threads = env_thread_count();
      holder.pool = new ThreadPool(threads > 1 ? threads - 1 : 1);
      holder.owner = getpid();
    }
    return *holder.pool;
  }

 private:
  /// One run_and_join call's bookkeeping, on its caller's stack.
  struct Join {
    /// Queued or running tasks of the call. Guarded by mutex_.
    std::size_t pending = 0;
    /// The call's first exception. Guarded by mutex_.
    std::exception_ptr error;
  };

  struct Task {
    std::function<void()> run;
    /// The run_and_join call it belongs to; nullptr for a submit()ted task.
    Join* join = nullptr;
  };

  /// Pops the front task and runs it (or skips it, when its round or call
  /// has already failed), then counts it done. `lock` holds mutex_ on entry
  /// and on return, and is released while the task runs.
  void run_front(std::unique_lock<std::mutex>& lock) {
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    std::exception_ptr& error = task.join ? task.join->error : first_error_;
    const bool run = !error;
    lock.unlock();
    if (run) {
      try {
        task.run();
      } catch (...) {
        std::lock_guard<std::mutex> error_lock(mutex_);
        if (!error) error = std::current_exception();
      }
    }
    task.run = nullptr;  // release captures before the barrier can open
    lock.lock();
    if (task.join != nullptr) {
      if (--task.join->pending == 0) join_done_.notify_all();
    } else if (--pending_ == 0) {
      all_done_.notify_all();
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped and fully drained
      run_front(lock);
    }
  }

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  /// Signalled when some run_and_join call's last task finishes.
  std::condition_variable join_done_;
  /// Queued tasks in submission order; workers pop the front.
  std::deque<Task> tasks_;
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
