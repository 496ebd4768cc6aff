// Small FIFO thread pool with one way to run work: a fork-join.
//
// Built for the library generator's task graph (two base trainings, then a
// few dozen coarse design points, seconds each) and for evaluate_exits'
// batch loops. Every task goes into one mutex-guarded FIFO queue and
// workers pop its front — task granularity here is milliseconds-to-seconds,
// so per-worker or lock-free queues would buy nothing — which also keeps
// the pool trivially ThreadSanitizer-clean.
//
// run_and_join(count, task) runs task(0) on the caller and task(1..count-1)
// as queued tasks, tracked by the call's own counter and its own
// first-exception slot, so concurrent callers (any thread, a pool task
// included) never see each other's tasks or failures. While its other
// calls are unfinished the caller pops and runs queued tasks — its own or
// anyone's — instead of blocking, and a waiting caller wakes on newly
// queued work as well as on its own join finishing. Joins may therefore
// nest to any depth: the generator's family tasks join over their design
// points from inside its outer join. A pool may have zero workers; its
// joins then run entirely on the calling threads, in queue order.
//
// The shared pool: ThreadPool::shared() is one process-wide pool for
// run_and_join callers (evaluate_exits), started on first use, sized from
// env_thread_count() and joined at exit. A forked child never uses its
// parent's pool — the workers were not copied — and starts its own.
//
// Determinism contract: tasks start in queue order but overlap on
// arbitrary threads. Callers that need deterministic output (the library
// generator does — see library/generator.hpp) must make every task
// self-contained (own RNG stream, own model clone) and write results into
// pre-assigned slots, never into shared accumulators.
//
// Exception contract: a task that throws never escapes into the worker
// thread (which would std::terminate the process). A call's first
// exception skips the call's still-queued tasks and is rethrown by the
// call once every running one has finished; other calls are unaffected.
// Callers that need per-task failure isolation (retry, quarantine) must
// catch inside the task — the library generator does — and then this
// capture path is only a backstop.

#pragma once

#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace adapex {

/// Fixed-size FIFO pool of `num_threads` workers (zero allowed) that
/// fork-joins work through run_and_join(). Destruction joins all workers.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
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
    wake_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// Runs task(0) .. task(count - 1), count >= 1, and returns when all have
  /// finished: task(0) on the calling thread, the others as queued tasks.
  /// While any is unfinished the caller pops and runs queued tasks (its own
  /// or anyone's) and blocks only when the queue is empty, so it may be
  /// called from any thread, a task of this pool included. Rethrows the
  /// call's first exception; the call's tasks not yet started by then are
  /// skipped.
  void run_and_join(std::size_t count,
                    const std::function<void(std::size_t)>& task) {
    ADAPEX_CHECK(count > 0, "thread pool: run_and_join of no tasks");
    Join join{task, count, nullptr};
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t i = 1; i < count; ++i) tasks_.push_back(Task{&join, i});
    // Every waiter re-checks the queue: idle workers, and joiners asleep on
    // an empty queue whose own tasks are still running elsewhere.
    if (count > 1) wake_.notify_all();
    run(join, 0, lock);
    while (join.pending > 0) {
      if (tasks_.empty()) {
        wake_.wait(lock, [&] { return join.pending == 0 || !tasks_.empty(); });
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
  /// workers (the caller is the other thread), started by the first call
  /// and joined at exit. In a forked child the parent's pool has no
  /// workers, so the child abandons it unjoined and starts its own.
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
      holder.pool = new ThreadPool(env_thread_count() - 1);
      holder.owner = getpid();
    }
    return *holder.pool;
  }

 private:
  /// One run_and_join call's bookkeeping, on its caller's stack.
  struct Join {
    const std::function<void(std::size_t)>& task;
    /// Queued or running tasks of the call. Guarded by mutex_.
    std::size_t pending;
    /// The call's first exception. Guarded by mutex_.
    std::exception_ptr error;
  };

  /// Task `index` of the run_and_join call `join`.
  struct Task {
    Join* join;
    std::size_t index;
  };

  /// Runs task `index` of `join` (or skips it, when the call has already
  /// failed), then counts it done. `lock` holds mutex_ on entry and on
  /// return, and is released while the task runs.
  void run(Join& join, std::size_t index, std::unique_lock<std::mutex>& lock) {
    if (!join.error) {
      std::exception_ptr error;
      lock.unlock();
      try {
        join.task(index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !join.error) join.error = error;
    }
    if (--join.pending == 0) wake_.notify_all();
  }

  /// Pops the front task and runs it; `lock` as for run().
  void run_front(std::unique_lock<std::mutex>& lock) {
    const Task next = tasks_.front();
    tasks_.pop_front();
    run(*next.join, next.index, lock);
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped; no join can be outstanding
      run_front(lock);
    }
  }

  std::mutex mutex_;
  /// Signalled when tasks are queued, when some call's last task finishes,
  /// and at stop. Workers wait for a task; joiners for a task or their own
  /// call's end.
  std::condition_variable wake_;
  /// Queued tasks in queue order; every thread pops the front.
  std::deque<Task> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace adapex
