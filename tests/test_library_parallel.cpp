// Tests for the library generator's one schedule (the same dependency graph
// on the FIFO thread pool at every thread count, byte-identical across
// counts), the pool itself, splitmix seed derivation, and the
// value-sensitive artifact-cache key.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/scale.hpp"
#include "library/cache.hpp"
#include "library/generator.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

/// A spec small enough to generate a few times per test run, but covering
/// all three families and several rates so the sweep really fans out.
LibraryGenSpec fast_spec() {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.dataset.train_size = 120;
  spec.dataset.test_size = 60;
  spec.initial_train.epochs = 3;
  spec.retrain.epochs = 1;
  spec.prune_rates_pct = {0, 25, 50};
  spec.conf_thresholds_pct = {0, 50};
  return spec;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 200);
  // The pool is reusable after a barrier.
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 250);
}

TEST(ThreadPool, ThrowingTaskDoesNotTerminateAndWaitRethrows) {
  // Before the exception-capture contract a throwing task escaped into its
  // worker thread and std::terminate()d the whole process.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran, i] {
      if (i == 3) throw ConfigError("task 3 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(pool.wait(), ConfigError);
  // Tasks that ran before the failure completed; none ran twice.
  EXPECT_LE(ran.load(), 7);
}

TEST(ThreadPool, FirstExceptionWinsAndQueueDrains) {
  // Single worker: deterministic order. The first throwing task's exception
  // is the one wait() rethrows, and every task queued after the failure is
  // drained without running.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.submit([] { throw ConfigError("first"); });
  pool.submit([] { throw ParseError("second"); });
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ReusableAfterFailure) {
  // wait() resets the failure state: the next submit/wait round behaves as
  // if the pool were freshly constructed.
  ThreadPool pool(3);
  pool.submit([] { throw ConfigError("boom"); });
  EXPECT_THROW(pool.wait(), ConfigError);

  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ContinuationRunsBeforeWaitReturns) {
  // A running task may submit follow-up tasks, which may submit their own;
  // wait() covers the whole chain even though only the roots were
  // submitted from outside the pool.
  ThreadPool pool(4);
  std::atomic<int> roots{0}, children{0}, grandchildren{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      roots.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&] {
        children.fetch_add(1, std::memory_order_relaxed);
        pool.submit(
            [&] { grandchildren.fetch_add(1, std::memory_order_relaxed); });
      });
    });
  }
  pool.wait();
  EXPECT_EQ(roots.load(), 8);
  EXPECT_EQ(children.load(), 8);
  EXPECT_EQ(grandchildren.load(), 8);
}

TEST(ThreadPool, ContinuationExceptionIsRethrownByWait) {
  ThreadPool pool(2);
  pool.submit([&pool] {
    pool.submit([] { throw ConfigError("continuation failed"); });
  });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow the continuation's exception";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "continuation failed");
  }
  // The failure state was reset: the next round runs normally.
  std::atomic<int> count{0};
  pool.submit([&] {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, FailureDrainsQueuedContinuations) {
  // Single worker: deterministic order. A task queues continuations and
  // then throws; they are drained unrun, and so is a grandchild that a
  // drained continuation would have submitted.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.submit([&] {
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] {
        ran.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    throw ConfigError("parent failed");
  });
  EXPECT_THROW(pool.wait(), ConfigError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, OneWorkerRunsTasksInSubmissionOrder) {
  // One worker pops the front of the one FIFO queue: tasks run in
  // submission order, and a continuation joins the back, after everything
  // queued before it. The generator's one-thread run relies on this order.
  ThreadPool pool(1);
  std::promise<void> all_queued;
  std::future<void> gate = all_queued.get_future();
  std::vector<int> order;  // touched only by the single worker
  pool.submit([&] {
    gate.wait();  // tasks 1..3 are queued before the continuation below
    order.push_back(0);
    pool.submit([&order] { order.push_back(4); });
  });
  for (int i = 1; i <= 3; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  all_queued.set_value();
  pool.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SubmitWaitStressNeverHangs) {
  // Many short rounds mixing outside submissions with continuations at
  // varying fan-out. A barrier that opened before a continuation finished
  // shows up as a wrong count; a worker that slept through a submission
  // (the lost-wakeup race) as a stalled round.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> count{0};
    const int fan = 1 + round % 7;
    for (int i = 0; i < fan; ++i) {
      pool.submit([&] {
        count.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    pool.wait();
    ASSERT_EQ(count.load(), 2 * fan) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentJoinsSeeOnlyTheirOwnTasksAndExceptions) {
  // Two callers share one pool. Each call's counter and exception slot are
  // its own: the failing caller always gets its own exception, the other
  // never sees it, and each caller's slots hold only its own results.
  ThreadPool pool(3);
  constexpr std::size_t kTasks = 8;
  constexpr int kRounds = 200;
  std::atomic<int> good_failures{0}, bad_throws{0};
  std::thread good([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<int> slots(kTasks, -1);
      try {
        pool.run_and_join(kTasks, [&](std::size_t i) {
          slots[i] = round * 100 + static_cast<int>(i);
        });
      } catch (...) {
        good_failures.fetch_add(1, std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < kTasks; ++i) {
        if (slots[i] != round * 100 + static_cast<int>(i)) {
          good_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::thread bad([&] {
    for (int round = 0; round < kRounds; ++round) {
      try {
        pool.run_and_join(kTasks, [&](std::size_t i) {
          if (i == 5) throw ConfigError("bad " + std::to_string(round));
        });
      } catch (const ConfigError& e) {
        if (e.what() == "bad " + std::to_string(round)) {
          bad_throws.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  good.join();
  bad.join();
  EXPECT_EQ(good_failures.load(), 0);
  EXPECT_EQ(bad_throws.load(), kRounds);
}

TEST(ThreadPool, JoinFromInsidePoolTasksCompletes) {
  // One worker, nested three deep, called both from run_and_join tasks and
  // from a submit()ted task: every waiting thread runs queued tasks itself,
  // so nothing waits on a worker that is busy waiting.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  const auto leaf = [&](std::size_t) {
    leaves.fetch_add(1, std::memory_order_relaxed);
  };
  const auto middle = [&](std::size_t) { pool.run_and_join(3, leaf); };
  pool.run_and_join(4, [&](std::size_t) { pool.run_and_join(2, middle); });
  EXPECT_EQ(leaves.load(), 4 * 2 * 3);

  pool.submit([&] { pool.run_and_join(4, middle); });
  pool.submit([&] { pool.run_and_join(4, middle); });
  pool.wait();
  EXPECT_EQ(leaves.load(), 4 * 2 * 3 + 2 * 4 * 3);
}

TEST(ThreadPool, JoinRethrowsItsFirstExceptionAndPoolStaysUsable) {
  ThreadPool pool(2);
  // A throwing caller's share (task 0) and a throwing queued task: the call
  // rethrows one of its own exceptions only after every task has stopped.
  std::atomic<int> running{0};
  EXPECT_THROW(pool.run_and_join(6,
                                 [&](std::size_t i) {
                                   running.fetch_add(1);
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   running.fetch_sub(1);
                                   if (i == 0 || i == 3) {
                                     throw ConfigError("join failed");
                                   }
                                 }),
               ConfigError);
  EXPECT_EQ(running.load(), 0);

  // The failure belonged to that call alone: the next call and a
  // submit()/wait() round run normally.
  std::atomic<int> count{0};
  EXPECT_NO_THROW(pool.run_and_join(
      16, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); }));
  EXPECT_EQ(count.load(), 16);
  pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(count.load(), 17);
}

TEST(ThreadPool, SharedPoolIsOnePoolAndForkedChildStartsItsOwn) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_EQ(&pool, &ThreadPool::shared());
  std::atomic<int> count{0};
  pool.run_and_join(
      4, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 4);
#if defined(__SANITIZE_THREAD__)
  // TSan ends a child of a multi-threaded fork that starts threads.
  GTEST_SKIP() << "ThreadSanitizer does not support threads after fork";
#else
  // The parent's workers do not exist in a forked child: the child's first
  // call starts a pool of its own, whose join completes.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ThreadPool& child = ThreadPool::shared();
    std::atomic<int> ran{0};
    child.run_and_join(
        8, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    _exit(&child != &pool && ran.load() == 8 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

TEST(ThreadPool, EnvThreadCountParsing) {
  const ScopedEnv restore("ADAPEX_THREADS", "6");
  EXPECT_EQ(ThreadPool::env_thread_count(), 6u);
  ASSERT_EQ(setenv("ADAPEX_THREADS", "0", 1), 0);
  EXPECT_THROW(ThreadPool::env_thread_count(), ConfigError);
  ASSERT_EQ(setenv("ADAPEX_THREADS", "lots", 1), 0);
  EXPECT_THROW(ThreadPool::env_thread_count(), ConfigError);
  ASSERT_EQ(unsetenv("ADAPEX_THREADS"), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);
}

TEST(SeedDerivation, UniqueAcrossSweepAndRoots) {
  // The retrain seed for every (variant, rate) design point must be unique,
  // including across nearby root seeds — the old additive scheme placed all
  // streams within a few thousand of the root, so roots 15 apart reused
  // each other's retrain streams and roots ~1000 apart collided them with
  // the base-training seeds seed+1 / seed+11.
  std::set<std::uint64_t> seen;
  std::size_t expected = 0;
  for (std::uint64_t root = 7; root < 11; ++root) {
    for (std::uint64_t variant = 0; variant < 3; ++variant) {
      for (int rate = 0; rate <= 85; rate += 5) {
        seen.insert(derive_seed(root, variant, static_cast<std::uint64_t>(rate)));
        ++expected;
      }
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(LibraryParallel, ByteIdenticalAcrossThreadCounts) {
  GenerationReport report1, report4;
  auto serial = fast_spec();
  serial.num_threads = 1;
  serial.report = &report1;
  const Library lib1 = generate_library(serial);

  auto parallel = fast_spec();
  parallel.num_threads = 4;
  parallel.report = &report4;
  const Library lib4 = generate_library(parallel);
  // Both runs trained both base models, overlapped or not.
  for (const GenerationReport* r : {&report1, &report4}) {
    EXPECT_GT(r->base_wall_s.plain, 0.0);
    EXPECT_GT(r->base_wall_s.early_exit, 0.0);
  }

  // Compare the saved artifacts byte for byte, not just the in-memory rows.
  const std::string dir = scratch_dir("parallel");
  const std::string p1 = dir + "/t1.json";
  const std::string p4 = dir + "/t4.json";
  lib1.save(p1);
  lib4.save(p4);
  const std::string bytes1 = read_file(p1);
  const std::string bytes4 = read_file(p4);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, bytes4);
}

TEST(LibraryParallel, ThreadCountFromEnv) {
  auto spec = fast_spec();
  spec.variants = {ModelVariant::kNoExit};
  spec.prune_rates_pct = {0, 50};
  spec.num_threads = 1;
  const std::string serial = generate_library(spec).to_json().dump(1);

  std::string via_env;
  {
    const ScopedEnv threads("ADAPEX_THREADS", "3");
    spec.num_threads = 0;  // resolve from the environment
    via_env = generate_library(spec).to_json().dump(1);
  }
  EXPECT_EQ(serial, via_env);
}

TEST(LibraryParallel, OrderedProgressAtAnyThreadCount) {
  auto spec = fast_spec();
  std::vector<std::string> serial_msgs, parallel_msgs;
  spec.num_threads = 1;
  spec.on_progress = [&](const std::string& s) { serial_msgs.push_back(s); };
  generate_library(spec);
  spec.num_threads = 4;
  spec.on_progress = [&](const std::string& s) { parallel_msgs.push_back(s); };
  generate_library(spec);
  // The parallel run adds one "sweeping N design points" banner; the
  // per-design-point messages must arrive in the identical sweep order.
  std::vector<std::string> filtered;
  for (const auto& m : parallel_msgs) {
    if (!m.starts_with("sweeping")) filtered.push_back(m);
  }
  EXPECT_EQ(filtered, serial_msgs);
}

/// Runs generate_library and returns the what() of the error it throws
/// ("" if it returns).
std::string generation_error(const LibraryGenSpec& spec) {
  try {
    generate_library(spec);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(LibraryParallel, BaseDesignFailureSameErrorAtAnyThreadCount) {
  // An accelerator input that does not match the CNV fails the base design
  // check of both families. The check runs before any training task is
  // scheduled, so every thread count reports the same structured error
  // (the no-exit family's, first in family order).
  auto spec = fast_spec();
  spec.accel.in_channels = 1;  // the CNV takes RGB
  std::string serial_error;
  for (int threads : {1, 4}) {
    spec.num_threads = threads;
    try {
      generate_library(spec);
      FAIL() << "a base design violating R2 must not generate";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("no-exit CNV:", 0), 0u) << what;
      EXPECT_NE(what.find("R2"), std::string::npos) << what;
      if (threads == 1) serial_error = what;
      EXPECT_EQ(what, serial_error);
    }
  }
}

TEST(LibraryParallel, BaseTrainingFailureSurfacesAtAnyThreadCount) {
  // Base training fails inside a pool task at 4 threads. Three loss weights
  // suit the early-exit CNV but not the plain one, so only the plain task
  // throws while the early-exit task trains on and submits its design
  // points, which the failure drains. wait() must rethrow the same error
  // the serial run throws, with no hang and no terminate.
  auto spec = fast_spec();
  spec.initial_train.exit_weights = {1.0, 0.3, 0.3};
  spec.initial_train.epochs = 1;  // the early-exit base still trains fully
  spec.num_threads = 1;
  const std::string serial = generation_error(spec);
  EXPECT_NE(serial.find("exit_weights arity"), std::string::npos) << serial;
  spec.num_threads = 4;
  EXPECT_EQ(generation_error(spec), serial);
}

TEST(LibraryCacheKey, SensitiveToEveryGenerationKnob) {
  const auto base = fast_spec();
  const std::string base_key = library_cache_key(base);

  // Equal specs, equal keys; output-irrelevant knobs leave the key alone.
  EXPECT_EQ(library_cache_key(fast_spec()), base_key);
  {
    auto s = fast_spec();
    s.num_threads = 8;
    s.on_progress = [](const std::string&) {};
    EXPECT_EQ(library_cache_key(s), base_key);
  }

  // Sweep *values* at unchanged sizes (the schema-v1 bug).
  auto mutate = [&](auto&& fn) {
    auto s = fast_spec();
    fn(s);
    EXPECT_NE(library_cache_key(s), base_key);
  };
  mutate([](LibraryGenSpec& s) { s.prune_rates_pct.back() = 55; });
  mutate([](LibraryGenSpec& s) { s.conf_thresholds_pct.back() = 45; });
  mutate([](LibraryGenSpec& s) {
    s.variants = {ModelVariant::kNoExit, ModelVariant::kPrunedExits};
  });
  mutate([](LibraryGenSpec& s) {
    s.variants = {ModelVariant::kNoExit, ModelVariant::kNotPrunedExits};
  });

  // Exits configuration.
  mutate([](LibraryGenSpec& s) { s.exits.exits[0].ops = ExitOps::kPoolFc; });
  mutate([](LibraryGenSpec& s) { s.exits.exits.pop_back(); });
  mutate([](LibraryGenSpec& s) { s.exits.prune_exits = true; });

  // Folding style / device model / power / reconfig (omitted in v1).
  mutate([](LibraryGenSpec& s) { s.folding_style.conv_caps_per_block[0] = {8, 36}; });
  mutate([](LibraryGenSpec& s) { s.folding_style.fc_caps = {4, 8}; });
  mutate([](LibraryGenSpec& s) { s.folding_style.exit_conv_caps = {2, 12}; });
  mutate([](LibraryGenSpec& s) { s.accel.fclk_mhz = 150.0; });
  mutate([](LibraryGenSpec& s) { s.accel.cost.fifo_depth = 128; });
  mutate([](LibraryGenSpec& s) { s.accel.cost.lut_per_pe = 50.0; });
  mutate([](LibraryGenSpec& s) { s.power.static_w = 0.9; });
  mutate([](LibraryGenSpec& s) { s.power.w_per_klut = 0.05; });
  mutate([](LibraryGenSpec& s) { s.reconfig.base_ms = 200.0; });

  // Full train configs (v1 hashed epochs only).
  mutate([](LibraryGenSpec& s) { s.initial_train.lr *= 2.0; });
  mutate([](LibraryGenSpec& s) { s.initial_train.momentum = 0.8; });
  mutate([](LibraryGenSpec& s) { s.initial_train.seed += 1; });
  mutate([](LibraryGenSpec& s) { s.initial_train.augment = false; });
  mutate([](LibraryGenSpec& s) { s.initial_train.exit_weights = {1.0, 0.5, 0.5}; });
  mutate([](LibraryGenSpec& s) { s.retrain.lr *= 2.0; });
  mutate([](LibraryGenSpec& s) { s.retrain.epochs += 1; });

  // Dataset and model knobs that were already hashed stay hashed.
  mutate([](LibraryGenSpec& s) { s.dataset.flip_symmetry = false; });
  mutate([](LibraryGenSpec& s) { s.dataset.max_shift = 1; });
  mutate([](LibraryGenSpec& s) { s.dataset.seed += 1; });
  mutate([](LibraryGenSpec& s) { s.cnv.weight_bits = 4; });
  mutate([](LibraryGenSpec& s) { s.seed += 1; });
}

TEST(LibraryCache, CorruptArtifactIsRegenerated) {
  const std::string dir = scratch_dir("cache_corrupt");
  auto spec = fast_spec();
  spec.variants = {ModelVariant::kNoExit};
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {50};

  const Library first = generate_or_load_library(spec, dir);
  const std::string path = dir + "/library_" + library_cache_key(spec) + ".json";
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the artifact mid-document, as a crashed pre-atomic-publish
  // writer would have left it.
  write_file(path, "{\"dataset\": \"cifar10-like\", \"entr");
  std::vector<std::string> msgs;
  spec.on_progress = [&](const std::string& s) { msgs.push_back(s); };
  const Library second = generate_or_load_library(spec, dir);
  EXPECT_EQ(second.entries.size(), first.entries.size());
  EXPECT_DOUBLE_EQ(second.reference_accuracy, first.reference_accuracy);
  bool reported = false;
  for (const auto& m : msgs) {
    if (m.starts_with("cache: quarantining corrupt artifact")) reported = true;
  }
  EXPECT_TRUE(reported);

  // The corrupt bytes were preserved for postmortem, not deleted, and the
  // regenerated artifact is valid. Apart from the quarantine file no other
  // debris (temp files) is left behind.
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_NO_THROW(Library::load(path));
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const auto ext = e.path().extension();
    EXPECT_TRUE(ext == ".json" || ext == ".corrupt") << e.path();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adapex
