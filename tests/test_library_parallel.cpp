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

TEST(ThreadPool, NestedJoinStressNeverHangs) {
  // Many short rounds of joins at varying fan-out whose every task starts a
  // nested join. A join that returned before a nested task finished shows
  // up as a wrong count; a thread that slept through newly queued work (the
  // lost-wakeup race) as a stalled round.
  ThreadPool pool(3);
  for (int round = 0; round < 500; ++round) {
    std::atomic<int> count{0};
    const std::size_t fan = 1 + static_cast<std::size_t>(round % 7);
    pool.run_and_join(fan, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.run_and_join(2, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(count.load(), 3 * static_cast<int>(fan)) << "round " << round;
  }
}

TEST(ThreadPool, SleepingJoinerRunsWorkQueuedByANestedJoin) {
  // One worker and the caller. The caller's share of the outer join ends at
  // once, so it goes to sleep on an empty queue while the worker runs the
  // outer task 1. That task's nested join queues a sibling and waits for
  // it: only the sleeping caller is free to run it, so newly queued work
  // must wake a waiting joiner, not just idle workers. A joiner that slept
  // through the push would leave the sibling to the worker, after the wait
  // below times out.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(5);
  };
  std::atomic<bool> outer_started{false}, sibling_ran{false};
  std::thread::id sibling_thread;
  pool.run_and_join(2, [&](std::size_t i) {
    if (i == 0) {
      const auto until = deadline();
      while (!outer_started && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return;
    }
    outer_started = true;
    // Give the caller time to fall asleep on the empty queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pool.run_and_join(2, [&](std::size_t j) {
      if (j == 1) {
        sibling_thread = std::this_thread::get_id();
        sibling_ran = true;
        return;
      }
      const auto until = deadline();
      while (!sibling_ran && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  ASSERT_TRUE(sibling_ran.load());
  EXPECT_EQ(sibling_thread, caller);
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
  // Nested three deep on one worker and on none: every waiting thread runs
  // queued tasks itself, so nothing waits on a worker that is busy waiting.
  // With no workers every leaf runs on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
    ThreadPool pool(workers);
    std::atomic<int> leaves{0}, off_caller{0};
    const auto leaf = [&](std::size_t) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != caller) {
        off_caller.fetch_add(1, std::memory_order_relaxed);
      }
    };
    const auto middle = [&](std::size_t) { pool.run_and_join(3, leaf); };
    pool.run_and_join(4, [&](std::size_t) { pool.run_and_join(2, middle); });
    EXPECT_EQ(leaves.load(), 4 * 2 * 3) << workers << " workers";
    if (workers == 0) {
      EXPECT_EQ(off_caller.load(), 0);
    }
  }
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

  // The failure belonged to that call alone: the next call runs normally.
  std::atomic<int> count{0};
  EXPECT_NO_THROW(pool.run_and_join(
      16, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); }));
  EXPECT_EQ(count.load(), 16);
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
  // suit the early-exit CNV but not the plain one, so only the plain family
  // throws while the early-exit family trains on and joins over its design
  // points, which the failure stops. The outer join must rethrow the same
  // error the serial run throws, with no hang and no terminate; the serial
  // run fails on the plain base before any design point starts.
  auto spec = fast_spec();
  spec.initial_train.exit_weights = {1.0, 0.3, 0.3};
  spec.initial_train.epochs = 1;  // the early-exit base still trains fully
  std::atomic<int> started{0};
  spec.point_fault_hook = [&started](std::size_t, int) {
    started.fetch_add(1, std::memory_order_relaxed);
  };
  spec.num_threads = 1;
  const std::string serial = generation_error(spec);
  EXPECT_NE(serial.find("exit_weights arity"), std::string::npos) << serial;
  EXPECT_EQ(started.load(), 0);
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
