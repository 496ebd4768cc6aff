// Tests for the environment reader (common/env.hpp) and the shared ISA-tier
// dispatch (common/isa_dispatch.hpp): the empty-means-unset rule for every
// ADAPEX_* variable, ConfigErrors that name the malformed variable, and tier
// selection over a fake tier list with stub probes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/isa_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "core/scale.hpp"
#include "library/cache.hpp"
#include "tensor/kernels.hpp"
#include "tensor/packed.hpp"
#include "test_support.hpp"

namespace adapex {
namespace {

/// Runs `fn`, expecting a ConfigError whose message names `variable`.
template <typename Fn>
void expect_config_error_naming(const char* variable, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected ConfigError naming " << variable;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(variable), std::string::npos)
        << e.what();
  }
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// ------------------------------------------------------------- env module

TEST(Env, GetTreatsEmptyAsUnset) {
  ScopedEnv v("ADAPEX_TEST_VAR", "");
  EXPECT_EQ(env::get("ADAPEX_TEST_VAR"), std::nullopt);
  ::setenv("ADAPEX_TEST_VAR", "x", 1);
  EXPECT_EQ(env::get("ADAPEX_TEST_VAR"), "x");
  ::unsetenv("ADAPEX_TEST_VAR");
  EXPECT_EQ(env::get("ADAPEX_TEST_VAR"), std::nullopt);
}

TEST(Env, ChoiceValidatesAgainstAllowed) {
  ScopedEnv v("ADAPEX_TEST_VAR", std::nullopt);
  EXPECT_EQ(env::choice("ADAPEX_TEST_VAR", {"a", "b"}, "a"), "a");
  ::setenv("ADAPEX_TEST_VAR", "b", 1);
  EXPECT_EQ(env::choice("ADAPEX_TEST_VAR", {"a", "b"}, "a"), "b");
  ::setenv("ADAPEX_TEST_VAR", "B", 1);
  try {
    env::choice("ADAPEX_TEST_VAR", {"a", "b"}, "a");
    ADD_FAILURE() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ADAPEX_TEST_VAR"), std::string::npos) << msg;
    EXPECT_NE(msg.find("a|b"), std::string::npos) << msg;
  }
}

TEST(Env, PositiveIntRejectsNonPositiveAndGarbage) {
  ScopedEnv v("ADAPEX_TEST_VAR", std::nullopt);
  EXPECT_EQ(env::positive_int("ADAPEX_TEST_VAR", 5), 5);
  ::setenv("ADAPEX_TEST_VAR", "12", 1);
  EXPECT_EQ(env::positive_int("ADAPEX_TEST_VAR", 5), 12);
  for (const char* bad : {"0", "-3", "lots", "4x", "99999999999999999999"}) {
    ::setenv("ADAPEX_TEST_VAR", bad, 1);
    expect_config_error_naming("ADAPEX_TEST_VAR", [] {
      env::positive_int("ADAPEX_TEST_VAR", 5);
    });
  }
}

// ------------------------------------------ empty value behaves as unset

TEST(EnvEmpty, ScaleFallsBackToSmall) {
  ScopedEnv v("ADAPEX_SCALE", "");
  EXPECT_EQ(ExperimentScale::from_env().name, "small");
}

TEST(EnvEmpty, ArtifactsFallsBackToDefaultDir) {
  ScopedEnv v("ADAPEX_ARTIFACTS", "");
  EXPECT_EQ(default_artifact_dir(), "artifacts");
}

TEST(EnvEmpty, ThreadsFallsBackToHardware) {
  ScopedEnv v("ADAPEX_THREADS", "");
  EXPECT_EQ(ThreadPool::env_thread_count(), hardware_threads());
}

TEST(EnvEmpty, BenchSpeedupReadsAsUnset) {
  ScopedEnv v("ADAPEX_BENCH_SPEEDUP", "");
  EXPECT_EQ(env::get("ADAPEX_BENCH_SPEEDUP"), std::nullopt);
}

// ------------------------------------ malformed value names the variable

TEST(EnvMalformed, ScaleNamesVariable) {
  ScopedEnv v("ADAPEX_SCALE", "bogus");
  expect_config_error_naming("ADAPEX_SCALE",
                             [] { ExperimentScale::from_env(); });
}

TEST(EnvMalformed, ThreadsNamesVariable) {
  ScopedEnv v("ADAPEX_THREADS", "lots");
  expect_config_error_naming("ADAPEX_THREADS",
                             [] { ThreadPool::env_thread_count(); });
}

// ------------------------------------------------- shared tier dispatch

struct FakeTable {
  const char* name;
  bool (*supported)();
  int width;
};

bool probe_yes() { return true; }
bool probe_no() { return false; }

constexpr FakeTable kFakeTiers[] = {
    {"wide", &probe_no, 512},
    {"mid", &probe_yes, 256},
    {"base", &isa::baseline, 64},
};

using FakeDispatch = isa::TierDispatch<FakeTable>;

constexpr const char* kPin = "ADAPEX_FAKE_ISA";

TEST(IsaDispatch, PicksWidestSupportedTier) {
  ScopedEnv v(kPin, std::nullopt);
  EXPECT_STREQ(FakeDispatch(kFakeTiers, kPin, "fake").active().name, "mid");
}

TEST(IsaDispatch, EmptyPinIsUnset) {
  ScopedEnv v(kPin, "");
  EXPECT_STREQ(FakeDispatch(kFakeTiers, kPin, "fake").active().name, "mid");
}

TEST(IsaDispatch, HonoursEnvPin) {
  ScopedEnv v(kPin, "base");
  const FakeDispatch d(kFakeTiers, kPin, "fake");
  EXPECT_STREQ(d.active().name, "base");
  EXPECT_EQ(d.active().width, 64);
}

TEST(IsaDispatch, PinRejectsUnknownAndUnsupportedNames) {
  for (const char* bad : {"banana", "wide"}) {
    ScopedEnv v(kPin, bad);
    expect_config_error_naming(kPin,
                               [] { FakeDispatch(kFakeTiers, kPin, "fake"); });
  }
}

TEST(IsaDispatch, ForceRepinsAndRejectsBadNames) {
  ScopedEnv v(kPin, std::nullopt);
  FakeDispatch d(kFakeTiers, kPin, "fake");
  d.force("base");
  EXPECT_STREQ(d.active().name, "base");
  EXPECT_THROW(d.force("banana"), ConfigError);
  EXPECT_THROW(d.force("wide"), ConfigError);
  EXPECT_THROW(d.force(nullptr), Error);
  EXPECT_STREQ(d.active().name, "base");  // failed forces change nothing
  d.force("mid");
  EXPECT_STREQ(d.active().name, "mid");
}

// The real families latch the widest tier the host supports (unless pinned
// in this process's environment).
TEST(IsaDispatch, RealFamiliesLatchWidestSupportedTier) {
#ifdef ADAPEX_ISA_MULTIVERSION
  if (!env::get("ADAPEX_KERNEL_ISA")) {
    EXPECT_STREQ(kernels::active_isa(), isa::has_avx512() ? "avx512"
                                        : isa::has_avx2() ? "avx2"
                                                          : "sse2");
  }
  if (!env::get("ADAPEX_PACKED_ISA")) {
    EXPECT_STREQ(packed::active_isa(),
                 isa::has_avx512vpopcntdq() ? "avx512vp"
                 : isa::has_avx512()        ? "avx512"
                 : isa::has_avx2()          ? "avx2"
                                            : "scalar");
  }
#else
  EXPECT_STREQ(kernels::active_isa(), "sse2");
  EXPECT_STREQ(packed::active_isa(), "scalar");
#endif
}

}  // namespace
}  // namespace adapex
