// Helpers shared by the test binaries. Each test binary may run beside
// others (ctest -j, or two checkouts on one host), so a test never leaves
// an environment variable changed and never writes a fixed path: ScopedEnv
// restores the variable's previous state, and scratch_dir names its
// directory after the process id.

#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

namespace adapex {

/// Sets (or, for nullopt, unsets) a variable for one scope and restores the
/// previous state afterwards, including any value set inside the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    apply(value);
  }
  ~ScopedEnv() { apply(old_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void apply(const std::optional<std::string>& value) {
    if (value) {
      ::setenv(name_, value->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::optional<std::string> old_;
};

/// Fresh, empty directory /tmp/adapex_test_<tag>_<pid>, removed by the
/// caller.
inline std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      "/tmp/adapex_test_" + tag + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace adapex
