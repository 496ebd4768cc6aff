// ISA-tier dispatch shared by the float GEMM kernels (tensor/kernels.cpp)
// and the packed popcount GEMM (tensor/packed.cpp). Each family compiles its
// tier bodies under `#pragma GCC target` regions (when
// ADAPEX_ISA_MULTIVERSION is defined) and lists them widest first, each with
// the CPU probe that gates it; the last tier is the portable baseline. The
// dispatcher latches the widest supported tier, or the one an environment
// variable pins, at first use, so a GEMM call costs one pointer load: no
// string compare, no environment read.

#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"

#if defined(__GNUC__) && defined(__x86_64__)
#define ADAPEX_ISA_MULTIVERSION 1
#endif

namespace adapex::isa {

/// Probe of the portable baseline tier.
inline bool baseline() { return true; }

#ifdef ADAPEX_ISA_MULTIVERSION
inline bool has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

/// AVX-512 F + VL + BW + DQ: the set every avx512 tier is compiled for.
inline bool has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

/// has_avx512() plus the native 64-bit lane popcount (VPOPCNTDQ).
inline bool has_avx512vpopcntdq() {
  return has_avx512() && __builtin_cpu_supports("avx512vpopcntdq") != 0;
}
#endif  // ADAPEX_ISA_MULTIVERSION

/// Dispatcher over `Table`, the caller's struct of one tier's entry points.
/// Its `name` member is the tier name pins and force() match, and its
/// `supported` member the host probe (isa::baseline for the last tier).
template <typename Table>
class TierDispatch {
 public:
  /// `tiers` is widest first and must outlive the dispatcher; `env_var`
  /// pins a tier by name; `noun` names the family in error messages.
  /// Throws ConfigError when the pin is unknown or unsupported by the host.
  TierDispatch(std::span<const Table> tiers, const char* env_var,
               const char* noun)
      : tiers_(tiers), noun_(noun), active_(&initial(env_var)) {}

  const Table& active() const { return *active_; }

  /// Re-pins the tier, throwing like the env pin. Not thread-safe: call
  /// only while no kernel of this family runs.
  void force(const char* name) {
    ADAPEX_CHECK(name != nullptr, "force_isa: null name");
    active_ = &select(name, "force_isa");
  }

 private:
  const Table& initial(const char* env_var) const {
    if (const std::optional<std::string> pin = env::get(env_var)) {
      return select(*pin, env_var);
    }
    for (const Table& t : tiers_.first(tiers_.size() - 1)) {
      if (t.supported()) return t;
    }
    return tiers_.back();
  }

  /// The tier called `name`; `source` (the variable or "force_isa")
  /// prefixes the error when the name is unknown or the host lacks it.
  const Table& select(std::string_view name, const char* source) const {
    std::string expected;
    for (const Table& t : tiers_) {
      if (name == t.name) {
        if (!t.supported()) {
          throw ConfigError(std::string(source) + ": " + noun_ + " ISA '" +
                            std::string(name) + "' not supported by this CPU");
        }
        return t;
      }
      if (!expected.empty()) expected += '|';
      expected += t.name;
    }
    throw ConfigError(std::string(source) + ": unknown " + noun_ + " ISA '" +
                      std::string(name) + "' (expected " + expected + ")");
  }

  std::span<const Table> tiers_;
  const char* noun_;
  const Table* active_;
};

}  // namespace adapex::isa
