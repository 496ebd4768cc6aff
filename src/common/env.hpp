// The one reader of the ADAPEX_* environment variables. An empty value
// means unset for every variable. Values are read at each use, never cached
// (tests setenv mid-process), and come back as strings or integers that
// each caller maps to its own types.

#pragma once

#include <optional>
#include <string>
#include <vector>

namespace adapex::env {

/// The variable's value, or nullopt when it is unset or empty.
std::optional<std::string> get(const char* name);

/// The variable's value when it is one of `allowed`, `fallback` when unset.
/// Throws ConfigError naming the variable and the allowed values otherwise.
std::string choice(const char* name, const std::vector<std::string>& allowed,
                   const std::string& fallback);

/// The variable as an integer >= 1, `fallback` when unset. Throws
/// ConfigError naming the variable on a non-numeric or non-positive value.
long positive_int(const char* name, long fallback);

}  // namespace adapex::env
