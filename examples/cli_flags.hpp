// Numeric flag values for the command-line examples (adapex_cli,
// adapex_lint): a value must parse in full, so `--runs 2x` or
// `--image-size 32x` is an error, never a silently truncated number.

#pragma once

#include <charconv>
#include <string>
#include <type_traits>

#include "common/error.hpp"

namespace adapex {

/// Parses all of `text` as the value of `--flag`, or throws a ConfigError
/// naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end) {
    throw ConfigError("--" + flag + ": '" + text + "' is not a valid " +
                      (std::is_integral_v<T> ? "integer" : "number"));
  }
  return value;
}

}  // namespace adapex
