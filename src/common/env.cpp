#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace adapex::env {

std::optional<std::string> get(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::string choice(const char* name, const std::vector<std::string>& allowed,
                   const std::string& fallback) {
  const std::optional<std::string> value = get(name);
  if (!value) return fallback;
  std::string expected;
  for (const std::string& a : allowed) {
    if (*value == a) return a;
    if (!expected.empty()) expected += '|';
    expected += a;
  }
  throw ConfigError(std::string(name) + "='" + *value +
                    "' is not a valid value (expected " + expected + ")");
}

long positive_int(const char* name, long fallback) {
  const std::optional<std::string> value = get(name);
  if (!value) return fallback;
  const char* text = value->c_str();
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1) {
    throw ConfigError(std::string(name) + " must be a positive integer, got '" +
                      *value + "'");
  }
  return v;
}

}  // namespace adapex::env
