#pragma once

// Strict numeric flag values for the command-line tools: the whole token
// must convert, so "20k", "12x", "abc" and "-1" are rejected with a message
// naming the flag instead of silently running with a truncated value.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mcmcpar::cli {

/// A decimal unsigned integer no larger than `max`.
inline bool parseU64(const char* flag, const char* text, std::uint64_t& out,
                     std::uint64_t max =
                         std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      errno != 0 || *end != '\0') {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", flag,
                 text);
    return false;
  }
  if (value > max) {
    std::fprintf(stderr, "%s: %s is out of range (at most %llu)\n", flag, text,
                 static_cast<unsigned long long>(max));
    return false;
  }
  out = value;
  return true;
}

/// parseU64 into a narrower integer, capped at that type's maximum.
template <typename T>
bool parseUnsigned(const char* flag, const char* text, T& out) {
  std::uint64_t value = 0;
  if (!parseU64(flag, text, value,
                static_cast<std::uint64_t>(std::numeric_limits<T>::max()))) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// A decimal number.
inline bool parseDouble(const char* flag, const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

}  // namespace mcmcpar::cli
