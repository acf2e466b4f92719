// Strict command-line helpers shared by the bench and example programs: a
// malformed or out-of-range value, or an argument the program does not
// take, exits 2 with a message naming it — a typo never falls back to a
// default silently.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "util/str.h"

namespace cd::cli {

[[noreturn]] inline void bad_flag_value(const char* flag, const char* value) {
  std::fprintf(stderr, "error: malformed value '%s' for %s\n", value, flag);
  std::exit(2);
}

/// Unsigned decimal value given for `flag` (e.g. "--threads"), at most `max`.
inline std::uint64_t flag_u64(
    const char* flag, const char* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> v = cd::parse_u64(value);
  if (!v || *v > max) bad_flag_value(flag, value);
  return *v;
}

/// Finite decimal value given for `flag` (e.g. "--scale").
inline double flag_double(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    bad_flag_value(flag, value);
  }
  return v;
}

/// A well-formed value outside the flag's range: exits 2 naming the flag.
[[noreturn]] inline void flag_out_of_range(const char* flag, const char* value,
                                           const char* bound) {
  std::fprintf(stderr, "error: value '%s' for %s must be %s\n", value, flag,
               bound);
  std::exit(2);
}

/// An argument no parser of the program claims: exits 2 naming it.
[[noreturn]] inline void unknown_flag(const char* arg) {
  std::fprintf(stderr, "error: unknown flag '%s'\n", arg);
  std::exit(2);
}

/// For programs that take no arguments: any argument exits 2 naming it.
inline void reject_args(int argc, char** argv) {
  if (argc > 1) unknown_flag(argv[1]);
}

}  // namespace cd::cli
