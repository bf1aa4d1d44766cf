#ifndef SKYPEER_COMMON_PARSE_H_
#define SKYPEER_COMMON_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "skypeer/common/status.h"

namespace skypeer {

/// \file
/// Strict numeric parsing for command-line flags, shared by the CLI and
/// the benches. The whole token must be a number within the given range;
/// anything else prints a diagnostic naming the flag and exits nonzero.
/// `atoi`-style silent zeros would quietly run (or bench) a zero-sized
/// configuration — `--peers 10k` must be an error, not 0 peers. Each
/// `Parse*Flag` is a thin exiting wrapper over a `Parse*` core that
/// returns `InvalidArgument` with the same diagnostic instead.

namespace parse_internal {

inline std::string Quoted(const char* text) {
  std::string quoted = "'";
  quoted += text;
  quoted += '\'';
  return quoted;
}

inline std::string FormatG(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

/// Prints `flag: <message>` and exits nonzero unless `status` is OK.
inline void ExitUnlessOk(const char* flag, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag, status.message().c_str());
    std::exit(1);
  }
}

}  // namespace parse_internal

/// Parses `text` as a base-10 integer in [min_value, max_value].
inline Status ParseInt(const char* text, long long min_value,
                       long long max_value, long long* value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(parse_internal::Quoted(text) +
                                   " is not an integer");
  }
  if (parsed < min_value || parsed > max_value) {
    return Status::InvalidArgument(
        std::to_string(parsed) + " out of range [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) + "]");
  }
  *value = parsed;
  return Status::OK();
}

/// Parses `text` as a non-negative base-10 integer into the full uint64
/// range (seeds, sizes).
inline Status ParseU64(const char* text, uint64_t* value) {
  if (text[0] == '-') {
    return Status::InvalidArgument(parse_internal::Quoted(text) +
                                   " must be non-negative");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(parse_internal::Quoted(text) +
                                   " is not an unsigned integer");
  }
  *value = parsed;
  return Status::OK();
}

/// Parses `text` as a finite double in [min_value, max_value]. NaN and
/// infinities are rejected (a NaN would slip through naive range checks —
/// every comparison against it is false).
inline Status ParseDouble(const char* text, double min_value,
                          double max_value, double* value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument(parse_internal::Quoted(text) +
                                   " is not a finite number");
  }
  if (parsed < min_value || parsed > max_value) {
    return Status::InvalidArgument(
        parse_internal::FormatG(parsed) + " out of range [" +
        parse_internal::FormatG(min_value) + ", " +
        parse_internal::FormatG(max_value) + "]");
  }
  *value = parsed;
  return Status::OK();
}

/// `ParseInt`, exiting with a diagnostic naming `flag` on failure.
inline long long ParseIntFlag(const char* flag, const char* text,
                              long long min_value, long long max_value) {
  long long value = 0;
  parse_internal::ExitUnlessOk(flag,
                               ParseInt(text, min_value, max_value, &value));
  return value;
}

/// `ParseU64`, exiting with a diagnostic naming `flag` on failure.
inline uint64_t ParseU64Flag(const char* flag, const char* text) {
  uint64_t value = 0;
  parse_internal::ExitUnlessOk(flag, ParseU64(text, &value));
  return value;
}

/// `ParseDouble`, exiting with a diagnostic naming `flag` on failure.
inline double ParseDoubleFlag(const char* flag, const char* text,
                              double min_value, double max_value) {
  double value = 0.0;
  parse_internal::ExitUnlessOk(flag,
                               ParseDouble(text, min_value, max_value, &value));
  return value;
}

}  // namespace skypeer

#endif  // SKYPEER_COMMON_PARSE_H_
