// Strict numeric command-line values for pcd_diff, pcd_service, pcd_client
// and the bench_* binaries: a flag's value is a number only if all of it is
// one.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace pcd::tools {

/// Parses all of `v` as a number: no sign on integers, no leading blanks,
/// nothing trailing, no overflow, and a finite floating-point value.  On
/// failure prints "<tool>: <flag>: '<v>' is not a number" and leaves `*out`
/// untouched, so the caller only returns its usage failure.
template <typename T>
bool parse_number(const char* tool, const char* flag, const char* v, T* out) {
  const char* end = v + std::strlen(v);
  T value{};
  const auto [ptr, ec] = std::from_chars(v, end, value);
  bool ok = ec == std::errc() && ptr == end && ptr != v;
  if constexpr (std::is_integral_v<T>) ok = ok && *v != '-';
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "%s: %s: '%s' is not a number\n", tool, flag, v);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace pcd::tools
