// Strict numeric parsing of untrusted text: graph and update-stream file
// tokens, reproducer fields and command-line flag values. Every parser
// accepts the whole token or nothing — no sign on unsigned values, no
// surrounding whitespace, no trailing characters, no overflow. The lax
// alternatives silently wrap ("-5" read as an unsigned is 2^64 - 5) or
// read garbage as 0 ("abc" through strtoul), which is how a hostile header
// becomes a 16 GB allocation and a typo becomes an unbounded run.
#ifndef SGM_UTIL_PARSE_H_
#define SGM_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

namespace sgm {

/// Parses a non-negative decimal integer no larger than `max`. Leaves *out
/// untouched and returns false on anything else.
inline bool ParseUint(std::string_view token, uint64_t* out,
                      uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, status] = std::from_chars(token.data(), end, value);
  if (status != std::errc() || stop != end || value > max) return false;
  *out = value;
  return true;
}

/// The 32-bit overload (bounded by `max`, at most 2^32 - 1).
inline bool ParseUint(std::string_view token, uint32_t* out,
                      uint32_t max = std::numeric_limits<uint32_t>::max()) {
  uint64_t value = 0;
  if (!ParseUint(token, &value, max)) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Parses a finite decimal floating-point number (sign and exponent
/// allowed; "inf", "nan" and hex floats are not).
inline bool ParseDouble(const std::string& token, double* out) {
  if (token.empty() || token.find_first_of("xXiInN \t\n\v\f\r") !=
                           std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace sgm

#endif  // SGM_UTIL_PARSE_H_
