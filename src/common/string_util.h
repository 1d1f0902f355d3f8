// String parsing/formatting helpers for the text readers and model IO.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace harp {

// Splits on a single delimiter; keeps empty fields (CSV semantics).
std::vector<std::string_view> Split(std::string_view text, char delim);

// Splits on runs of whitespace; drops empty fields (LIBSVM semantics).
std::vector<std::string_view> SplitWhitespace(std::string_view text);

// Strips leading/trailing spaces, tabs and CR/LF.
std::string_view Trim(std::string_view text);

// Strict parsers: return false (leaving *out untouched) on malformed input.
bool ParseDouble(std::string_view text, double* out);
bool ParseInt(std::string_view text, int64_t* out);

namespace detail {

// Out-of-line tail of ParseFloat: std::from_chars when available, then
// ParseDouble for the inputs only strtod understands (leading '+', hex
// floats, subnormals, whitespace).
bool ParseFloatFallback(std::string_view text, float* out);

// Exact powers of ten: 10^k is representable without rounding for k <= 22.
inline constexpr double kExactPow10[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

}  // namespace detail

// Fast float parser for the reader hot loops. Accepts exactly the inputs
// ParseDouble accepts and returns the same narrowed result, so parallel-
// parser output stays bit-identical to the ParseDouble + cast the serial
// parsers use. The inline path is Clinger's exact case — a mantissa of at
// most 15 digits (< 2^53, exact in a double) scaled by one exact power of
// ten is a single correctly-rounded operation, which is the same value
// strtod produces — and everything else defers to the fallback.
inline bool ParseFloat(std::string_view text, float* out) {
  // Mirror ParseDouble's 63-char limit so all paths accept the same set.
  if (text.empty() || text.size() >= 64) return false;
  const char* p = text.data();
  const char* end = p + text.size();
  bool negative = false;
  if (*p == '-') {
    negative = true;
    ++p;
  }
  uint64_t mantissa = 0;
  int digits = 0;
  while (p != end && *p >= '0' && *p <= '9') {
    mantissa = mantissa * 10 + static_cast<uint64_t>(*p - '0');
    ++digits;
    ++p;
  }
  int exp10 = 0;
  if (p != end && *p == '.') {
    ++p;
    const char* fraction_start = p;
    while (p != end && *p >= '0' && *p <= '9') {
      mantissa = mantissa * 10 + static_cast<uint64_t>(*p - '0');
      ++digits;
      ++p;
    }
    exp10 = -static_cast<int>(p - fraction_start);
  }
  if (digits == 0 || digits > 15) {
    return detail::ParseFloatFallback(text, out);
  }
  if (p != end) {
    if (*p != 'e' && *p != 'E') {
      return detail::ParseFloatFallback(text, out);
    }
    ++p;
    bool exp_negative = false;
    if (p != end && (*p == '+' || *p == '-')) {
      exp_negative = *p == '-';
      ++p;
    }
    const char* exp_start = p;
    int exp_value = 0;
    while (p != end && *p >= '0' && *p <= '9' && exp_value < 1000) {
      exp_value = exp_value * 10 + (*p - '0');
      ++p;
    }
    if (p != end || p == exp_start) {
      return detail::ParseFloatFallback(text, out);
    }
    exp10 += exp_negative ? -exp_value : exp_value;
  }
  if (exp10 < -22 || exp10 > 22) {
    return detail::ParseFloatFallback(text, out);
  }
  double value = static_cast<double>(mantissa);
  value = exp10 >= 0 ? value * detail::kExactPow10[exp10]
                     : value / detail::kExactPow10[-exp10];
  *out = static_cast<float>(negative ? -value : value);
  return true;
}

// Appends `value` exactly as glibc's printf("%a", value) formats it:
// "[-]0x1.<hex>p<+|-><exp>" for normal values, "[-]0x0.<hex>p-1022" for
// subnormals, "[-]0x0p+0" for zeros, "[-]inf" / "[-]nan" otherwise. Hex
// floats round-trip every non-NaN double bit for bit.
void AppendHexDouble(std::string* out, double value);

// Parses a hex float as AppendHexDouble writes it, via std::from_chars,
// and anything else (or any value from_chars handles differently from
// strtod, such as subnormals) via ParseDouble. Accepts exactly the inputs
// ParseDouble accepts, with the same result.
bool ParseHexDouble(std::string_view text, double* out);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Formats seconds with an adaptive unit (ns/us/ms/s) for human-facing tables.
std::string HumanDuration(double seconds);

// Formats a byte count with an adaptive unit (B/KB/MB/GB).
std::string HumanBytes(double bytes);

}  // namespace harp
