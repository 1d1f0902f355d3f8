#include "common/string_util.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace harp {

std::vector<std::string_view> Split(std::string_view text, char delim) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> parts;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) parts.push_back(text.substr(start, i - start));
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  // strtod needs a NUL terminator; string_views from Split are not
  // NUL-terminated, so copy into a small buffer.
  char buf[64];
  if (text.size() >= sizeof(buf)) return false;
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool detail::ParseFloatFallback(std::string_view text, float* out) {
#if defined(__cpp_lib_to_chars)
  {
    double value = 0.0;
    const char* begin = text.data();
    const char* end = begin + text.size();
    const auto result = std::from_chars(begin, end, value);
    if (result.ec == std::errc() && result.ptr == end) {
      // Subnormal results fall through to the strtod path: glibc flags
      // them ERANGE and ParseDouble rejects, and the two paths must agree.
      if (value == 0.0 ||
          std::fabs(value) >= std::numeric_limits<double>::min()) {
        *out = static_cast<float>(value);
        return true;
      }
    } else if (result.ec == std::errc::result_out_of_range) {
      return false;
    }
  }
#endif
  double value = 0.0;
  if (!ParseDouble(text, &value)) return false;
  *out = static_cast<float>(value);
  return true;
}

void AppendHexDouble(std::string* out, double value) {
  // Written by hand, not with std::to_chars: libstdc++ releases differ in
  // how to_chars spells subnormals (0x0.8p-1022 vs 0x1p-1023).
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[32];  // "-0x1.fffffffffffffp+1023" is the longest, 24 chars
  char* p = buf;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  if ((bits >> 63) != 0) *p++ = '-';
  const auto biased = static_cast<int>((bits >> 52) & 0x7FF);
  uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  if (biased == 0x7FF) {
    out->append(buf, p).append(fraction != 0 ? "nan" : "inf");
    return;
  }
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  const int exponent =
      biased != 0 ? biased - 1023 : (fraction != 0 ? -1022 : 0);
  if (fraction != 0) {
    // 13 fraction digits, trailing zeros dropped.
    int digits = 13;
    while ((fraction & 0xF) == 0) {
      fraction >>= 4;
      --digits;
    }
    *p++ = '.';
    for (int i = digits - 1; i >= 0; --i) {
      p[i] = kDigits[fraction & 0xF];
      fraction >>= 4;
    }
    p += digits;
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  p = std::to_chars(p, buf + sizeof(buf), exponent < 0 ? -exponent : exponent)
          .ptr;
  out->append(buf, p);
}

bool ParseHexDouble(std::string_view text, double* out) {
#if defined(__cpp_lib_to_chars)
  const char* p = text.data();
  const char* end = p + text.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  // from_chars takes no "0x" and no sign of its own; requiring a hex digit
  // after the prefix keeps "0x-1p0" and "0xinf" on strtod's (rejecting)
  // path. The length limit is ParseDouble's.
  if (text.size() < 64 && end - p > 2 && p[0] == '0' && p[1] == 'x' &&
      std::isxdigit(static_cast<unsigned char>(p[2]))) {
    double value = 0.0;
    const auto result =
        std::from_chars(p + 2, end, value, std::chars_format::hex);
    // Subnormals go to strtod: glibc flags inexact ones ERANGE, which
    // ParseDouble rejects, and the two paths must agree.
    if (result.ec == std::errc() && result.ptr == end &&
        (value == 0.0 || value >= std::numeric_limits<double>::min())) {
      *out = negative ? -value : value;
      return true;
    }
  }
#endif
  return ParseDouble(text, out);
}

bool ParseInt(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  char buf[32];
  if (text.size() >= sizeof(buf)) return false;
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(buf, &end, 10);
  if (end != buf + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string HumanDuration(double seconds) {
  if (seconds < 1e-6) return StrFormat("%.1fns", seconds * 1e9);
  if (seconds < 1e-3) return StrFormat("%.1fus", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.2fms", seconds * 1e3);
  return StrFormat("%.3fs", seconds);
}

std::string HumanBytes(double bytes) {
  if (bytes < 1024.0) return StrFormat("%.0fB", bytes);
  if (bytes < 1024.0 * 1024.0) return StrFormat("%.1fKB", bytes / 1024.0);
  if (bytes < 1024.0 * 1024.0 * 1024.0) {
    return StrFormat("%.1fMB", bytes / (1024.0 * 1024.0));
  }
  return StrFormat("%.2fGB", bytes / (1024.0 * 1024.0 * 1024.0));
}

}  // namespace harp
