#include "common/strings.h"

#include <cctype>
#include <cstdio>

namespace newsdiff {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(input[i]))) ++i;
    size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(input[i]))) ++i;
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseI64(std::string_view text, int64_t* out) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  uint64_t magnitude = 0;
  const uint64_t limit = negative ? uint64_t{1} << 63 : uint64_t{INT64_MAX};
  if (!ParseU64(text, &magnitude) || magnitude > limit) return false;
  // Two's-complement wrap (defined since C++20) turns 2^63 into INT64_MIN.
  *out = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace newsdiff
