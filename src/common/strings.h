#ifndef NEWSDIFF_COMMON_STRINGS_H_
#define NEWSDIFF_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace newsdiff {

/// Splits `input` on any occurrence of `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delim);

/// Splits `input` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Lowercases ASCII letters in place; other bytes are untouched.
std::string ToLowerAscii(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character in `s` is an ASCII digit (and `s` is non-empty).
bool IsDigits(std::string_view s);

/// Parses a decimal field of an on-disk format: ASCII digits only (no sign,
/// no spaces), non-empty, at most UINT64_MAX. Returns false otherwise and
/// leaves `*out` untouched.
bool ParseU64(std::string_view text, uint64_t* out);

/// ParseU64 with an optional leading '-': INT64_MIN..INT64_MAX, false
/// outside that range.
bool ParseI64(std::string_view text, int64_t* out);

/// Formats `v` with `digits` decimal places ("%.*f").
std::string FormatDouble(double v, int digits);

/// Stable 64-bit FNV-1a hash of `s` (used for deterministic per-token
/// pseudo-random vectors).
uint64_t Fnv1a64(std::string_view s);

}  // namespace newsdiff

#endif  // NEWSDIFF_COMMON_STRINGS_H_
