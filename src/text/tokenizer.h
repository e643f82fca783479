#ifndef NEWSDIFF_TEXT_TOKENIZER_H_
#define NEWSDIFF_TEXT_TOKENIZER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace newsdiff::text {

/// Tokenizer options.
struct TokenizerOptions {
  /// Lowercase ASCII letters in tokens.
  bool lowercase = true;
  /// Keep tokens that are pure digit runs ("2019", "25").
  bool keep_numbers = true;
  /// Minimum token length in bytes; shorter tokens are dropped.
  size_t min_length = 1;
  /// Keep internal apostrophes ("don't" stays one token). When false the
  /// apostrophe splits the token.
  bool keep_apostrophes = true;
};

/// Byte classes of the C locale, which the text layer assumes and the tree
/// never changes: only ASCII letters and digits are alphanumeric, and every
/// byte >= 0x80 is "other". The tokenizer, the tweet cleaner and the NER
/// scan all read this one table.
namespace ascii {

inline constexpr uint8_t kUpper = 1;
inline constexpr uint8_t kLower = 2;
inline constexpr uint8_t kDigit = 4;
inline constexpr uint8_t kUnderscore = 8;
/// ' ', '\t', '\n', '\v', '\f', '\r' (std::isspace).
inline constexpr uint8_t kSpace = 16;
inline constexpr uint8_t kAlpha = kUpper | kLower;
inline constexpr uint8_t kAlnum = kAlpha | kDigit;
/// A byte that belongs to a word token: alphanumeric or '_'.
inline constexpr uint8_t kWord = kAlnum | kUnderscore;

inline constexpr std::array<uint8_t, 256> kClasses = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kUpper;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kLower;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  t['_'] = kUnderscore;
  for (int c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSpace;
  return t;
}();

/// The classes of byte `c`.
inline uint8_t ClassOf(char c) {
  return kClasses[static_cast<unsigned char>(c)];
}

/// True if byte `c` is in any of `classes`.
inline bool Is(char c, uint8_t classes) { return (ClassOf(c) & classes) != 0; }

}  // namespace ascii

/// Length of an apostrophe that continues the word ending before
/// `input[i]`: 1 for "'" and 3 for U+2019 (E2 80 99) when a word byte
/// follows it, else 0.
inline size_t InWordApostrophe(std::string_view input, size_t i) {
  const size_t width = input[i] == '\''                        ? 1
                       : input.substr(i, 3) == "\xE2\x80\x99" ? 3
                                                               : 0;
  return width != 0 && i + width < input.size() &&
                 ascii::Is(input[i + width], ascii::kWord)
             ? width
             : 0;
}

/// The tokenizer: calls `emit(std::string_view)` once per word token of
/// `input`, in order. A token is a maximal run of alphanumeric bytes and
/// '_', so pre-joined concept tokens ("new_york") survive; everything else
/// is punctuation and is dropped, implementing the "remove punctuation +
/// tokenization" step shared by all three of the paper's preprocessing
/// recipes (§4.2). With `keep_apostrophes`, an apostrophe between word
/// bytes stays in the token, and U+2019 there is written as "'". Token
/// bytes go to `scratch`, which callers reuse across inputs; a view is
/// valid only until `emit` returns.
template <typename Emit>
void ForEachToken(std::string_view input, const TokenizerOptions& options,
                  std::string* scratch, Emit&& emit) {
  const size_t n = input.size();
  // A token is never longer than the input it came from.
  if (scratch->size() < n) scratch->resize(n);
  char* const out = scratch->data();
  const uint8_t fold = options.lowercase ? ascii::kUpper : 0;
  size_t i = 0;
  for (;;) {
    while (i < n && !ascii::Is(input[i], ascii::kWord)) ++i;
    if (i == n) return;
    size_t len = 0;
    bool digits = true;
    while (i < n) {
      const uint8_t cls = ascii::ClassOf(input[i]);
      if ((cls & ascii::kWord) != 0) {
        out[len++] = static_cast<char>((cls & fold) != 0 ? input[i] | 0x20
                                                         : input[i]);
        digits = digits && cls == ascii::kDigit;
        ++i;
        continue;
      }
      const size_t apostrophe =
          options.keep_apostrophes ? InWordApostrophe(input, i) : 0;
      if (apostrophe == 0) break;
      out[len++] = '\'';
      digits = false;
      i += apostrophe;
    }
    if (len >= options.min_length && (options.keep_numbers || !digits)) {
      emit(std::string_view(out, len));
    }
  }
}

/// ForEachToken collected into a vector.
std::vector<std::string> Tokenize(std::string_view input,
                                  const TokenizerOptions& options = {});

/// Splits into sentences on '.', '!', '?' followed by whitespace or end of
/// input. Abbreviation handling is intentionally minimal.
std::vector<std::string> SplitSentences(std::string_view input);

/// True if `token` is a pure number (digits, optionally one '.' or ',').
bool IsNumericToken(std::string_view token);

}  // namespace newsdiff::text

#endif  // NEWSDIFF_TEXT_TOKENIZER_H_
