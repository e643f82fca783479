#include "text/tokenizer.h"

#include <cctype>

namespace newsdiff::text {

std::vector<std::string> Tokenize(std::string_view input,
                                  const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string scratch;
  ForEachToken(input, options, &scratch,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::vector<std::string> SplitSentences(std::string_view input) {
  std::vector<std::string> sentences;
  std::string cur;
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) {
    char c = input[i];
    cur += c;
    if (c == '.' || c == '!' || c == '?') {
      bool at_end = (i + 1 >= n);
      bool followed_by_space =
          !at_end && std::isspace(static_cast<unsigned char>(input[i + 1]));
      if (at_end || followed_by_space) {
        // Trim and emit.
        size_t b = cur.find_first_not_of(" \t\r\n");
        size_t e = cur.find_last_not_of(" \t\r\n");
        if (b != std::string::npos) {
          sentences.push_back(cur.substr(b, e - b + 1));
        }
        cur.clear();
      }
    }
  }
  size_t b = cur.find_first_not_of(" \t\r\n");
  if (b != std::string::npos) {
    size_t e = cur.find_last_not_of(" \t\r\n");
    sentences.push_back(cur.substr(b, e - b + 1));
  }
  return sentences;
}

bool IsNumericToken(std::string_view token) {
  if (token.empty()) return false;
  bool seen_digit = false;
  bool seen_sep = false;
  for (char c : token) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      seen_digit = true;
    } else if ((c == '.' || c == ',') && !seen_sep) {
      seen_sep = true;
    } else {
      return false;
    }
  }
  return seen_digit;
}

}  // namespace newsdiff::text
