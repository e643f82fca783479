#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <cctype>

#include "common/rng.h"

namespace newsdiff::text {
namespace {

// The char-by-char tokenizer that Tokenize replaced, kept verbatim as the
// reference the scanner must match byte for byte.
bool IsWordChar(unsigned char c) { return std::isalnum(c) || c == '_'; }

std::vector<std::string> ReferenceTokenize(std::string_view input,
                                           const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string cur;
  const size_t n = input.size();
  auto flush = [&]() {
    if (cur.empty()) return;
    if (cur.size() >= options.min_length) {
      bool numeric = true;
      for (char c : cur) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          numeric = false;
          break;
        }
      }
      if (!numeric || options.keep_numbers) tokens.push_back(cur);
    }
    cur.clear();
  };
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(input[i]);
    if (IsWordChar(c)) {
      cur += options.lowercase
                 ? static_cast<char>(std::tolower(c))
                 : static_cast<char>(c);
    } else if (options.keep_apostrophes && (c == '\'' || c == 0xE2) &&
               !cur.empty()) {
      // Plain ASCII apostrophe inside a word; also tolerate the first byte
      // of a UTF-8 right single quote (U+2019: E2 80 99) by consuming the
      // 3-byte sequence when it appears mid-word.
      if (c == 0xE2) {
        if (i + 2 < n && static_cast<unsigned char>(input[i + 1]) == 0x80 &&
            static_cast<unsigned char>(input[i + 2]) == 0x99 && i + 3 < n &&
            IsWordChar(static_cast<unsigned char>(input[i + 3]))) {
          cur += '\'';
          i += 2;
        } else {
          flush();
        }
      } else if (i + 1 < n &&
                 IsWordChar(static_cast<unsigned char>(input[i + 1]))) {
        cur += '\'';
      } else {
        flush();
      }
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

TEST(TokenizerTest, BasicSplitAndLowercase) {
  EXPECT_EQ(Tokenize("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, PunctuationRemoved) {
  EXPECT_EQ(Tokenize("a.b,c;d:e(f)g[h]"),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g", "h"}));
}

TEST(TokenizerTest, NumbersKeptByDefault) {
  EXPECT_EQ(Tokenize("tariffs of 25 percent in 2019"),
            (std::vector<std::string>{"tariffs", "of", "25", "percent", "in",
                                      "2019"}));
}

TEST(TokenizerTest, NumbersDroppable) {
  TokenizerOptions opts;
  opts.keep_numbers = false;
  EXPECT_EQ(Tokenize("25 tariffs 2019", opts),
            (std::vector<std::string>{"tariffs"}));
}

TEST(TokenizerTest, MinLengthFilters) {
  TokenizerOptions opts;
  opts.min_length = 3;
  EXPECT_EQ(Tokenize("a an the cat", opts),
            (std::vector<std::string>{"the", "cat"}));
}

TEST(TokenizerTest, CasePreservedWhenRequested) {
  TokenizerOptions opts;
  opts.lowercase = false;
  EXPECT_EQ(Tokenize("Boris Johnson", opts),
            (std::vector<std::string>{"Boris", "Johnson"}));
}

TEST(TokenizerTest, ApostrophesKeptInsideWords) {
  EXPECT_EQ(Tokenize("don't can't o'clock"),
            (std::vector<std::string>{"don't", "can't", "o'clock"}));
}

TEST(TokenizerTest, TrailingApostropheDropped) {
  EXPECT_EQ(Tokenize("dogs' toys"),
            (std::vector<std::string>{"dogs", "toys"}));
}

TEST(TokenizerTest, ApostropheSplittingMode) {
  TokenizerOptions opts;
  opts.keep_apostrophes = false;
  EXPECT_EQ(Tokenize("don't", opts), (std::vector<std::string>{"don", "t"}));
}

TEST(TokenizerTest, Utf8RightQuoteTreatedAsApostrophe) {
  // "don’t" with a typographic apostrophe.
  EXPECT_EQ(Tokenize("don\xE2\x80\x99t"),
            (std::vector<std::string>{"don't"}));
}

TEST(TokenizerTest, UnderscoreIsWordChar) {
  EXPECT_EQ(Tokenize("new_york visited"),
            (std::vector<std::string>{"new_york", "visited"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("  \t\n ").empty());
  EXPECT_TRUE(Tokenize("!!! ... ???").empty());
}

TEST(SentenceSplitTest, Basic) {
  auto s = SplitSentences("First one. Second one! Third?");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one.");
  EXPECT_EQ(s[1], "Second one!");
  EXPECT_EQ(s[2], "Third?");
}

TEST(SentenceSplitTest, NoTerminator) {
  auto s = SplitSentences("no terminator here");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], "no terminator here");
}

TEST(SentenceSplitTest, Empty) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   ").empty());
}

TEST(NumericTokenTest, Recognition) {
  EXPECT_TRUE(IsNumericToken("123"));
  EXPECT_TRUE(IsNumericToken("1.5"));
  EXPECT_TRUE(IsNumericToken("1,500"));
  EXPECT_FALSE(IsNumericToken("1.2.3"));
  EXPECT_FALSE(IsNumericToken("12a"));
  EXPECT_FALSE(IsNumericToken(""));
  EXPECT_FALSE(IsNumericToken("."));
}

// Random byte strings built from word runs (capitals, digits, '_') and the
// bytes the scanner treats specially: "'", U+2019 and its truncated
// prefixes, other bytes >= 0x80, whitespace and punctuation. Concatenation
// puts each of them at word starts, word ends and the end of the input.
std::string RandomText(Rng& rng) {
  static const char* const kSpecials[] = {
      "'", "\xE2\x80\x99", "\xE2\x80", "\xE2", "\x80\x99", "_", " ", ".",
      ",", "-", "\n"};
  static const char kWordBytes[] = "abzAMZ0179_";
  std::string out;
  const size_t pieces = rng.NextBelow(12);
  for (size_t p = 0; p < pieces; ++p) {
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 4) {
      const size_t len = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < len; ++i) {
        out += kWordBytes[rng.NextBelow(sizeof(kWordBytes) - 1)];
      }
    } else if (kind < 8) {
      out += kSpecials[rng.NextBelow(std::size(kSpecials))];
    } else if (kind < 9) {
      out += static_cast<char>(0x80 + rng.NextBelow(0x80));
    } else {
      out += static_cast<char>(rng.NextBelow(0x80));
    }
  }
  return out;
}

class TokenizerReferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(TokenizerReferenceSweep, ScannerMatchesCharByCharReference) {
  const int bits = GetParam();
  TokenizerOptions options;
  options.lowercase = (bits & 1) != 0;
  options.keep_numbers = (bits & 2) != 0;
  options.keep_apostrophes = (bits & 4) != 0;
  options.min_length = static_cast<size_t>(bits >> 3);
  Rng rng(1000 + static_cast<uint64_t>(bits));
  std::string scratch;
  for (int i = 0; i < 4000; ++i) {
    const std::string text = RandomText(rng);
    const std::vector<std::string> want = ReferenceTokenize(text, options);
    ASSERT_EQ(Tokenize(text, options), want) << "input: " << text;
    // A scratch buffer reused across inputs of every length.
    std::vector<std::string> streamed;
    ForEachToken(text, options, &scratch, [&](std::string_view token) {
      streamed.emplace_back(token);
    });
    ASSERT_EQ(streamed, want) << "input: " << text;
  }
}

// Every combination of the three switches, at min_length 0 through 3.
INSTANTIATE_TEST_SUITE_P(Options, TokenizerReferenceSweep,
                         ::testing::Range(0, 32));

/// Property sweep: tokenization is idempotent — re-tokenizing the joined
/// token stream yields the same tokens.
class TokenizerIdempotenceSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenizerIdempotenceSweep, JoinedTokensRetokenizeIdentically) {
  std::vector<std::string> once = Tokenize(GetParam());
  std::string joined;
  for (const std::string& t : once) {
    if (!joined.empty()) joined += ' ';
    joined += t;
  }
  EXPECT_EQ(Tokenize(joined), once);
}

INSTANTIATE_TEST_SUITE_P(
    Samples, TokenizerIdempotenceSweep,
    ::testing::Values("Hello, World! It's 2019.",
                      "Tariffs; imports: 25% -- of goods?!",
                      "new_york times (weekend edition)",
                      "a b c d e f", ""));

}  // namespace
}  // namespace newsdiff::text
