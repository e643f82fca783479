#include "common/strings.h"

#include <gtest/gtest.h>

namespace newsdiff {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespaceTest, DropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(SplitJoinTest, RoundTrip) {
  std::string input = "alpha beta gamma";
  EXPECT_EQ(Join(Split(input, ' '), " "), input);
}

TEST(StripTest, Whitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripAsciiWhitespace("hi"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("\t\n"), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(ToLowerTest, OnlyAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo123"), "hello123");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StartsEndsTest, Prefixes) {
  EXPECT_TRUE(StartsWith("https://x", "https://"));
  EXPECT_FALSE(StartsWith("http", "https"));
  EXPECT_TRUE(EndsWith("file.jsonl", ".jsonl"));
  EXPECT_FALSE(EndsWith(".json", ".jsonl"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(IsDigitsTest, Basics) {
  EXPECT_TRUE(IsDigits("2019"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits("-1"));
}

TEST(DecimalFieldTest, ParseU64AcceptsExactlyTheU64Range) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseU64("000042", &v));
  EXPECT_EQ(v, 42u);
  v = 7;
  for (const char* bad : {"", "18446744073709551616", "99999999999999999999",
                          "-1", "+1", " 1", "1 ", "1a", "0x10"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7u);  // untouched on failure
}

TEST(DecimalFieldTest, ParseI64AcceptsExactlyTheI64Range) {
  int64_t v = 7;
  EXPECT_TRUE(ParseI64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_TRUE(ParseI64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseI64("-0", &v));
  EXPECT_EQ(v, 0);
  v = 7;
  for (const char* bad : {"", "-", "9223372036854775808",
                          "-9223372036854775809", "--1", "+1", "1-"}) {
    EXPECT_FALSE(ParseI64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7);
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(0.756, 2), "0.76");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

TEST(Fnv1aTest, StableAndDistinct) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
  // Known FNV-1a 64-bit value for the empty string.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
}

}  // namespace
}  // namespace newsdiff
