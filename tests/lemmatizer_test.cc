#include "text/lemmatizer.h"

#include <gtest/gtest.h>

#include <ostream>

namespace newsdiff::text {
namespace {

struct LemmaCase {
  const char* input;
  const char* expected;
};

// Without this gtest prints a case as the raw bytes of its two pointers,
// and gtest_discover_tests puts that dump into the ctest name, so every
// build (ASLR) registered these cases under different names.
void PrintTo(const LemmaCase& c, std::ostream* os) {
  *os << c.input << "->" << c.expected;
}

class LemmatizerSweep : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(LemmatizerSweep, MapsToExpectedLemma) {
  EXPECT_EQ(Lemmatize(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Irregulars, LemmatizerSweep,
    ::testing::Values(LemmaCase{"was", "be"}, LemmaCase{"were", "be"},
                      LemmaCase{"has", "have"}, LemmaCase{"did", "do"},
                      LemmaCase{"went", "go"}, LemmaCase{"said", "say"},
                      LemmaCase{"thought", "think"}, LemmaCase{"men", "man"},
                      LemmaCase{"women", "woman"},
                      LemmaCase{"children", "child"},
                      LemmaCase{"better", "good"}, LemmaCase{"worst", "bad"},
                      LemmaCase{"lives", "life"}, LemmaCase{"won", "win"}));

INSTANTIATE_TEST_SUITE_P(
    Plurals, LemmatizerSweep,
    ::testing::Values(LemmaCase{"topics", "topic"},
                      LemmaCase{"parties", "party"},
                      LemmaCase{"boxes", "box"},
                      LemmaCase{"matches", "match"},
                      LemmaCase{"wishes", "wish"},
                      LemmaCase{"classes", "class"},
                      LemmaCase{"tariffs", "tariff"},
                      LemmaCase{"elections", "election"},
                      LemmaCase{"voters", "voter"}));

INSTANTIATE_TEST_SUITE_P(
    ProtectedEndings, LemmatizerSweep,
    ::testing::Values(LemmaCase{"class", "class"},
                      LemmaCase{"virus", "virus"},
                      LemmaCase{"crisis", "crisis"},
                      LemmaCase{"news", "news"},
                      LemmaCase{"series", "series"},
                      LemmaCase{"species", "species"}));

INSTANTIATE_TEST_SUITE_P(
    Verbs, LemmatizerSweep,
    ::testing::Values(LemmaCase{"voting", "vote"},
                      LemmaCase{"winning", "win"},
                      LemmaCase{"stopped", "stop"},
                      LemmaCase{"tried", "try"},
                      LemmaCase{"imposed", "impose"},
                      LemmaCase{"walked", "walk"},
                      LemmaCase{"running", "run"},
                      LemmaCase{"making", "make"}));

INSTANTIATE_TEST_SUITE_P(
    PassThrough, LemmatizerSweep,
    ::testing::Values(LemmaCase{"brexit", "brexit"},
                      LemmaCase{"the", "the"}, LemmaCase{"a", "a"},
                      LemmaCase{"is", "be"},  // irregular even when short
                      LemmaCase{"king", "king"},
                      LemmaCase{"sing", "sing"},
                      LemmaCase{"red", "red"}));

TEST(LemmatizerTest, ShortTokensUntouched) {
  EXPECT_EQ(Lemmatize("ab"), "ab");
  EXPECT_EQ(Lemmatize(""), "");
}

TEST(LemmatizerTest, IdempotentOnCommonVocabulary) {
  // Applying the lemmatizer twice should be the same as once for typical
  // nouns (the lemma is a fixed point).
  for (const char* w : {"topics", "tariffs", "elections", "voters",
                        "parties", "companies"}) {
    std::string once = Lemmatize(w);
    EXPECT_EQ(Lemmatize(once), once) << w;
  }
}

}  // namespace
}  // namespace newsdiff::text
