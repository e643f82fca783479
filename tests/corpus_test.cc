#include "corpus/corpus.h"

#include <gtest/gtest.h>

#include <cstring>

#include "corpus/weighting.h"

namespace newsdiff::corpus {
namespace {

TEST(VocabularyTest, GetOrAddAssignsDenseIds) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd("a"), 0u);
  EXPECT_EQ(v.GetOrAdd("b"), 1u);
  EXPECT_EQ(v.GetOrAdd("a"), 0u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.Term(0), "a");
  EXPECT_EQ(v.Term(1), "b");
}

TEST(VocabularyTest, GetMissingReturnsSentinel) {
  Vocabulary v;
  EXPECT_EQ(v.Get("nope"), kUnknownTerm);
  v.GetOrAdd("yes");
  EXPECT_EQ(v.Get("yes"), 0u);
}

// Terms arrive as views into one buffer that the next term overwrites, so
// the vocabulary must own copies of its keys. Short terms live inside the
// std::string object (small-string storage) and long ones on the heap; the
// terms_ vector reallocates many times on the way to 6000 terms.
TEST(VocabularyTest, IdsAndTermsHoldAcrossGrowthFromReusedBuffer) {
  auto term = [](size_t i) {
    std::string t = "t" + std::to_string(i);
    if (i % 3 == 0) t += std::string(40 + i % 7, 'x');
    return t;
  };
  char buffer[64];
  auto view_of = [&](const std::string& t) {
    std::memset(buffer, '?', sizeof(buffer));
    std::memcpy(buffer, t.data(), t.size());
    return std::string_view(buffer, t.size());
  };
  constexpr size_t kTerms = 6000;
  Vocabulary v;
  for (size_t i = 0; i < kTerms; ++i) {
    ASSERT_EQ(v.GetOrAdd(view_of(term(i))), i);
    // Every earlier term is still found, by its bytes, through the buffer.
    const size_t earlier = i / 2;
    ASSERT_EQ(v.Get(view_of(term(earlier))), earlier);
    ASSERT_EQ(v.GetOrAdd(view_of(term(earlier))), earlier);
  }
  ASSERT_EQ(v.size(), kTerms);
  for (size_t i = 0; i < kTerms; ++i) {
    EXPECT_EQ(v.Term(static_cast<uint32_t>(i)), term(i));
    EXPECT_EQ(v.Get(view_of(term(i))), i);
  }
  EXPECT_EQ(v.Get(view_of("t")), kUnknownTerm);
  EXPECT_EQ(v.Get(std::string_view(buffer, 2)), kUnknownTerm);
}

TEST(CorpusTest, AddDocumentBuildsCountsAndFrequencies) {
  Corpus corp;
  corp.AddDocument({"a", "b", "a", "c", "a"});
  corp.AddDocument({"b", "c"});
  EXPECT_EQ(corp.size(), 2u);
  EXPECT_EQ(corp.total_tokens(), 7u);

  const Vocabulary& v = corp.vocabulary();
  uint32_t a = v.Get("a"), b = v.Get("b"), c = v.Get("c");
  EXPECT_EQ(v.doc_freq(a), 1u);
  EXPECT_EQ(v.doc_freq(b), 2u);
  EXPECT_EQ(v.doc_freq(c), 2u);
  EXPECT_EQ(v.term_freq(a), 3u);
  EXPECT_EQ(v.term_freq(b), 2u);

  const Document& d0 = corp.doc(0);
  EXPECT_EQ(d0.length, 5u);
  EXPECT_EQ(d0.tokens.size(), 5u);
  // Counts are sorted by term id and summed.
  ASSERT_EQ(d0.counts.size(), 3u);
  for (size_t i = 1; i < d0.counts.size(); ++i) {
    EXPECT_LT(d0.counts[i - 1].term, d0.counts[i].term);
  }
  for (const TermCount& tc : d0.counts) {
    if (tc.term == a) {
      EXPECT_EQ(tc.count, 3u);
    }
  }
}

TEST(CorpusTest, MetadataStored) {
  Corpus corp;
  size_t idx = corp.AddDocument({"x"}, /*timestamp=*/1234, /*external_id=*/77);
  EXPECT_EQ(corp.doc(idx).timestamp, 1234);
  EXPECT_EQ(corp.doc(idx).external_id, 77);
}

TEST(CorpusTest, EmptyDocumentAllowed) {
  Corpus corp;
  corp.AddDocument({});
  EXPECT_EQ(corp.doc(0).length, 0u);
  EXPECT_TRUE(corp.doc(0).counts.empty());
}

TEST(IdfTest, MatchesEquation2) {
  Corpus corp;
  corp.AddDocument({"common", "rare"});
  corp.AddDocument({"common"});
  corp.AddDocument({"common"});
  corp.AddDocument({"common"});
  uint32_t common = corp.vocabulary().Get("common");
  uint32_t rare = corp.vocabulary().Get("rare");
  // IDF = log2(n / n_ij): log2(4/4) = 0, log2(4/1) = 2.
  EXPECT_DOUBLE_EQ(Idf(corp, common), 0.0);
  EXPECT_DOUBLE_EQ(Idf(corp, rare), 2.0);
}

TEST(DtmTest, TfSchemeRawCounts) {
  Corpus corp;
  corp.AddDocument({"a", "a", "b"});
  corp.AddDocument({"b"});
  DtmOptions opts;
  opts.scheme = WeightingScheme::kTf;
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, opts);
  EXPECT_EQ(dtm.matrix.rows(), 2u);
  EXPECT_EQ(dtm.matrix.cols(), 2u);
  uint32_t col_a = 0;
  for (size_t c = 0; c < dtm.column_terms.size(); ++c) {
    if (corp.vocabulary().Term(dtm.column_terms[c]) == "a") {
      col_a = static_cast<uint32_t>(c);
    }
  }
  EXPECT_DOUBLE_EQ(dtm.matrix.At(0, col_a), 2.0);  // Eq. (1)
}

TEST(DtmTest, TfIdfMatchesEquation3) {
  Corpus corp;
  corp.AddDocument({"a", "a", "b"});
  corp.AddDocument({"b"});
  DtmOptions opts;
  opts.scheme = WeightingScheme::kTfIdf;
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, opts);
  // a appears only in doc 0: tf=2, idf=log2(2/1)=1 -> 2.
  // b appears in both docs: idf = log2(2/2) = 0 -> weight 0 (kept as 0).
  uint32_t a = corp.vocabulary().Get("a");
  size_t col_a = 0;
  for (size_t c = 0; c < dtm.column_terms.size(); ++c) {
    if (dtm.column_terms[c] == a) col_a = c;
  }
  EXPECT_DOUBLE_EQ(dtm.matrix.At(0, col_a), 2.0);
}

TEST(DtmTest, NormalizedRowsHaveUnitNorm) {
  Corpus corp;
  corp.AddDocument({"a", "a", "b", "c"});
  corp.AddDocument({"b", "d"});
  corp.AddDocument({"e", "f", "a"});
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, DtmOptions{});
  for (size_t r = 0; r < dtm.matrix.rows(); ++r) {
    double sq = 0.0;
    for (size_t c = 0; c < dtm.matrix.cols(); ++c) {
      double v = dtm.matrix.At(r, c);
      sq += v * v;
    }
    if (sq > 0.0) {
      EXPECT_NEAR(sq, 1.0, 1e-9) << "row " << r;  // Eq. (4)-(5)
    }
  }
}

TEST(DtmTest, MinDocFreqFilters) {
  Corpus corp;
  corp.AddDocument({"common", "rare"});
  corp.AddDocument({"common"});
  DtmOptions opts;
  opts.scheme = WeightingScheme::kTf;
  opts.min_doc_freq = 2;
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, opts);
  EXPECT_EQ(dtm.column_terms.size(), 1u);
  EXPECT_EQ(corp.vocabulary().Term(dtm.column_terms[0]), "common");
}

TEST(DtmTest, MaxDocFractionFilters) {
  Corpus corp;
  corp.AddDocument({"everywhere", "x"});
  corp.AddDocument({"everywhere", "y"});
  corp.AddDocument({"everywhere", "z"});
  corp.AddDocument({"everywhere"});
  DtmOptions opts;
  opts.scheme = WeightingScheme::kTf;
  opts.max_doc_fraction = 0.9;
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, opts);
  for (uint32_t t : dtm.column_terms) {
    EXPECT_NE(corp.vocabulary().Term(t), "everywhere");
  }
}

/// Property sweep: the normalized scheme always produces rows with norm
/// 0 or 1, for random corpora.
class DtmNormSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DtmNormSweep, RowsUnitOrZero) {
  Rng rng(GetParam());
  Corpus corp;
  const char* words[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (int d = 0; d < 30; ++d) {
    std::vector<std::string> doc;
    size_t len = rng.NextBelow(12);
    for (size_t i = 0; i < len; ++i) {
      doc.push_back(words[rng.NextBelow(8)]);
    }
    corp.AddDocument(doc);
  }
  DocumentTermMatrix dtm = BuildDocumentTermMatrix(corp, DtmOptions{});
  for (size_t r = 0; r < dtm.matrix.rows(); ++r) {
    double sq = 0.0;
    for (size_t p = dtm.matrix.row_ptr()[r]; p < dtm.matrix.row_ptr()[r + 1];
         ++p) {
      sq += dtm.matrix.values()[p] * dtm.matrix.values()[p];
    }
    EXPECT_TRUE(sq == 0.0 || std::abs(sq - 1.0) < 1e-9) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtmNormSweep,
                         ::testing::Values(3ull, 5ull, 8ull, 13ull));

}  // namespace
}  // namespace newsdiff::corpus
