// Tests for the block-compressed inverted index (src/index): codec
// totality, cursor traversal, the exact-ranking contract against the
// brute-force reference, serialization round trips, every-byte-flip fuzz
// over the parser, and crash-at-every-op fault injection over IndexStore.
// Suite names carry the `Index` prefix: the asan/ubsan CI jobs select
// them by that regex.
#include "index/index.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitwise.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "corpus/corpus.h"
#include "datagen/faults.h"
#include "index/codec.h"
#include "index/postings.h"

namespace newsdiff::index {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- codec --

TEST(IndexCodecTest, VarintRoundTrip) {
  std::string buf;
  const uint32_t values32[] = {0, 1, 127, 128, 300, 0xFFFFFFFFu};
  for (uint32_t v : values32) PutVarint32(&buf, v);
  const uint64_t values64[] = {0, 1, 1ull << 40, ~0ull};
  for (uint64_t v : values64) PutVarint64(&buf, v);
  ByteReader reader(buf);
  for (uint32_t want : values32) {
    uint32_t got = 0;
    ASSERT_TRUE(reader.ReadVarint32(&got).ok());
    EXPECT_EQ(got, want);
  }
  for (uint64_t want : values64) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.ReadVarint64(&got).ok());
    EXPECT_EQ(got, want);
  }
  EXPECT_TRUE(reader.done());
}

TEST(IndexCodecTest, RejectsNonCanonicalAndTruncatedVarints) {
  {
    // Five bytes whose final byte overflows 32 bits.
    std::string buf("\xFF\xFF\xFF\xFF\x7F", 5);
    ByteReader reader(buf);
    uint32_t v = 0;
    EXPECT_FALSE(reader.ReadVarint32(&v).ok());
  }
  {
    // Continuation bit set on the last available byte.
    std::string buf("\x80", 1);
    ByteReader reader(buf);
    uint32_t v = 0;
    EXPECT_FALSE(reader.ReadVarint32(&v).ok());
  }
  {
    std::string buf;
    PutU32(&buf, 7);
    ByteReader reader(std::string_view(buf).substr(0, 3));
    uint32_t v = 0;
    EXPECT_FALSE(reader.ReadU32(&v).ok());
  }
}

TEST(IndexCodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  ByteReader reader(buf);
  std::string_view a, b;
  ASSERT_TRUE(reader.ReadLengthPrefixed(&a).ok());
  ASSERT_TRUE(reader.ReadLengthPrefixed(&b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_TRUE(reader.done());
}

// ------------------------------------------------------------- fixtures --

/// A deterministic synthetic corpus with skewed document frequencies:
/// "common" terms appear nearly everywhere, "mid" terms in clusters, and
/// per-document rare terms; lengths vary so BM25 normalisation matters.
corpus::Corpus MakeCorpus(size_t num_docs, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> common = {"market", "bank", "rate"};
  const std::vector<std::string> mid = {"election", "storm", "striker",
                                        "vaccine", "merger", "tariff"};
  corpus::Corpus corpus;
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<std::string> tokens;
    const size_t length = 4 + rng.NextBelow(25);
    for (size_t t = 0; t < length; ++t) {
      const size_t bucket = rng.NextBelow(10);
      if (bucket < 5) {
        tokens.push_back(common[rng.NextBelow(common.size())]);
      } else if (bucket < 9) {
        tokens.push_back(mid[(d / 7 + rng.NextBelow(2)) % mid.size()]);
      } else {
        tokens.push_back("rare_" + std::to_string(rng.NextBelow(num_docs)));
      }
    }
    corpus.AddDocument(tokens, static_cast<UnixSeconds>(1000 + d),
                       static_cast<int64_t>(9000 + d));
  }
  return corpus;
}

std::vector<std::vector<std::string>> MakeQueries(size_t count,
                                                  uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> pool = {
      "market", "bank",    "rate",   "election", "storm",
      "striker", "vaccine", "merger", "tariff",   "rare_3",
      "rare_17", "absent_term"};
  std::vector<std::vector<std::string>> queries;
  for (size_t q = 0; q < count; ++q) {
    std::vector<std::string> terms;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t t = 0; t < n; ++t) {
      terms.push_back(pool[rng.NextBelow(pool.size())]);
    }
    queries.push_back(std::move(terms));
  }
  return queries;
}

void ExpectSameRanking(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
    EXPECT_PRED2(SameBits, got[i].score, want[i].score) << "rank " << i;
  }
}

// ----------------------------------------------------------- postings ----

TEST(IndexPostingsTest, CursorWalksMultipleBlocks) {
  IndexOptions options;
  options.block_size = 4;  // force several blocks
  corpus::Corpus corpus = MakeCorpus(60, 1);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  const uint32_t term = ix->TermId("market");
  ASSERT_NE(term, corpus::kUnknownTerm);
  const PostingList& list = ix->Postings(term);
  ASSERT_GT(list.blocks.size(), 3u);

  // Next() enumerates exactly the documents containing the term,
  // ascending, with the right frequencies.
  PostingCursor cursor(&list);
  uint32_t prev = kInvalidDoc;
  size_t seen = 0;
  while (!cursor.exhausted()) {
    const uint32_t doc = cursor.doc();
    if (prev != kInvalidDoc) {
      EXPECT_GT(doc, prev);
    }
    uint32_t want_tf = 0;
    for (const corpus::TermCount& tc : corpus.doc(doc).counts) {
      if (tc.term == term) want_tf = tc.count;
    }
    EXPECT_EQ(cursor.freq(), want_tf);
    EXPECT_GT(want_tf, 0u);
    prev = doc;
    ++seen;
    cursor.Next();
  }
  EXPECT_EQ(seen, list.doc_count);
}

TEST(IndexPostingsTest, NextGeqSkipsAndAgreesWithLinearScan) {
  IndexOptions options;
  options.block_size = 4;
  corpus::Corpus corpus = MakeCorpus(80, 2);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  const uint32_t term = ix->TermId("market");
  const PostingList& list = ix->Postings(term);

  // Collect the true posting docs once.
  std::vector<uint32_t> docs;
  for (PostingCursor c(&list); !c.exhausted(); c.Next()) {
    docs.push_back(c.doc());
  }
  for (uint32_t target = 0; target <= 81; target += 3) {
    PostingCursor c(&list);
    c.NextGeq(target);
    auto it = std::lower_bound(docs.begin(), docs.end(), target);
    if (it == docs.end()) {
      EXPECT_TRUE(c.exhausted()) << "target " << target;
    } else {
      ASSERT_FALSE(c.exhausted()) << "target " << target;
      EXPECT_EQ(c.doc(), *it) << "target " << target;
    }
  }
}

// -------------------------------------------------------- exact ranking --

TEST(IndexRankingTest, TopKMatchesBruteForceOnManyQueries) {
  IndexOptions options;
  corpus::Corpus corpus = MakeCorpus(400, 3);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  for (const std::vector<std::string>& q : MakeQueries(120, 4)) {
    for (size_t k : {1u, 5u, 23u}) {
      ExpectSameRanking(ix->TopK(q, k),
                        BruteForceTopK(corpus, options, q, k));
    }
  }
}

TEST(IndexRankingTest, TopKMatchesBruteForceWithTinyBlocks) {
  // Small blocks exercise the block-max skipping machinery far harder.
  IndexOptions options;
  options.block_size = 3;
  corpus::Corpus corpus = MakeCorpus(150, 5);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  for (const std::vector<std::string>& q : MakeQueries(60, 6)) {
    ExpectSameRanking(ix->TopK(q, 10),
                      BruteForceTopK(corpus, options, q, 10));
  }
}

TEST(IndexRankingTest, EdgeCases) {
  IndexOptions options;
  corpus::Corpus corpus = MakeCorpus(30, 7);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  EXPECT_TRUE(ix->TopK({}, 10).empty());
  EXPECT_TRUE(ix->TopK({"absent_term"}, 10).empty());
  EXPECT_TRUE(ix->TopK({"market"}, 0).empty());
  // Duplicate query terms must not double-score.
  ExpectSameRanking(ix->TopK({"market", "market"}, 10),
                    ix->TopK({"market"}, 10));
}

TEST(IndexRankingTest, StatsShowPruning) {
  IndexOptions options;
  corpus::Corpus corpus = MakeCorpus(400, 8);
  StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(ix.ok());
  QueryStats stats;
  ix->TopK({"market", "bank", "rate"}, 5, &stats);
  EXPECT_EQ(stats.terms_matched, 3u);
  EXPECT_GT(stats.candidates, 0u);
  // With three near-ubiquitous terms and k=5, MaxScore must prune: far
  // fewer full scores than candidates.
  EXPECT_LT(stats.docs_scored, stats.candidates);
}

// ------------------------------------------------------- serialization ---

TEST(IndexSerializeTest, RoundTripPreservesEverything) {
  IndexOptions options;
  options.block_size = 8;
  corpus::Corpus corpus = MakeCorpus(90, 9);
  std::vector<double> labels;
  for (size_t d = 0; d < corpus.size(); ++d) {
    labels.push_back(static_cast<double>(d % 3));
  }
  StatusOr<InvertedIndex> built =
      InvertedIndex::Build(corpus, options, labels);
  ASSERT_TRUE(built.ok());

  std::string body;
  built->AppendTo(&body);
  StatusOr<InvertedIndex> parsed = InvertedIndex::Parse(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->num_docs(), built->num_docs());
  EXPECT_EQ(parsed->num_terms(), built->num_terms());
  EXPECT_EQ(parsed->block_size(), built->block_size());
  for (uint32_t d = 0; d < built->num_docs(); ++d) {
    EXPECT_EQ(parsed->doc(d).external_id, built->doc(d).external_id);
    EXPECT_EQ(parsed->doc(d).timestamp, built->doc(d).timestamp);
    EXPECT_EQ(parsed->doc(d).length, built->doc(d).length);
    EXPECT_EQ(parsed->doc(d).label, built->doc(d).label);
  }
  for (const std::vector<std::string>& q : MakeQueries(40, 10)) {
    ExpectSameRanking(parsed->TopK(q, 10), built->TopK(q, 10));
  }
  // Re-serialization is byte-identical (canonical encoding).
  std::string body2;
  parsed->AppendTo(&body2);
  EXPECT_EQ(body, body2);
}

TEST(IndexSerializeTest, EveryTruncationIsRejected) {
  IndexOptions options;
  corpus::Corpus corpus = MakeCorpus(25, 11);
  StatusOr<InvertedIndex> built = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(built.ok());
  std::string body;
  built->AppendTo(&body);
  for (size_t len = 0; len < body.size(); ++len) {
    StatusOr<InvertedIndex> parsed =
        InvertedIndex::Parse(std::string_view(body).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of length " << len << " parsed";
  }
}

TEST(IndexSerializeTest, EveryByteFlipIsRejectedOrYieldsValidIndex) {
  // The parser must be total: any single corrupted byte either fails
  // parse cleanly or yields an index that still satisfies its invariants
  // (queries run without faulting and respect ranking order). It must
  // never crash, hang, or over-allocate.
  IndexOptions options;
  options.block_size = 4;
  corpus::Corpus corpus = MakeCorpus(30, 12);
  StatusOr<InvertedIndex> built = InvertedIndex::Build(corpus, options);
  ASSERT_TRUE(built.ok());
  std::string body;
  built->AppendTo(&body);
  const std::vector<std::string> probe = {"market", "bank", "rare_3"};
  size_t survived = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    for (unsigned char mask : {0x01, 0xFF}) {
      std::string mutated = body;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      StatusOr<InvertedIndex> parsed = InvertedIndex::Parse(mutated);
      if (!parsed.ok()) continue;
      ++survived;
      std::vector<SearchResult> hits = parsed->TopK(probe, 10);
      for (size_t r = 1; r < hits.size(); ++r) {
        EXPECT_TRUE(hits[r - 1].score > hits[r].score ||
                    (hits[r - 1].score == hits[r].score &&
                     hits[r - 1].doc < hits[r].doc));
      }
    }
  }
  // Flips landing in term names, doc metadata, or score payloads
  // legitimately re-parse (they change data, not structure); flips in the
  // posting blocks and framing must be caught. Both kinds exist in any
  // real body, so the sweep must see a substantial rejected share.
  const size_t total = 2 * body.size();
  EXPECT_GT(total - survived, total / 10);
  EXPECT_LT(survived, total);
}

// ------------------------------------------------------------ filenames --

TEST(IndexFileNameTest, RoundTripAndRejection) {
  EXPECT_EQ(IndexFileName(1), "INDEX-0000000001");
  EXPECT_EQ(IndexFileName(1234567890), "INDEX-1234567890");
  StatusOr<uint64_t> gen = ParseIndexFileName("INDEX-0000000042");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 42u);
  for (const char* bad :
       {"INDEX-", "INDEX-abc", "INDEX-00000001", "INDEX-00000000011",
        "index-0000000001", "MANIFEST-0000000001", "INDEX-000000001x", ""}) {
    EXPECT_FALSE(ParseIndexFileName(bad).ok()) << bad;
  }
}

// ------------------------------------------------------------ the store --

class IndexStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_index_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::map<std::string, InvertedIndex> BuildIndexes(uint64_t seed) {
    IndexOptions options;
    corpus::Corpus corpus = MakeCorpus(40, seed);
    StatusOr<InvertedIndex> ix = InvertedIndex::Build(corpus, options);
    EXPECT_TRUE(ix.ok());
    std::map<std::string, InvertedIndex> out;
    out.emplace("news", std::move(*ix));
    return out;
  }

  fs::path dir_;
};

TEST_F(IndexStoreFixture, SaveLoadRoundTrip) {
  std::map<std::string, InvertedIndex> indexes = BuildIndexes(20);
  IndexStore store(DefaultFileIo(), dir());
  ASSERT_TRUE(store.Save(indexes).ok());
  EXPECT_EQ(store.generation(), 1u);

  std::map<std::string, InvertedIndex> loaded;
  IndexStore reader(DefaultFileIo(), dir());
  StatusOr<IndexLoadReport> report = reader.Load(&loaded);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_TRUE(report->damaged_skipped.empty());
  ASSERT_EQ(loaded.count("news"), 1u);
  ExpectSameRanking(loaded["news"].TopK({"market", "bank"}, 10),
                    indexes["news"].TopK({"market", "bank"}, 10));
}

TEST_F(IndexStoreFixture, EmptyDirLoadsGenerationZero) {
  std::map<std::string, InvertedIndex> loaded;
  IndexStore store(DefaultFileIo(), dir());
  StatusOr<IndexLoadReport> report = store.Load(&loaded);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->generation, 0u);
  EXPECT_TRUE(loaded.empty());
}

TEST_F(IndexStoreFixture, DamagedNewestFallsBackToOlderGeneration) {
  std::map<std::string, InvertedIndex> gen1 = BuildIndexes(21);
  std::map<std::string, InvertedIndex> gen2 = BuildIndexes(22);
  IndexStore store(DefaultFileIo(), dir(), /*retain=*/4);
  ASSERT_TRUE(store.Save(gen1).ok());
  ASSERT_TRUE(store.Save(gen2).ok());

  // Corrupt a byte in the middle of the newest generation file.
  const fs::path newest = dir_ / IndexFileName(2);
  StatusOr<std::string> bytes =
      DefaultFileIo().ReadFile(newest.string());
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(DefaultFileIo().WriteFile(newest.string(), *bytes).ok());

  std::map<std::string, InvertedIndex> loaded;
  IndexStore reader(DefaultFileIo(), dir(), /*retain=*/4);
  StatusOr<IndexLoadReport> report = reader.Load(&loaded);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  ASSERT_EQ(report->damaged_skipped.size(), 1u);
  EXPECT_EQ(report->damaged_skipped[0], IndexFileName(2));
  ExpectSameRanking(loaded["news"].TopK({"market"}, 5),
                    gen1["news"].TopK({"market"}, 5));
}

TEST_F(IndexStoreFixture, RetainPrunesOldGenerations) {
  std::map<std::string, InvertedIndex> indexes = BuildIndexes(23);
  IndexStore store(DefaultFileIo(), dir(), /*retain=*/2);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.Save(indexes).ok());
  EXPECT_EQ(store.generation(), 5u);
  StatusOr<std::vector<std::string>> names =
      DefaultFileIo().ListDir(dir());
  ASSERT_TRUE(names.ok());
  size_t generations = 0;
  for (const std::string& name : *names) {
    if (ParseIndexFileName(name).ok()) ++generations;
  }
  EXPECT_EQ(generations, 2u);
}

TEST_F(IndexStoreFixture, CrashAtEveryOpLeavesOldOrNewGenerationIntact) {
  std::map<std::string, InvertedIndex> gen1 = BuildIndexes(24);
  std::map<std::string, InvertedIndex> gen2 = BuildIndexes(25);

  // Count the ops a clean save of generation 2 performs.
  size_t total_ops = 0;
  {
    IndexStore seed_store(DefaultFileIo(), dir());
    ASSERT_TRUE(seed_store.Save(gen1).ok());
    datagen::StorageFaultOptions count_opts;
    datagen::FaultyFileIo counting(DefaultFileIo(), count_opts);
    IndexStore store(counting, dir());
    ASSERT_TRUE(store.Save(gen2).ok());
    total_ops = counting.counters().ops;
    fs::remove_all(dir_);
  }
  ASSERT_GT(total_ops, 0u);

  for (size_t crash = 0; crash < total_ops; ++crash) {
    fs::remove_all(dir_);
    IndexStore seed_store(DefaultFileIo(), dir());
    ASSERT_TRUE(seed_store.Save(gen1).ok());

    datagen::StorageFaultOptions crash_opts;
    crash_opts.crash_after_ops = crash;
    datagen::FaultyFileIo faulty(DefaultFileIo(), crash_opts);
    IndexStore store(faulty, dir());
    (void)store.Save(gen2);  // usually fails; that's the point

    // Recovery with a healthy disk must find an intact generation —
    // either the old one or, if the rename landed, the new one.
    std::map<std::string, InvertedIndex> loaded;
    IndexStore reader(DefaultFileIo(), dir());
    StatusOr<IndexLoadReport> report = reader.Load(&loaded);
    ASSERT_TRUE(report.ok())
        << "crash point " << crash << ": " << report.status().ToString();
    ASSERT_TRUE(report->generation == 1u || report->generation == 2u)
        << "crash point " << crash << " recovered generation "
        << report->generation;
    const std::map<std::string, InvertedIndex>& want =
        report->generation == 1u ? gen1 : gen2;
    ASSERT_EQ(loaded.count("news"), 1u) << "crash point " << crash;
    ExpectSameRanking(
        loaded["news"].TopK({"market", "bank"}, 10),
        want.at("news").TopK({"market", "bank"}, 10));
  }
}

}  // namespace
}  // namespace newsdiff::index
