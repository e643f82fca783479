#include "event/mabed.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/bitwise.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/collection.h"
#include "core/pipeline.h"
#include "core/preprocess.h"
#include "datagen/world.h"

namespace newsdiff::event {
namespace {

/// Builds a corpus with background chatter plus one planted burst of
/// `burst_word` (with companions) inside [burst_start, burst_end].
corpus::Corpus PlantedBurstCorpus(UnixSeconds start, UnixSeconds end,
                                  UnixSeconds burst_start,
                                  UnixSeconds burst_end,
                                  const std::string& burst_word,
                                  const std::vector<std::string>& companions,
                                  uint64_t seed) {
  Rng rng(seed);
  corpus::Corpus corp;
  const char* background[] = {"alpha", "beta",  "gamma", "delta",
                              "epsilon", "zeta", "eta",   "theta"};
  // Background documents spread over the whole window.
  for (int i = 0; i < 400; ++i) {
    std::vector<std::string> doc;
    for (int w = 0; w < 8; ++w) {
      doc.push_back(background[rng.NextBelow(8)]);
    }
    UnixSeconds t = start + static_cast<int64_t>(
                                rng.NextBelow(static_cast<uint64_t>(end - start)));
    corp.AddDocument(doc, t);
  }
  // Burst documents concentrated in the planted interval.
  for (int i = 0; i < 120; ++i) {
    std::vector<std::string> doc = {burst_word};
    for (const std::string& c : companions) {
      if (rng.Bernoulli(0.8)) doc.push_back(c);
    }
    for (int w = 0; w < 4; ++w) {
      doc.push_back(background[rng.NextBelow(8)]);
    }
    UnixSeconds t =
        burst_start + static_cast<int64_t>(rng.NextBelow(
                          static_cast<uint64_t>(burst_end - burst_start)));
    corp.AddDocument(doc, t);
  }
  return corp;
}

TEST(MabedTest, EmptyCorpusRejected) {
  corpus::Corpus corp;
  Mabed mabed{MabedOptions{}};
  EXPECT_FALSE(mabed.Detect(corp).ok());
}

TEST(MabedTest, DetectsPlantedBurst) {
  const UnixSeconds day = kSecondsPerDay;
  corpus::Corpus corp = PlantedBurstCorpus(
      0, 30 * day, 10 * day, 13 * day, "explosion",
      {"fire", "rescue", "downtown"}, 42);
  MabedOptions opts;
  opts.time_slice_seconds = 6 * kSecondsPerHour;
  opts.max_events = 5;
  opts.min_main_doc_freq = 5;
  opts.min_support = 10;
  Mabed mabed(opts);
  auto events = mabed.Detect(corp);
  ASSERT_TRUE(events.ok());
  ASSERT_FALSE(events->empty());
  const Event& top = (*events)[0];
  EXPECT_EQ(top.main_word, "explosion");
  // Interval covers (roughly) the planted window.
  EXPECT_LE(top.start_time, 11 * day);
  EXPECT_GE(top.end_time, 12 * day);
  EXPECT_GE(top.support, 50u);
  // Companions appear among related words.
  size_t companions_found = 0;
  for (const std::string& w : top.related_words) {
    if (w == "fire" || w == "rescue" || w == "downtown") ++companions_found;
  }
  EXPECT_GE(companions_found, 2u);
}

TEST(MabedTest, RelatedWeightsSortedAndBounded) {
  const UnixSeconds day = kSecondsPerDay;
  corpus::Corpus corp = PlantedBurstCorpus(
      0, 20 * day, 5 * day, 8 * day, "verdict", {"court", "judge"}, 7);
  MabedOptions opts;
  opts.time_slice_seconds = 6 * kSecondsPerHour;
  opts.max_events = 3;
  opts.min_main_doc_freq = 5;
  Mabed mabed(opts);
  auto events = mabed.Detect(corp);
  ASSERT_TRUE(events.ok());
  for (const Event& ev : *events) {
    for (size_t i = 0; i < ev.related_weights.size(); ++i) {
      EXPECT_GE(ev.related_weights[i], opts.min_related_weight);
      EXPECT_LE(ev.related_weights[i], 1.0);
      if (i > 0) {
        EXPECT_LE(ev.related_weights[i], ev.related_weights[i - 1]);
      }
    }
    EXPECT_LE(ev.related_words.size(), opts.max_related_words);
  }
}

TEST(MabedTest, MinSupportFiltersSmallEvents) {
  const UnixSeconds day = kSecondsPerDay;
  corpus::Corpus corp = PlantedBurstCorpus(
      0, 20 * day, 5 * day, 8 * day, "verdict", {"court"}, 8);
  MabedOptions opts;
  opts.time_slice_seconds = 6 * kSecondsPerHour;
  opts.min_main_doc_freq = 5;
  opts.min_support = 100000;  // impossible
  Mabed mabed(opts);
  auto events = mabed.Detect(corp);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST(MabedTest, StopwordMainsFiltered) {
  Rng rng(11);
  corpus::Corpus corp;
  // "the" bursts, but is a stopword; "launch" bursts too.
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> doc = {"filler", "words"};
    UnixSeconds t = rng.NextBelow(20) * kSecondsPerDay;
    corp.AddDocument(doc, t);
  }
  for (int i = 0; i < 60; ++i) {
    corp.AddDocument({"the", "launch", "rocket"},
                     5 * kSecondsPerDay +
                         static_cast<int64_t>(rng.NextBelow(
                             static_cast<uint64_t>(kSecondsPerDay))));
  }
  MabedOptions opts;
  opts.time_slice_seconds = 6 * kSecondsPerHour;
  opts.min_main_doc_freq = 5;
  opts.min_support = 10;
  Mabed mabed(opts);
  auto events = mabed.Detect(corp);
  ASSERT_TRUE(events.ok());
  for (const Event& ev : *events) {
    EXPECT_NE(ev.main_word, "the");
  }
}

TEST(MabedTest, StatsPopulated) {
  const UnixSeconds day = kSecondsPerDay;
  corpus::Corpus corp = PlantedBurstCorpus(
      0, 20 * day, 5 * day, 8 * day, "verdict", {"court"}, 12);
  MabedOptions opts;
  opts.time_slice_seconds = 6 * kSecondsPerHour;
  opts.min_main_doc_freq = 5;
  Mabed mabed(opts);
  ASSERT_TRUE(mabed.Detect(corp).ok());
  EXPECT_GT(mabed.stats().candidate_events, 0u);
  EXPECT_GE(mabed.stats().partition_seconds, 0.0);
  EXPECT_GE(mabed.stats().detect_seconds, 0.0);
}

// Everything a detection returns, doubles at %.17g: per event the main
// term, support, interval and magnitude, then each related term with its
// weight.
std::string EventsDigest(const std::vector<Event>& events) {
  std::string out;
  char buf[160];
  for (const Event& ev : events) {
    std::snprintf(buf, sizeof(buf), "%u %s %zu [%zu,%zu] [%lld,%lld] %.17g:",
                  ev.main_term, ev.main_word.c_str(), ev.support,
                  ev.start_slice, ev.end_slice,
                  static_cast<long long>(ev.start_time),
                  static_cast<long long>(ev.end_time), ev.magnitude);
    out += buf;
    for (size_t i = 0; i < ev.related_terms.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %u %s %.17g", ev.related_terms[i],
                    ev.related_words[i].c_str(), ev.related_weights[i]);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

struct DetectionCrcs {
  uint32_t news;
  uint32_t twitter;
};

// Both of the pipeline's detections at its default options: news events on
// NewsED, Twitter events on TwitterED.
DetectionCrcs CrcsOf(const std::vector<core::NewsRecord>& news,
                     const std::vector<core::TweetRecord>& tweets) {
  const core::PipelineOptions defaults;
  auto news_events = Mabed(defaults.news_mabed).Detect(core::BuildNewsED(news));
  auto twitter_events =
      Mabed(defaults.twitter_mabed).Detect(core::BuildTwitterED(tweets));
  EXPECT_TRUE(news_events.ok() && twitter_events.ok());
  if (!news_events.ok() || !twitter_events.ok()) return {};
  EXPECT_FALSE(news_events->empty());
  EXPECT_FALSE(twitter_events->empty());
  return {Crc32(EventsDigest(*news_events)),
          Crc32(EventsDigest(*twitter_events))};
}

// A seeded datagen world read back through the store, as the pipeline reads
// it. Its records arrive in time order unless `shuffle_seed` is nonzero;
// then both record lists are shuffled, so each term's slice entries arrive
// out of order and Detect's sort-and-merge fixup runs.
DetectionCrcs WorldCrcs(uint64_t seed, size_t articles, size_t tweets,
                        uint64_t shuffle_seed = 0) {
  datagen::WorldOptions opts;
  opts.seed = seed;
  opts.num_users = 80;
  opts.num_articles = articles;
  opts.num_tweets = tweets;
  store::Database db;
  datagen::GenerateWorld(opts).LoadInto(db);
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db);
  StatusOr<std::vector<core::TweetRecord>> loaded = core::LoadTweets(db);
  EXPECT_TRUE(news.ok() && loaded.ok());
  if (!news.ok() || !loaded.ok()) return {};
  if (shuffle_seed != 0) {
    Rng rng(shuffle_seed);
    auto shuffle = [&rng](auto& records) {
      for (size_t i = records.size(); i > 1; --i) {
        std::swap(records[i - 1], records[rng.NextBelow(i)]);
      }
    };
    shuffle(*news);
    shuffle(*loaded);
  }
  return CrcsOf(*news, *loaded);
}

// The exactness gate of event detection: the events, to the last bit of
// every magnitude and weight, that the dense per-probe expansion (a
// binary search per interval document, a hash map of co-occurrences and
// RelatedWordWeight on dense slice series) returned. The CRCs were
// computed with that code.
TEST(MabedTest, EventsAreBitwiseStable) {
  struct Case {
    const char* name;
    DetectionCrcs got;
    DetectionCrcs want;
  };
  const Case cases[] = {
      {"world seed 7", WorldCrcs(7, 400, 1200), {0xca8c59e3, 0x1a690564}},
      {"world seed 11", WorldCrcs(11, 400, 1200), {0x490a4e07, 0xc06e9e05}},
      {"world seed 2021", WorldCrcs(2021, 400, 1200),
       {0x965699b7, 0xa3f1d913}},
      {"shuffled world seed 11", WorldCrcs(11, 400, 1200, /*shuffle_seed=*/5),
       {0x71b8dcde, 0xb5059e20}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Crc32Hex(c.got.news), Crc32Hex(c.want.news));
    EXPECT_EQ(Crc32Hex(c.got.twitter), Crc32Hex(c.want.twitter));
  }
}

TEST(RelatedWordWeightTest, PerfectCorrelationIsOne) {
  std::vector<double> main = {1, 3, 2, 5, 4, 6};
  EXPECT_NEAR(RelatedWordWeight(main, main), 1.0, 1e-12);
}

TEST(RelatedWordWeightTest, PerfectAnticorrelationIsZero) {
  std::vector<double> main = {1, 3, 2, 5, 4, 6};
  std::vector<double> anti;
  for (double v : main) anti.push_back(10.0 - v);
  EXPECT_NEAR(RelatedWordWeight(main, anti), 0.0, 1e-12);
}

TEST(RelatedWordWeightTest, ScaleInvariant) {
  std::vector<double> a = {1, 4, 2, 8, 3};
  std::vector<double> b = {2, 8, 4, 16, 6};
  EXPECT_NEAR(RelatedWordWeight(a, b), 1.0, 1e-12);
}

TEST(RelatedWordWeightTest, DegenerateSeriesYieldZero) {
  std::vector<double> flat = {2, 2, 2, 2};
  std::vector<double> varying = {1, 2, 3, 4};
  EXPECT_EQ(RelatedWordWeight(flat, varying), 0.0);
  EXPECT_EQ(RelatedWordWeight(varying, flat), 0.0);
}

TEST(RelatedWordWeightTest, ShortOrMismatchedSeries) {
  EXPECT_EQ(RelatedWordWeight({1, 2}, {1, 2}), 0.0);
  EXPECT_EQ(RelatedWordWeight({1, 2, 3}, {1, 2}), 0.0);
  EXPECT_EQ(RelatedWordWeight({}, {}), 0.0);
}

TEST(RelatedWordWeightTest, WeightInUnitInterval) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(10), b(10);
    for (int i = 0; i < 10; ++i) {
      a[i] = rng.Uniform(0, 20);
      b[i] = rng.Uniform(0, 20);
    }
    double w = RelatedWordWeight(a, b);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

using SliceEntries = std::vector<std::pair<uint32_t, uint32_t>>;

// The sparse weight of a term with `entries` against `main_series` over
// [a, a + n - 1] has the bits of the dense reference on the series those
// entries give.
void ExpectSparseEqualsDense(const std::vector<double>& main_series, size_t a,
                             const SliceEntries& entries) {
  std::vector<double> candidate(main_series.size(), 0.0);
  for (const auto& [slice, count] : entries) {
    if (slice >= a && slice - a < main_series.size()) {
      candidate[slice - a] = count;
    }
  }
  const double dense = RelatedWordWeight(main_series, candidate);
  const double sparse = internal::SparseRelatedWordWeight(
      internal::DiffMainSeries(main_series, a), entries);
  EXPECT_TRUE(SameBits(sparse, dense)) << "sparse " << sparse << " dense "
                                       << dense;
}

TEST(RelatedWordWeightTest, SparseSumsAreBitwiseEqualToDense) {
  // Main word over [a, b] = [5, 16].
  const std::vector<double> main = {0, 3, 3, 1, 0, 0, 4, 7, 2, 2, 0, 1};
  const size_t a = 5;
  // Runs of zeros between isolated entries.
  ExpectSparseEqualsDense(main, a, {{6, 2}, {10, 1}, {13, 4}});
  // Equal consecutive counts, where the main word falls: the product is
  // -0.0 in the dense sum.
  ExpectSparseEqualsDense(main, a, {{7, 3}, {8, 3}, {9, 3}, {14, 2}, {15, 2}});
  // Entries at a and at b, and one slice outside each, which must not count.
  ExpectSparseEqualsDense(main, a, {{5, 2}, {9, 1}, {16, 4}});
  ExpectSparseEqualsDense(main, a, {{4, 6}, {5, 2}, {9, 1}, {16, 4}, {17, 5}});
  ExpectSparseEqualsDense(main, a, {{0, 1}, {4, 6}, {17, 5}, {30, 2}});
  ExpectSparseEqualsDense(main, a, {});
  // Every slice of [a, b] an entry.
  SliceEntries full;
  for (uint32_t slice = 3; slice <= 18; ++slice) {
    full.emplace_back(slice, 1 + slice % 4);
  }
  ExpectSparseEqualsDense(main, a, full);
  // The candidate is the main word itself.
  SliceEntries same;
  for (size_t i = 0; i < main.size(); ++i) {
    if (main[i] != 0) {
      same.emplace_back(static_cast<uint32_t>(a + i),
                        static_cast<uint32_t>(main[i]));
    }
  }
  ExpectSparseEqualsDense(main, a, same);
  // A constant main word has no variance: both give 0.
  ExpectSparseEqualsDense({2, 2, 2, 2, 2}, 0, {{1, 3}, {2, 1}});
  ExpectSparseEqualsDense({0, 0, 0}, 3, {{3, 1}});
  // Intervals under 3 slices give 0.
  ExpectSparseEqualsDense({1, 4}, 0, {{0, 2}, {1, 1}});
  ExpectSparseEqualsDense({5}, 2, {{2, 5}});
  ExpectSparseEqualsDense({}, 0, {{0, 1}});

  // Random sparse series: lengths 1-40, densities from near-empty to full,
  // entries on both sides of the interval.
  Rng rng(29);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = 1 + rng.NextBelow(40);
    const size_t first = rng.NextBelow(6);
    const double density = rng.NextDouble();
    std::vector<double> series(n, 0.0);
    for (double& v : series) {
      if (rng.Bernoulli(density)) v = static_cast<double>(1 + rng.NextBelow(5));
    }
    SliceEntries entries;
    for (uint32_t slice = 0; slice < first + n + 3; ++slice) {
      if (rng.Bernoulli(density)) {
        entries.emplace_back(slice,
                             static_cast<uint32_t>(1 + rng.NextBelow(5)));
      }
    }
    ExpectSparseEqualsDense(series, first, entries);
  }
}

TEST(DocumentBelongsToEventTest, RuleComponents) {
  corpus::Corpus corp;
  size_t d = corp.AddDocument({"quake", "rescue", "city", "filler"},
                              /*timestamp=*/1000);
  size_t r = corp.AddDocument({"rescue", "quake", "rescue", "quake", "rescue",
                               "filler", "filler"},
                              /*timestamp=*/1000);
  const corpus::Document& doc = corp.doc(d);
  const corpus::Document& repeats = corp.doc(r);

  Event ev;
  ev.main_term = corp.vocabulary().Get("quake");
  ev.main_word = "quake";
  ev.start_time = 500;
  ev.end_time = 1500;
  ev.related_terms = {corp.vocabulary().Get("rescue"),
                      corp.vocabulary().Get("city"),
                      corp.vocabulary().GetOrAdd("absent1"),
                      corp.vocabulary().GetOrAdd("absent2"),
                      corp.vocabulary().GetOrAdd("absent3")};

  // In interval, has main word, 2/5 = 40% >= 20% related words.
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, ev, 0.2));
  // Too-high related requirement fails.
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, ev, 0.9));

  // Outside the interval.
  Event late = ev;
  late.start_time = 2000;
  late.end_time = 3000;
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, late, 0.2));

  // Missing main word.
  Event other = ev;
  other.main_term = corp.vocabulary().GetOrAdd("different");
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, other, 0.2));

  // No related words: main word alone suffices.
  Event bare = ev;
  bare.related_terms.clear();
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, bare, 0.2));
  // ... but not without it.
  Event bare_other = other;
  bare_other.related_terms.clear();
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, bare_other, 0.0));

  // The interval is closed at both ends.
  Event at_start = ev;
  at_start.start_time = 1000;
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, at_start, 0.2));
  Event at_end = ev;
  at_end.end_time = 1000;
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, at_end, 0.2));
  Event just_after = ev;
  just_after.end_time = 999;
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, just_after, 0.2));
  Event just_before = ev;
  just_before.start_time = 1001;
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, just_before, 0.2));

  // Repeated tokens count once: "rescue" three times is still 1 of 5
  // related words (20%), and the repeated main word changes nothing.
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(repeats, ev, 0.2));
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(repeats, ev, 0.21));
  // The main word is also a related hit when it is listed among the
  // related words: "quake" and "rescue" are 2 of 5.
  Event main_related = ev;
  main_related.related_terms[1] = ev.main_term;
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, main_related, 0.4));
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, main_related, 0.41));

  // A duplicated related term is one hit for the document but two entries
  // of the denominator: "city" twice makes 2 hits of 6 related words.
  Event dup = ev;
  dup.related_terms.push_back(corp.vocabulary().Get("city"));
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(doc, dup, 2.0 / 6.0));
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(doc, dup, 0.34));
  EXPECT_FALSE(Mabed::DocumentBelongsToEvent(repeats, dup, 0.2));
  EXPECT_TRUE(Mabed::DocumentBelongsToEvent(repeats, dup, 1.0 / 6.0));
}

/// Property sweep over slice widths: the planted burst is found regardless
/// of slicing granularity.
class MabedSliceWidthSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(MabedSliceWidthSweep, PlantedBurstSurvivesSlicing) {
  const UnixSeconds day = kSecondsPerDay;
  corpus::Corpus corp = PlantedBurstCorpus(
      0, 30 * day, 12 * day, 15 * day, "eruption", {"ash", "lava"}, 99);
  MabedOptions opts;
  opts.time_slice_seconds = GetParam();
  opts.max_events = 5;
  opts.min_main_doc_freq = 5;
  opts.min_support = 10;
  Mabed mabed(opts);
  auto events = mabed.Detect(corp);
  ASSERT_TRUE(events.ok());
  bool found = false;
  for (const Event& ev : *events) {
    if (ev.main_word == "eruption") found = true;
  }
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(SliceWidths, MabedSliceWidthSweep,
                         ::testing::Values(30 * kSecondsPerMinute,
                                           60 * kSecondsPerMinute,
                                           6 * kSecondsPerHour,
                                           kSecondsPerDay));

}  // namespace
}  // namespace newsdiff::event
