#include "event/mabed.h"

#include <gtest/gtest.h>

#include "common/rng.h"

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
      if (i > 0) EXPECT_LE(ev.related_weights[i], ev.related_weights[i - 1]);
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
