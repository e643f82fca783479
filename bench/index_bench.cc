// Serving-layer benchmark: block-compressed inverted index (index/index.h)
// vs the all-pairs brute-force scan it must exactly reproduce.
//
// Builds the news and tweets indexes over a deterministic synthetic world,
// replays a fixed query mix through both InvertedIndex::TopK (MaxScore
// pruning) and BruteForceTopK (reference scan), and reports wall-clock,
// speedup, and pruning counters. Alongside the numbers it enforces the
// index layer's contracts and exits nonzero on any violation:
//   * recall@k == 1.0 — every query's top-k is IDENTICAL to the
//     brute-force ranking: same docs, same order, bitwise-equal scores
//     (the exactness contract of index/index.h);
//   * full mode: the index answers the mix >= 10x faster than the scan
//     (smoke uses a 2x floor so shared CI runners do not flake).
// Both gates are rows of the report (bench/report.h). CI runs
// `index_bench --smoke` on the Release legs; full mode produces the
// checked-in BENCH_index.json (see --out).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "common/bitwise.h"
#include "common/rng.h"
#include "core/collection.h"
#include "core/preprocess.h"
#include "corpus/corpus.h"
#include "datagen/world.h"
#include "index/index.h"
#include "store/database.h"

using namespace newsdiff;

namespace {

/// A fixed, deterministic query mix: mostly terms sampled from real
/// documents (guaranteed matches, realistic df skew), plus a sprinkle of
/// out-of-vocabulary terms to exercise the unknown-term path.
std::vector<std::vector<std::string>> MakeQueries(
    const corpus::Corpus& corpus, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    const corpus::Document& doc =
        corpus.doc(rng.NextBelow(corpus.size()));
    const size_t num_terms = 2 + rng.NextBelow(3);  // 2..4 terms
    std::vector<std::string> terms;
    for (size_t t = 0; t < num_terms && !doc.tokens.empty(); ++t) {
      uint32_t id = doc.tokens[rng.NextBelow(doc.tokens.size())];
      terms.push_back(corpus.vocabulary().Term(id));
    }
    if (q % 7 == 0) terms.push_back("zz_never_indexed_token");
    queries.push_back(std::move(terms));
  }
  return queries;
}

bool SameRanking(const std::vector<index::SearchResult>& got,
                 const std::vector<index::SearchResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].doc != want[i].doc || !SameBits(got[i].score, want[i].score)) {
      return false;
    }
  }
  return true;
}

/// Times the index against the brute-force scan on `corpus` and records
/// the `name.*` rows: recall@k and the speedup are gated.
void BenchCorpus(const std::string& name, const corpus::Corpus& corpus,
                 const index::IndexOptions& options, size_t num_queries,
                 size_t k, uint64_t seed, double speedup_floor,
                 bench::Report* report) {
  StatusOr<index::InvertedIndex> built =
      index::InvertedIndex::Build(corpus, options);
  if (!built.ok()) {
    std::fprintf(stderr, "FAIL: build %s: %s\n", name.c_str(),
                 built.status().ToString().c_str());
    report->Check(name + ".built", false);
    return;
  }
  const index::InvertedIndex& ix = *built;
  const std::vector<std::vector<std::string>> queries =
      MakeQueries(corpus, num_queries, seed);
  const size_t docs = corpus.size();

  // Correctness sweep first (untimed): every ranking must be identical.
  size_t exact = 0;
  size_t docs_scored = 0;
  size_t blocks_decoded = 0;
  for (const std::vector<std::string>& q : queries) {
    index::QueryStats stats;
    std::vector<index::SearchResult> fast = ix.TopK(q, k, &stats);
    std::vector<index::SearchResult> reference =
        index::BruteForceTopK(corpus, options, q, k);
    if (SameRanking(fast, reference)) ++exact;
    docs_scored += stats.docs_scored;
    blocks_decoded += stats.blocks_decoded;
  }
  const double recall =
      queries.empty() ? 1.0
                      : static_cast<double>(exact) /
                            static_cast<double>(queries.size());
  // Work actually done by the pruned path, as a fraction of the corpus:
  // docs_scored / (queries * docs). The scan's fraction is 1.0 by
  // definition; this is the "why is it faster" number.
  const double scored_fraction =
      static_cast<double>(docs_scored) /
      (static_cast<double>(queries.size()) * static_cast<double>(docs));

  // Timed replay of the whole mix through each path.
  const double index_seconds = bench::TimedSeconds([&] {
    for (const std::vector<std::string>& q : queries) ix.TopK(q, k);
  });
  const double brute_seconds = bench::TimedSeconds([&] {
    for (const std::vector<std::string>& q : queries) {
      index::BruteForceTopK(corpus, options, q, k);
    }
  });
  const double speedup =
      index_seconds > 0.0 ? brute_seconds / index_seconds : 0.0;

  report->Add(name + ".docs", static_cast<double>(docs), "docs",
              bench::Better::kNone);
  report->Add(name + ".terms",
              static_cast<double>(corpus.vocabulary().size()), "terms",
              bench::Better::kNone);
  report->Add(name + ".queries", static_cast<double>(queries.size()),
              "queries", bench::Better::kNone);
  report->Add(name + ".brute_seconds", brute_seconds, "s",
              bench::Better::kLower);
  report->Add(name + ".index_seconds", index_seconds, "s",
              bench::Better::kLower);
  report->AtLeast(name + ".speedup", speedup, speedup_floor, "x");
  report->AtLeast(name + ".recall_at_k", recall, 1.0, "fraction",
                  bench::kExact);
  report->Add(name + ".scored_fraction", scored_fraction, "fraction",
              bench::Better::kLower, bench::kExact);
  report->Add(name + ".blocks_decoded", static_cast<double>(blocks_decoded),
              "blocks", bench::Better::kLower, bench::kExact);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = 2021;
  bench::Report report("index_bench", "BENCH_index.json", seed, argc, argv);
  const bool smoke = report.smoke();
  // The 10x acceptance gate runs on the full corpus; smoke keeps a 2x
  // floor so loaded CI runners cannot flake the leg while still catching
  // a pruning regression that makes the index no faster than the scan.
  const double speedup_floor = smoke ? 2.0 : 10.0;
  const size_t k = 10;
  const size_t num_queries = smoke ? 50 : 200;

  std::printf("=== Index vs brute-force serving bench (%s mode) ===\n\n",
              report.mode().c_str());

  datagen::WorldOptions world_options;
  world_options.seed = seed;
  if (smoke) {
    world_options.num_articles = 1500;
    world_options.num_tweets = 4000;
    world_options.num_users = 600;
  }
  datagen::World world = datagen::GenerateWorld(world_options);
  store::Database db;
  world.LoadInto(db);

  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(db);
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(db);
  if (!news.ok() || !tweets.ok()) {
    std::fprintf(stderr, "FAIL: world load\n");
    return 1;
  }
  const corpus::Corpus news_corpus = core::BuildNewsED(*news);
  const corpus::Corpus tweet_corpus = core::BuildTwitterED(*tweets);

  index::IndexOptions options;
  report.Add("k", static_cast<double>(k), "docs", bench::Better::kNone);
  BenchCorpus("news", news_corpus, options, num_queries, k, 7, speedup_floor,
              &report);
  BenchCorpus("tweets", tweet_corpus, options, num_queries, k, 11,
              speedup_floor, &report);
  return report.Finish();
}
