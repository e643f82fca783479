// newsquery — command-line front door for the newsdiff::Engine serving
// layer. Drives the full online path end to end against a directory of
// JSONL collections (the Database::SaveToDir layout):
//
//   newsquery synth <dir> [--seed N] [--articles N] [--tweets N]
//       Generate a deterministic synthetic world and save it as a store.
//   newsquery build <dir>
//       Invert the store's news + tweets collections and commit an
//       INDEX-<gen> generation under <dir>/index.
//   newsquery trending <dir> <query...> [--k N]
//       Top-k articles for a free-text query (BM25 / MaxScore).
//   newsquery predict <dir> <draft...> [--k N] [--batch <file>]
//       Audience-interest estimate for a draft headline: the k most
//       similar tweets are retrieved by BM25 and reranked through the
//       trained MLP via the inference server (the model is trained as
//       part of the in-memory index build, so this command needs the full
//       store, not just <dir>/index). --batch scores one draft per line of
//       <file> with PredictInterestBatch: one model forward pass over
//       every draft's candidates.
//
// Exit status is 0 on success, 1 on any error (message on stderr).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "core/engine.h"
#include "datagen/world.h"
#include "store/database.h"

namespace {

using newsdiff::Engine;
using newsdiff::EngineOptions;
using newsdiff::InterestPrediction;
using newsdiff::QueryHit;
using newsdiff::Status;
using newsdiff::StatusOr;

int Usage() {
  std::fprintf(stderr,
               "usage: newsquery <command> <dir> [args]\n"
               "  synth <dir> [--seed N] [--articles N] [--tweets N]\n"
               "  build <dir>\n"
               "  trending <dir> <query words...> [--k N]\n"
               "  predict <dir> <draft words...> [--k N] [--batch <file>]\n");
  return 1;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "newsquery: %s\n", s.ToString().c_str());
  return 1;
}

EngineOptions OptionsFor(const std::string& dir) {
  EngineOptions options;
  options.index_dir = dir + "/index";
  return options;
}

/// Splits argv tail into free words and --k/--seed/... flags. Unknown
/// flags are an error; everything else joins the query text.
struct Args {
  std::vector<std::string> words;
  std::string batch_file;
  size_t k = 10;
  uint64_t seed = 2021;
  size_t articles = 2000;
  size_t tweets = 6000;
  bool ok = true;
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "newsquery: %s needs a value\n", flag);
        args.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--k") == 0) {
      if (const char* v = take_value("--k")) args.k = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = take_value("--seed")) args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--articles") == 0) {
      if (const char* v = take_value("--articles")) args.articles = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--tweets") == 0) {
      if (const char* v = take_value("--tweets")) args.tweets = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      if (const char* v = take_value("--batch")) args.batch_file = v;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "newsquery: unknown flag %s\n", argv[i]);
      args.ok = false;
    } else {
      args.words.push_back(argv[i]);
    }
  }
  return args;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string text;
  for (const std::string& w : words) {
    if (!text.empty()) text += ' ';
    text += w;
  }
  return text;
}

int RunSynth(const std::string& dir, const Args& args) {
  newsdiff::datagen::WorldOptions world_options;
  world_options.seed = args.seed;
  world_options.num_articles = args.articles;
  world_options.num_tweets = args.tweets;
  newsdiff::datagen::World world =
      newsdiff::datagen::GenerateWorld(world_options);
  newsdiff::store::Database db;
  world.LoadInto(db);
  Status saved = db.SaveToDir(dir);
  if (!saved.ok()) return Fail(saved);
  std::printf("synth: wrote %zu articles, %zu tweets, %zu users to %s\n",
              world.articles.size(), world.tweets.size(), world.users.size(),
              dir.c_str());
  return 0;
}

int RunBuild(const std::string& dir) {
  newsdiff::store::Database db;
  Status loaded = db.LoadFromDir(dir);
  if (!loaded.ok()) return Fail(loaded);
  Engine engine(OptionsFor(dir));
  StatusOr<newsdiff::BuildIndexReport> report = engine.BuildIndex(db);
  if (!report.ok()) return Fail(report.status());
  std::printf(
      "build: generation %llu — news %zu docs / %zu terms, "
      "tweets %zu docs / %zu terms\n",
      static_cast<unsigned long long>(report->generation), report->news_docs,
      report->news_terms, report->tweet_docs, report->tweet_terms);
  return 0;
}

void PrintStats(const newsdiff::index::QueryStats& stats) {
  std::printf(
      "  [terms=%zu candidates=%zu scored=%zu blocks=%zu]\n",
      stats.terms_matched, stats.candidates, stats.docs_scored,
      stats.blocks_decoded);
}

int RunTrending(const std::string& dir, const Args& args) {
  if (args.words.empty()) return Usage();
  Engine engine(OptionsFor(dir));
  StatusOr<newsdiff::index::IndexLoadReport> loaded = engine.LoadIndex();
  if (!loaded.ok()) return Fail(loaded.status());
  newsdiff::index::QueryStats stats;
  StatusOr<std::vector<QueryHit>> hits =
      engine.QueryTrending(JoinWords(args.words), args.k, &stats);
  if (!hits.ok()) return Fail(hits.status());
  std::printf("trending: %zu hits (index generation %llu)\n", hits->size(),
              static_cast<unsigned long long>(engine.index_generation()));
  for (const QueryHit& h : *hits) {
    std::printf("  article %lld  score=%.4f  published=%lld\n",
                static_cast<long long>(h.external_id), h.score,
                static_cast<long long>(h.timestamp));
  }
  PrintStats(stats);
  return 0;
}

/// One draft per non-empty line of `path`.
StatusOr<std::vector<std::string>> ReadDrafts(const std::string& path) {
  StatusOr<std::string> bytes = newsdiff::DefaultFileIo().ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<std::string> drafts;
  std::string line;
  for (char c : *bytes) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) drafts.push_back(line);
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) drafts.push_back(line);
  return drafts;
}

int RunPredict(const std::string& dir, const Args& args) {
  if (args.words.empty() && args.batch_file.empty()) return Usage();
  // The serving model is trained during the index build (the index dir
  // alone has no model), so predict rebuilds from the full store — that
  // also warms the inference server's packed-weight cache.
  newsdiff::store::Database db;
  Status loaded = db.LoadFromDir(dir);
  if (!loaded.ok()) return Fail(loaded);
  Engine engine(OptionsFor(dir));
  StatusOr<newsdiff::BuildIndexReport> built = engine.BuildIndex(db);
  if (!built.ok()) return Fail(built.status());

  if (!args.batch_file.empty()) {
    StatusOr<std::vector<std::string>> drafts = ReadDrafts(args.batch_file);
    if (!drafts.ok()) return Fail(drafts.status());
    if (drafts->empty()) {
      std::fprintf(stderr, "newsquery: %s has no drafts\n",
                   args.batch_file.c_str());
      return 1;
    }
    std::vector<StatusOr<InterestPrediction>> results =
        engine.PredictInterestBatch(*drafts, args.k);
    size_t failures = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++failures;
        std::printf("  %-40.40s  ERROR %s\n", (*drafts)[i].c_str(),
                    results[i].status().ToString().c_str());
        continue;
      }
      const InterestPrediction& p = *results[i];
      std::printf("  %-40.40s  class %d  confidence %.3f  %s\n",
                  (*drafts)[i].c_str(), p.predicted_class, p.confidence,
                  p.model_reranked ? "model" : "vote");
    }
    const newsdiff::EngineStatsSnapshot stats = engine.stats();
    std::printf(
        "batch: %zu drafts, %zu failed  [forward_passes=%llu rows=%llu "
        "model_version=%llu]\n",
        results.size(), failures,
        static_cast<unsigned long long>(stats.inference_batches),
        static_cast<unsigned long long>(stats.inference_batched_rows),
        static_cast<unsigned long long>(engine.model_version()));
    return failures == 0 ? 0 : 1;
  }

  newsdiff::index::QueryStats stats;
  StatusOr<InterestPrediction> prediction =
      engine.PredictInterest(JoinWords(args.words), args.k, &stats);
  if (!prediction.ok()) return Fail(prediction.status());
  std::printf("predict: class %d (confidence %.3f) from %zu neighbours%s\n",
              prediction->predicted_class, prediction->confidence,
              prediction->neighbors.size(),
              prediction->model_reranked ? " (model-reranked)" : "");
  if (prediction->model_reranked) {
    std::printf("  model version %llu\n",
                static_cast<unsigned long long>(prediction->model_version));
  }
  for (size_t c = 0; c < prediction->class_weights.size(); ++c) {
    std::printf("  class %zu weight %.3f\n", c, prediction->class_weights[c]);
  }
  PrintStats(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string dir = argv[2];
  Args args = ParseArgs(argc, argv, 3);
  if (!args.ok) return 1;
  if (command == "synth") return RunSynth(dir, args);
  if (command == "build") return RunBuild(dir);
  if (command == "trending") return RunTrending(dir, args);
  if (command == "predict") return RunPredict(dir, args);
  return Usage();
}
