#include "core/preprocess.h"

#include <string>
#include <string_view>

#include "text/pipeline.h"

namespace newsdiff::core {
namespace {

// Streams title + " " + body of each article through one recipe straight
// into the corpus. NewsTM's entity folding may join the title's last words
// to the body's first ones, so the two are scanned as one text, assembled
// in one buffer reused for every article.
corpus::Corpus BuildNews(const std::vector<NewsRecord>& news,
                         text::PipelineKind kind) {
  corpus::Corpus corp;
  text::RecipeScanner scanner(kind);
  std::string full;
  for (const NewsRecord& rec : news) {
    full.assign(rec.title).append(1, ' ').append(rec.body);
    scanner.Scan(full, [&](std::string_view token) { corp.AddToken(token); });
    corp.FinishDocument(rec.published, rec.id);
  }
  return corp;
}

}  // namespace

corpus::Corpus BuildNewsTM(const std::vector<NewsRecord>& news) {
  return BuildNews(news, text::PipelineKind::kNewsTM);
}

corpus::Corpus BuildNewsED(const std::vector<NewsRecord>& news) {
  return BuildNews(news, text::PipelineKind::kNewsED);
}

corpus::Corpus BuildTwitterED(const std::vector<TweetRecord>& tweets) {
  corpus::Corpus corp;
  text::RecipeScanner scanner(text::PipelineKind::kTwitterED);
  for (const TweetRecord& rec : tweets) {
    scanner.Scan(rec.text,
                 [&](std::string_view token) { corp.AddToken(token); });
    corp.FinishDocument(rec.created, rec.id);
  }
  return corp;
}

}  // namespace newsdiff::core
