#include "text/pipeline.h"

#include "text/lemmatizer.h"
#include "text/ner.h"
#include "text/stopwords.h"

namespace newsdiff::text {
namespace {

bool StartsUrl(std::string_view s) {
  return s.starts_with("http://") || s.starts_with("https://") ||
         s.starts_with("www.");
}

// Writes `input` to `out` with each URL (http://, https:// or www. up to
// whitespace) and @mention replaced by one space, and with the '#' of
// hashtags removed. "www." matches mid-word and a removed '#' joins its
// neighbours: both are the recipe's behaviour, kept byte for byte.
std::string_view CleanTweet(std::string_view input, std::string* out) {
  const size_t n = input.size();
  // No rewrite is longer than what it replaces.
  if (out->size() < n) out->resize(n);
  char* const o = out->data();
  size_t len = 0;
  size_t i = 0;
  while (i < n) {
    const char c = input[i];
    if ((c == 'h' || c == 'w') && StartsUrl(input.substr(i))) {
      while (i < n && !ascii::Is(input[i], ascii::kSpace)) ++i;
      o[len++] = ' ';
    } else if (c == '@') {
      ++i;
      while (i < n && ascii::Is(input[i], ascii::kWord)) ++i;
      o[len++] = ' ';
    } else {
      if (c != '#') o[len++] = c;
      ++i;
    }
  }
  return std::string_view(o, len);
}

}  // namespace

std::string_view RecipeScanner::Prepare(std::string_view input) {
  switch (kind_) {
    case PipelineKind::kNewsTM:
      text_ = FoldEntities(input);
      return text_;
    case PipelineKind::kTwitterED:
      return CleanTweet(input, &text_);
    case PipelineKind::kNewsED:
      break;
  }
  return input;
}

std::optional<std::string_view> RecipeScanner::NewsTMTerm(
    std::string_view token) {
  if (IsStopword(token)) return std::nullopt;
  // Concept tokens (contain '_') are kept verbatim.
  if (token.find('_') != std::string_view::npos) return token;
  lemma_ = Lemmatize(token);
  if (IsStopword(lemma_)) return std::nullopt;
  return lemma_;
}

std::vector<std::string> Preprocess(std::string_view input,
                                    PipelineKind kind) {
  std::vector<std::string> tokens;
  RecipeScanner(kind).Scan(
      input, [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::vector<std::string> PreprocessNewsTM(std::string_view input) {
  return Preprocess(input, PipelineKind::kNewsTM);
}

std::vector<std::string> PreprocessNewsED(std::string_view input) {
  return Preprocess(input, PipelineKind::kNewsED);
}

std::vector<std::string> PreprocessTwitterED(std::string_view input) {
  return Preprocess(input, PipelineKind::kTwitterED);
}

}  // namespace newsdiff::text
