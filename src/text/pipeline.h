#ifndef NEWSDIFF_TEXT_PIPELINE_H_
#define NEWSDIFF_TEXT_PIPELINE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"

namespace newsdiff::text {

/// The three preprocessing recipes of the paper (§4.2).
enum class PipelineKind {
  /// NewsTM: entity folding, lemmatisation, punctuation + stopword removal.
  /// Used to build the topic-modeling corpus.
  kNewsTM,
  /// NewsED: punctuation removal + tokenisation only (MABED's original
  /// preprocessing), applied to news articles.
  kNewsED,
  /// TwitterED: same minimal recipe applied to tweets; additionally strips
  /// URLs, @mentions, and the '#' of hashtags (keeping the tag word).
  kTwitterED,
};

/// Streams one recipe's tokens to a callback. Its buffers are reused from
/// one input to the next, so a corpus build allocates nothing per token.
class RecipeScanner {
 public:
  explicit RecipeScanner(PipelineKind kind) : kind_(kind) {}

  /// Calls `emit(std::string_view)` once per token of `input`, in order:
  /// the tokens Preprocess(input, kind) returns. A view is valid only until
  /// `emit` returns.
  template <typename Emit>
  void Scan(std::string_view input, Emit&& emit) {
    const std::string_view text = Prepare(input);
    if (kind_ != PipelineKind::kNewsTM) {
      ForEachToken(text, kOptions, &token_, emit);
      return;
    }
    ForEachToken(text, kOptions, &token_, [&](std::string_view token) {
      if (const std::optional<std::string_view> term = NewsTMTerm(token)) {
        emit(*term);
      }
    });
  }

 private:
  // Every recipe drops tokens shorter than two bytes.
  static constexpr TokenizerOptions kOptions = {.min_length = 2};

  // The text the tokenizer sees: the tweet without URLs, mentions and '#'
  // (TwitterED), the input with its entities folded (NewsTM), or the input.
  std::string_view Prepare(std::string_view input);
  // NewsTM's term for `token`: the token itself if it is a concept, else
  // its lemma; nothing when the token or its lemma is a stopword.
  std::optional<std::string_view> NewsTMTerm(std::string_view token);

  PipelineKind kind_;
  std::string text_;
  std::string token_;
  std::string lemma_;
};

/// Applies the selected recipe to raw text and returns the token stream.
std::vector<std::string> Preprocess(std::string_view input,
                                    PipelineKind kind);

/// Convenience wrappers with the recipe in the name.
std::vector<std::string> PreprocessNewsTM(std::string_view input);
std::vector<std::string> PreprocessNewsED(std::string_view input);
std::vector<std::string> PreprocessTwitterED(std::string_view input);

}  // namespace newsdiff::text

#endif  // NEWSDIFF_TEXT_PIPELINE_H_
