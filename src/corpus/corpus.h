#ifndef NEWSDIFF_CORPUS_CORPUS_H_
#define NEWSDIFF_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "corpus/vocabulary.h"

namespace newsdiff::corpus {

/// One term occurrence count within a document.
struct TermCount {
  uint32_t term;
  uint32_t count;
};

/// A tokenised, id-mapped document: a bag of term counts plus the token
/// sequence (the sequence is kept for event detection and embeddings).
struct Document {
  /// External identifier (e.g. store DocId).
  int64_t external_id = -1;
  /// Creation timestamp; used by the event-detection time slicing.
  UnixSeconds timestamp = 0;
  /// Token ids in original order (may contain repeats).
  std::vector<uint32_t> tokens;
  /// Sorted-by-term bag of counts.
  std::vector<TermCount> counts;
  /// Total token count (sum of counts).
  uint32_t length = 0;
};

/// A corpus owns a vocabulary and a list of documents; it maintains the
/// document frequencies needed by IDF. A document arrives as a token
/// stream: AddToken interns each token as the text pipelines emit it, and
/// FinishDocument adds the document those tokens make up. Term ids are
/// assigned in first-seen order across the stream.
class Corpus {
 public:
  Corpus() = default;

  /// Interns `token` as the next token of the document being streamed in.
  void AddToken(std::string_view token) {
    pending_.push_back(vocab_.GetOrAdd(token));
  }

  /// Adds the document made of the tokens streamed in since the last one;
  /// returns its index in the corpus.
  size_t FinishDocument(UnixSeconds timestamp = 0, int64_t external_id = -1);

  /// Adds a pre-tokenised document: AddToken per token, then
  /// FinishDocument.
  size_t AddDocument(const std::vector<std::string>& tokens,
                     UnixSeconds timestamp = 0, int64_t external_id = -1);

  const Vocabulary& vocabulary() const { return vocab_; }
  Vocabulary& vocabulary() { return vocab_; }

  size_t size() const { return docs_.size(); }
  const Document& doc(size_t i) const { return docs_[i]; }
  const std::vector<Document>& docs() const { return docs_; }

  /// Total tokens across all documents.
  uint64_t total_tokens() const { return total_tokens_; }

 private:
  Vocabulary vocab_;
  std::vector<Document> docs_;
  uint64_t total_tokens_ = 0;
  // Reused from one document to the next, and all zero or empty between
  // documents: the streamed document's token ids, a count per term id, a
  // bit per term id present, and the indexes of the nonzero 64-bit words.
  std::vector<uint32_t> pending_;
  std::vector<uint32_t> term_counts_;
  std::vector<uint64_t> present_;
  std::vector<uint32_t> touched_;
};

}  // namespace newsdiff::corpus

#endif  // NEWSDIFF_CORPUS_CORPUS_H_
