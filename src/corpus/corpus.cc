#include "corpus/corpus.h"

#include <algorithm>
#include <bit>

namespace newsdiff::corpus {

size_t Corpus::FinishDocument(UnixSeconds timestamp, int64_t external_id) {
  Document doc;
  doc.external_id = external_id;
  doc.timestamp = timestamp;
  doc.tokens.assign(pending_.begin(), pending_.end());
  doc.length = static_cast<uint32_t>(doc.tokens.size());
  total_tokens_ += doc.length;

  // Count per term id, and mark each distinct id with a bit. Walking the
  // set bits of the touched 64-id words in word order lists the distinct
  // ids in order, so only the touched words are sorted.
  if (term_counts_.size() < vocab_.size()) {
    term_counts_.resize(vocab_.size());
    present_.resize((vocab_.size() + 63) / 64);
  }
  size_t distinct = 0;
  for (uint32_t t : pending_) {
    if (term_counts_[t]++ != 0) continue;
    ++distinct;
    uint64_t& word = present_[t / 64];
    if (word == 0) touched_.push_back(t / 64);
    word |= uint64_t{1} << (t % 64);
  }
  std::sort(touched_.begin(), touched_.end());
  doc.counts.reserve(distinct);
  for (uint32_t w : touched_) {
    for (uint64_t bits = present_[w]; bits != 0; bits &= bits - 1) {
      const uint32_t t = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      doc.counts.push_back({t, term_counts_[t]});
      vocab_.IncrementDocFreq(t);
      vocab_.AddTermFreq(t, term_counts_[t]);
      term_counts_[t] = 0;
    }
    present_[w] = 0;
  }
  touched_.clear();
  pending_.clear();
  docs_.push_back(std::move(doc));
  return docs_.size() - 1;
}

size_t Corpus::AddDocument(const std::vector<std::string>& tokens,
                           UnixSeconds timestamp, int64_t external_id) {
  for (const std::string& t : tokens) AddToken(t);
  return FinishDocument(timestamp, external_id);
}

}  // namespace newsdiff::corpus
