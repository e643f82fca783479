#include "serve/features.h"

#include <cmath>

namespace newsdiff::serve {

uint64_t HashedFeaturizer::HashTerm(std::string_view term) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64-bit offset basis
  for (unsigned char c : term) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
  return h;
}

HashedFeaturizer::Slot HashedFeaturizer::SlotOf(std::string_view term) const {
  const uint64_t h = HashTerm(term);
  return {h % dim_, ((h >> 32) & 1u) != 0 ? 1.0 : -1.0};
}

void HashedFeaturizer::Normalize(double* row, size_t dim) {
  double sq = 0.0;
  for (size_t c = 0; c < dim; ++c) sq += row[c] * row[c];
  if (sq <= 0.0) return;
  const double inv = 1.0 / std::sqrt(sq);
  for (size_t c = 0; c < dim; ++c) row[c] *= inv;
}

la::Matrix HashedFeaturizer::FeaturizeCorpus(
    const corpus::Corpus& corpus) const {
  la::Matrix features(corpus.size(), dim_);
  const corpus::Vocabulary& vocab = corpus.vocabulary();
  for (size_t d = 0; d < corpus.size(); ++d) {
    double* row = features.RowPtr(d);
    for (const corpus::TermCount& tc : corpus.doc(d).counts) {
      const Slot slot = SlotOf(vocab.Term(tc.term));
      row[slot.column] += slot.sign * static_cast<double>(tc.count);
    }
    Normalize(row, dim_);
  }
  return features;
}

la::Matrix HashedFeaturizer::FeaturizeIndex(
    const index::InvertedIndex& ix) const {
  la::Matrix features(ix.num_docs(), dim_);
  for (uint32_t t = 0; t < ix.num_terms(); ++t) {
    const Slot slot = SlotOf(ix.Term(t));
    for (index::PostingCursor c(&ix.Postings(t)); !c.exhausted(); c.Next()) {
      features(c.doc(), slot.column) +=
          slot.sign * static_cast<double>(c.freq());
    }
  }
  for (size_t d = 0; d < features.rows(); ++d) {
    Normalize(features.RowPtr(d), dim_);
  }
  return features;
}

}  // namespace newsdiff::serve
