#ifndef NEWSDIFF_SERVE_FEATURES_H_
#define NEWSDIFF_SERVE_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "corpus/corpus.h"
#include "index/index.h"
#include "la/matrix.h"

namespace newsdiff::serve {

/// Signed feature hashing over term STRINGS (not vocabulary ids): a term's
/// column and sign depend only on its spelling, so the feature space is
/// invariant across index rebuilds even though vocabulary ids are
/// reassigned per generation. That is what lets a model trained against
/// one generation keep scoring candidates after a swap. Rows are
/// L2-normalised so document length drops out (the §3.4 normalisation
/// idea applied to the hashed space).
class HashedFeaturizer {
 public:
  explicit HashedFeaturizer(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }

  /// FNV-1a over the term bytes; the low bits pick the column, bit 32
  /// picks the sign (signed hashing keeps collisions mean-zero).
  static uint64_t HashTerm(std::string_view term);

  /// Where `term`'s count goes: column h % dim, with sign(h).
  struct Slot {
    size_t column = 0;
    double sign = 1.0;
  };
  Slot SlotOf(std::string_view term) const;

  /// L2-normalises `row` in place; all-zero rows stay zero.
  static void Normalize(double* row, size_t dim);

  /// One row per document: hashed, signed, L2-normalised bag of counts.
  la::Matrix FeaturizeCorpus(const corpus::Corpus& corpus) const;

  /// The same rows read back from an index's postings (row r = dense doc
  /// id r), bitwise equal to FeaturizeCorpus over the indexed corpus: the
  /// index keeps every (term, doc, count), and each cell is a sum of
  /// integer counts, exact in a double whatever the order of addition.
  la::Matrix FeaturizeIndex(const index::InvertedIndex& ix) const;

 private:
  size_t dim_;
};

}  // namespace newsdiff::serve

#endif  // NEWSDIFF_SERVE_FEATURES_H_
