#ifndef NEWSDIFF_CORPUS_VOCABULARY_H_
#define NEWSDIFF_CORPUS_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace newsdiff::corpus {

/// Sentinel for "term not in vocabulary".
constexpr uint32_t kUnknownTerm = 0xFFFFFFFFu;

/// Hashes a term given as a std::string or a std::string_view alike, so a
/// TermIds lookup by view builds no temporary string.
struct TermHash {
  using is_transparent = void;
  size_t operator()(std::string_view term) const {
    return std::hash<std::string_view>{}(term);
  }
};

/// Term -> id, looked up by view. Keys own their bytes: a view into another
/// container of strings would dangle when that container reallocates.
using TermIds =
    std::unordered_map<std::string, uint32_t, TermHash, std::equal_to<>>;

/// A bidirectional term <-> id mapping with document frequencies.
/// Ids are dense [0, size()).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id for `term`, inserting it if new.
  uint32_t GetOrAdd(std::string_view term);

  /// Returns the id for `term`, or kUnknownTerm.
  uint32_t Get(std::string_view term) const;

  /// Returns the term for `id`. Requires id < size().
  const std::string& Term(uint32_t id) const;

  /// Number of distinct terms.
  size_t size() const { return terms_.size(); }

  /// Document frequency (number of documents containing the term) —
  /// n_ij in the paper's Eq. 2. Maintained by Corpus during ingestion.
  uint32_t doc_freq(uint32_t id) const { return doc_freq_[id]; }
  void IncrementDocFreq(uint32_t id) { ++doc_freq_[id]; }

  /// Total corpus frequency of the term (all occurrences).
  uint64_t term_freq(uint32_t id) const { return term_freq_[id]; }
  void AddTermFreq(uint32_t id, uint64_t n) { term_freq_[id] += n; }

 private:
  TermIds index_;
  std::vector<std::string> terms_;
  std::vector<uint32_t> doc_freq_;
  std::vector<uint64_t> term_freq_;
};

}  // namespace newsdiff::corpus

#endif  // NEWSDIFF_CORPUS_VOCABULARY_H_
