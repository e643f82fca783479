#ifndef NEWSDIFF_INDEX_INDEX_H_
#define NEWSDIFF_INDEX_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "corpus/corpus.h"
#include "index/bm25.h"
#include "index/postings.h"

namespace newsdiff::index {

/// Build-time knobs for an inverted index.
struct IndexOptions {
  /// Postings per compressed block. 128 is the PISA default: small enough
  /// that block-max skipping has resolution, large enough that the varint
  /// decode amortises.
  size_t block_size = 128;
  /// BM25 parameters (see Bm25).
  double k1 = 0.9;
  double b = 0.4;
};

/// Per-document payload carried alongside the postings so query results
/// resolve to something meaningful without a second store round-trip.
struct DocInfo {
  int64_t external_id = -1;
  int64_t timestamp = 0;
  uint32_t length = 0;  // token count; the BM25 length normalisation input
  double label = 0.0;   // caller payload (e.g. interest measure)
};

/// One ranked hit. `doc` is the dense in-index document id.
struct SearchResult {
  uint32_t doc = 0;
  double score = 0.0;
};

/// Work counters for one TopK call (bench / diagnostics).
struct QueryStats {
  size_t terms_matched = 0;   // query terms present in the index
  size_t candidates = 0;      // documents considered by the cursor sweep
  size_t docs_scored = 0;     // documents fully scored (not pruned)
  size_t blocks_decoded = 0;  // posting blocks decompressed
};

/// A block-compressed inverted index with BM25 scoring and MaxScore
/// dynamic pruning. Term ids are dense [0, num_terms) in the order terms
/// first appeared in the source vocabulary; that order is the canonical
/// scoring order, which makes TopK's floating-point folds reproducible and
/// bit-identical to BruteForceTopK's.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Inverts `corpus` into compressed posting lists. `labels`, when
  /// non-empty, must have one entry per document and is carried into
  /// DocInfo::label. Document ids in the index equal corpus positions.
  static StatusOr<InvertedIndex> Build(const corpus::Corpus& corpus,
                                       const IndexOptions& options,
                                       const std::vector<double>& labels = {});

  uint64_t num_docs() const { return bm25_.num_docs; }
  size_t num_terms() const { return terms_.size(); }
  size_t block_size() const { return block_size_; }
  const Bm25& scorer() const { return bm25_; }
  const DocInfo& doc(uint32_t id) const { return docs_[id]; }
  const std::vector<DocInfo>& docs() const { return docs_; }

  /// Term id for `term`, or kUnknownTerm.
  uint32_t TermId(std::string_view term) const;
  const std::string& Term(uint32_t id) const { return terms_[id]; }
  const PostingList& Postings(uint32_t term_id) const {
    return postings_[term_id];
  }

  /// Unique known term ids for a query, ascending — the canonical scoring
  /// order shared with the brute-force reference.
  std::vector<uint32_t> LookupTerms(
      const std::vector<std::string>& terms) const;

  /// Top-k BM25 retrieval with MaxScore pruning. The ranking (scores and
  /// tie-breaks: score descending, doc id ascending) is exactly the one
  /// BruteForceTopK produces — pruning only ever skips work, never changes
  /// the result. Returns at most k hits, fewer when fewer documents match.
  std::vector<SearchResult> TopK(const std::vector<std::string>& terms,
                                 size_t k, QueryStats* stats = nullptr) const;

  /// Serializes the index body (section framing and CRC are IndexStore's
  /// concern).
  void AppendTo(std::string* out) const;

  /// Parses and fully validates a body produced by AppendTo. Total: any
  /// malformed input yields kParseError.
  static StatusOr<InvertedIndex> Parse(std::string_view body);

 private:
  Bm25 bm25_;
  size_t block_size_ = 128;
  std::vector<std::string> terms_;  // id order
  corpus::TermIds term_ids_;
  std::vector<PostingList> postings_;  // parallel to terms_
  std::vector<DocInfo> docs_;
};

/// Reference scorer: scans every document, scores query terms in the same
/// canonical order as InvertedIndex::TopK, and ranks (score descending,
/// doc ascending). Only documents containing at least one query term are
/// hits. O(num_docs * query_terms) — the baseline the index must beat.
std::vector<SearchResult> BruteForceTopK(const corpus::Corpus& corpus,
                                         const IndexOptions& options,
                                         const std::vector<std::string>& terms,
                                         size_t k);

/// "INDEX-%010llu" / its inverse. Rejects anything that does not
/// round-trip exactly.
std::string IndexFileName(uint64_t generation);
StatusOr<uint64_t> ParseIndexFileName(const std::string& name);

/// What IndexStore::Load found on disk.
struct IndexLoadReport {
  uint64_t generation = 0;  // generation actually loaded (0 = none found)
  /// Generation files that existed but failed CRC / parse and were
  /// skipped in favour of an older intact one.
  std::vector<std::string> damaged_skipped;
};

/// Durable home for a set of named indexes ("news", "tweets", ...), written
/// as generation-numbered files through the FileIo seam: each Save
/// serializes every index into CRC-framed sections of one INDEX-<gen> file
/// committed with WriteFileAtomic, so a crash at any point leaves either
/// the previous generation or the new one intact — the same
/// newest-intact-with-fallback discipline as the store's snapshot engine.
class IndexStore {
 public:
  /// `io` must outlive the store. `retain` >= 1 generations are kept.
  IndexStore(FileIo& io, std::string dir, size_t retain = 2);

  /// Writes all `indexes` as the next generation and prunes old ones.
  /// Pruning failures are ignored (stale generations are garbage, not
  /// state).
  Status Save(const std::map<std::string, InvertedIndex>& indexes);

  /// Loads the newest intact generation into `out` (replacing its
  /// contents). An empty directory is not an error: the report's
  /// generation is 0 and `out` is cleared. Damaged newer generations are
  /// skipped and reported.
  StatusOr<IndexLoadReport> Load(std::map<std::string, InvertedIndex>* out);

  uint64_t generation() const { return generation_; }

 private:
  std::string PathFor(const std::string& name) const;
  StatusOr<std::vector<std::pair<uint64_t, std::string>>> ListGenerations();

  FileIo& io_;
  std::string dir_;
  size_t retain_;
  uint64_t generation_ = 0;  // last generation saved or loaded
};

}  // namespace newsdiff::index

#endif  // NEWSDIFF_INDEX_INDEX_H_
