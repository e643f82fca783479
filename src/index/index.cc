#include "index/index.h"

#include <algorithm>
#include <cstdio>

#include "common/crc32.h"
#include "index/codec.h"

namespace newsdiff::index {

namespace {

/// File magic for an index generation file (version 1).
constexpr std::string_view kIndexMagic = "NDIDX1\n";
constexpr std::string_view kIndexFilePrefix = "INDEX-";

/// Orders heap entries so the *worst* hit (lowest score; among equal
/// scores, highest doc id) sits on top of a std::*_heap. This is the exact
/// complement of the final (score desc, doc asc) ranking, so evicting the
/// top reproduces the brute-force cut line bit-for-bit.
bool BetterHit(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

void SortRanking(std::vector<SearchResult>* hits) {
  std::sort(hits->begin(), hits->end(), BetterHit);
}

Bm25 MakeBm25(const corpus::Corpus& corpus, const IndexOptions& options) {
  Bm25 bm25;
  bm25.k1 = options.k1;
  bm25.b = options.b;
  bm25.num_docs = corpus.size();
  bm25.avg_doc_length =
      corpus.size() > 0 && corpus.total_tokens() > 0
          ? static_cast<double>(corpus.total_tokens()) /
                static_cast<double>(corpus.size())
          : 1.0;
  return bm25;
}

}  // namespace

StatusOr<InvertedIndex> InvertedIndex::Build(const corpus::Corpus& corpus,
                                             const IndexOptions& options,
                                             const std::vector<double>& labels) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("index: block_size must be >= 1");
  }
  if (!(options.k1 > 0.0) || options.b < 0.0 || options.b > 1.0) {
    return Status::InvalidArgument("index: bad BM25 parameters");
  }
  if (!labels.empty() && labels.size() != corpus.size()) {
    return Status::InvalidArgument(
        "index: labels size does not match corpus size");
  }

  InvertedIndex ix;
  ix.block_size_ = options.block_size;
  ix.bm25_ = MakeBm25(corpus, options);

  const corpus::Vocabulary& vocab = corpus.vocabulary();
  ix.terms_.reserve(vocab.size());
  ix.term_ids_.reserve(vocab.size());
  for (uint32_t t = 0; t < vocab.size(); ++t) {
    ix.terms_.push_back(vocab.Term(t));
    if (!ix.term_ids_.emplace(ix.terms_.back(), t).second) {
      return Status::InvalidArgument("index: duplicate term in vocabulary");
    }
  }

  ix.docs_.reserve(corpus.size());
  for (size_t d = 0; d < corpus.size(); ++d) {
    const corpus::Document& doc = corpus.doc(d);
    DocInfo info;
    info.external_id = doc.external_id;
    info.timestamp = doc.timestamp;
    info.length = doc.length;
    info.label = labels.empty() ? 0.0 : labels[d];
    ix.docs_.push_back(info);
  }

  // Invert: one pass to gather (doc, tf) per term, then encode. Documents
  // arrive in id order, so each term's postings are already sorted.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> acc(vocab.size());
  for (size_t d = 0; d < corpus.size(); ++d) {
    for (const corpus::TermCount& tc : corpus.doc(d).counts) {
      if (tc.term >= vocab.size()) {
        return Status::InvalidArgument("index: term id out of vocabulary");
      }
      if (tc.count == 0) continue;
      acc[tc.term].emplace_back(static_cast<uint32_t>(d), tc.count);
    }
  }

  ix.postings_.reserve(vocab.size());
  PostingListBuilder builder(options.block_size);
  for (uint32_t t = 0; t < vocab.size(); ++t) {
    const double idf = ix.bm25_.IdfWeight(acc[t].size());
    for (const auto& [doc, tf] : acc[t]) builder.Add(doc, tf);
    ix.postings_.push_back(builder.Finalize([&](uint32_t doc, uint32_t tf) {
      return ix.bm25_.Score(idf, tf, ix.docs_[doc].length);
    }));
  }
  return ix;
}

uint32_t InvertedIndex::TermId(std::string_view term) const {
  auto it = term_ids_.find(term);
  return it == term_ids_.end() ? corpus::kUnknownTerm : it->second;
}

std::vector<uint32_t> InvertedIndex::LookupTerms(
    const std::vector<std::string>& terms) const {
  std::vector<uint32_t> ids;
  ids.reserve(terms.size());
  for (const std::string& t : terms) {
    const uint32_t id = TermId(t);
    if (id != corpus::kUnknownTerm && postings_[id].doc_count > 0) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<SearchResult> InvertedIndex::TopK(
    const std::vector<std::string>& terms, size_t k, QueryStats* stats) const {
  std::vector<SearchResult> heap;
  if (stats != nullptr) *stats = QueryStats{};
  const std::vector<uint32_t> ids = LookupTerms(terms);
  if (k == 0 || ids.empty()) return heap;
  if (stats != nullptr) stats->terms_matched = ids.size();

  // Cursors in term-id (canonical scoring) order.
  struct TermCursor {
    double idf;
    double ub;  // inflated term-level upper bound
    PostingCursor cursor;
  };
  std::vector<TermCursor> tc;
  tc.reserve(ids.size());
  for (uint32_t id : ids) {
    const PostingList& list = postings_[id];
    tc.push_back(TermCursor{bm25_.IdfWeight(list.doc_count),
                            InflateBound(list.max_score),
                            PostingCursor(&list)});
  }
  const size_t T = tc.size();

  // MaxScore partition: cursors sorted by term upper bound ascending;
  // the cheapest `non_essential` of them have bounds summing to <= the
  // heap threshold, so a document found in none of the remaining
  // (essential) lists cannot enter the heap.
  std::vector<size_t> order(T);
  for (size_t i = 0; i < T; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (tc[a].ub != tc[b].ub) return tc[a].ub < tc[b].ub;
    return a < b;
  });
  std::vector<double> prefix(T);  // left fold of bounds in `order`
  double run = 0.0;
  for (size_t i = 0; i < T; ++i) {
    run += tc[order[i]].ub;
    prefix[i] = run;
  }

  double theta = 0.0;  // valid only once the heap is full
  bool full = false;
  size_t non_essential = 0;
  const auto recompute_partition = [&] {
    non_essential = 0;
    while (non_essential < T && prefix[non_essential] <= theta) {
      ++non_essential;
    }
  };

  std::vector<double> suffix(T + 1);  // per-candidate pruning bounds
  while (true) {
    if (full && non_essential >= T) break;  // nothing can beat theta
    // Next candidate: smallest doc on any essential cursor.
    uint32_t d = kInvalidDoc;
    for (size_t i = full ? non_essential : 0; i < T; ++i) {
      const uint32_t cd = tc[order[i]].cursor.doc();
      if (cd < d) d = cd;
    }
    if (d == kInvalidDoc) break;
    if (stats != nullptr) ++stats->candidates;

    // Suffix bounds over cursors (term-id order) that can still touch d:
    // cursors already past d contribute nothing to its score.
    suffix[T] = 0.0;
    for (size_t i = T; i-- > 0;) {
      const PostingCursor& c = tc[i].cursor;
      const bool eligible = !c.exhausted() && c.doc() <= d;
      suffix[i] = suffix[i + 1] + (eligible ? c.tail_max() : 0.0);
    }

    bool pruned = full && suffix[0] <= theta;
    double score = 0.0;
    if (!pruned) {
      // Exact scoring fold, canonical term-id order — the identical
      // operation sequence BruteForceTopK performs for this document.
      for (size_t i = 0; i < T; ++i) {
        if (full && score + suffix[i] <= theta) {
          pruned = true;  // cannot strictly exceed theta
          break;
        }
        PostingCursor& c = tc[i].cursor;
        if (!c.exhausted() && c.doc() < d) c.NextGeq(d);
        if (!c.exhausted() && c.doc() == d) {
          score += bm25_.Score(tc[i].idf, c.freq(), docs_[d].length);
        }
      }
    }
    if (!pruned) {
      if (stats != nullptr) ++stats->docs_scored;
      if (!full) {
        heap.push_back(SearchResult{d, score});
        std::push_heap(heap.begin(), heap.end(), BetterHit);
        if (heap.size() == k) {
          full = true;
          theta = heap.front().score;
          recompute_partition();
        }
      } else if (score > theta) {
        std::pop_heap(heap.begin(), heap.end(), BetterHit);
        heap.back() = SearchResult{d, score};
        std::push_heap(heap.begin(), heap.end(), BetterHit);
        theta = heap.front().score;
        recompute_partition();
      }
    }
    // Progress: step every cursor sitting on d.
    for (size_t i = 0; i < T; ++i) {
      if (!tc[i].cursor.exhausted() && tc[i].cursor.doc() == d) {
        tc[i].cursor.Next();
      }
    }
  }

  if (stats != nullptr) {
    for (const TermCursor& c : tc) stats->blocks_decoded += c.cursor.blocks_decoded();
  }
  SortRanking(&heap);
  return heap;
}

std::vector<SearchResult> BruteForceTopK(const corpus::Corpus& corpus,
                                         const IndexOptions& options,
                                         const std::vector<std::string>& terms,
                                         size_t k) {
  std::vector<SearchResult> hits;
  if (k == 0) return hits;
  const corpus::Vocabulary& vocab = corpus.vocabulary();
  std::vector<uint32_t> ids;
  for (const std::string& t : terms) {
    const uint32_t id = vocab.Get(t);
    if (id != corpus::kUnknownTerm && vocab.doc_freq(id) > 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.empty()) return hits;

  const Bm25 bm25 = MakeBm25(corpus, options);
  std::vector<double> idf(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    idf[i] = bm25.IdfWeight(vocab.doc_freq(ids[i]));
  }

  for (size_t d = 0; d < corpus.size(); ++d) {
    const corpus::Document& doc = corpus.doc(d);
    double score = 0.0;
    bool matched = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      // counts are sorted by term id.
      auto it = std::lower_bound(
          doc.counts.begin(), doc.counts.end(), ids[i],
          [](const corpus::TermCount& tc, uint32_t t) { return tc.term < t; });
      if (it != doc.counts.end() && it->term == ids[i] && it->count > 0) {
        matched = true;
        score += bm25.Score(idf[i], it->count, doc.length);
      }
    }
    if (matched) hits.push_back(SearchResult{static_cast<uint32_t>(d), score});
  }
  std::sort(hits.begin(), hits.end(), [](const SearchResult& a,
                                         const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

void InvertedIndex::AppendTo(std::string* out) const {
  PutU64(out, bm25_.num_docs);
  PutF64(out, bm25_.avg_doc_length);
  PutF64(out, bm25_.k1);
  PutF64(out, bm25_.b);
  PutU32(out, static_cast<uint32_t>(block_size_));
  for (const DocInfo& d : docs_) {
    PutU64(out, static_cast<uint64_t>(d.external_id));
    PutU64(out, static_cast<uint64_t>(d.timestamp));
    PutVarint32(out, d.length);
    PutF64(out, d.label);
  }
  PutU32(out, static_cast<uint32_t>(terms_.size()));
  for (size_t t = 0; t < terms_.size(); ++t) {
    const PostingList& list = postings_[t];
    PutLengthPrefixed(out, terms_[t]);
    PutVarint32(out, list.doc_count);
    PutF64(out, list.max_score);
    PutVarint32(out, static_cast<uint32_t>(list.blocks.size()));
    uint64_t prev_end = 0;
    for (size_t b = 0; b < list.blocks.size(); ++b) {
      const PostingBlockMeta& meta = list.blocks[b];
      const uint64_t end = b + 1 < list.blocks.size()
                               ? list.blocks[b + 1].offset
                               : list.bytes.size();
      PutVarint32(&*out, meta.last_doc);
      PutVarint32(&*out, meta.count);
      PutVarint64(&*out, end - meta.offset);  // block byte length
      PutF64(&*out, meta.max_score);
      prev_end = end;
    }
    (void)prev_end;
    PutLengthPrefixed(out, list.bytes);
  }
}

StatusOr<InvertedIndex> InvertedIndex::Parse(std::string_view body) {
  InvertedIndex ix;
  ByteReader reader(body);
  uint64_t num_docs = 0;
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadU64(&num_docs));
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&ix.bm25_.avg_doc_length));
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&ix.bm25_.k1));
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&ix.bm25_.b));
  uint32_t block_size = 0;
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadU32(&block_size));
  if (block_size == 0) {
    return Status::ParseError("index: block_size must be >= 1");
  }
  if (!(ix.bm25_.avg_doc_length > 0.0) || !(ix.bm25_.k1 > 0.0) ||
      ix.bm25_.b < 0.0 || ix.bm25_.b > 1.0) {
    return Status::ParseError("index: bad BM25 parameters");
  }
  ix.bm25_.num_docs = num_docs;
  ix.block_size_ = block_size;
  // Each doc entry is >= 21 bytes; an implausible num_docs is caught here
  // rather than by attempting a huge allocation.
  if (num_docs > reader.remaining() / 21) {
    return Status::ParseError("index: doc table larger than input");
  }
  ix.docs_.reserve(static_cast<size_t>(num_docs));
  for (uint64_t d = 0; d < num_docs; ++d) {
    DocInfo info;
    uint64_t ext = 0;
    uint64_t ts = 0;
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadU64(&ext));
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadU64(&ts));
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint32(&info.length));
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&info.label));
    info.external_id = static_cast<int64_t>(ext);
    info.timestamp = static_cast<int64_t>(ts);
    ix.docs_.push_back(info);
  }
  uint32_t num_terms = 0;
  NEWSDIFF_RETURN_IF_ERROR(reader.ReadU32(&num_terms));
  // Each term entry is >= 11 bytes (length prefix, doc_count, max_score,
  // block count) — same anti-over-allocation guard as the doc table.
  if (num_terms > reader.remaining() / 11) {
    return Status::ParseError("index: term table larger than input");
  }
  ix.terms_.reserve(num_terms);
  ix.postings_.reserve(num_terms);
  for (uint32_t t = 0; t < num_terms; ++t) {
    std::string_view term;
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&term));
    PostingList list;
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint32(&list.doc_count));
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&list.max_score));
    uint32_t num_blocks = 0;
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint32(&num_blocks));
    if (num_blocks > reader.remaining()) {
      return Status::ParseError("index: block table larger than input");
    }
    list.blocks.reserve(num_blocks);
    uint64_t offset = 0;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      PostingBlockMeta meta;
      uint64_t byte_len = 0;
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint32(&meta.last_doc));
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint32(&meta.count));
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadVarint64(&byte_len));
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadF64(&meta.max_score));
      if (meta.count == 0 || meta.count > block_size) {
        return Status::ParseError("index: bad block count");
      }
      // A posting encodes to >= 2 bytes (doc varint + tf varint), so a
      // count exceeding the block's byte length cannot be real; rejecting
      // it here bounds DecodeBlock's scratch allocation by the input size.
      if (meta.count > byte_len) {
        return Status::ParseError("index: block count larger than its bytes");
      }
      meta.offset = offset;
      if (byte_len > reader.remaining()) {
        return Status::ParseError("index: block length larger than input");
      }
      offset += byte_len;
      list.blocks.push_back(meta);
    }
    std::string_view bytes;
    NEWSDIFF_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&bytes));
    if (bytes.size() != offset) {
      return Status::ParseError("index: posting bytes length mismatch");
    }
    list.bytes.assign(bytes);
    // Structural proof before any cursor touches the list: every block
    // decodes, ids are strictly increasing and in range, counts add up.
    NEWSDIFF_RETURN_IF_ERROR(ValidatePostingList(
        list, num_docs > 0xFFFFFFFFull ? 0xFFFFFFFFu
                                       : static_cast<uint32_t>(num_docs)));
    list.ComputeTailMax();
    const uint32_t id = static_cast<uint32_t>(ix.terms_.size());
    ix.terms_.emplace_back(term);
    if (!ix.term_ids_.emplace(ix.terms_.back(), id).second) {
      return Status::ParseError("index: duplicate term");
    }
    ix.postings_.push_back(std::move(list));
  }
  if (!reader.done()) {
    return Status::ParseError("index: trailing bytes after body");
  }
  return ix;
}

std::string IndexFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "INDEX-%010llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

StatusOr<uint64_t> ParseIndexFileName(const std::string& name) {
  if (name.size() != kIndexFilePrefix.size() + 10 ||
      name.compare(0, kIndexFilePrefix.size(), kIndexFilePrefix) != 0) {
    return Status::ParseError("index: not an index file name: " + name);
  }
  uint64_t gen = 0;
  for (size_t i = kIndexFilePrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return Status::ParseError("index: not an index file name: " + name);
    }
    gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  if (IndexFileName(gen) != name) {
    return Status::ParseError("index: non-canonical index file name: " + name);
  }
  return gen;
}

IndexStore::IndexStore(FileIo& io, std::string dir, size_t retain)
    : io_(io), dir_(std::move(dir)), retain_(retain == 0 ? 1 : retain) {}

std::string IndexStore::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

StatusOr<std::vector<std::pair<uint64_t, std::string>>>
IndexStore::ListGenerations() {
  std::vector<std::pair<uint64_t, std::string>> found;
  if (!io_.Exists(dir_)) return found;
  StatusOr<std::vector<std::string>> names = io_.ListDir(dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    StatusOr<uint64_t> gen = ParseIndexFileName(name);
    if (gen.ok()) found.emplace_back(*gen, name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

Status IndexStore::Save(const std::map<std::string, InvertedIndex>& indexes) {
  NEWSDIFF_RETURN_IF_ERROR(io_.CreateDirectories(dir_));
  StatusOr<std::vector<std::pair<uint64_t, std::string>>> gens =
      ListGenerations();
  if (!gens.ok()) return gens.status();
  uint64_t next = generation_;
  if (!gens->empty()) next = std::max(next, gens->back().first);
  ++next;

  std::string file(kIndexMagic);
  PutU32(&file, static_cast<uint32_t>(indexes.size()));
  std::string body;
  for (const auto& [name, ix] : indexes) {
    body.clear();
    ix.AppendTo(&body);
    PutLengthPrefixed(&file, name);
    PutU32(&file, Crc32(body));
    PutLengthPrefixed(&file, body);
  }
  NEWSDIFF_RETURN_IF_ERROR(
      WriteFileAtomic(io_, PathFor(IndexFileName(next)), file));
  generation_ = next;

  // Best-effort prune: stale generations are garbage, not state.
  if (gens->size() + 1 > retain_) {
    const size_t drop = gens->size() + 1 - retain_;
    for (size_t i = 0; i < drop && i < gens->size(); ++i) {
      (void)io_.Remove(PathFor((*gens)[i].second));
    }
  }
  return Status::OK();
}

StatusOr<IndexLoadReport> IndexStore::Load(
    std::map<std::string, InvertedIndex>* out) {
  out->clear();
  IndexLoadReport report;
  StatusOr<std::vector<std::pair<uint64_t, std::string>>> gens =
      ListGenerations();
  if (!gens.ok()) return gens.status();
  for (size_t i = gens->size(); i-- > 0;) {
    const auto& [gen, name] = (*gens)[i];
    StatusOr<std::string> data = io_.ReadFile(PathFor(name));
    if (!data.ok()) {
      report.damaged_skipped.push_back(name);
      continue;
    }
    std::map<std::string, InvertedIndex> parsed;
    Status st = [&]() -> Status {
      ByteReader reader(*data);
      std::string_view magic;
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadBytes(kIndexMagic.size(), &magic));
      if (magic != kIndexMagic) {
        return Status::ParseError("index: bad magic");
      }
      uint32_t sections = 0;
      NEWSDIFF_RETURN_IF_ERROR(reader.ReadU32(&sections));
      for (uint32_t s = 0; s < sections; ++s) {
        std::string_view sec_name;
        NEWSDIFF_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&sec_name));
        uint32_t crc = 0;
        NEWSDIFF_RETURN_IF_ERROR(reader.ReadU32(&crc));
        std::string_view sec_body;
        NEWSDIFF_RETURN_IF_ERROR(reader.ReadLengthPrefixed(&sec_body));
        if (Crc32(sec_body) != crc) {
          return Status::ParseError("index: section CRC mismatch");
        }
        StatusOr<InvertedIndex> ix = InvertedIndex::Parse(sec_body);
        if (!ix.ok()) return ix.status();
        if (!parsed.emplace(std::string(sec_name), std::move(*ix)).second) {
          return Status::ParseError("index: duplicate section name");
        }
      }
      if (!reader.done()) {
        return Status::ParseError("index: trailing bytes after sections");
      }
      return Status::OK();
    }();
    if (!st.ok()) {
      report.damaged_skipped.push_back(name);
      continue;
    }
    *out = std::move(parsed);
    report.generation = gen;
    generation_ = gen;
    return report;
  }
  return report;  // nothing intact on disk: generation 0, empty out
}

}  // namespace newsdiff::index
