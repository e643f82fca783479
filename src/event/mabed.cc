#include "event/mabed.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "text/stopwords.h"

namespace newsdiff::event {
namespace {

/// Per-term sparse mention counts: (slice, count) pairs sorted by slice.
struct SliceCounts {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  uint64_t total = 0;
};

/// Candidate event before related-word expansion.
struct Candidate {
  uint32_t term;
  size_t start_slice;
  size_t end_slice;
  double magnitude;
};

/// Maximum-sum contiguous interval (Kadane) over the anomaly series
/// a_i = N_i - E_i, where the term's expected count in slice i is its total
/// count spread proportionally to overall slice activity. Returns the
/// best [start, end] and its sum.
void MaxAnomalyInterval(const SliceCounts& counts,
                        const std::vector<double>& slice_share,
                        size_t num_slices, size_t* best_start,
                        size_t* best_end, double* best_sum) {
  double cur = 0.0;
  size_t cur_start = 0;
  double best = -1.0;
  size_t bs = 0, be = 0;
  size_t entry = 0;
  const double total = static_cast<double>(counts.total);
  for (size_t i = 0; i < num_slices; ++i) {
    double observed = 0.0;
    if (entry < counts.entries.size() && counts.entries[entry].first == i) {
      observed = counts.entries[entry].second;
      ++entry;
    }
    double anomaly = observed - total * slice_share[i];
    cur += anomaly;
    if (cur < 0.0) {
      cur = 0.0;
      cur_start = i + 1;
    } else if (cur > best) {
      best = cur;
      bs = cur_start;
      be = i;
    }
  }
  *best_start = bs;
  *best_end = be;
  *best_sum = best;
}

}  // namespace

double RelatedWordWeight(const std::vector<double>& main_series,
                         const std::vector<double>& candidate_series) {
  const size_t n = main_series.size();
  if (n != candidate_series.size() || n < 3) return 0.0;
  // First differences over i = a+1 .. b.
  double num = 0.0, var_main = 0.0, var_cand = 0.0;
  for (size_t i = 1; i < n; ++i) {
    double dm = main_series[i] - main_series[i - 1];
    double dc = candidate_series[i] - candidate_series[i - 1];
    num += dm * dc;
    var_main += dm * dm;
    var_cand += dc * dc;
  }
  if (var_main <= 0.0 || var_cand <= 0.0) return 0.0;
  // rho in [-1, 1] (Eq. 10, corrected Erdem coefficient), mapped to [0, 1]
  // by Eq. 9: w = (rho + 1) / 2.
  double rho = num / std::sqrt(var_main * var_cand);
  return (rho + 1.0) / 2.0;
}

bool Mabed::DocumentBelongsToEvent(const corpus::Document& doc,
                                   const Event& ev,
                                   double related_fraction) {
  if (doc.timestamp < ev.start_time || doc.timestamp > ev.end_time) {
    return false;
  }
  // counts lists each distinct term once, sorted by term id: the main word
  // is a binary search, and a term repeated in the document, or in
  // related_terms, is one hit.
  auto it = std::lower_bound(
      doc.counts.begin(), doc.counts.end(), ev.main_term,
      [](const corpus::TermCount& tc, uint32_t t) { return tc.term < t; });
  if (it == doc.counts.end() || it->term != ev.main_term) return false;
  if (ev.related_terms.empty()) return true;
  size_t related_hits = 0;
  for (const corpus::TermCount& tc : doc.counts) {
    if (std::find(ev.related_terms.begin(), ev.related_terms.end(),
                  tc.term) != ev.related_terms.end()) {
      ++related_hits;
    }
  }
  double frac = static_cast<double>(related_hits) /
                static_cast<double>(ev.related_terms.size());
  return frac + 1e-12 >= related_fraction;
}

StatusOr<std::vector<Event>> Mabed::Detect(const corpus::Corpus& corp) const {
  if (corp.size() == 0) {
    return Status::InvalidArgument("corpus is empty");
  }
  stats_ = MabedStats();
  WallTimer timer;

  // --- Partition phase: time slices and per-term mention counts. ---
  UnixSeconds t_min = corp.doc(0).timestamp;
  UnixSeconds t_max = t_min;
  for (const corpus::Document& d : corp.docs()) {
    t_min = std::min(t_min, d.timestamp);
    t_max = std::max(t_max, d.timestamp);
  }
  TimeSlicer slicer(t_min, t_max, options_.time_slice_seconds);
  const size_t s = slicer.num_slices();

  const size_t vocab_size = corp.vocabulary().size();
  std::vector<SliceCounts> counts(vocab_size);
  std::vector<uint32_t> docs_per_slice(s, 0);

  // Documents are scanned once; counts are appended in slice order per term
  // as long as documents arrive time-sorted. A final sort fixes any
  // unsorted input.
  std::vector<uint32_t> scratch;
  for (const corpus::Document& doc : corp.docs()) {
    uint32_t slice = static_cast<uint32_t>(slicer.SliceOf(doc.timestamp));
    ++docs_per_slice[slice];
    scratch.clear();
    for (const corpus::TermCount& tc : doc.counts) scratch.push_back(tc.term);
    for (uint32_t term : scratch) {
      SliceCounts& sc = counts[term];
      if (!sc.entries.empty() && sc.entries.back().first == slice) {
        ++sc.entries.back().second;
      } else {
        sc.entries.emplace_back(slice, 1);
      }
      ++sc.total;
    }
  }
  // Per-term fixups are independent; shard over the vocabulary.
  ParallelFor(options_.parallelism, counts.size(),
              [&](size_t, size_t begin, size_t end) {
    for (size_t term = begin; term < end; ++term) {
      SliceCounts& sc = counts[term];
      if (!std::is_sorted(sc.entries.begin(), sc.entries.end(),
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          })) {
        std::sort(sc.entries.begin(), sc.entries.end());
        // Merge duplicate slices produced by unsorted input.
        std::vector<std::pair<uint32_t, uint32_t>> merged;
        for (const auto& e : sc.entries) {
          if (!merged.empty() && merged.back().first == e.first) {
            merged.back().second += e.second;
          } else {
            merged.push_back(e);
          }
        }
        sc.entries = std::move(merged);
      }
    }
  });

  std::vector<double> slice_share(s, 0.0);
  const double total_docs = static_cast<double>(corp.size());
  for (size_t i = 0; i < s; ++i) {
    slice_share[i] = static_cast<double>(docs_per_slice[i]) / total_docs;
  }

  // Slice -> document ids, so candidate expansion only scans interval docs.
  std::vector<std::vector<uint32_t>> docs_by_slice(s);
  for (size_t d = 0; d < corp.size(); ++d) {
    docs_by_slice[slicer.SliceOf(corp.doc(d).timestamp)].push_back(
        static_cast<uint32_t>(d));
  }
  stats_.partition_seconds = timer.ElapsedSeconds();
  timer.Restart();

  // --- Detection phase: anomaly intervals for every candidate main word. ---
  // The scan is sharded over terms; per-shard hits are concatenated in
  // shard order, which is exactly the ascending-term order the serial loop
  // produces — detected candidates are bitwise identical either way.
  const size_t scan_shards =
      ResolveShards(options_.parallelism, static_cast<size_t>(vocab_size));
  std::vector<std::vector<Candidate>> shard_candidates(
      std::max<size_t>(scan_shards, 1));
  ParallelFor(options_.parallelism, vocab_size,
              [&](size_t shard, size_t begin, size_t end) {
    std::vector<Candidate>& local = shard_candidates[shard];
    for (size_t t = begin; t < end; ++t) {
      const uint32_t term = static_cast<uint32_t>(t);
      if (corp.vocabulary().doc_freq(term) < options_.min_main_doc_freq) {
        continue;
      }
      const std::string& word = corp.vocabulary().Term(term);
      if (options_.filter_stopword_mains && text::IsStopword(word)) continue;
      size_t a = 0, b = 0;
      double mag = 0.0;
      MaxAnomalyInterval(counts[term], slice_share, s, &a, &b, &mag);
      if (mag <= 0.0) continue;
      local.push_back({term, a, b, mag});
    }
  });
  std::vector<Candidate> candidates;
  for (const std::vector<Candidate>& local : shard_candidates) {
    candidates.insert(candidates.end(), local.begin(), local.end());
  }
  stats_.candidate_events = candidates.size();

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.magnitude != y.magnitude) return x.magnitude > y.magnitude;
              return x.term < y.term;
            });

  // Expand candidates into events with related words, dedup as we go, and
  // stop once max_events survive. Examine a bounded multiple of the target
  // so dedup has material to work with.
  const size_t examine_limit =
      std::min(candidates.size(), options_.max_events * 4 + 64);

  std::vector<Event> events;
  auto overlaps = [&](const Event& x, const Event& y) {
    size_t lo = std::max(x.start_slice, y.start_slice);
    size_t hi = std::min(x.end_slice, y.end_slice);
    if (hi < lo) return false;
    double inter = static_cast<double>(hi - lo + 1);
    double shorter = static_cast<double>(
        std::min(x.end_slice - x.start_slice, y.end_slice - y.start_slice) +
        1);
    return inter / shorter >= options_.duplicate_overlap;
  };

  for (size_t ci = 0; ci < examine_limit && events.size() < options_.max_events;
       ++ci) {
    const Candidate& cand = candidates[ci];
    Event ev;
    ev.main_term = cand.term;
    ev.main_word = corp.vocabulary().Term(cand.term);
    ev.start_slice = cand.start_slice;
    ev.end_slice = cand.end_slice;
    ev.start_time = slicer.SliceStart(cand.start_slice);
    ev.end_time = slicer.SliceEnd(cand.end_slice) - 1;
    ev.magnitude = cand.magnitude;

    // Interval needs at least 3 slices for the auto-correlation weights;
    // widen degenerate intervals by one slice on each side.
    size_t a = ev.start_slice, b = ev.end_slice;
    while (b - a + 1 < 3) {
      if (a > 0) --a;
      if (b + 1 < s) ++b;
      if (a == 0 && b + 1 >= s) break;
    }

    // Main-word series over [a, b].
    const size_t len = b - a + 1;
    std::vector<double> main_series(len, 0.0);
    for (const auto& [slice, c] : counts[cand.term].entries) {
      if (slice >= a && slice <= b) main_series[slice - a] = c;
    }

    // Candidate related words: co-occurring terms in interval documents
    // containing the main word; count support while at it.
    std::unordered_map<uint32_t, uint32_t> cooc;
    size_t support = 0;
    for (size_t slice = ev.start_slice; slice <= ev.end_slice; ++slice) {
      for (uint32_t d : docs_by_slice[slice]) {
        const corpus::Document& doc = corp.doc(d);
        // counts are sorted by term id, so membership is a binary search.
        auto it = std::lower_bound(
            doc.counts.begin(), doc.counts.end(), cand.term,
            [](const corpus::TermCount& tc, uint32_t t) { return tc.term < t; });
        if (it == doc.counts.end() || it->term != cand.term) continue;
        ++support;
        for (const corpus::TermCount& tc : doc.counts) {
          if (tc.term != cand.term) ++cooc[tc.term];
        }
      }
    }
    ev.support = support;
    if (support < options_.min_support) continue;

    // Keep the strongest co-occurring terms as correlation candidates.
    std::vector<std::pair<uint32_t, uint32_t>> by_cooc(cooc.begin(),
                                                       cooc.end());
    std::sort(by_cooc.begin(), by_cooc.end(),
              [](const auto& x, const auto& y) {
                if (x.second != y.second) return x.second > y.second;
                return x.first < y.first;
              });
    const size_t probe = std::min<size_t>(by_cooc.size(), 64);
    std::vector<std::pair<double, uint32_t>> weighted;
    std::vector<double> cand_series(len);
    for (size_t i = 0; i < probe; ++i) {
      uint32_t term = by_cooc[i].first;
      if (options_.filter_stopword_mains &&
          text::IsStopword(corp.vocabulary().Term(term))) {
        continue;
      }
      std::fill(cand_series.begin(), cand_series.end(), 0.0);
      for (const auto& [slice, c] : counts[term].entries) {
        if (slice >= a && slice <= b) cand_series[slice - a] = c;
      }
      double w = RelatedWordWeight(main_series, cand_series);
      if (w >= options_.min_related_weight) {
        weighted.emplace_back(w, term);
      }
    }
    std::sort(weighted.begin(), weighted.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    if (weighted.size() > options_.max_related_words) {
      weighted.resize(options_.max_related_words);
    }
    for (const auto& [w, term] : weighted) {
      ev.related_terms.push_back(term);
      ev.related_words.push_back(corp.vocabulary().Term(term));
      ev.related_weights.push_back(w);
    }

    // Dedup against accepted events.
    bool duplicate = false;
    for (const Event& other : events) {
      bool word_clash = other.main_term == ev.main_term;
      if (!word_clash) {
        for (uint32_t t : other.related_terms) {
          if (t == ev.main_term) {
            word_clash = true;
            break;
          }
        }
        for (uint32_t t : ev.related_terms) {
          if (t == other.main_term) {
            word_clash = true;
            break;
          }
        }
      }
      if (word_clash && overlaps(other, ev)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++stats_.deduplicated_events;
      continue;
    }
    events.push_back(std::move(ev));
  }

  stats_.detect_seconds = timer.ElapsedSeconds();
  return events;
}

}  // namespace newsdiff::event
