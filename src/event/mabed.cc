#include "event/mabed.h"

#include <algorithm>
#include <cmath>

#include "text/stopwords.h"

namespace newsdiff::event {
namespace {

/// Per-term sparse mention counts: (slice, count) pairs sorted by slice,
/// and the term's posting list, the ids of the documents that contain it
/// in corpus order (so its length is the term's total count).
struct SliceCounts {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  std::vector<uint32_t> docs;
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
  const double total = static_cast<double>(counts.docs.size());
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

/// rho in [-1, 1] (Eq. 10, corrected Erdem coefficient) from the summed
/// difference products, mapped to [0, 1] by Eq. 9: w = (rho + 1) / 2.
double WeightFromSums(double num, double var_main, double var_cand) {
  if (var_main <= 0.0 || var_cand <= 0.0) return 0.0;
  double rho = num / std::sqrt(var_main * var_cand);
  return (rho + 1.0) / 2.0;
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
  return WeightFromSums(num, var_main, var_cand);
}

namespace internal {

MainWordDiffs DiffMainSeries(const std::vector<double>& main_series,
                             size_t first_slice) {
  MainWordDiffs main;
  main.first_slice = first_slice;
  main.diffs.assign(main_series.size(), 0.0);
  for (size_t i = 1; i < main_series.size(); ++i) {
    main.diffs[i] = main_series[i] - main_series[i - 1];
    main.variance += main.diffs[i] * main.diffs[i];
  }
  return main;
}

double SparseRelatedWordWeight(
    const MainWordDiffs& main,
    std::span<const std::pair<uint32_t, uint32_t>> entries) {
  const size_t n = main.diffs.size();
  if (n < 3) return 0.0;
  const size_t a = main.first_slice;
  const size_t b = a + n - 1;
  const auto first = std::lower_bound(
      entries.begin(), entries.end(), a,
      [](const std::pair<uint32_t, uint32_t>& e, size_t slice) {
        return e.first < slice;
      });
  double num = 0.0, var_cand = 0.0;
  auto add = [&](size_t i, double dc) {
    num += main.diffs[i] * dc;
    var_cand += dc * dc;
  };
  // At an entry's index i the difference is its count minus the previous
  // slice's (0 unless an entry in [a, b] is there); just after it, unless
  // the next entry is there, 0 minus its count.
  for (auto it = first; it != entries.end() && it->first <= b; ++it) {
    const size_t i = it->first - a;
    const double count = it->second;
    const bool prev_adjacent = it != first && (it - 1)->first + 1 == it->first;
    const bool next_adjacent =
        it + 1 != entries.end() && (it + 1)->first == it->first + 1;
    if (i >= 1) {
      add(i, count - (prev_adjacent ? (it - 1)->second : 0.0));
    }
    if (i + 1 < n && !next_adjacent) add(i + 1, 0.0 - count);
  }
  return WeightFromSums(num, main.variance, var_cand);
}

}  // namespace internal

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
  std::vector<uint32_t> doc_slice(corp.size());

  // Documents are scanned once; counts are appended in slice order per term
  // as long as documents arrive time-sorted. A final sort fixes any
  // unsorted input. Posting lists are in document order either way.
  for (size_t d = 0; d < corp.size(); ++d) {
    const corpus::Document& doc = corp.doc(d);
    const uint32_t slice = static_cast<uint32_t>(slicer.SliceOf(doc.timestamp));
    doc_slice[d] = slice;
    ++docs_per_slice[slice];
    for (const corpus::TermCount& tc : doc.counts) {
      SliceCounts& sc = counts[tc.term];
      if (!sc.entries.empty() && sc.entries.back().first == slice) {
        ++sc.entries.back().second;
      } else {
        sc.entries.emplace_back(slice, 1);
      }
      sc.docs.push_back(static_cast<uint32_t>(d));
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

  // Reused across candidates: co-occurrence counts by term, zero between
  // candidates, and each probed term's stopword flag (-1 until looked up).
  std::vector<uint32_t> cooc(vocab_size, 0);
  std::vector<std::pair<uint32_t, uint32_t>> by_cooc;
  std::vector<int8_t> stopword(vocab_size, -1);
  auto is_stopword = [&](uint32_t term) {
    if (stopword[term] < 0) {
      stopword[term] = text::IsStopword(corp.vocabulary().Term(term));
    }
    return stopword[term] == 1;
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

    // Main-word differences over [a, b], shared by every probe.
    std::vector<double> main_series(b - a + 1, 0.0);
    for (const auto& [slice, c] : counts[cand.term].entries) {
      if (slice >= a && slice <= b) main_series[slice - a] = c;
    }
    const internal::MainWordDiffs main =
        internal::DiffMainSeries(main_series, a);

    // Candidate related words: co-occurring terms in the interval documents
    // containing the main word, read off its posting list; count support
    // while at it. by_cooc lists each term on its first hit, and takes its
    // count once the list is done.
    size_t support = 0;
    by_cooc.clear();
    for (uint32_t d : counts[cand.term].docs) {
      if (doc_slice[d] < ev.start_slice || doc_slice[d] > ev.end_slice) {
        continue;
      }
      ++support;
      for (const corpus::TermCount& tc : corp.doc(d).counts) {
        if (tc.term != cand.term && cooc[tc.term]++ == 0) {
          by_cooc.emplace_back(tc.term, 0);
        }
      }
    }
    for (auto& [term, n] : by_cooc) {
      n = cooc[term];
      cooc[term] = 0;
    }
    ev.support = support;
    if (support < options_.min_support) continue;

    // Keep the strongest co-occurring terms as correlation candidates. The
    // order is strict and total, so the first 64 are those of a full sort.
    const size_t probe = std::min<size_t>(by_cooc.size(), 64);
    std::partial_sort(by_cooc.begin(), by_cooc.begin() + probe, by_cooc.end(),
                      [](const auto& x, const auto& y) {
                        if (x.second != y.second) return x.second > y.second;
                        return x.first < y.first;
                      });
    std::vector<std::pair<double, uint32_t>> weighted;
    for (size_t i = 0; i < probe; ++i) {
      const uint32_t term = by_cooc[i].first;
      if (options_.filter_stopword_mains && is_stopword(term)) continue;
      const double w =
          internal::SparseRelatedWordWeight(main, counts[term].entries);
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
