#ifndef NEWSDIFF_EVENT_MABED_H_
#define NEWSDIFF_EVENT_MABED_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "common/time.h"
#include "corpus/corpus.h"
#include "event/time_slicer.h"

namespace newsdiff::event {

/// A detected event: a main word (the event label), weighted related words
/// (the event keywords), and the interval of interest — the three
/// characteristics listed in the paper's §4.4.
struct Event {
  /// The main word t whose mention anomaly defines the event.
  std::string main_word;
  uint32_t main_term = 0;
  /// Related words t'_q with weights w (Eq. 9), descending by weight.
  std::vector<std::string> related_words;
  std::vector<double> related_weights;
  std::vector<uint32_t> related_terms;
  /// Interval of interest I = [a, b] in slice indices, inclusive.
  size_t start_slice = 0;
  size_t end_slice = 0;
  /// The same interval in timestamps.
  UnixSeconds start_time = 0;
  UnixSeconds end_time = 0;
  /// Magnitude of impact: the summed mention anomaly over I.
  double magnitude = 0.0;
  /// Number of documents in the interval containing the main word.
  size_t support = 0;
};

/// MABED configuration.
struct MabedOptions {
  /// Time-slice width. The paper uses 60 min for news, 30 min for tweets.
  int64_t time_slice_seconds = 30 * kSecondsPerMinute;
  /// Number of events to return (top-K by magnitude of impact).
  size_t max_events = 100;
  /// Maximum number of related words per event (p in MABED).
  size_t max_related_words = 10;
  /// Minimum weight w_{t'} (Eq. 9) for a related word to be kept.
  /// MABED's default corresponds to a first-order auto-correlation > 0.4.
  double min_related_weight = 0.7;
  /// Candidate main words must appear in at least this many documents.
  uint32_t min_main_doc_freq = 10;
  /// Events whose interval contains fewer than this many supporting
  /// documents are dropped (the paper keeps events with >= 10 records).
  size_t min_support = 10;
  /// Drop candidate main words that are stopwords (pyMABED behaviour).
  bool filter_stopword_mains = true;
  /// Two events are duplicates when their main word coincides or one's
  /// main word is among the other's related words AND their intervals
  /// overlap by at least this fraction of the shorter interval.
  double duplicate_overlap = 0.3;
  /// Parallel execution of the per-term anomaly scan (the detection-phase
  /// hot loop). The scan is map-style over vocabulary terms, so detected
  /// events are bitwise identical at any thread/shard count.
  Parallelism parallelism;
};

/// Detection report with timing breakdown mirroring the paper's §5.3/§5.4
/// (corpus load / partition / detect phases).
struct MabedStats {
  double partition_seconds = 0.0;
  double detect_seconds = 0.0;
  size_t candidate_events = 0;
  size_t deduplicated_events = 0;
};

/// Runs MABED over a corpus whose documents carry timestamps.
/// Returns the top-K events by magnitude of impact. Deterministic.
class Mabed {
 public:
  explicit Mabed(MabedOptions options) : options_(options) {}

  /// Detects events in `corp`. The corpus must contain at least one
  /// document, and documents must have timestamps.
  StatusOr<std::vector<Event>> Detect(const corpus::Corpus& corp) const;

  /// Detection statistics from the last Detect call.
  const MabedStats& stats() const { return stats_; }

  /// True if the document (its term counts + timestamp) belongs to `ev`
  /// under the paper's assignment rule (§4.7): posted inside the event
  /// interval and containing the main word and at least `related_fraction`
  /// of the related words. Each distinct document term counts once.
  static bool DocumentBelongsToEvent(const corpus::Document& doc,
                                     const Event& ev,
                                     double related_fraction = 0.2);

 private:
  MabedOptions options_;
  mutable MabedStats stats_;
};

/// First-order auto-correlation weight of a candidate word against the main
/// word over the slice interval [a, b] (Eq. 9-10). `main_series` and
/// `candidate_series` are the per-slice mention counts N^i restricted to
/// [a, b] (inclusive; both must have the same length b-a+1 >= 3).
/// Implements the corrected Erdem et al. coefficient (see DESIGN.md).
double RelatedWordWeight(const std::vector<double>& main_series,
                         const std::vector<double>& candidate_series);

namespace internal {

/// The main word's half of Eq. 10 over [a, b], shared by every word probed
/// against it: diffs[i] = N_{a+i} - N_{a+i-1} for i = 1 .. b-a (diffs[0]
/// is 0) and `variance`, their squares summed in ascending i, as
/// RelatedWordWeight sums them.
struct MainWordDiffs {
  size_t first_slice = 0;
  std::vector<double> diffs;
  double variance = 0.0;
};

/// Differences `main_series`, the main word's counts over [a, b] with
/// a = `first_slice`.
MainWordDiffs DiffMainSeries(const std::vector<double>& main_series,
                             size_t first_slice);

/// RelatedWordWeight(main_series, candidate_series), bitwise, with the
/// candidate given as its (slice, count) entries in ascending slice order;
/// entries outside [a, b] are skipped by binary search. The candidate's
/// difference at i is nonzero only at an entry or just after one, so only
/// those terms of the Eq. 10 sums are visited. Every skipped product is an
/// exact zero, and adding +0.0 or -0.0 to a sum that starts at +0.0 (and so
/// is never -0.0) leaves its bits unchanged.
double SparseRelatedWordWeight(
    const MainWordDiffs& main,
    std::span<const std::pair<uint32_t, uint32_t>> entries);

}  // namespace internal

}  // namespace newsdiff::event

#endif  // NEWSDIFF_EVENT_MABED_H_
