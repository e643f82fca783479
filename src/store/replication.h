#ifndef NEWSDIFF_STORE_REPLICATION_H_
#define NEWSDIFF_STORE_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/file_io.h"
#include "common/status.h"
#include "store/wal.h"

namespace newsdiff::store {

/// Incremental reader for a live writer's write-ahead log (store/wal.h).
///
/// A WalTailer follows the per-collection segment files of a store another
/// process is writing, through the same FileIo seam the writer uses. Each
/// Poll() lists the directory, reads only the bytes appended since the last
/// poll (FileIo::ReadFileFrom — catch-up traffic is O(delta), not
/// O(store)), decodes them with the WalSegmentReader recovery uses, and
/// hands the accepted records to the caller in exactly the order recovery
/// (Database::RecoverWal) would replay them. The tailer is the read half
/// of replication; store/replica.h wraps it with a Database and fenced
/// promotion.
///
/// Reading a log that someone else is appending to means every anomaly is
/// ambiguous at first sight, and the tailer resolves each one the way that
/// keeps it byte-identical to recovery:
///
///   - *Torn tail*: an incomplete frame at the end of an open segment is
///     usually an append in flight (or a transient torn read) — the tailer
///     waits and re-reads from the same offset next poll. Only when a later
///     part for the collection exists is the segment closed, and a closed
///     segment's torn tail is permanent (a poisoned part the writer rotated
///     away from) — exactly the bytes recovery drops.
///   - *CRC mismatch* (or a zero-length frame): could be in-flight bit rot
///     on the read path
///     (transient — the next read redraws) or durable rot in the file. The
///     tailer never advances past an unverified frame; it declares the
///     damage durable only after `max_reject_polls` consecutive polls
///     observe the *identical* rejected bytes (a transient flip virtually
///     never repeats byte-for-byte), then stops scanning the segment, just
///     as recovery stops at the first damaged frame. Closed segments are
///     re-read whole (ReadFile, which cannot race an append), so their
///     verdicts are immediate and final.
///   - *Rejected record*: a CRC-valid record that does not fit the segment
///     (WalSegmentReader's kRejected) is durable damage, not a read
///     artifact; the tailer abandons the segment at once, as recovery
///     stops there and counts it.
///   - *Checkpoint marker*: records the generation and moves on to the
///     segment the writer rotated to.
///   - *Vanished segment*: a segment pruned while the cursor still needed
///     it means the tailer fell behind checkpoint retention; Poll returns
///     kUnavailable and the caller must resync from a newer snapshot
///     (Replica::Resync does this automatically).
///
/// Transient I/O failures (unreadable file or directory this instant) are
/// counted and retried on the next poll — Poll stays OK. Single-threaded,
/// like everything in the store; "concurrent" writer/tailer interleavings
/// are driven by alternating calls in tests.
struct WalTailerOptions {
  /// Filesystem seam; nullptr uses the real filesystem. Chaos tests inject
  /// datagen::FaultyFileIo with read_tear_rate / read_flip_rate here.
  FileIo* io = nullptr;
  /// How many consecutive polls must observe byte-identical rejected data
  /// before the damage is declared durable and the segment abandoned.
  size_t max_reject_polls = 3;
};

struct WalTailerStats {
  size_t polls = 0;
  size_t segments_tracked = 0;   // segments the tailer started reading
  size_t records_delivered = 0;  // verified records handed to the callback
  size_t bytes_read = 0;         // bytes fetched across all polls
  size_t torn_waits = 0;         // polls that ended at an incomplete tail
  size_t read_failures = 0;      // transient I/O errors, retried next poll
  size_t damaged_segments = 0;   // segments abandoned at durable damage
  uint64_t checkpoint_generation = 0;  // newest ckpt marker observed
  uint64_t fencing_token = 0;          // newest promotion token observed
  /// Bytes observed in the log but not yet consumed when the last poll
  /// finished — 0 means the tailer is caught up with everything durable.
  uint64_t bytes_behind = 0;
};

class WalTailer {
 public:
  /// Receives each accepted record in replay order. Segment headers are
  /// delivered too (they carry the slot count replicas must pad to). A
  /// non-OK return abandons the segment like a rejected record.
  using Apply =
      std::function<Status(const std::string& collection, const WalRecord&)>;

  /// Tails the segments under `dir` whose base generation is at least
  /// `base_generation` (the snapshot generation the caller's state was
  /// bootstrapped from).
  WalTailer(std::string dir, uint64_t base_generation,
            WalTailerOptions options = {});

  /// One incremental pass over the log. OK covers both progress and
  /// transient hiccups; kUnavailable means a needed segment was pruned and
  /// the caller must resync from a newer snapshot.
  Status Poll(const Apply& apply);

  const WalTailerStats& stats() const { return stats_; }
  uint64_t base_generation() const { return base_generation_; }
  const std::string& dir() const { return dir_; }

 private:
  /// Read position within one collection's segment sequence.
  struct Cursor {
    explicit Cursor(const WalSegmentName& segment) : reader(segment) {}

    WalSegmentReader reader;  // the segment under the cursor, and how far
    bool done = false;        // finished with this segment; advance
    std::string last_reject;  // unverified remainder at the last reject
    size_t reject_polls = 0;  // consecutive polls rejecting those bytes
    uint64_t unconsumed = 0;  // observed-but-unapplied bytes (behindness)
  };

  FileIo& io() const;
  /// Consumes the frames in `bytes` (the segment's contents from the
  /// reader's offset on). `closed` marks a segment that can no longer grow;
  /// its anomalies are final instead of awaited.
  void ConsumeDelta(const std::string& collection, Cursor& cursor,
                    std::string_view bytes, bool closed, const Apply& apply);
  /// Marks the cursor's segment abandoned at durable damage.
  void AbandonSegment(Cursor& cursor);

  std::string dir_;
  uint64_t base_generation_ = 0;
  WalTailerOptions options_;
  std::map<std::string, Cursor> cursors_;
  WalTailerStats stats_;
};

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_REPLICATION_H_
