#ifndef NEWSDIFF_STORE_WAL_H_
#define NEWSDIFF_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_io.h"
#include "common/retry.h"
#include "common/status.h"
#include "store/collection.h"

namespace newsdiff::store {

/// Per-collection write-ahead logging (storage engine v2).
///
/// Snapshots (store/snapshot.h) rewrite every collection per generation —
/// O(store) bytes per refresh. The WAL makes the refresh cycle O(delta):
/// each mutation appends one length-prefixed, CRC-32'd record to its
/// collection's current log segment, and a group-commit policy syncs the
/// buffered tail every N records / T ms. Snapshots become *checkpoints*:
/// recovery loads the newest intact generation, then replays the log
/// segments based on it (and on any later committed generation) in order.
/// Crash loss is bounded by the unsynced group-commit window.
///
/// Records are *physical*: `put <id> <doc>` / `del <id>` describe absolute
/// slot state, so replaying a record that is already reflected in the
/// checkpoint is a no-op — replay is idempotent, which is what makes
/// crash-at-any-byte recovery byte-identical to an uninterrupted run.
///
/// Segment files are named `<collection>-<base_gen>-<part>.wal`: `base_gen`
/// is the snapshot generation the segment's records build on, `part` a
/// monotonically increasing piece number (rotation on size, on a poisoned
/// tail after a failed append, and on recovery — a recovered process never
/// appends after a torn tail, it starts a fresh part). Every segment begins
/// with a `seg` header record carrying the collection's slot count at the
/// segment's base state, so trailing dead slots survive recovery and DocId
/// assignment stays bitwise identical. A `ckpt <gen>` marker is appended
/// when a later checkpoint commits; segments are pruned only once their
/// base generation falls out of snapshot retention, and snapshot GC never
/// reaps a generation still referenced by a live segment.

/// One decoded log record.
struct WalRecord {
  enum class Type {
    kSegmentHeader,
    kPut,
    kDelete,
    kDrop,
    kCheckpoint,
    // Replication control: a new writer took over the store with fencing
    // token `token`. Tailing replicas record the token (ReplicaStats) and
    // use it to order leadership changes; it mutates no data.
    kPromotion,
  };
  Type type = Type::kPut;
  // kSegmentHeader: identity of the segment (validated against its file
  // name) plus the collection's slot count at the segment's base state.
  std::string collection;
  uint64_t base_generation = 0;
  uint64_t part = 0;
  uint64_t slot_count = 0;
  // kPut / kDelete.
  DocId id = 0;
  std::string doc_json;  // kPut only: compact JSON of the post-image
  Value doc;             // kPut, when read back: doc_json parsed (an object)
  // kCheckpoint: the snapshot generation whose manifest committed.
  uint64_t generation = 0;
  // kPromotion: the fencing token the promoted writer acquired, plus its
  // owner string (diagnostics; may contain spaces, parsed as the tail).
  uint64_t token = 0;
  std::string owner;

  /// True for the records that change data: put, del and drop.
  bool is_mutation() const {
    return type == Type::kPut || type == Type::kDelete || type == Type::kDrop;
  }
};

/// Renders one record in its framed on-disk form:
/// [u32le payload length][u32le CRC-32(payload)][payload].
std::string EncodeWalRecord(const WalRecord& record);

/// Parses a frame payload. Total on arbitrary input: damage yields
/// kParseError, never a crash. A put's or del's id must fit a DocId, and a
/// put's document must parse to a JSON object (filled into `doc`).
StatusOr<WalRecord> ParseWalPayload(std::string_view payload);

/// "news-0000000042-000003.wal" for collection "news", base generation 42,
/// part 3.
std::string WalSegmentFileName(const std::string& collection,
                               uint64_t base_generation, uint64_t part);

/// The components of a WAL segment file name.
struct WalSegmentName {
  std::string collection;
  uint64_t base_generation = 0;
  uint64_t part = 0;
};

/// Inverse of WalSegmentFileName; kParseError if `name` is not a
/// well-formed segment name.
StatusOr<WalSegmentName> ParseWalSegmentFileName(const std::string& name);

/// One segment discovered in a store directory.
struct WalSegmentInfo : WalSegmentName {
  std::string file;  // name within the directory
};

/// Extracts and orders (collection, base, part) the WAL segments from a
/// directory listing.
std::vector<WalSegmentInfo> ListWalSegments(
    const std::vector<std::string>& listing);

/// What a WalSegmentReader found at its position in a segment.
struct WalFrame {
  enum class Verdict {
    kRecord,    // a verified frame whose record fits the segment
    kEnd,       // no bytes left: a clean frame boundary
    kTorn,      // an incomplete frame: a torn append, or one still landing
    kCorrupt,   // a zero-length frame or a CRC mismatch
    kRejected,  // a CRC-valid frame whose record does not fit the segment
  };
  Verdict verdict = Verdict::kEnd;
  WalRecord record;     // kRecord only
  std::string problem;  // kTorn/kCorrupt/kRejected: what, at which offset
};

/// The one reader of a segment file. Recovery (Database::RecoverWal), the
/// replication tailer (store/replication.h) and tools/walcat all read
/// through it, so the same bytes get the same verdict everywhere. A frame
/// must be complete, non-empty and match its CRC; its record must parse
/// (ParseWalPayload) and fit the segment: the first record is the
/// segment's own header (collection, base generation and part as its file
/// name says), no later record is a header, and nothing follows a
/// checkpoint marker. Nothing after the first frame that is not a kRecord
/// can be trusted: recovery stops there, while the tailer re-reads a torn
/// or corrupt tail of a segment the writer may still be appending to.
class WalSegmentReader {
 public:
  explicit WalSegmentReader(WalSegmentName segment);

  /// Decodes the frame at the front of `*rest`, which holds the segment's
  /// bytes from offset() on. A kRecord advances offset() and `*rest` past
  /// the frame; any other verdict leaves both as they were.
  WalFrame Next(std::string_view* rest);

  const WalSegmentName& segment() const { return segment_; }
  /// Bytes of the segment consumed as kRecord frames so far.
  uint64_t offset() const { return offset_; }

 private:
  WalSegmentName segment_;
  uint64_t offset_ = 0;
  bool started_ = false;  // the segment header has been read
  bool closed_ = false;   // a checkpoint marker has been read
};

struct WalOptions {
  /// Group commit: buffered records are synced to the segment file once
  /// this many accumulate...
  size_t sync_every_records = 32;
  /// ...or once this many milliseconds pass since the oldest buffered
  /// record (checked at the next append — there is no background flusher;
  /// Sync() flushes unconditionally).
  int64_t sync_every_ms = 50;
  /// A segment rotates to a new part once its synced bytes exceed this.
  size_t max_segment_bytes = 4u << 20;
  /// Filesystem seam; nullptr uses the real filesystem.
  FileIo* io = nullptr;
  /// Clock for the time-based sync trigger; nullptr uses the wall clock.
  Clock* clock = nullptr;
  /// Fencing hook: consulted before every durable append. A non-OK return
  /// (e.g. store::Lease::Check after a lease takeover) fails the sync
  /// without writing, so a stale writer can never reach the shared log.
  std::function<Status()> write_gate;
};

struct WalWriterStats {
  size_t records_logged = 0;  // buffered (acknowledged to the caller)
  size_t records_synced = 0;  // durably appended
  size_t syncs = 0;           // AppendFile batches issued
  size_t bytes_synced = 0;
  size_t sync_failures = 0;   // failed appends (segment part poisoned)
};

/// Appender for a store directory's per-collection logs. Not thread-safe
/// (single-writer model, like the store itself — the lease enforces it
/// across processes).
class WalWriter {
 public:
  WalWriter(std::string dir, WalOptions options);

  /// Ensures a log is open for `collection`, whose in-memory slot count is
  /// `slot_count` *before* the mutation about to be logged. No-op when the
  /// collection's log is already open.
  void OpenSegment(const std::string& collection, uint64_t slot_count);

  /// Continues `collection`'s log after recovery: the next append goes to
  /// part `next_part` of base `base_generation` (never appending after a
  /// possibly-torn tail in an earlier part).
  void ResumeSegment(const std::string& collection, uint64_t base_generation,
                     uint64_t next_part, uint64_t slot_count);

  /// Buffers one record; may trigger a group-commit sync of this
  /// collection's pending tail. Record-buffering itself cannot fail; a
  /// non-OK return is a sync failure (the records stay pending and move to
  /// a fresh segment part for the next attempt).
  Status LogPut(const std::string& collection, DocId id, const Value& doc);
  Status LogDelete(const std::string& collection, DocId id);
  Status LogDrop(const std::string& collection);

  /// Buffers a replication-control promotion record (fenced failover, see
  /// store/replica.h): announces to every tailing replica that the writer
  /// holding fencing token `token` now owns this collection's log.
  Status LogPromotion(const std::string& collection, uint64_t token,
                      const std::string& owner);

  /// Flushes every collection's pending records. After an OK return the
  /// log covers every acknowledged mutation.
  Status Sync();

  /// Checkpoint protocol, called after generation `generation`'s manifest
  /// committed: appends a `ckpt` marker to each live segment, then rotates
  /// every collection's log to `<collection>-<generation>-000001.wal`.
  /// `slot_counts` holds each surviving collection's current slot count
  /// (collections absent from it were dropped and their logs closed).
  Status Checkpoint(uint64_t generation,
                    const std::map<std::string, uint64_t>& slot_counts);

  /// Best-effort deletion of segments whose base generation is older than
  /// `min_base` (their records are all reflected in every retained
  /// snapshot generation).
  void PruneSegments(uint64_t min_base);

  /// Base generation for segments of newly created collections.
  void set_base_generation(uint64_t generation) { base_generation_ = generation; }
  uint64_t base_generation() const { return base_generation_; }

  const std::string& dir() const { return dir_; }
  const WalOptions& options() const { return options_; }
  const WalWriterStats& stats() const { return stats_; }

 private:
  struct CollectionLog {
    uint64_t base = 0;
    uint64_t part = 1;
    bool header_pending = true;    // `seg` header not yet durably written
    uint64_t header_slot_count = 0;  // slot count at the segment base
    uint64_t slot_hint = 0;        // running slot count (for rotations)
    std::string pending;           // framed records awaiting group commit
    size_t pending_records = 0;
    int64_t first_pending_ms = 0;
    size_t segment_bytes = 0;      // durably appended to the current part
  };

  FileIo& io() const;
  Clock& clock() const;
  CollectionLog& Log(const std::string& collection);
  Status Buffer(const std::string& collection, const WalRecord& record);
  /// Syncs one collection's pending tail if the group-commit policy says
  /// so (`force` bypasses the policy).
  Status SyncLog(const std::string& collection, CollectionLog& log,
                 bool force);

  std::string dir_;
  WalOptions options_;
  uint64_t base_generation_ = 0;
  std::map<std::string, CollectionLog> logs_;
  WalWriterStats stats_;
};

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_WAL_H_
