#ifndef NEWSDIFF_STORE_DATABASE_H_
#define NEWSDIFF_STORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/collection.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace newsdiff::store {

/// A named set of collections with JSONL persistence — the embedded
/// substitute for the paper's MongoDB deployment. Collections are created
/// on first access. Persistence writes crash-safe, generation-numbered
/// snapshots (see store/snapshot.h): one `<collection>-<gen>.jsonl` per
/// collection plus a checksummed `MANIFEST-<gen>` committed last, so a
/// crash at any point leaves the previous generation loadable. Loading
/// replays the documents in order (fresh "_id"s are assigned, preserving
/// relative order) from the newest generation that verifies, falling back
/// past damaged ones. A directory without a manifest holds no committed
/// generation and loads nothing.
class Database {
 public:
  /// Creates an empty in-memory database.
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  // Defined out of line: the WAL binding is an incomplete type here.
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;

  /// Returns the collection, creating it if absent.
  Collection& GetOrCreate(const std::string& name);

  /// Returns the collection or nullptr if it does not exist.
  Collection* Get(const std::string& name);
  const Collection* Get(const std::string& name) const;

  /// Drops a collection; kNotFound if it does not exist (callers that
  /// treat "already gone" as success can ignore that code explicitly).
  Status Drop(const std::string& name);

  /// Names of all collections, sorted.
  std::vector<std::string> CollectionNames() const;

  /// Writes a new snapshot generation under `dir` (creating it if needed):
  /// every collection as `<name>-<gen>.jsonl` (one compact JSON document
  /// per line, written via temp+rename), then the checksummed manifest as
  /// the commit point. Retains the last `options.retain_generations`
  /// generations and garbage-collects everything else — including stale
  /// files from collections dropped since the previous save.
  Status SaveToDir(const std::string& dir) const;
  Status SaveToDir(const std::string& dir,
                   const SnapshotOptions& options) const;

  /// Loads the newest intact snapshot generation in `dir`, verifying the
  /// manifest self-CRC and every collection's CRC/doc count, and falling
  /// back to older generations when a newer one is damaged. Collections in
  /// the loaded generation replace same-named in-memory collections.
  /// A directory without a manifest installs nothing and returns OK with
  /// `report->generation` 0.
  Status LoadFromDir(const std::string& dir);
  Status LoadFromDir(const std::string& dir, const SnapshotOptions& options,
                     SnapshotLoadReport* report = nullptr);

  /// Write-ahead logging (storage engine v2; see store/wal.h). Once a WAL
  /// is attached, every mutation on every collection is logged before it is
  /// applied, and durability becomes O(delta): WalSync() flushes the
  /// group-commit buffer instead of rewriting the store. Snapshots turn
  /// into checkpoints taken via Checkpoint().
  ///
  /// Attaches a WAL under `dir` (the snapshot/checkpoint directory).
  /// Existing collections resume logging past any segment files already on
  /// disk — a recovered writer never appends after a possibly-torn tail.
  Status AttachWal(const std::string& dir, const WalOptions& options = {});

  bool wal_attached() const { return wal_ != nullptr; }

  /// The attached writer (stats, tests); nullptr when no WAL is attached.
  WalWriter* wal();

  /// Flushes all pending WAL records. After OK, every acknowledged
  /// mutation survives a crash. kFailedPrecondition when no WAL is
  /// attached, or when the write gate reports this writer fenced.
  Status WalSync();

  /// Checkpoint protocol: sync the WAL, write a snapshot generation (the
  /// manifest commit makes it the recovery base), append checkpoint
  /// markers and rotate every collection's log to the new base, then prune
  /// segments older than the oldest *retained* generation — a fallback
  /// generation keeps its log tail. Requires an attached WAL.
  Status Checkpoint(const SnapshotOptions& options = {});

  /// Crash recovery for a WAL-enabled store: loads the newest intact
  /// snapshot generation (preserving document ids), replays every intact
  /// log record based on it, reports replay statistics in `report`, and
  /// attaches the WAL for the write path. The result is byte-identical to
  /// the uninterrupted run up to the group-commit boundary. Works on a
  /// fresh or empty directory (starts empty with the WAL attached).
  Status RecoverWal(const std::string& dir,
                    const SnapshotOptions& snapshot_options,
                    const WalOptions& wal_options,
                    SnapshotLoadReport* report = nullptr);

  /// Replays one record that a WalSegmentReader accepted from
  /// `collection`'s log, through the idempotent restore path: a segment
  /// header pads the slot vector to its slot count, put/del/drop restore
  /// slot state, and checkpoint and promotion markers change nothing.
  /// Crash recovery (RecoverWal) and replicas (store/replica.h) both replay
  /// through it. kFailedPrecondition once a WAL is attached: replayed
  /// records must not be logged again.
  Status ApplyWalRecord(const std::string& collection, const WalRecord& record);

 private:
  struct WalBinding;

  /// Points `collection`'s mutation observer at the attached WAL binding
  /// (no-op when none is attached).
  void AttachObserver(Collection& collection);

  /// Buffers a drop record for `collection` on the attached WAL.
  void LogDrop(Collection& collection);
  /// Deletes manifests beyond the newest `retain_generations` and snapshot
  /// artifacts referenced by no retained manifest. Best-effort.
  static void GarbageCollect(const std::string& dir, FileIo& io,
                             size_t retain_generations);

  std::map<std::string, std::unique_ptr<Collection>> collections_;
  /// Observer + writer for the attached WAL (heap-allocated so the
  /// observer pointers held by collections survive a Database move).
  std::unique_ptr<WalBinding> wal_;
};

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_DATABASE_H_
