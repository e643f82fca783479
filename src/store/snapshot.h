#ifndef NEWSDIFF_STORE_SNAPSHOT_H_
#define NEWSDIFF_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"

namespace newsdiff::store {

/// Generation-numbered snapshot format used by Database::SaveToDir.
///
/// Each save writes a fresh *generation*: every collection goes to
/// `<name>-<gen>.jsonl` (via temp+rename), then a `MANIFEST-<gen>` file —
/// listing each collection's file, document count, and CRC-32, plus a
/// self-CRC — is committed last via rename. The manifest rename is the
/// commit point: a crash anywhere before it leaves the previous generation
/// untouched, so recovery never sees mixed-generation state.
///
/// Recovery walks manifests newest-first and installs the first generation
/// whose manifest and every referenced collection file verify (checksum,
/// document count, line-level JSON parse). Damaged newer generations are
/// skipped, not fatal. After a successful save, generations older than
/// `retain_generations` and any unreferenced snapshot files (dropped
/// collections, torn temp files, collection files no manifest committed)
/// are garbage-collected. A directory with no manifest holds no committed
/// generation: recovery installs nothing from it.

struct SnapshotOptions {
  /// How many committed generations to keep on disk (>= 1). Older
  /// generations and files referenced by no retained manifest are deleted
  /// after each successful save.
  size_t retain_generations = 3;
  /// Filesystem seam; nullptr uses the real filesystem. Tests inject
  /// datagen::FaultyFileIo here.
  FileIo* io = nullptr;
  /// Restore each document into the slot named by its "_id" field instead
  /// of renumbering densely. WAL recovery requires this: log records
  /// address documents by their original ids, so the checkpoint must load
  /// with id assignment intact (including gaps left by removals).
  bool preserve_doc_ids = false;
};

/// What recovery actually did, for operators and tests.
struct SnapshotLoadReport {
  /// Generation installed (0 when the directory held no manifest and
  /// nothing was installed).
  uint64_t generation = 0;
  /// Newer generations rejected as damaged before one verified.
  size_t generations_skipped = 0;
  /// Human-readable reason each damaged generation was skipped.
  std::vector<std::string> problems;
  /// Write-ahead log replay (Database::RecoverWal): segments scanned, and
  /// per-record dispositions — applied on top of the checkpoint, dropped as
  /// a torn tail (incomplete trailing frame), or rejected outright (CRC or
  /// parse failure; that segment's scan stops so damage is never applied).
  size_t wal_segments = 0;
  size_t wal_records_replayed = 0;
  size_t wal_records_truncated = 0;
  size_t wal_records_rejected = 0;
  /// Highest fencing token among replication promotion records replayed
  /// (0 when the log never changed writers; see store/replica.h).
  uint64_t wal_fencing_token = 0;
};

struct ManifestEntry {
  std::string collection;
  std::string file;   // file name within the snapshot directory
  uint64_t docs = 0;  // non-empty JSONL lines
  uint32_t crc32 = 0;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<ManifestEntry> entries;
};

/// Renders the manifest in its on-disk form (self-CRC trailer included).
std::string SerializeManifest(const Manifest& manifest);

/// Parses and verifies a manifest file's bytes. Total on arbitrary input:
/// corruption yields kParseError, never a crash.
StatusOr<Manifest> ParseManifest(const std::string& text);

/// "MANIFEST-0000000042" for generation 42.
std::string ManifestFileName(uint64_t generation);

/// Recovers the generation number from a manifest file name; kParseError
/// if the name is not a well-formed manifest name.
StatusOr<uint64_t> ParseManifestFileName(const std::string& name);

/// "news-0000000042.jsonl" for collection "news", generation 42.
std::string SnapshotCollectionFileName(const std::string& collection,
                                       uint64_t generation);

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_SNAPSHOT_H_
