#include "store/database.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/strings.h"
#include "store/json.h"

namespace newsdiff::store {

namespace {

/// Collection names double as snapshot file-name stems, so they must be
/// safe path components.
Status ValidateCollectionName(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty collection name");
  for (char c : name) {
    if (c == '/' || c == '\\' || c == ' ' || c == '\n' || c == '\r' ||
        c == '\t') {
      return Status::InvalidArgument("collection name unsafe for snapshot: " +
                                     name);
    }
  }
  return Status::OK();
}

/// Parses one collection's JSONL bytes into a fresh Collection, checking
/// the document count its manifest entry records. `preserve_ids` restores
/// each document into the slot its "_id" names (WAL recovery); otherwise
/// ids are renumbered densely in line order.
StatusOr<std::unique_ptr<Collection>> ParseCollectionFile(
    const std::string& name, const std::string& contents,
    const std::string& diag_path, uint64_t expect_docs, bool preserve_ids) {
  auto coll = std::make_unique<Collection>(name);
  uint64_t docs = 0;
  size_t lineno = 0;
  for (std::string_view line : Split(contents, '\n')) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    StatusOr<Value> doc = ParseJson(line);
    if (!doc.ok()) {
      return Status::ParseError(diag_path + ":" + std::to_string(lineno) +
                                ": " + doc.status().message());
    }
    if (preserve_ids) {
      const Value* id_field = doc->Find("_id");
      if (id_field == nullptr || !id_field->is_int() ||
          id_field->int_value() < 0) {
        return Status::ParseError(diag_path + ":" + std::to_string(lineno) +
                                  ": document lacks a usable _id");
      }
      const DocId id = id_field->int_value();
      if (static_cast<size_t>(id) < coll->slot_count()) {
        return Status::ParseError(diag_path + ":" + std::to_string(lineno) +
                                  ": _id " + std::to_string(id) +
                                  " out of order or duplicated");
      }
      NEWSDIFF_RETURN_IF_ERROR(coll->RestorePut(id, std::move(doc).value()));
    } else {
      StatusOr<DocId> id = coll->Insert(std::move(doc).value());
      if (!id.ok()) return id.status();
    }
    ++docs;
  }
  if (docs != expect_docs) {
    return Status::ParseError(diag_path + ": has " + std::to_string(docs) +
                              " documents, manifest expects " +
                              std::to_string(expect_docs));
  }
  return coll;
}

bool IsSnapshotArtifact(const std::string& name) {
  if (ParseManifestFileName(name).ok()) return true;
  auto ends_with = [&name](const char* suffix) {
    std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".jsonl") || ends_with(".tmp");
}

}  // namespace

Collection& Database::GetOrCreate(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
    AttachObserver(*it->second);
  }
  return *it->second;
}

Collection* Database::Get(const std::string& name) {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

const Collection* Database::Get(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

Status Database::Drop(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named " + name);
  }
  if (wal_ != nullptr) LogDrop(*it->second);
  collections_.erase(it);
  return Status::OK();
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

Status Database::SaveToDir(const std::string& dir) const {
  return SaveToDir(dir, SnapshotOptions{});
}

Status Database::SaveToDir(const std::string& dir,
                           const SnapshotOptions& options) const {
  FileIo& io = options.io != nullptr ? *options.io : DefaultFileIo();
  NEWSDIFF_RETURN_IF_ERROR(io.CreateDirectories(dir));

  // The next generation follows the newest manifest present, committed or
  // not — a gap in the sequence is harmless, a reused number is not.
  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return listing.status();
  uint64_t generation = 0;
  for (const std::string& name : *listing) {
    std::string stem = name;
    const std::string tmp_suffix = ".tmp";
    if (stem.size() > tmp_suffix.size() &&
        stem.compare(stem.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0) {
      stem.resize(stem.size() - tmp_suffix.size());
    }
    StatusOr<uint64_t> gen = ParseManifestFileName(stem);
    if (gen.ok()) generation = std::max(generation, *gen);
  }
  ++generation;

  Manifest manifest;
  manifest.generation = generation;
  for (const auto& [name, coll] : collections_) {
    NEWSDIFF_RETURN_IF_ERROR(ValidateCollectionName(name));
    std::string contents;
    coll->ForEach(Filter(), [&](DocId, const Value& doc) {
      contents += ToJson(doc);
      contents += '\n';
      return true;
    });
    ManifestEntry entry;
    entry.collection = name;
    entry.file = SnapshotCollectionFileName(name, generation);
    entry.docs = coll->size();
    entry.crc32 = Crc32(contents);
    NEWSDIFF_RETURN_IF_ERROR(
        WriteFileAtomic(io, dir + "/" + entry.file, contents));
    manifest.entries.push_back(std::move(entry));
  }

  // Commit point: once the manifest rename lands, this generation is the
  // one recovery will load.
  NEWSDIFF_RETURN_IF_ERROR(WriteFileAtomic(
      io, dir + "/" + ManifestFileName(generation), SerializeManifest(manifest)));

  GarbageCollect(dir, io, options.retain_generations);
  return Status::OK();
}

void Database::GarbageCollect(const std::string& dir, FileIo& io,
                              size_t retain_generations) {
  // Best-effort: a failed deletion never fails the save that triggered it;
  // the next save retries.
  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return;
  std::vector<uint64_t> generations;
  for (const std::string& name : *listing) {
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok()) generations.push_back(*gen);
  }
  std::sort(generations.rbegin(), generations.rend());
  if (retain_generations == 0) retain_generations = 1;
  std::set<uint64_t> retained(
      generations.begin(),
      generations.begin() +
          std::min(retain_generations, generations.size()));

  // WAL pinning: a log segment's records only make sense on top of the
  // checkpoint generation they are based on. Deleting that generation
  // while its segments survive would strand them, so any base generation a
  // segment still references stays retained even past the retention count.
  const std::set<uint64_t> all_generations(generations.begin(),
                                           generations.end());
  for (const std::string& name : *listing) {
    StatusOr<WalSegmentName> segment = ParseWalSegmentFileName(name);
    if (segment.ok() && all_generations.count(segment->base_generation) > 0) {
      retained.insert(segment->base_generation);
    }
  }

  std::set<std::string> referenced;
  for (uint64_t gen : retained) {
    referenced.insert(ManifestFileName(gen));
    StatusOr<std::string> text = io.ReadFile(dir + "/" + ManifestFileName(gen));
    if (!text.ok()) {
      // An unreadable retained manifest might reference anything; reaping
      // on a transient read fault could delete a live generation's files.
      // Skip the whole reap — the next save retries it.
      NEWSDIFF_LOG(Warning) << "snapshot gc: " << text.status().message();
      return;
    }
    StatusOr<Manifest> manifest = ParseManifest(*text);
    // A manifest that reads cleanly but does not parse is durably corrupt:
    // recovery skips its generation, so its files are safe to reap.
    if (!manifest.ok()) continue;
    for (const ManifestEntry& entry : manifest->entries) {
      referenced.insert(entry.file);
    }
  }

  for (const std::string& name : *listing) {
    // Only reap snapshot-owned artifacts: manifests, collection files
    // (including uncommitted ones and files for since-dropped collections),
    // and torn temp files. Foreign files are left alone.
    if (referenced.count(name) > 0 || !IsSnapshotArtifact(name)) continue;
    Status removed = io.Remove(dir + "/" + name);
    if (!removed.ok()) {
      NEWSDIFF_LOG(Warning) << "snapshot gc: " << removed.message();
    }
  }
}

Status Database::LoadFromDir(const std::string& dir) {
  return LoadFromDir(dir, SnapshotOptions{});
}

Status Database::LoadFromDir(const std::string& dir,
                             const SnapshotOptions& options,
                             SnapshotLoadReport* report) {
  FileIo& io = options.io != nullptr ? *options.io : DefaultFileIo();
  SnapshotLoadReport local_report;
  if (report == nullptr) report = &local_report;

  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return listing.status();

  std::vector<uint64_t> generations;
  for (const std::string& name : *listing) {
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok()) generations.push_back(*gen);
  }
  // No manifest means no committed generation — a fresh directory, or a
  // first save that crashed before its commit point. Its collection files
  // are uncommitted state, so nothing is installed.
  if (generations.empty()) return Status::OK();
  std::sort(generations.rbegin(), generations.rend());

  for (uint64_t gen : generations) {
    // Stage the whole generation before touching installed state, so a
    // generation that fails verification halfway leaves the database
    // exactly as it was.
    std::map<std::string, std::unique_ptr<Collection>> staged;
    std::string problem;
    Status verdict = Status::OK();
    do {
      const std::string manifest_path = dir + "/" + ManifestFileName(gen);
      StatusOr<std::string> text = io.ReadFile(manifest_path);
      if (!text.ok()) {
        verdict = text.status();
        break;
      }
      StatusOr<Manifest> manifest = ParseManifest(*text);
      if (!manifest.ok()) {
        verdict = manifest.status();
        break;
      }
      if (manifest->generation != gen) {
        verdict = Status::ParseError(manifest_path + ": generation " +
                                     std::to_string(manifest->generation) +
                                     " does not match file name");
        break;
      }
      for (const ManifestEntry& entry : manifest->entries) {
        const std::string path = dir + "/" + entry.file;
        StatusOr<std::string> contents = io.ReadFile(path);
        if (!contents.ok()) {
          verdict = contents.status();
          break;
        }
        if (Crc32(*contents) != entry.crc32) {
          verdict = Status::ParseError(path + ": checksum mismatch");
          break;
        }
        StatusOr<std::unique_ptr<Collection>> coll = ParseCollectionFile(
            entry.collection, *contents, path, entry.docs,
            options.preserve_doc_ids);
        if (!coll.ok()) {
          verdict = coll.status();
          break;
        }
        staged[entry.collection] = std::move(coll).value();
      }
    } while (false);

    if (verdict.ok()) {
      for (auto& [name, coll] : staged) {
        AttachObserver(*coll);
        collections_[name] = std::move(coll);
      }
      report->generation = gen;
      if (report->generations_skipped > 0) {
        NEWSDIFF_LOG(Warning)
            << "snapshot recovery: fell back to generation " << gen
            << " after skipping " << report->generations_skipped
            << " damaged generation(s) in " << dir;
      }
      return Status::OK();
    }
    ++report->generations_skipped;
    report->problems.push_back("generation " + std::to_string(gen) + ": " +
                               verdict.message());
  }

  std::string detail;
  for (const std::string& p : report->problems) detail += "; " + p;
  return Status::IoError("no intact snapshot generation in " + dir + detail);
}

/// CollectionObserver that turns mutations into WAL records. Heap-allocated
/// and owned by the Database so the observer pointer installed in each
/// collection stays valid across Database moves.
struct Database::WalBinding : public CollectionObserver {
  WalWriter writer;

  WalBinding(std::string dir, WalOptions options)
      : writer(std::move(dir), std::move(options)) {}

  // Buffering cannot fail; a non-OK status from LogPut/LogDelete is a
  // group-commit sync failure. The records stay pending (the writer moved
  // them to a fresh segment part), and the error resurfaces at the next
  // WalSync()/Checkpoint(), where the caller can act on it.
  void OnPut(const Collection& collection, DocId id,
             const Value& doc) override {
    writer.OpenSegment(collection.name(), collection.slot_count());
    Status logged = writer.LogPut(collection.name(), id, doc);
    (void)logged;
  }

  void OnDelete(const Collection& collection, DocId id) override {
    writer.OpenSegment(collection.name(), collection.slot_count());
    Status logged = writer.LogDelete(collection.name(), id);
    (void)logged;
  }
};

Database::Database() = default;
Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

void Database::AttachObserver(Collection& collection) {
  if (wal_ != nullptr) collection.SetObserver(wal_.get());
}

void Database::LogDrop(Collection& collection) {
  wal_->writer.OpenSegment(collection.name(), collection.slot_count());
  Status logged = wal_->writer.LogDrop(collection.name());
  (void)logged;
}

WalWriter* Database::wal() {
  return wal_ != nullptr ? &wal_->writer : nullptr;
}

Status Database::AttachWal(const std::string& dir, const WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  FileIo& io = options.io != nullptr ? *options.io : DefaultFileIo();
  NEWSDIFF_RETURN_IF_ERROR(io.CreateDirectories(dir));
  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return listing.status();

  uint64_t newest_gen = 0;
  for (const std::string& name : *listing) {
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok()) newest_gen = std::max(newest_gen, *gen);
  }
  // Never append after a possibly-torn tail: each collection resumes one
  // part past the newest segment already on disk.
  std::map<std::string, std::pair<uint64_t, uint64_t>> resume;
  for (const WalSegmentInfo& segment : ListWalSegments(*listing)) {
    auto& point = resume[segment.collection];
    point = std::max(point,
                     std::make_pair(segment.base_generation, segment.part));
  }

  wal_ = std::make_unique<WalBinding>(dir, options);
  wal_->writer.set_base_generation(newest_gen);
  for (auto& [name, coll] : collections_) {
    auto it = resume.find(name);
    if (it != resume.end() && it->second.first >= newest_gen) {
      wal_->writer.ResumeSegment(name, it->second.first, it->second.second + 1,
                                 coll->slot_count());
    } else {
      // No segments, or only stale ones from before the newest checkpoint —
      // a fresh segment based on that checkpoint cannot collide with them.
      wal_->writer.OpenSegment(name, coll->slot_count());
    }
    coll->SetObserver(wal_.get());
  }
  return Status::OK();
}

Status Database::WalSync() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no WAL attached");
  }
  return wal_->writer.Sync();
}

Status Database::Checkpoint(const SnapshotOptions& options) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint requires an attached WAL (AttachWal/RecoverWal)");
  }
  const std::string dir = wal_->writer.dir();
  // 1. Everything acknowledged must be durable before the snapshot can
  //    claim to supersede it.
  NEWSDIFF_RETURN_IF_ERROR(wal_->writer.Sync());
  // 2. Commit the new generation. The garbage collector inside pins any
  //    generation still referenced by a log segment.
  NEWSDIFF_RETURN_IF_ERROR(SaveToDir(dir, options));

  FileIo& io = options.io != nullptr ? *options.io : DefaultFileIo();
  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::vector<uint64_t> generations;
  for (const std::string& name : *listing) {
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok()) generations.push_back(*gen);
  }
  if (generations.empty()) {
    return Status::Internal("checkpoint committed but no manifest found in " +
                            dir);
  }
  std::sort(generations.rbegin(), generations.rend());
  const uint64_t committed = generations.front();

  // 3. Mark the old segments finished and rotate every collection's log to
  //    the new base.
  std::map<std::string, uint64_t> slot_counts;
  for (const auto& [name, coll] : collections_) {
    slot_counts[name] = coll->slot_count();
  }
  NEWSDIFF_RETURN_IF_ERROR(wal_->writer.Checkpoint(committed, slot_counts));

  // 4. Prune segments whose base fell out of count-based retention. (Not
  //    "out of the retained set": generations pinned by these very
  //    segments would keep their own logs alive forever.)
  size_t keep = options.retain_generations == 0 ? 1 : options.retain_generations;
  keep = std::min(keep, generations.size());
  wal_->writer.PruneSegments(generations[keep - 1]);
  return Status::OK();
}

Status Database::ApplyWalRecord(const std::string& collection,
                                const WalRecord& record) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("replayed records must not be re-logged");
  }
  switch (record.type) {
    case WalRecord::Type::kSegmentHeader:
      // Restore trailing dead slots so id assignment matches the writer.
      GetOrCreate(collection).PadSlots(record.slot_count);
      return Status::OK();
    case WalRecord::Type::kPut:
      return GetOrCreate(collection).RestorePut(record.id, record.doc);
    case WalRecord::Type::kDelete:
      GetOrCreate(collection).RestoreDelete(record.id);
      return Status::OK();
    case WalRecord::Type::kDrop:
      // Replaying a drop of an already-absent collection is benign.
      (void)Drop(collection);
      return Status::OK();
    case WalRecord::Type::kCheckpoint:
    case WalRecord::Type::kPromotion:
      // Markers: the state a checkpoint names is in its snapshot, and a
      // promotion changes the writer, not the data.
      return Status::OK();
  }
  return Status::Internal("unhandled wal record type");
}

Status Database::RecoverWal(const std::string& dir,
                            const SnapshotOptions& snapshot_options,
                            const WalOptions& wal_options,
                            SnapshotLoadReport* report) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  SnapshotLoadReport local_report;
  if (report == nullptr) report = &local_report;
  FileIo& io =
      snapshot_options.io != nullptr ? *snapshot_options.io : DefaultFileIo();
  NEWSDIFF_RETURN_IF_ERROR(io.CreateDirectories(dir));
  StatusOr<std::vector<std::string>> listing = io.ListDir(dir);
  if (!listing.ok()) return listing.status();

  bool have_manifest = false;
  for (const std::string& name : *listing) {
    if (ParseManifestFileName(name).ok()) have_manifest = true;
  }
  if (have_manifest) {
    // Ids must survive the load verbatim: the log addresses documents by
    // the ids of the original run.
    SnapshotOptions load_options = snapshot_options;
    load_options.preserve_doc_ids = true;
    NEWSDIFF_RETURN_IF_ERROR(LoadFromDir(dir, load_options, report));
  }
  const uint64_t base = report->generation;

  // Replay every intact record from segments based on the loaded
  // generation or later (later bases appear when a newer checkpoint's
  // manifest was damaged; full-segment replay of physical records passes
  // through that checkpoint's state on the way).
  for (const WalSegmentInfo& segment : ListWalSegments(*listing)) {
    if (segment.base_generation < base) continue;
    ++report->wal_segments;
    const std::string where = "wal " + segment.file + ": ";
    StatusOr<std::string> bytes = io.ReadFile(dir + "/" + segment.file);
    if (!bytes.ok()) {
      ++report->wal_records_rejected;
      report->problems.push_back(where + bytes.status().message());
      continue;
    }
    WalSegmentReader reader(segment);
    std::string_view rest = *bytes;
    WalFrame frame;
    while ((frame = reader.Next(&rest)).verdict == WalFrame::Verdict::kRecord) {
      NEWSDIFF_RETURN_IF_ERROR(
          ApplyWalRecord(segment.collection, frame.record));
      if (frame.record.is_mutation()) ++report->wal_records_replayed;
      if (frame.record.type == WalRecord::Type::kPromotion) {
        // A fenced failover happened here; surface the token for operators
        // and replicas.
        report->wal_fencing_token =
            std::max(report->wal_fencing_token, frame.record.token);
      }
    }
    // The scan stops at the first frame it cannot trust; the rest of the
    // segment is never applied.
    if (frame.verdict == WalFrame::Verdict::kEnd) continue;
    if (frame.verdict == WalFrame::Verdict::kTorn) {
      ++report->wal_records_truncated;
    } else {
      ++report->wal_records_rejected;
    }
    report->problems.push_back(where + frame.problem);
  }

  return AttachWal(dir, wal_options);
}

}  // namespace newsdiff::store
