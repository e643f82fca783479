#include "store/wal.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "store/json.h"

namespace newsdiff::store {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32le length + u32le CRC-32
constexpr char kWalSuffix[] = ".wal";
constexpr size_t kGenDigits = 10;
constexpr size_t kPartDigits = 6;

void AppendU32Le(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t ReadU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

/// A put's or del's id: a decimal that fits a DocId.
bool ParseDocId(std::string_view text, DocId* out) {
  uint64_t id = 0;
  if (!ParseU64(text, &id) || id > static_cast<uint64_t>(INT64_MAX)) {
    return false;
  }
  *out = static_cast<DocId>(id);
  return true;
}

std::string PaddedDecimal(uint64_t value, size_t digits) {
  std::string raw = std::to_string(value);
  if (raw.size() >= digits) return raw;
  return std::string(digits - raw.size(), '0') + raw;
}

/// Renders the text payload for one record.
std::string RecordPayload(const WalRecord& record) {
  switch (record.type) {
    case WalRecord::Type::kSegmentHeader:
      return "seg " + record.collection + " " +
             std::to_string(record.base_generation) + " " +
             std::to_string(record.part) + " " +
             std::to_string(record.slot_count);
    case WalRecord::Type::kPut:
      return "put " + std::to_string(record.id) + " " + record.doc_json;
    case WalRecord::Type::kDelete:
      return "del " + std::to_string(record.id);
    case WalRecord::Type::kDrop:
      return "drop";
    case WalRecord::Type::kCheckpoint:
      return "ckpt " + std::to_string(record.generation);
    case WalRecord::Type::kPromotion:
      return "promo " + std::to_string(record.token) +
             (record.owner.empty() ? "" : " " + record.owner);
  }
  return "";  // unreachable
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  const std::string payload = RecordPayload(record);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendU32Le(static_cast<uint32_t>(payload.size()), &frame);
  AppendU32Le(Crc32(payload), &frame);
  frame += payload;
  return frame;
}

StatusOr<WalRecord> ParseWalPayload(std::string_view payload) {
  const size_t space = payload.find(' ');
  const std::string_view op = payload.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view()
                                      : payload.substr(space + 1);
  WalRecord record;
  if (op == "put") {
    record.type = WalRecord::Type::kPut;
    const size_t id_end = rest.find(' ');
    if (id_end == std::string_view::npos ||
        !ParseDocId(rest.substr(0, id_end), &record.id)) {
      return Status::ParseError("wal: malformed put record");
    }
    record.doc_json = std::string(rest.substr(id_end + 1));
    // A body that is not an object is indistinguishable from bit rot.
    StatusOr<Value> doc = ParseJson(record.doc_json);
    if (!doc.ok() || !doc->is_object()) {
      return Status::ParseError("wal: put document is not a JSON object");
    }
    record.doc = std::move(doc).value();
    return record;
  }
  if (op == "del") {
    record.type = WalRecord::Type::kDelete;
    if (!ParseDocId(rest, &record.id)) {
      return Status::ParseError("wal: malformed del record");
    }
    return record;
  }
  if (op == "seg") {
    record.type = WalRecord::Type::kSegmentHeader;
    // The collection name cannot contain spaces (ValidateCollectionName),
    // so the header is exactly four space-separated fields after the op.
    const std::vector<std::string> fields = SplitWhitespace(rest);
    if (fields.size() != 4 || !ParseU64(fields[1], &record.base_generation) ||
        !ParseU64(fields[2], &record.part) ||
        !ParseU64(fields[3], &record.slot_count)) {
      return Status::ParseError("wal: malformed seg header");
    }
    record.collection = fields[0];
    return record;
  }
  if (op == "drop") {
    if (!rest.empty()) return Status::ParseError("wal: malformed drop record");
    record.type = WalRecord::Type::kDrop;
    return record;
  }
  if (op == "ckpt") {
    record.type = WalRecord::Type::kCheckpoint;
    if (!ParseU64(rest, &record.generation)) {
      return Status::ParseError("wal: malformed ckpt record");
    }
    return record;
  }
  if (op == "promo") {
    record.type = WalRecord::Type::kPromotion;
    // Owner is free-form (it may contain spaces), so it is everything after
    // the token rather than a whitespace-split field.
    const size_t token_end = rest.find(' ');
    if (!ParseU64(rest.substr(0, token_end), &record.token)) {
      return Status::ParseError("wal: malformed promo record");
    }
    if (token_end != std::string_view::npos) {
      record.owner = std::string(rest.substr(token_end + 1));
    }
    return record;
  }
  return Status::ParseError("wal: unknown record op '" + std::string(op) +
                            "'");
}

WalSegmentReader::WalSegmentReader(WalSegmentName segment)
    : segment_(std::move(segment)) {}

WalFrame WalSegmentReader::Next(std::string_view* rest) {
  WalFrame frame;
  const auto fail = [&](WalFrame::Verdict verdict, const std::string& what) {
    frame.verdict = verdict;
    frame.problem = what + " at offset " + std::to_string(offset_);
    return frame;
  };
  if (rest->empty()) return frame;
  if (rest->size() < kFrameHeaderBytes) {
    return fail(WalFrame::Verdict::kTorn, "incomplete frame header");
  }
  const uint32_t length = ReadU32Le(rest->data());
  // A zero-length payload is never written: the header bytes themselves
  // are wrong, which is damage, not a torn tail.
  if (length == 0) {
    return fail(WalFrame::Verdict::kCorrupt, "zero-length frame");
  }
  if (rest->size() - kFrameHeaderBytes < length) {
    return fail(WalFrame::Verdict::kTorn, "torn frame");
  }
  const std::string_view payload = rest->substr(kFrameHeaderBytes, length);
  if (Crc32(payload) != ReadU32Le(rest->data() + 4)) {
    return fail(WalFrame::Verdict::kCorrupt, "CRC mismatch");
  }
  StatusOr<WalRecord> record = ParseWalPayload(payload);
  if (!record.ok()) {
    return fail(WalFrame::Verdict::kRejected, record.status().message());
  }
  const bool header = record->type == WalRecord::Type::kSegmentHeader;
  if (!started_ && (!header || record->collection != segment_.collection ||
                    record->base_generation != segment_.base_generation ||
                    record->part != segment_.part)) {
    // Renamed or damaged: none of the file can be trusted.
    return fail(WalFrame::Verdict::kRejected,
                "first record is not this segment's header");
  }
  if (started_ && header) {
    return fail(WalFrame::Verdict::kRejected, "second segment header");
  }
  if (closed_) {
    return fail(WalFrame::Verdict::kRejected,
                "record after the checkpoint marker");
  }
  started_ = true;
  closed_ = record->type == WalRecord::Type::kCheckpoint;
  frame.verdict = WalFrame::Verdict::kRecord;
  frame.record = std::move(record).value();
  offset_ += kFrameHeaderBytes + length;
  rest->remove_prefix(kFrameHeaderBytes + length);
  return frame;
}

std::string WalSegmentFileName(const std::string& collection,
                               uint64_t base_generation, uint64_t part) {
  return collection + "-" + PaddedDecimal(base_generation, kGenDigits) + "-" +
         PaddedDecimal(part, kPartDigits) + kWalSuffix;
}

StatusOr<WalSegmentName> ParseWalSegmentFileName(const std::string& name) {
  const auto malformed = [&name] {
    return Status::ParseError("not a WAL segment file name: " + name);
  };
  // Parse from the right: collection names may themselves contain '-'.
  const std::string suffix(kWalSuffix);
  if (name.size() <= suffix.size() + kGenDigits + kPartDigits + 2) {
    return malformed();
  }
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return malformed();
  }
  const std::string stem = name.substr(0, name.size() - suffix.size());
  const size_t part_dash = stem.size() - kPartDigits - 1;
  const size_t gen_dash = part_dash - kGenDigits - 1;
  if (stem[part_dash] != '-' || stem[gen_dash] != '-') return malformed();
  WalSegmentName parsed;
  if (!ParseU64(std::string_view(stem).substr(part_dash + 1), &parsed.part)) {
    return malformed();
  }
  if (!ParseU64(std::string_view(stem).substr(gen_dash + 1, kGenDigits),
                &parsed.base_generation)) {
    return malformed();
  }
  if (gen_dash == 0) return malformed();  // empty collection name
  parsed.collection = stem.substr(0, gen_dash);
  return parsed;
}

std::vector<WalSegmentInfo> ListWalSegments(
    const std::vector<std::string>& listing) {
  std::vector<WalSegmentInfo> segments;
  for (const std::string& name : listing) {
    StatusOr<WalSegmentName> parsed = ParseWalSegmentFileName(name);
    if (!parsed.ok()) continue;
    WalSegmentInfo info;
    info.collection = std::move(parsed->collection);
    info.base_generation = parsed->base_generation;
    info.part = parsed->part;
    info.file = name;
    segments.push_back(std::move(info));
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              if (a.collection != b.collection) {
                return a.collection < b.collection;
              }
              if (a.base_generation != b.base_generation) {
                return a.base_generation < b.base_generation;
              }
              return a.part < b.part;
            });
  return segments;
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

FileIo& WalWriter::io() const {
  return options_.io != nullptr ? *options_.io : DefaultFileIo();
}

Clock& WalWriter::clock() const {
  static SystemClock system_clock;
  return options_.clock != nullptr ? *options_.clock : system_clock;
}

WalWriter::CollectionLog& WalWriter::Log(const std::string& collection) {
  auto it = logs_.find(collection);
  if (it != logs_.end()) return it->second;
  CollectionLog log;
  log.base = base_generation_;
  return logs_.emplace(collection, std::move(log)).first->second;
}

void WalWriter::OpenSegment(const std::string& collection,
                            uint64_t slot_count) {
  auto it = logs_.find(collection);
  if (it != logs_.end()) return;
  CollectionLog& log = Log(collection);
  log.header_slot_count = slot_count;
  log.slot_hint = slot_count;
}

void WalWriter::ResumeSegment(const std::string& collection,
                              uint64_t base_generation, uint64_t next_part,
                              uint64_t slot_count) {
  CollectionLog log;
  log.base = base_generation;
  log.part = next_part;
  log.header_slot_count = slot_count;
  log.slot_hint = slot_count;
  logs_[collection] = std::move(log);
}

Status WalWriter::Buffer(const std::string& collection,
                         const WalRecord& record) {
  CollectionLog& log = Log(collection);
  if (log.pending_records == 0) log.first_pending_ms = clock().NowMillis();
  log.pending += EncodeWalRecord(record);
  ++log.pending_records;
  ++stats_.records_logged;
  if (record.type == WalRecord::Type::kPut) {
    log.slot_hint = std::max(log.slot_hint,
                             static_cast<uint64_t>(record.id) + 1);
  } else if (record.type == WalRecord::Type::kDrop) {
    log.slot_hint = 0;
  }
  return SyncLog(collection, log, /*force=*/false);
}

Status WalWriter::LogPut(const std::string& collection, DocId id,
                         const Value& doc) {
  WalRecord record;
  record.type = WalRecord::Type::kPut;
  record.id = id;
  record.doc_json = ToJson(doc);
  return Buffer(collection, record);
}

Status WalWriter::LogDelete(const std::string& collection, DocId id) {
  WalRecord record;
  record.type = WalRecord::Type::kDelete;
  record.id = id;
  return Buffer(collection, record);
}

Status WalWriter::LogDrop(const std::string& collection) {
  WalRecord record;
  record.type = WalRecord::Type::kDrop;
  return Buffer(collection, record);
}

Status WalWriter::LogPromotion(const std::string& collection, uint64_t token,
                               const std::string& owner) {
  WalRecord record;
  record.type = WalRecord::Type::kPromotion;
  record.token = token;
  record.owner = owner;
  return Buffer(collection, record);
}

Status WalWriter::SyncLog(const std::string& collection, CollectionLog& log,
                          bool force) {
  if (log.pending_records == 0) return Status::OK();
  if (!force) {
    const bool by_count = log.pending_records >= options_.sync_every_records;
    const bool by_time =
        clock().NowMillis() - log.first_pending_ms >= options_.sync_every_ms;
    if (!by_count && !by_time) return Status::OK();
  }
  // Fencing: a writer whose lease was taken over must never reach the log.
  if (options_.write_gate) {
    Status gate = options_.write_gate();
    if (!gate.ok()) return gate;
  }
  std::string batch;
  if (log.header_pending) {
    WalRecord header;
    header.type = WalRecord::Type::kSegmentHeader;
    header.collection = collection;
    header.base_generation = log.base;
    header.part = log.part;
    header.slot_count = log.header_slot_count;
    batch = EncodeWalRecord(header);
  }
  batch += log.pending;
  const std::string path =
      dir_ + "/" + WalSegmentFileName(collection, log.base, log.part);
  ++stats_.syncs;
  Status append = io().AppendFile(path, batch);
  if (!append.ok()) {
    // The segment may now carry a torn tail. Poison this part: the next
    // attempt starts a fresh part whose header re-describes the base state
    // (still valid — the pending records were never applied durably).
    ++stats_.sync_failures;
    ++log.part;
    log.header_pending = true;
    log.segment_bytes = 0;
    return append;
  }
  stats_.records_synced += log.pending_records;
  stats_.bytes_synced += batch.size();
  log.segment_bytes += batch.size();
  log.header_pending = false;
  log.pending.clear();
  log.pending_records = 0;
  if (log.segment_bytes >= options_.max_segment_bytes) {
    ++log.part;
    log.header_pending = true;
    log.header_slot_count = log.slot_hint;
    log.segment_bytes = 0;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  Status first_error = Status::OK();
  for (auto& [collection, log] : logs_) {
    Status sync = SyncLog(collection, log, /*force=*/true);
    if (!sync.ok() && first_error.ok()) first_error = sync;
  }
  return first_error;
}

Status WalWriter::Checkpoint(
    uint64_t generation,
    const std::map<std::string, uint64_t>& slot_counts) {
  // The caller synced before saving the snapshot, so pending buffers should
  // be empty; any records logged since belong to the post-checkpoint state
  // and must move to the new segments untouched.
  for (auto it = logs_.begin(); it != logs_.end();) {
    const std::string& collection = it->first;
    CollectionLog& log = it->second;
    if (!log.header_pending || log.segment_bytes > 0) {
      // The old segment exists on disk: mark it finished. Best effort — a
      // failed marker append only costs replay work, never correctness,
      // because pruning is driven by the committed manifest, not markers.
      WalRecord marker;
      marker.type = WalRecord::Type::kCheckpoint;
      marker.generation = generation;
      const std::string path =
          dir_ + "/" + WalSegmentFileName(collection, log.base, log.part);
      Status marker_append = io().AppendFile(path, EncodeWalRecord(marker));
      (void)marker_append;
    }
    auto counts_it = slot_counts.find(collection);
    if (counts_it == slot_counts.end()) {
      // Dropped collection: its log closes with the checkpoint.
      it = logs_.erase(it);
      continue;
    }
    const std::string carry = std::move(log.pending);
    const size_t carry_records = log.pending_records;
    const int64_t carry_ms = log.first_pending_ms;
    CollectionLog fresh;
    fresh.base = generation;
    fresh.part = 1;
    fresh.header_slot_count = counts_it->second;
    fresh.slot_hint = std::max<uint64_t>(counts_it->second, log.slot_hint);
    fresh.pending = carry;
    fresh.pending_records = carry_records;
    fresh.first_pending_ms = carry_ms;
    log = std::move(fresh);
    ++it;
  }
  // Collections created since the last mutation was logged (none in
  // practice — GetOrCreate opens the log) start at the new base too.
  base_generation_ = generation;
  return Status::OK();
}

void WalWriter::PruneSegments(uint64_t min_base) {
  StatusOr<std::vector<std::string>> listing = io().ListDir(dir_);
  if (!listing.ok()) return;
  for (const WalSegmentInfo& segment : ListWalSegments(listing.value())) {
    if (segment.base_generation < min_base) {
      Status removed = io().Remove(dir_ + "/" + segment.file);
      (void)removed;
    }
  }
}

}  // namespace newsdiff::store
