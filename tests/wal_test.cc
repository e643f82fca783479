// Write-ahead log tests: record framing, crash-at-every-boundary recovery
// (byte-identical to the uninterrupted run up to the group-commit window),
// an exhaustive byte-flip fuzz sweep (damage is detected, never applied),
// checkpoint rotation/pruning, and the snapshot-GC pinning rule.
#include "store/wal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/retry.h"
#include "datagen/faults.h"
#include "store/database.h"
#include "store/json.h"
#include "store/replica.h"

namespace newsdiff::store {
namespace {

namespace fs = std::filesystem;

class WalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_wal_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::string ReadRaw(const std::string& name) const {
    std::ifstream in(dir_ / name, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  void WriteRaw(const std::string& name, const std::string& bytes) const {
    std::ofstream out(dir_ / name, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::vector<std::string> Listing() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.is_regular_file()) {
        names.push_back(entry.path().filename().string());
      }
    }
    return names;
  }

  fs::path dir_;
};

/// Canonical byte dump of the whole store, slot layout included: equality
/// means recovery reproduced the original run bit for bit (ids, gaps from
/// removals, trailing dead slots, document bytes).
std::string Fingerprint(const Database& db) {
  std::string out;
  for (const std::string& name : db.CollectionNames()) {
    const Collection* coll = db.Get(name);
    out += "== " + name + " slots=" + std::to_string(coll->slot_count()) + "\n";
    for (const Value& doc : coll->All()) {
      out += ToJson(doc) + "\n";
    }
  }
  return out;
}

/// Scripted mutation `j` against `db`: a deterministic mix of inserts,
/// upserts, and removals, each producing exactly one WAL record (the crash
/// sweep indexes reference states by synced-record count, so no step may
/// match zero documents — removes skip steps whose target was never an
/// insert).
void ApplyOp(Database& db, int j) {
  Collection& articles = db.GetOrCreate("articles");
  if (j % 7 == 3 && j >= 3) {
    // Replace an earlier document in place (its id survives) — or insert
    // fresh when that key never existed; one put record either way.
    StatusOr<DocId> id = articles.Upsert(
        Filter().Eq("k", Value(static_cast<int64_t>(j - 3))),
        MakeObject({{"k", static_cast<int64_t>(j - 3)},
                    {"v", static_cast<int64_t>(j * 100)}}));
    ASSERT_TRUE(id.ok());
  } else if (j % 5 == 4 && (j - 1) % 7 != 3) {
    // Remove the previous step's insert, leaving a dead slot. (Guard:
    // when step j-1 was an upsert, no document with k == j-1 exists.)
    size_t removed =
        articles.Remove(Filter().Eq("k", Value(static_cast<int64_t>(j - 1))));
    ASSERT_EQ(removed, 1u);
  } else {
    StatusOr<DocId> id = articles.Insert(MakeObject(
        {{"k", static_cast<int64_t>(j)}, {"v", static_cast<int64_t>(j)}}));
    ASSERT_TRUE(id.ok());
  }
}

constexpr int kScriptOps = 40;

/// Reference states: states[m] is the fingerprint after m scripted ops.
std::vector<std::string> ReferenceStates() {
  std::vector<std::string> states;
  Database db;
  states.push_back(Fingerprint(db));
  for (int j = 0; j < kScriptOps; ++j) {
    ApplyOp(db, j);
    states.push_back(Fingerprint(db));
  }
  return states;
}

/// The records WalSegmentReader accepts from `bytes` read as `segment`,
/// and the verdict that ended the scan.
struct SegmentScan {
  std::vector<WalRecord> records;
  WalFrame::Verdict verdict = WalFrame::Verdict::kEnd;
};

SegmentScan ReadSegment(const WalSegmentName& segment,
                        const std::string& bytes) {
  SegmentScan scan;
  WalSegmentReader reader(segment);
  std::string_view rest = bytes;
  while (true) {
    WalFrame frame = reader.Next(&rest);
    scan.verdict = frame.verdict;
    if (frame.verdict != WalFrame::Verdict::kRecord) return scan;
    scan.records.push_back(std::move(frame.record));
  }
}

/// Frames an arbitrary payload exactly as the writer frames a record.
std::string Frame(const std::string& payload) {
  std::string frame;
  const uint32_t words[] = {static_cast<uint32_t>(payload.size()),
                            Crc32(payload)};
  for (uint32_t word : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<char>((word >> shift) & 0xff));
    }
  }
  return frame + payload;
}

TEST(WalRecord, FramingRoundTrip) {
  WalRecord header;
  header.type = WalRecord::Type::kSegmentHeader;
  header.collection = "news-articles";
  header.base_generation = 42;
  header.part = 3;
  header.slot_count = 17;
  WalRecord put;
  put.type = WalRecord::Type::kPut;
  put.id = 9;
  put.doc_json = "{\"_id\":9,\"title\":\"breaking news\"}";
  WalRecord del;
  del.type = WalRecord::Type::kDelete;
  del.id = 4;
  WalRecord drop;
  drop.type = WalRecord::Type::kDrop;
  WalRecord ckpt;
  ckpt.type = WalRecord::Type::kCheckpoint;
  ckpt.generation = 43;

  std::string bytes = EncodeWalRecord(header) + EncodeWalRecord(put) +
                      EncodeWalRecord(del) + EncodeWalRecord(drop) +
                      EncodeWalRecord(ckpt);
  SegmentScan decoded = ReadSegment({"news-articles", 42, 3}, bytes);
  EXPECT_EQ(decoded.verdict, WalFrame::Verdict::kEnd);
  ASSERT_EQ(decoded.records.size(), 5u);
  EXPECT_EQ(decoded.records[0].type, WalRecord::Type::kSegmentHeader);
  EXPECT_EQ(decoded.records[0].collection, "news-articles");
  EXPECT_EQ(decoded.records[0].base_generation, 42u);
  EXPECT_EQ(decoded.records[0].part, 3u);
  EXPECT_EQ(decoded.records[0].slot_count, 17u);
  EXPECT_EQ(decoded.records[1].type, WalRecord::Type::kPut);
  EXPECT_EQ(decoded.records[1].id, 9);
  EXPECT_EQ(decoded.records[1].doc_json, put.doc_json);
  EXPECT_EQ(decoded.records[2].type, WalRecord::Type::kDelete);
  EXPECT_EQ(decoded.records[2].id, 4);
  EXPECT_EQ(decoded.records[3].type, WalRecord::Type::kDrop);
  EXPECT_EQ(decoded.records[4].type, WalRecord::Type::kCheckpoint);
  EXPECT_EQ(decoded.records[4].generation, 43u);
}

TEST(WalRecord, TruncatedTailStopsScan) {
  WalRecord header;
  header.type = WalRecord::Type::kSegmentHeader;
  header.collection = "articles";
  header.part = 1;
  WalRecord del;
  del.type = WalRecord::Type::kDelete;
  del.id = 1;
  std::string bytes =
      EncodeWalRecord(header) + EncodeWalRecord(del) + EncodeWalRecord(del);
  for (size_t cut = 1; cut < EncodeWalRecord(del).size(); ++cut) {
    SegmentScan decoded =
        ReadSegment({"articles", 0, 1}, bytes.substr(0, bytes.size() - cut));
    ASSERT_EQ(decoded.records.size(), 2u);  // the header and one del
    EXPECT_EQ(decoded.records[1].type, WalRecord::Type::kDelete);
    EXPECT_EQ(decoded.verdict, WalFrame::Verdict::kTorn);
  }
}

TEST(WalSegmentReader, DamageIsReportedWithoutAdvancing) {
  const std::string header = Frame("seg articles 0 1 0");
  const std::string put = Frame("put 0 {\"k\":0}");
  std::string rotten = put;
  rotten.back() ^= 0x01;  // the payload no longer matches its CRC
  struct Case {
    std::string tail;
    WalFrame::Verdict verdict;
    std::string problem;
  };
  const std::vector<Case> cases = {
      {std::string(8, '\0'), WalFrame::Verdict::kCorrupt,
       "zero-length frame at offset 26"},
      {rotten, WalFrame::Verdict::kCorrupt, "CRC mismatch at offset 26"},
      {put.substr(0, 5), WalFrame::Verdict::kTorn,
       "incomplete frame header at offset 26"},
      {put.substr(0, put.size() - 1), WalFrame::Verdict::kTorn,
       "torn frame at offset 26"},
      {Frame("put 1 {\"k\":1} trailing"), WalFrame::Verdict::kRejected,
       "wal: put document is not a JSON object at offset 26"},
  };
  for (const Case& c : cases) {
    WalSegmentReader reader({"articles", 0, 1});
    const std::string bytes = header + c.tail;
    std::string_view rest = bytes;
    ASSERT_EQ(reader.Next(&rest).verdict, WalFrame::Verdict::kRecord);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const WalFrame frame = reader.Next(&rest);
      EXPECT_EQ(frame.verdict, c.verdict) << c.problem;
      EXPECT_EQ(frame.problem, c.problem);
      EXPECT_EQ(reader.offset(), header.size());
      EXPECT_EQ(rest.size(), c.tail.size());
    }
  }
  // A header that names another segment rejects the whole file.
  EXPECT_EQ(ReadSegment({"articles", 0, 2}, header + put).verdict,
            WalFrame::Verdict::kRejected);
  EXPECT_EQ(ReadSegment({"articles", 0, 2}, header + put).records.size(), 0u);
}

TEST(WalSegmentName, RoundTripIncludingDashedCollections) {
  for (const std::string& collection :
       {std::string("news"), std::string("dead-letter"),
        std::string("a-b-c")}) {
    const std::string name = WalSegmentFileName(collection, 42, 3);
    StatusOr<WalSegmentName> parsed = ParseWalSegmentFileName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed->collection, collection);
    EXPECT_EQ(parsed->base_generation, 42u);
    EXPECT_EQ(parsed->part, 3u);
  }
  EXPECT_FALSE(ParseWalSegmentFileName("news-0000000042.jsonl").ok());
  EXPECT_FALSE(ParseWalSegmentFileName("MANIFEST-0000000042").ok());
  EXPECT_FALSE(ParseWalSegmentFileName("-0000000001-000001.wal").ok());
  EXPECT_FALSE(ParseWalSegmentFileName("news-42-000001.wal").ok());
}

TEST_F(WalFixture, WalCrashAtEveryOpRecoversToSyncedPrefix) {
  const std::vector<std::string> states = ReferenceStates();

  // First pass without a crash point to learn how many injector ops the
  // script costs end to end; then sweep the crash through every one.
  size_t total_ops = 0;
  {
    datagen::FaultyFileIo io(DefaultFileIo(), datagen::StorageFaultOptions{});
    WalOptions wal;
    wal.io = &io;
    wal.sync_every_records = 1;
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
    total_ops = io.counters().ops;
    ASSERT_EQ(db.wal()->stats().records_synced,
              static_cast<size_t>(kScriptOps));
  }

  for (size_t crash_at = 0; crash_at <= total_ops; ++crash_at) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    datagen::StorageFaultOptions faults;
    faults.crash_after_ops = crash_at;
    datagen::FaultyFileIo io(DefaultFileIo(), faults);
    WalOptions wal;
    wal.io = &io;
    wal.sync_every_records = 1;

    size_t synced = 0;
    {
      Database db;
      Status attached = db.AttachWal(dir(), wal);
      if (!attached.ok()) {
        // Crashed before the log could even open; nothing durable.
        synced = 0;
      } else {
        for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
        synced = db.wal()->stats().records_synced;
      }
    }

    io.Reboot();
    SnapshotOptions snapshot;
    snapshot.io = &io;
    Database recovered;
    SnapshotLoadReport report;
    Status status = recovered.RecoverWal(dir(), snapshot, wal, &report);
    ASSERT_TRUE(status.ok()) << "crash_at=" << crash_at << ": "
                             << status.ToString();
    // Byte-identical recovery of exactly the synced prefix: every record
    // the group commit acknowledged survives, the torn tail does not.
    EXPECT_EQ(Fingerprint(recovered), states[synced])
        << "crash_at=" << crash_at << " synced=" << synced;
    EXPECT_EQ(report.wal_records_replayed, synced) << "crash_at=" << crash_at;
  }
}

TEST_F(WalFixture, WalEveryByteFlipRecoversToAPrefixOrFlagsDamage) {
  const std::vector<std::string> states = ReferenceStates();
  {
    WalOptions wal;
    wal.sync_every_records = 1;
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
  }
  const std::string segment = WalSegmentFileName("articles", 0, 1);
  const std::string pristine = ReadRaw(segment);
  ASSERT_FALSE(pristine.empty());

  // Legal recovery outcomes: any op-boundary state, plus the one
  // intermediate state a damaged first record leaves behind — the segment
  // header was applied (collection created, empty) before the scan stopped.
  std::vector<std::string> allowed = states;
  allowed.push_back("== articles slots=0\n");

  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string damaged = pristine;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x5a);
    WriteRaw(segment, damaged);

    Database recovered;
    SnapshotLoadReport report;
    Status status =
        recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report);
    ASSERT_TRUE(status.ok()) << "flip at byte " << i << ": "
                             << status.ToString();
    const std::string got = Fingerprint(recovered);
    bool is_prefix_state = false;
    for (const std::string& state : allowed) {
      if (got == state) {
        is_prefix_state = true;
        break;
      }
    }
    EXPECT_TRUE(is_prefix_state)
        << "flip at byte " << i << " produced a state outside the run";
    if (got != states.back()) {
      // The flip cost us records; recovery must say so, not stay silent.
      EXPECT_GE(report.wal_records_truncated + report.wal_records_rejected, 1u)
          << "flip at byte " << i;
    }
  }
  WriteRaw(segment, pristine);
}

TEST_F(WalFixture, WalGroupCommitLossIsBoundedBySyncInterval) {
  const std::vector<std::string> states = ReferenceStates();
  {
    WalOptions wal;
    wal.sync_every_records = 8;
    wal.sync_every_ms = 1'000'000;  // count-triggered only
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
    // 40 records at a sync-every-8 policy: exactly 40 - 40 % 8 = 40 synced…
    // which is a multiple, so drive 3 more unsynced records.
    ApplyOp(db, 0);
    ApplyOp(db, 1);
    ApplyOp(db, 2);
    EXPECT_EQ(db.wal()->stats().records_synced, 40u);
    EXPECT_EQ(db.wal()->stats().records_logged, 43u);
    // Process dies here: the 3 pending records are the bounded loss.
  }
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(
      recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report)
          .ok());
  EXPECT_EQ(report.wal_records_replayed, 40u);
  EXPECT_EQ(Fingerprint(recovered), states[40]);
}

TEST_F(WalFixture, WalTimeTriggeredSyncUsesInjectedClock) {
  ManualClock clock;
  WalOptions wal;
  wal.sync_every_records = 100;
  wal.sync_every_ms = 50;
  wal.clock = &clock;
  Database db;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  Collection& c = db.GetOrCreate("articles");
  ASSERT_TRUE(c.Insert(MakeObject({{"k", static_cast<int64_t>(0)}})).ok());
  EXPECT_EQ(db.wal()->stats().records_synced, 0u);  // buffered
  clock.Advance(60);
  ASSERT_TRUE(c.Insert(MakeObject({{"k", static_cast<int64_t>(1)}})).ok());
  // The second append sees the first record 60 ms old and flushes both.
  EXPECT_EQ(db.wal()->stats().records_synced, 2u);
}

TEST_F(WalFixture, WalSurvivesTornAppendRetries) {
  const std::vector<std::string> states = ReferenceStates();
  datagen::StorageFaultOptions faults;
  faults.seed = 7;
  faults.append_failure_rate = 0.3;
  datagen::FaultyFileIo io(DefaultFileIo(), faults);
  WalOptions wal;
  wal.io = &io;
  wal.sync_every_records = 1;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
    // Failed appends poisoned their parts and kept the records pending;
    // retry the final flush until it lands.
    Status synced = Status::OK();
    for (int attempt = 0; attempt < 64; ++attempt) {
      synced = db.WalSync();
      if (synced.ok()) break;
    }
    ASSERT_TRUE(synced.ok()) << synced.ToString();
    EXPECT_GT(db.wal()->stats().sync_failures, 0u);
  }
  io.Reboot();
  SnapshotOptions snapshot;
  snapshot.io = &io;
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(recovered.RecoverWal(dir(), snapshot, wal, &report).ok());
  // Torn tails landed in poisoned parts; their retried records replay from
  // the later parts, idempotently, to the exact final state.
  EXPECT_EQ(Fingerprint(recovered), states.back());
}

TEST_F(WalFixture, WalFsyncLiesLoseOnlyTheLiedTail) {
  const std::vector<std::string> states = ReferenceStates();
  datagen::StorageFaultOptions faults;
  faults.seed = 11;
  faults.append_lie_rate = 0.4;
  datagen::FaultyFileIo io(DefaultFileIo(), faults);
  WalOptions wal;
  wal.io = &io;
  wal.sync_every_records = 1;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < kScriptOps; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.WalSync().ok());
  }
  ASSERT_GT(io.counters().append_lies, 0u);
  io.Reboot();  // the lied bytes vanish here
  SnapshotOptions snapshot;
  snapshot.io = &io;
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(recovered.RecoverWal(dir(), snapshot, wal, &report).ok());
  // A lying fsync genuinely loses acknowledged records — that is the fault,
  // not the recovery. The guarantee that must hold: what comes back is a
  // clean prefix of the acknowledged history, never garbage.
  const std::string got = Fingerprint(recovered);
  bool is_prefix_state = false;
  for (const std::string& state : states) {
    if (got == state) {
      is_prefix_state = true;
      break;
    }
  }
  EXPECT_TRUE(is_prefix_state);
}

TEST_F(WalFixture, WalDropAndRecreateReplaysFaithfully) {
  WalOptions wal;
  wal.sync_every_records = 1;
  std::string expected;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    Collection& keep = db.GetOrCreate("keep");
    ASSERT_TRUE(keep.Insert(MakeObject({{"k", static_cast<int64_t>(1)}})).ok());
    Collection& scratch = db.GetOrCreate("scratch");
    ASSERT_TRUE(
        scratch.Insert(MakeObject({{"k", static_cast<int64_t>(2)}})).ok());
    ASSERT_TRUE(
        scratch.Insert(MakeObject({{"k", static_cast<int64_t>(3)}})).ok());
    ASSERT_TRUE(db.Drop("scratch").ok());
    // Recreated after the drop: ids restart from 0.
    Collection& again = db.GetOrCreate("scratch");
    StatusOr<DocId> id =
        again.Insert(MakeObject({{"k", static_cast<int64_t>(4)}}));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 0);
    ASSERT_TRUE(db.WalSync().ok());
    expected = Fingerprint(db);
  }
  Database recovered;
  ASSERT_TRUE(
      recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, nullptr)
          .ok());
  EXPECT_EQ(Fingerprint(recovered), expected);
}

TEST_F(WalFixture, WalResumeNeverAppendsAfterATornTail) {
  WalOptions wal;
  wal.sync_every_records = 1;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < 10; ++j) ApplyOp(db, j);
  }
  // Tear the tail by hand: recovery must park the damage and continue in a
  // fresh part, leaving the torn file byte-for-byte untouched.
  const std::string segment = WalSegmentFileName("articles", 0, 1);
  const std::string pristine = ReadRaw(segment);
  const std::string torn = pristine.substr(0, pristine.size() - 5);
  WriteRaw(segment, torn);

  std::string expected;
  {
    Database db;
    SnapshotLoadReport report;
    ASSERT_TRUE(db.RecoverWal(dir(), SnapshotOptions{}, wal, &report).ok());
    EXPECT_EQ(report.wal_records_truncated, 1u);
    for (int j = 10; j < 20; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.WalSync().ok());
    expected = Fingerprint(db);
  }
  EXPECT_EQ(ReadRaw(segment), torn);  // old part untouched
  Database recovered;
  ASSERT_TRUE(
      recovered.RecoverWal(dir(), SnapshotOptions{}, wal, nullptr).ok());
  EXPECT_EQ(Fingerprint(recovered), expected);
}

TEST_F(WalFixture, WalCheckpointRotatesPrunesAndRecovers) {
  SnapshotOptions snapshot;
  snapshot.retain_generations = 1;
  WalOptions wal;
  wal.sync_every_records = 1;
  std::string expected;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < 10; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.Checkpoint(snapshot).ok());  // generation 1
    for (int j = 10; j < 20; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.Checkpoint(snapshot).ok());  // generation 2
    for (int j = 20; j < 30; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.WalSync().ok());
    expected = Fingerprint(db);
  }
  // Retention 1 at generation 2: every pre-2 segment is pruned; the live
  // tail is based on generation 2. (The generation-1 manifest may linger —
  // it was pinned by a live segment during the save and only a later GC
  // pass reaps it — but generation 2 must exist.)
  bool saw_old = false;
  uint64_t newest_manifest = 0;
  for (const std::string& name : Listing()) {
    StatusOr<WalSegmentName> segment = ParseWalSegmentFileName(name);
    if (segment.ok() && segment->base_generation < 2) saw_old = true;
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok()) newest_manifest = std::max(newest_manifest, *gen);
  }
  EXPECT_FALSE(saw_old);
  EXPECT_EQ(newest_manifest, 2u);

  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(recovered.RecoverWal(dir(), snapshot, wal, &report).ok());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.wal_records_replayed, 10u);  // only the post-2 tail
  EXPECT_EQ(Fingerprint(recovered), expected);
}

TEST_F(WalFixture, WalSegmentPinsItsBaseGenerationAgainstGc) {
  SnapshotOptions snapshot;
  snapshot.retain_generations = 1;
  WalOptions wal;
  wal.sync_every_records = 1;
  std::string expected;
  {
    Database db;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    for (int j = 0; j < 10; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.Checkpoint(snapshot).ok());  // generation 1, log base 1
    for (int j = 10; j < 20; ++j) ApplyOp(db, j);
    ASSERT_TRUE(db.WalSync().ok());
    // A plain snapshot save (no rotation): generation 2 commits while the
    // live log is still based on generation 1. With retain_generations=1
    // the GC would reap generation 1 — the pin must stop it, or the
    // segment's records lose their base.
    ASSERT_TRUE(db.SaveToDir(dir(), snapshot).ok());
    expected = Fingerprint(db);
  }
  bool gen1_manifest = false;
  for (const std::string& name : Listing()) {
    StatusOr<uint64_t> gen = ParseManifestFileName(name);
    if (gen.ok() && *gen == 1) gen1_manifest = true;
  }
  EXPECT_TRUE(gen1_manifest) << "GC reaped a generation a live segment needs";

  // The pin is what makes fallback work: damage generation 2's manifest and
  // recovery still lands on the full state via generation 1 + its log.
  {
    std::string manifest2 = ReadRaw(ManifestFileName(2));
    manifest2[manifest2.size() / 2] ^= 0x40;
    WriteRaw(ManifestFileName(2), manifest2);
  }
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(recovered.RecoverWal(dir(), snapshot, wal, &report).ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.generations_skipped, 1u);
  EXPECT_EQ(Fingerprint(recovered), expected);
}

TEST_F(WalFixture, WalCheckpointBytesAreODeltaNotOStore) {
  // The headline property: refreshing 1% of documents costs ~1% of the
  // bytes a snapshot rewrite would. (The CI bench gates the exact ratio;
  // this is the fast unit-level guard.)
  WalOptions wal;
  Database db;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  Collection& c = db.GetOrCreate("articles");
  for (int j = 0; j < 500; ++j) {
    ASSERT_TRUE(c.Insert(MakeObject({{"k", static_cast<int64_t>(j)},
                                     {"body", std::string(100, 'x')}}))
                    .ok());
  }
  ASSERT_TRUE(db.Checkpoint(SnapshotOptions{}).ok());
  const size_t bytes_before = db.wal()->stats().bytes_synced;
  for (int j = 0; j < 5; ++j) {  // 1% delta
    ASSERT_TRUE(c.Upsert(Filter().Eq("k", Value(static_cast<int64_t>(j))),
                         MakeObject({{"k", static_cast<int64_t>(j)},
                                     {"body", std::string(100, 'y')}}))
                    .ok());
  }
  ASSERT_TRUE(db.WalSync().ok());
  const size_t delta_bytes = db.wal()->stats().bytes_synced - bytes_before;
  // Full store ≈ 500 docs × ~120 B ≈ 60 kB; the delta sync must be well
  // under a tenth of that.
  EXPECT_LT(delta_bytes, 6000u);
  EXPECT_GT(delta_bytes, 0u);
}

/// A segment whose third frame is bad: recovery, a replica and walcat must
/// all stop there. Each applies only the put before it, recovery counts one
/// rejected record, and `walcat --verify` fails naming the problem recovery
/// reports.
class WalRejectFixture : public WalFixture {
 protected:
  void ExpectStopsEverywhere(const std::string& bad,
                             size_t replica_damaged_segments = 1) {
    const std::string file = WalSegmentFileName("articles", 0, 1);
    WriteRaw(file, Frame("seg articles 0 1 0") + Frame("put 0 {\"k\":0}") +
                       bad + Frame("put 2 {\"k\":2}"));
    Database want;
    ASSERT_TRUE(want.GetOrCreate("articles")
                    .RestorePut(0, MakeObject({{"k", int64_t{0}}}))
                    .ok());

    // walcat first, then the replica: recovery attaches a WAL to the dir.
    const std::string command =
        std::string(NEWSDIFF_WALCAT) + " --verify " + dir() + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string walcat;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) walcat += line;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << walcat;
    EXPECT_EQ(WEXITSTATUS(status), 1) << walcat;

    Database replicated;
    Replica replica(dir(), &replicated);
    ASSERT_TRUE(replica.Poll().ok());
    EXPECT_EQ(replica.stats().records_applied, 1u);
    EXPECT_EQ(replica.tailer_stats()->damaged_segments,
              replica_damaged_segments);
    EXPECT_EQ(Fingerprint(replicated), Fingerprint(want));

    Database recovered;
    SnapshotLoadReport report;
    ASSERT_TRUE(
        recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report)
            .ok());
    EXPECT_EQ(report.wal_records_replayed, 1u);
    EXPECT_EQ(report.wal_records_rejected, 1u);
    EXPECT_EQ(report.wal_records_truncated, 0u);
    EXPECT_EQ(Fingerprint(recovered), Fingerprint(want));
    ASSERT_EQ(report.problems.size(), 1u);
    const std::string prefix = "wal " + file + ": ";
    ASSERT_EQ(report.problems[0].rfind(prefix, 0), 0u) << report.problems[0];
    EXPECT_NE(walcat.find("rejected: " + report.problems[0].substr(
                              prefix.size())),
              std::string::npos)
        << walcat << report.problems[0];
  }
};

TEST_F(WalRejectFixture, SecondSegmentHeaderMidSegment) {
  ExpectStopsEverywhere(Frame("seg articles 0 1 0"));
}

TEST_F(WalRejectFixture, PutDocumentThatIsNotAnObject) {
  ExpectStopsEverywhere(Frame("put 1 [1,2]"));
}

TEST_F(WalRejectFixture, PutIdAboveTheLargestDocId) {
  ExpectStopsEverywhere(Frame("put 9223372036854775808 {\"k\":1}"));
}

TEST_F(WalRejectFixture, PutIdAboveTheLargestU64) {
  ExpectStopsEverywhere(Frame("put 18446744073709551616 {\"k\":1}"));
}

TEST_F(WalRejectFixture, RecordAfterTheCheckpointMarker) {
  // The tailer moves on at the marker without reading further, so it
  // abandons nothing; what it applied still matches recovery.
  ExpectStopsEverywhere(Frame("ckpt 1") + Frame("put 1 {\"k\":1}"),
                        /*replica_damaged_segments=*/0);
}

}  // namespace
}  // namespace newsdiff::store
