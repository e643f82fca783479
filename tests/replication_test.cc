// Replication tests: the WAL tailer's anomaly handling (torn tails that
// complete, durable damage abandoned like recovery would), replica catch-up
// and bounded staleness, the prune-race resync, fenced promotion that locks
// a stale writer out of the shared log, an every-byte-flip fuzz over the
// promotion record, and the supervisor's follower mode.
#include "store/replication.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/retry.h"
#include "core/supervisor.h"
#include "datagen/faults.h"
#include "store/database.h"
#include "store/json.h"
#include "store/lease.h"
#include "store/replica.h"

namespace newsdiff::store {
namespace {

namespace fs = std::filesystem;

constexpr size_t kFrameHeaderBytes = 8;  // u32le length + u32le CRC-32

class ReplicationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_replication_test_" +
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

  fs::path dir_;
};

/// Canonical byte dump of the whole store, slot layout included: equality
/// with the writer means the replica reproduced its state bit for bit.
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

/// Scripted mutation `j`: the same deterministic insert/upsert/remove mix
/// the WAL crash sweeps use, one log record per step.
void ApplyOp(Database& db, int j) {
  Collection& articles = db.GetOrCreate("articles");
  if (j % 7 == 3 && j >= 3) {
    StatusOr<DocId> id = articles.Upsert(
        Filter().Eq("k", Value(static_cast<int64_t>(j - 3))),
        MakeObject({{"k", static_cast<int64_t>(j - 3)},
                    {"v", static_cast<int64_t>(j * 100)}}));
    ASSERT_TRUE(id.ok());
  } else if (j % 5 == 4 && (j - 1) % 7 != 3) {
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

/// states[m] is the fingerprint after m scripted ops — every state a
/// replica may legally expose while following the scripted writer.
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

TEST_F(ReplicationFixture, TailerFollowsLiveAppends) {
  Database db;
  WalOptions wal;
  wal.sync_every_records = 1;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());

  Database rdb;
  Replica rep(dir(), &rdb);
  ASSERT_TRUE(rep.Bootstrap().ok());

  // Lock-step interleaving: after every synced writer op one poll must
  // reproduce the writer's state exactly.
  for (int j = 0; j < kScriptOps; ++j) {
    ApplyOp(db, j);
    ASSERT_TRUE(rep.Poll().ok());
    ASSERT_EQ(Fingerprint(rdb), Fingerprint(db)) << "after op " << j;
  }
  EXPECT_TRUE(rep.stats().caught_up);
  EXPECT_EQ(rep.stats().bytes_behind, 0u);
  EXPECT_EQ(rep.stats().records_applied, static_cast<size_t>(kScriptOps));
  EXPECT_EQ(rep.stats().resyncs, 0u);
}

TEST_F(ReplicationFixture, TailerWaitsOutATornTailUntilTheAppendCompletes) {
  WalRecord header;
  header.type = WalRecord::Type::kSegmentHeader;
  header.collection = "articles";
  header.base_generation = 0;
  header.part = 1;
  header.slot_count = 0;
  WalRecord put;
  put.type = WalRecord::Type::kPut;
  put.id = 0;
  put.doc_json = "{\"_id\":0,\"k\":7}";
  const std::string h = EncodeWalRecord(header);
  const std::string p = EncodeWalRecord(put);
  const std::string name = WalSegmentFileName("articles", 0, 1);

  // An append in flight: the put's last bytes have not landed yet.
  WriteRaw(name, h + p.substr(0, p.size() - 3));

  WalTailer tailer(dir(), 0);
  size_t puts = 0;
  auto apply = [&](const std::string& collection, const WalRecord& record) {
    EXPECT_EQ(collection, "articles");
    if (record.type == WalRecord::Type::kPut) ++puts;
    return Status::OK();
  };
  // The tailer takes the header, then parks at the incomplete frame
  // instead of guessing — poll after poll, without declaring damage.
  ASSERT_TRUE(tailer.Poll(apply).ok());
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(puts, 0u);
  EXPECT_EQ(tailer.stats().records_delivered, 1u);
  EXPECT_GE(tailer.stats().torn_waits, 2u);
  EXPECT_GT(tailer.stats().bytes_behind, 0u);
  EXPECT_EQ(tailer.stats().damaged_segments, 0u);

  // The append completes; the very next poll delivers the frame.
  WriteRaw(name, h + p);
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(puts, 1u);
  EXPECT_EQ(tailer.stats().records_delivered, 2u);
  EXPECT_EQ(tailer.stats().bytes_behind, 0u);
}

TEST_F(ReplicationFixture, TailerAbandonsDurableDamageLikeRecoveryWould) {
  WalRecord header;
  header.type = WalRecord::Type::kSegmentHeader;
  header.collection = "articles";
  header.base_generation = 0;
  header.part = 1;
  header.slot_count = 0;
  WalRecord put;
  put.type = WalRecord::Type::kPut;
  put.id = 0;
  put.doc_json = "{\"_id\":0,\"k\":7}";
  const std::string h = EncodeWalRecord(header);
  std::string rotten = EncodeWalRecord(put);
  rotten[kFrameHeaderBytes + 2] ^= 0x5a;  // payload no longer matches its CRC
  const std::string name = WalSegmentFileName("articles", 0, 1);
  WriteRaw(name, h + rotten);

  WalTailer tailer(dir(), 0);
  size_t puts = 0;
  auto apply = [&](const std::string&, const WalRecord& record) {
    if (record.type == WalRecord::Type::kPut) ++puts;
    return Status::OK();
  };
  // One rejected read could be in-transit rot; only the same bytes
  // rejected on `max_reject_polls` consecutive polls prove the file
  // itself is damaged.
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(tailer.stats().damaged_segments, 0u);
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(tailer.stats().damaged_segments, 0u);
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(tailer.stats().damaged_segments, 1u);

  // Abandoned means abandoned: bytes appended after the damage are never
  // trusted, exactly as recovery stops its scan at the first bad frame.
  WriteRaw(name, h + rotten + EncodeWalRecord(put));
  ASSERT_TRUE(tailer.Poll(apply).ok());
  EXPECT_EQ(puts, 0u);
  EXPECT_EQ(tailer.stats().records_delivered, 1u);  // the header only
}

TEST_F(ReplicationFixture, TailerFollowsCheckpointRotationAndNewCollections) {
  Database db;
  WalOptions wal;
  wal.sync_every_records = 1;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());

  Database rdb;
  Replica rep(dir(), &rdb);

  for (int j = 0; j < kScriptOps; ++j) {
    ApplyOp(db, j);
    if (j == 10) {
      // A second collection born mid-stream: its segment appears in a
      // later listing and the tailer must pick it up from its header.
      ASSERT_TRUE(db.GetOrCreate("tweets")
                      .Insert(MakeObject({{"t", static_cast<int64_t>(1)}}))
                      .ok());
    }
    if (j == 15 || j == 30) {
      ASSERT_TRUE(db.Checkpoint().ok());  // rotate every log mid-follow
    }
    ASSERT_TRUE(rep.Poll().ok());
    ASSERT_EQ(Fingerprint(rdb), Fingerprint(db)) << "after op " << j;
  }
  EXPECT_TRUE(rep.stats().caught_up);
  // The first checkpoint prunes the pre-checkpoint segments immediately
  // (their records are all in the sole retained generation), so a tailer
  // mid-segment resyncs once; the second checkpoint keeps the previous
  // base retained and is followed in-stream, no resync.
  EXPECT_EQ(rep.stats().resyncs, 1u);
  EXPECT_EQ(rep.stats().checkpoint_generation, 2u);
  ASSERT_NE(rep.tailer_stats(), nullptr);
  EXPECT_GE(rep.tailer_stats()->segments_tracked, 2u);
}

TEST_F(ReplicationFixture, ReplicaResyncsCleanlyWhenPruningOutrunsTheTail) {
  const std::vector<std::string> states = ReferenceStates();

  Database db;
  WalOptions wal;
  wal.sync_every_records = 1;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  SnapshotOptions snap;
  snap.retain_generations = 1;  // aggressive pruning

  Database rdb;
  Replica rep(dir(), &rdb);

  for (int j = 0; j < kScriptOps; ++j) {
    ApplyOp(db, j);
    // The replica only polls at the edges; in between, two checkpoints
    // under retain_generations=1 prune the segments its cursor sits in.
    if (j < 5 || j > 36) {
      ASSERT_TRUE(rep.Poll().ok());
      // Whatever the poll observed — catch-up, a pruned cursor, a resync —
      // the exposed state is always some exact prefix of the writer's
      // history, never a half-pruned splice.
      EXPECT_NE(std::find(states.begin(), states.end(), Fingerprint(rdb)),
                states.end())
          << "after op " << j;
    }
    if (j == 19 || j == 34) {
      ASSERT_TRUE(db.Checkpoint(snap).ok());
    }
  }
  ASSERT_TRUE(rep.Poll().ok());
  EXPECT_GE(rep.stats().resyncs, 1u);
  EXPECT_TRUE(rep.stats().caught_up);
  EXPECT_EQ(Fingerprint(rdb), Fingerprint(db));
}

TEST_F(ReplicationFixture, ReplicaStalenessGrowsWhileReadsFail) {
  Database db;
  WalOptions wal;
  wal.sync_every_records = 1;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  for (int j = 0; j < 5; ++j) ApplyOp(db, j);

  ManualClock clock;
  // Dry run: count the io operations bootstrap plus one clean catch-up
  // poll cost, so the real run's crash point lands exactly after them.
  size_t setup_ops = 0;
  {
    datagen::FaultyFileIo probe(DefaultFileIo(), {});
    ReplicaOptions opts;
    opts.snapshot.io = &probe;
    opts.clock = &clock;
    Database rdb;
    Replica rep(dir(), &rdb, opts);
    ASSERT_TRUE(rep.Poll().ok());
    ASSERT_TRUE(rep.stats().caught_up);
    setup_ops = probe.counters().ops;
  }

  datagen::StorageFaultOptions faults;
  faults.crash_after_ops = setup_ops;  // healthy bootstrap, then darkness
  datagen::FaultyFileIo io(DefaultFileIo(), faults);
  ReplicaOptions opts;
  opts.snapshot.io = &io;
  opts.clock = &clock;
  Database rdb;
  Replica rep(dir(), &rdb, opts);
  ASSERT_TRUE(rep.Poll().ok());
  EXPECT_TRUE(rep.stats().caught_up);
  EXPECT_EQ(rep.stats().staleness_ms, 0);

  // Every subsequent read fails. The polls stay OK (transient faults are
  // retried), but none of them can prove the replica is current, so the
  // staleness clock keeps running — the bounded-staleness contract.
  clock.Advance(250);
  ASSERT_TRUE(rep.Poll().ok());
  EXPECT_FALSE(rep.stats().caught_up);
  EXPECT_EQ(rep.stats().staleness_ms, 250);
  clock.Advance(250);
  ASSERT_TRUE(rep.Poll().ok());
  EXPECT_EQ(rep.stats().staleness_ms, 500);
  ASSERT_NE(rep.tailer_stats(), nullptr);
  EXPECT_GE(rep.tailer_stats()->read_failures, 2u);
}

TEST_F(ReplicationFixture, PromoteFencesTheStaleWriterAndKeepsItsSyncedPrefix) {
  ManualClock clock;
  LeaseOptions writer_lease_opts;
  writer_lease_opts.clock = &clock;
  writer_lease_opts.owner = "writer";
  writer_lease_opts.ttl_ms = 1'000;
  StatusOr<Lease> writer_lease = Lease::Acquire(dir(), writer_lease_opts);
  ASSERT_TRUE(writer_lease.ok());

  WalOptions wal;
  wal.sync_every_records = 1;
  wal.clock = &clock;
  wal.write_gate = [&]() { return writer_lease->Check(); };
  Database db;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  for (int j = 0; j < 10; ++j) ApplyOp(db, j);
  ASSERT_TRUE(db.WalSync().ok());

  ReplicaOptions ropts;
  ropts.clock = &clock;
  Database rdb;
  Replica rep(dir(), &rdb, ropts);
  ASSERT_TRUE(rep.Poll().ok());
  ASSERT_EQ(Fingerprint(rdb), Fingerprint(db));
  // A second replica keeps watching throughout the failover.
  Database odb;
  Replica observer(dir(), &odb, ropts);
  ASSERT_TRUE(observer.Poll().ok());

  // The writer goes silent (partition, crash — indistinguishable); its
  // lease expires and the replica takes over with a higher fencing token.
  clock.Advance(2'000);
  LeaseOptions promote_opts;
  promote_opts.owner = "replica";
  promote_opts.ttl_ms = 1'000;
  StatusOr<uint64_t> token = rep.Promote(promote_opts);
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_EQ(*token, 2u);
  EXPECT_TRUE(rep.promoted());
  // The promoted store is exactly the writer's acknowledged synced prefix.
  EXPECT_EQ(Fingerprint(rdb), Fingerprint(db));

  // The partitioned writer wakes up and tries to keep going: in-memory
  // writes still work, but its next group-commit sync dies at the write
  // gate — nothing it buffered after the takeover can reach the log.
  const size_t synced_before = db.wal()->stats().records_synced;
  ApplyOp(db, 10);
  EXPECT_EQ(db.WalSync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.wal()->stats().records_synced, synced_before);

  // The promoted replica is the writer now.
  ASSERT_TRUE(rdb.GetOrCreate("articles")
                  .Insert(MakeObject({{"k", static_cast<int64_t>(100)}}))
                  .ok());
  ASSERT_TRUE(rdb.WalSync().ok());
  ASSERT_TRUE(rep.RenewLease().ok());

  // The observer follows straight through the takeover: it sees the
  // promotion record (ordering the leadership change by token) and then
  // the new writer's appends.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(observer.Poll().ok());
  EXPECT_EQ(observer.stats().fencing_token, 2u);
  EXPECT_EQ(Fingerprint(odb), Fingerprint(rdb));

  // Cold recovery of the directory agrees with the promoted writer — the
  // fenced writer's post-takeover buffer left no trace on disk.
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(
      recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report)
          .ok());
  EXPECT_EQ(Fingerprint(recovered), Fingerprint(rdb));
  // The promotion is re-announced in the post-takeover generation, so even
  // cold recovery (which never saw the pruned pre-checkpoint log) learns
  // the fencing token.
  EXPECT_EQ(report.wal_fencing_token, 2u);
}

TEST_F(ReplicationFixture, PromotionRecordEveryByteFlipIsPrefixOrFlagged) {
  // Build a log whose middle frame is a promotion record, with a synced
  // put on either side.
  {
    Database db;
    WalOptions wal;
    wal.sync_every_records = 1;
    ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
    Collection& articles = db.GetOrCreate("articles");
    ASSERT_TRUE(articles.Insert(MakeObject({{"k", static_cast<int64_t>(0)}})).ok());
    ASSERT_TRUE(articles.Insert(MakeObject({{"k", static_cast<int64_t>(1)}})).ok());
    ASSERT_TRUE(db.wal()->LogPromotion("articles", 7, "promoted writer").ok());
    ASSERT_TRUE(articles.Insert(MakeObject({{"k", static_cast<int64_t>(2)}})).ok());
    ASSERT_TRUE(db.WalSync().ok());
  }
  // Reference states: the prefix before the promotion record (two puts)
  // and the full log (three).
  Database two;
  ASSERT_TRUE(two.GetOrCreate("articles")
                  .Insert(MakeObject({{"k", static_cast<int64_t>(0)}}))
                  .ok());
  ASSERT_TRUE(two.GetOrCreate("articles")
                  .Insert(MakeObject({{"k", static_cast<int64_t>(1)}}))
                  .ok());
  Database three;
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(three.GetOrCreate("articles").Insert(MakeObject({{"k", k}})).ok());
  }
  const std::string prefix_fp = Fingerprint(two);
  const std::string full_fp = Fingerprint(three);

  const std::string name = WalSegmentFileName("articles", 0, 1);
  const std::string pristine = ReadRaw(name);
  // Locate the promotion frame.
  size_t promo_begin = 0, promo_end = 0;
  WalSegmentReader reader({"articles", 0, 1});
  std::string_view rest = pristine;
  while (true) {
    const size_t begin = reader.offset();
    const WalFrame frame = reader.Next(&rest);
    if (frame.verdict == WalFrame::Verdict::kEnd) break;
    ASSERT_EQ(frame.verdict, WalFrame::Verdict::kRecord) << frame.problem;
    if (frame.record.type == WalRecord::Type::kPromotion) {
      promo_begin = begin;
      promo_end = reader.offset();
    }
  }
  ASSERT_GT(promo_end, 0u);

  // Flip every byte of the framed promotion record in turn. Recovery must
  // come up as a legal prefix of the log with the damage flagged — never
  // with a silently divergent fencing token or a corrupted document.
  for (size_t i = promo_begin; i < promo_end; ++i) {
    std::string damaged = pristine;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x5a);
    WriteRaw(name, damaged);
    Database recovered;
    SnapshotLoadReport report;
    ASSERT_TRUE(
        recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report)
            .ok())
        << "flip at byte " << i;
    const std::string got = Fingerprint(recovered);
    if (got == full_fp) {
      // The flip was detected yet replay still completed — impossible:
      // replay stops at the first damaged frame, so the put after the
      // promotion record cannot have been applied.
      ADD_FAILURE() << "flip at byte " << i << " replayed past the damage";
    } else {
      EXPECT_EQ(got, prefix_fp) << "flip at byte " << i;
      EXPECT_GE(report.wal_records_rejected + report.wal_records_truncated, 1u)
          << "flip at byte " << i << " was not flagged";
      EXPECT_EQ(report.wal_fencing_token, 0u)
          << "flip at byte " << i << " forged a fencing token";
    }
  }

  // Undamaged control: the token lands and all three puts replay.
  WriteRaw(name, pristine);
  Database recovered;
  SnapshotLoadReport report;
  ASSERT_TRUE(
      recovered.RecoverWal(dir(), SnapshotOptions{}, WalOptions{}, &report)
          .ok());
  EXPECT_EQ(Fingerprint(recovered), full_fp);
  EXPECT_EQ(report.wal_fencing_token, 7u);
}

TEST_F(ReplicationFixture, SupervisorFollowerReplicatesAndPromotes) {
  ManualClock clock;
  LeaseOptions writer_lease_opts;
  writer_lease_opts.clock = &clock;
  writer_lease_opts.owner = "writer";
  writer_lease_opts.ttl_ms = 1'000;
  StatusOr<Lease> writer_lease = Lease::Acquire(dir(), writer_lease_opts);
  ASSERT_TRUE(writer_lease.ok());
  WalOptions wal;
  wal.sync_every_records = 1;
  wal.clock = &clock;
  wal.write_gate = [&]() { return writer_lease->Check(); };
  Database db;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  for (int j = 0; j < 10; ++j) ApplyOp(db, j);
  ASSERT_TRUE(db.WalSync().ok());

  core::SupervisorOptions opts;
  opts.snapshot_dir = dir();
  opts.clock = &clock;
  opts.use_wal = true;
  opts.lease_enabled = true;
  opts.lease.owner = "follower";
  opts.lease.ttl_ms = 1'000;
  core::PipelineSupervisor supervisor(core::Pipeline(core::PipelineOptions{}),
                                      opts);
  // Standby: a follower supervisor mirrors the writer's store for reads.
  Database rdb;
  ASSERT_TRUE(supervisor.Follow(rdb).ok());
  ASSERT_TRUE(supervisor.PollFollower().ok());
  ASSERT_NE(supervisor.replica(), nullptr);
  EXPECT_TRUE(supervisor.replica()->stats().caught_up);
  EXPECT_EQ(Fingerprint(rdb), Fingerprint(db));

  // Failover: the writer misses its renewals; the follower takes over.
  clock.Advance(2'000);
  StatusOr<uint64_t> token = supervisor.PromoteFollower();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_EQ(*token, 2u);
  EXPECT_EQ(Fingerprint(rdb), Fingerprint(db));

  // The stale writer is locked out; the promoted follower owns the log.
  ApplyOp(db, 10);
  EXPECT_EQ(db.WalSync().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(rdb.GetOrCreate("articles")
                  .Insert(MakeObject({{"k", static_cast<int64_t>(99)}}))
                  .ok());
  ASSERT_TRUE(rdb.WalSync().ok());
}

}  // namespace
}  // namespace newsdiff::store
