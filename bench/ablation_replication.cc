// Ablation: WAL-tailing replication. Stage one (`catchup_delta`) meters
// the bytes a caught-up replica reads to absorb a 1% writer delta against
// the bytes a cold bootstrap pays, and gates on the incremental path being
// at least 5x cheaper — the tailer really is O(delta), not O(store).
// Stage two (`staleness`) follows a live writer through >=10% injected
// read faults on a ManualClock and reports the worst observed staleness,
// gating on the replica always re-proving freshness within a bounded
// window and ending provably caught up. Stage three (`chaos_failover`)
// kills the writer at every single io operation, promotes the replica
// under the same read chaos, and gates on the promoted store being
// byte-identical to the writer's acknowledged synced prefix with the
// revived stale writer fenced every time. Results land in
// BENCH_replication.json (see --out), in the report format of
// bench/report.h.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "datagen/faults.h"
#include "store/database.h"
#include "store/json.h"
#include "store/lease.h"
#include "store/replica.h"
#include "store/wal.h"

using namespace newsdiff;

namespace {

namespace fs = std::filesystem;

/// Forwarding FileIo that meters the replica's read traffic: whole-file
/// loads (bootstrap) and incremental tail reads (catch-up) separately.
class ReadMeterIo : public FileIo {
 public:
  explicit ReadMeterIo(FileIo& inner) : inner_(&inner) {}

  Status WriteFile(const std::string& path,
                   const std::string& contents) override {
    return inner_->WriteFile(path, contents);
  }
  Status AppendFile(const std::string& path,
                    const std::string& contents) override {
    return inner_->AppendFile(path, contents);
  }
  StatusOr<std::string> ReadFile(const std::string& path) override {
    StatusOr<std::string> got = inner_->ReadFile(path);
    if (got.ok()) bytes_read_ += got->size();
    return got;
  }
  StatusOr<std::string> ReadFileFrom(const std::string& path,
                                     uint64_t offset) override {
    StatusOr<std::string> got = inner_->ReadFileFrom(path, offset);
    if (got.ok()) bytes_read_ += got->size();
    return got;
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  Status CreateDirectories(const std::string& dir) override {
    return inner_->CreateDirectories(dir);
  }
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    return inner_->ListDir(dir);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }

  void Reset() { bytes_read_ = 0; }
  size_t bytes_read() const { return bytes_read_; }

 private:
  FileIo* inner_;
  size_t bytes_read_ = 0;
};

std::string Fingerprint(const store::Database& db) {
  std::string out;
  for (const std::string& name : db.CollectionNames()) {
    const store::Collection* coll = db.Get(name);
    out += "== " + name + " slots=" + std::to_string(coll->slot_count()) +
           "\n";
    for (const store::Value& doc : coll->All()) {
      out += store::ToJson(doc) + "\n";
    }
  }
  return out;
}

/// The scripted insert/upsert/remove mix the WAL crash sweeps use: one log
/// record per step, so synced-record counts index reference states.
bool ApplyOp(store::Database& db, int j) {
  store::Collection& articles = db.GetOrCreate("articles");
  if (j % 7 == 3 && j >= 3) {
    return articles
        .Upsert(store::Filter().Eq("k",
                                   store::Value(static_cast<int64_t>(j - 3))),
                store::MakeObject({{"k", static_cast<int64_t>(j - 3)},
                                   {"v", static_cast<int64_t>(j * 100)}}))
        .ok();
  }
  if (j % 5 == 4 && (j - 1) % 7 != 3) {
    return articles.Remove(store::Filter().Eq(
               "k", store::Value(static_cast<int64_t>(j - 1)))) == 1;
  }
  return articles
      .Insert(store::MakeObject({{"k", static_cast<int64_t>(j)},
                                 {"v", static_cast<int64_t>(j)}}))
      .ok();
}

constexpr int kScriptOps = 30;
/// The staleness stage's replica fault seed; the chaos sweep seeds each
/// crash point's replica faults from 5000 + its index.
constexpr uint64_t kSeed = 4242;

std::vector<std::string> ReferenceStates() {
  std::vector<std::string> states;
  store::Database db;
  states.push_back(Fingerprint(db));
  for (int j = 0; j < kScriptOps; ++j) {
    ApplyOp(db, j);
    states.push_back(Fingerprint(db));
  }
  return states;
}

datagen::StorageFaultOptions ReplicaFaults(uint64_t seed) {
  datagen::StorageFaultOptions faults;
  faults.seed = seed;
  faults.read_failure_rate = 0.10;
  faults.read_tear_rate = 0.10;
  faults.read_flip_rate = 0.05;
  return faults;
}

// -------------------------------------------------------------------------
// Stage one: catch-up bytes are O(delta).

constexpr double kMinCatchupRatio = 5.0;

/// Records the `catchup_delta.*` rows: the bytes a cold replica reads
/// (snapshot + full tail) against the bytes a caught-up replica reads to
/// absorb the delta, gated on their ratio.
Status RunCatchupDelta(const fs::path& root, bench::Report& report) {
  const std::string dir = (root / "catchup").string();
  fs::remove_all(dir);

  store::Database db;
  store::WalOptions wal;
  NEWSDIFF_RETURN_IF_ERROR(db.AttachWal(dir, wal));
  store::Collection& articles = db.GetOrCreate("articles");
  const size_t docs = 2000;
  for (size_t i = 0; i < docs; ++i) {
    StatusOr<store::DocId> id = articles.Insert(store::MakeObject(
        {{"k", static_cast<int64_t>(i)},
         {"score", static_cast<int64_t>(i * 17 % 1000)},
         {"bucket", static_cast<int64_t>(i % 24)}}));
    if (!id.ok()) return id.status();
  }
  NEWSDIFF_RETURN_IF_ERROR(db.WalSync());
  NEWSDIFF_RETURN_IF_ERROR(db.Checkpoint());

  // Cold bootstrap: the replica loads the checkpoint and replays the tail.
  ReadMeterIo rio(DefaultFileIo());
  store::ReplicaOptions opts;
  opts.snapshot.io = &rio;
  store::Database rdb;
  store::Replica rep(dir, &rdb, opts);
  NEWSDIFF_RETURN_IF_ERROR(rep.Poll());
  if (!rep.stats().caught_up) {
    return Status::Internal("replica not caught up after bootstrap");
  }
  const size_t bootstrap_bytes = rio.bytes_read();

  // A 1% metadata refresh, then one incremental poll.
  const size_t delta_docs = docs / 100;
  for (size_t i = 0; i < delta_docs; ++i) {
    articles.UpdateSet(
        store::Filter().Eq("k", store::Value(static_cast<int64_t>(i))),
        "touched", store::Value(static_cast<int64_t>(1)));
  }
  NEWSDIFF_RETURN_IF_ERROR(db.WalSync());
  rio.Reset();
  NEWSDIFF_RETURN_IF_ERROR(rep.Poll());
  if (!rep.stats().caught_up) {
    return Status::Internal("replica not caught up after delta poll");
  }
  const size_t catchup_bytes = rio.bytes_read();
  if (Fingerprint(rdb) != Fingerprint(db)) {
    return Status::Internal("replica diverged from writer");
  }
  const double bytes_ratio = catchup_bytes > 0
                                 ? static_cast<double>(bootstrap_bytes) /
                                       static_cast<double>(catchup_bytes)
                                 : 0.0;

  using bench::Better;
  report.Add("catchup_delta.docs", static_cast<double>(docs), "docs",
             Better::kNone);
  report.Add("catchup_delta.delta_docs", static_cast<double>(delta_docs),
             "docs", Better::kNone);
  report.Add("catchup_delta.bootstrap_bytes",
             static_cast<double>(bootstrap_bytes), "bytes", Better::kLower,
             bench::kExact);
  report.Add("catchup_delta.catchup_bytes", static_cast<double>(catchup_bytes),
             "bytes", Better::kLower, bench::kExact);
  report.AtLeast("catchup_delta.bytes_ratio", bytes_ratio, kMinCatchupRatio,
                 "x");
  return Status::OK();
}

// -------------------------------------------------------------------------
// Stage two: bounded staleness through read chaos.

constexpr int64_t kStalenessBoundMs = 2000;

/// Records the `staleness.*` rows, gated on the replica ending caught up
/// with zero staleness and never lagging past kStalenessBoundMs.
Status RunStaleness(const fs::path& root, bench::Report& report) {
  const size_t ticks = 200;
  const int64_t tick_ms = 100;
  const std::string dir = (root / "staleness").string();
  fs::remove_all(dir);

  ManualClock clock;
  store::Database db;
  store::WalOptions wal;
  wal.clock = &clock;
  wal.sync_every_records = 1;
  NEWSDIFF_RETURN_IF_ERROR(db.AttachWal(dir, wal));

  datagen::FaultyFileIo rio(DefaultFileIo(), ReplicaFaults(kSeed));
  store::ReplicaOptions opts;
  opts.snapshot.io = &rio;
  opts.clock = &clock;
  store::Database rdb;
  store::Replica rep(dir, &rdb, opts);

  // One synced record and one poll per tick; a poll that hits a fault (or
  // a torn read) cannot prove freshness, so staleness accrues until the
  // next clean poll — the gate bounds how long that ever takes.
  int64_t max_staleness_ms = 0;
  for (size_t t = 0; t < ticks; ++t) {
    clock.Advance(tick_ms);
    if (!ApplyOp(db, static_cast<int>(t) % kScriptOps)) {
      return Status::Internal("writer op failed");
    }
    const Status polled = rep.Poll();
    (void)polled;  // transient faults retry on the next tick
    max_staleness_ms = std::max(max_staleness_ms, rep.stats().staleness_ms);
  }
  for (int i = 0; i < 200 && !rep.stats().caught_up; ++i) {
    const Status polled = rep.Poll();
    (void)polled;
  }
  const bool caught_up = rep.stats().caught_up;
  const int64_t final_staleness_ms = rep.stats().staleness_ms;
  const size_t read_failures = rep.tailer_stats() != nullptr
                                   ? rep.tailer_stats()->read_failures
                                   : 0;
  if (Fingerprint(rdb) != Fingerprint(db)) {
    return Status::Internal("replica diverged from writer");
  }

  using bench::Better;
  report.Add("staleness.ticks", static_cast<double>(ticks), "ticks",
             Better::kNone);
  report.Add("staleness.tick_ms", static_cast<double>(tick_ms), "ms",
             Better::kNone);
  report.Add("staleness.read_failures", static_cast<double>(read_failures),
             "reads", Better::kNone);
  report.AtMost("staleness.max_staleness_ms",
                static_cast<double>(max_staleness_ms),
                static_cast<double>(kStalenessBoundMs), "ms", bench::kExact);
  report.AtMost("staleness.final_staleness_ms",
                static_cast<double>(final_staleness_ms), 0.0, "ms");
  report.Check("staleness.caught_up", caught_up);
  return Status::OK();
}

// -------------------------------------------------------------------------
// Stage three: failover chaos sweep.

/// Records the `chaos_failover.*` rows, gated on every crash point
/// promoting to exactly the writer's synced prefix and every revived stale
/// writer being fenced.
Status RunChaosFailover(const fs::path& root, bench::Report& report) {
  const std::vector<std::string> states = ReferenceStates();

  // Dry run on a clean io to count the writer's operations.
  size_t total_ops = 0;
  {
    const std::string d = (root / "chaos_dry").string();
    fs::remove_all(d);
    fs::create_directories(d);
    ManualClock clock;
    datagen::FaultyFileIo wio(DefaultFileIo(), {});
    store::LeaseOptions lease_opts;
    lease_opts.io = &wio;
    lease_opts.clock = &clock;
    lease_opts.owner = "writer";
    lease_opts.ttl_ms = 1'000;
    StatusOr<store::Lease> lease = store::Lease::Acquire(d, lease_opts);
    NEWSDIFF_RETURN_IF_ERROR(lease.status());
    store::WalOptions wal;
    wal.io = &wio;
    wal.clock = &clock;
    wal.sync_every_records = 1;
    wal.write_gate = [&]() { return lease->Check(); };
    store::SnapshotOptions snap;
    snap.io = &wio;
    store::Database db;
    NEWSDIFF_RETURN_IF_ERROR(db.AttachWal(d, wal));
    for (int j = 0; j < kScriptOps; ++j) {
      if (!ApplyOp(db, j)) return Status::Internal("dry-run op failed");
      if (j == kScriptOps / 2) {
        NEWSDIFF_RETURN_IF_ERROR(db.Checkpoint(snap));
      }
    }
    total_ops = wio.counters().ops;
  }

  size_t promoted = 0;
  size_t exact = 0;   // promoted store == writer's synced prefix
  size_t fenced = 0;  // revived stale writer rejected at its next sync
  size_t fence_checks = 0;
  Status sweep_error = Status::OK();
  const double wall_ms = 1000.0 * bench::TimedSeconds([&] {
    for (size_t k = 0; k <= total_ops; ++k) {
      const std::string d =
          (root / ("chaos_" + std::to_string(k))).string();
      fs::create_directories(d);
      ManualClock clock;
      datagen::StorageFaultOptions writer_faults;
      writer_faults.crash_after_ops = k;
      datagen::FaultyFileIo wio(DefaultFileIo(), writer_faults);
      datagen::FaultyFileIo rio(DefaultFileIo(), ReplicaFaults(5'000 + k));

      store::ReplicaOptions replica_opts;
      replica_opts.snapshot.io = &rio;
      replica_opts.clock = &clock;
      replica_opts.promote_drain_polls = 8;
      replica_opts.promote_attempts = 16;
      store::Database rdb;
      store::Replica rep(d, &rdb, replica_opts);

      store::LeaseOptions lease_opts;
      lease_opts.io = &wio;
      lease_opts.clock = &clock;
      lease_opts.owner = "writer";
      lease_opts.ttl_ms = 1'000;
      StatusOr<store::Lease> lease = store::Lease::Acquire(d, lease_opts);
      store::Database db;
      bool writing = false;
      size_t synced = 0;
      if (lease.ok()) {
        store::WalOptions wal;
        wal.io = &wio;
        wal.clock = &clock;
        wal.sync_every_records = 1;
        wal.write_gate = [&]() { return lease->Check(); };
        writing = db.AttachWal(d, wal).ok();
      }
      if (writing) {
        store::SnapshotOptions snap;
        snap.io = &wio;
        for (int j = 0; j < kScriptOps; ++j) {
          ApplyOp(db, j);
          if (j == kScriptOps / 2) {
            const Status checkpointed = db.Checkpoint(snap);
            (void)checkpointed;  // best-effort once the crash hits
          }
          if (j % 2 == 1) {
            const Status polled = rep.Poll();
            (void)polled;
          }
        }
        synced = db.wal()->stats().records_synced;
      }

      wio.Reboot();
      clock.Advance(5'000);
      store::LeaseOptions promote_opts;
      promote_opts.owner = "replica";
      promote_opts.ttl_ms = 60'000;
      StatusOr<uint64_t> token = rep.Promote(promote_opts);
      if (!token.ok()) {
        sweep_error = token.status();
        fs::remove_all(d);
        continue;
      }
      ++promoted;

      const std::string got = Fingerprint(rdb);
      const bool header_only =
          synced == 0 && got == "== articles slots=0\n";
      if (synced < states.size() && (got == states[synced] || header_only)) {
        ++exact;
      }
      if (writing) {
        ++fence_checks;
        const size_t synced_before = db.wal()->stats().records_synced;
        db.GetOrCreate("articles")
            .Insert(store::MakeObject({{"k", static_cast<int64_t>(777)}}));
        if (db.WalSync().code() == StatusCode::kFailedPrecondition &&
            db.wal()->stats().records_synced == synced_before) {
          ++fenced;
        }
      }
      fs::remove_all(d);
    }
  });
  NEWSDIFF_RETURN_IF_ERROR(sweep_error);
  const size_t crash_points = total_ops + 1;

  // promoted, exact <= crash_points and fenced <= fence_checks, so these
  // lower bounds are the equalities the stage promises.
  report.Add("chaos_failover.crash_points", static_cast<double>(crash_points),
             "points", bench::Better::kNone);
  report.AtLeast("chaos_failover.promoted", static_cast<double>(promoted),
                 static_cast<double>(crash_points), "points");
  report.AtLeast("chaos_failover.exact_prefix", static_cast<double>(exact),
                 static_cast<double>(crash_points), "points", bench::kExact);
  report.Add("chaos_failover.fence_checks", static_cast<double>(fence_checks),
             "checks", bench::Better::kNone);
  report.AtLeast("chaos_failover.fenced", static_cast<double>(fenced),
                 static_cast<double>(fence_checks), "checks");
  report.Add("chaos_failover.wall_ms", wall_ms, "ms", bench::Better::kLower);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_replication", "BENCH_replication.json",
                       kSeed, argc, argv, /*has_smoke=*/false);
  std::printf("=== Ablation: WAL-tailing replication ===\n\n");
  const fs::path root =
      fs::temp_directory_path() / "newsdiff_ablation_replication";
  fs::remove_all(root);
  fs::create_directories(root);

  const std::pair<const char*, Status (*)(const fs::path&, bench::Report&)>
      stages[] = {{"catchup_delta", RunCatchupDelta},
                  {"staleness", RunStaleness},
                  {"chaos_failover", RunChaosFailover}};
  for (const auto& [name, run] : stages) {
    const Status done = run(root, report);
    if (!done.ok()) {
      std::printf("%s stage failed: %s\n", name, done.ToString().c_str());
      fs::remove_all(root);
      return 1;
    }
  }
  fs::remove_all(root);
  return report.Finish();
}
