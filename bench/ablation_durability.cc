// Ablation: pipeline durability under storage faults, plus the storage
// engine v2 headline — WAL group-commit sync vs full snapshot rewrite for a
// small delta. Stage one kills the supervised pipeline at seeded crash
// points during its snapshot writes, "reboots", recovers from the newest
// intact snapshot generation, and reruns; it reports how often recovery
// restored a usable store, how many stages the ledger let the rerun skip,
// and whether the spliced outputs stayed exactly identical to an
// uninterrupted fault-free run. Stage two (`wal_vs_snapshot`) measures the
// bytes each durability strategy pays to persist a 1% document delta and
// gates on the WAL being at least 5x cheaper. Results land in
// BENCH_durability.json (see --out), in the report format of
// bench/report.h.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "core/checkpoint.h"
#include "core/embedding_cache.h"
#include "core/supervisor.h"
#include "datagen/faults.h"
#include "datagen/world.h"
#include "store/database.h"
#include "store/json.h"
#include "store/wal.h"

using namespace newsdiff;

namespace {

/// Forwarding FileIo that meters durability traffic: how many bytes each
/// strategy actually sends to disk, split by write (snapshot rewrites) and
/// append (WAL group commits).
class CountingFileIo : public FileIo {
 public:
  explicit CountingFileIo(FileIo& inner) : inner_(&inner) {}

  Status WriteFile(const std::string& path,
                   const std::string& contents) override {
    bytes_written_ += contents.size();
    ++writes_;
    return inner_->WriteFile(path, contents);
  }
  Status AppendFile(const std::string& path,
                    const std::string& contents) override {
    bytes_appended_ += contents.size();
    ++appends_;
    return inner_->AppendFile(path, contents);
  }
  StatusOr<std::string> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
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

  void ResetCounters() {
    bytes_written_ = bytes_appended_ = 0;
    writes_ = appends_ = 0;
  }
  size_t bytes_written() const { return bytes_written_; }
  size_t bytes_appended() const { return bytes_appended_; }
  size_t total_bytes() const { return bytes_written_ + bytes_appended_; }

 private:
  FileIo* inner_;
  size_t bytes_written_ = 0;
  size_t bytes_appended_ = 0;
  size_t writes_ = 0;
  size_t appends_ = 0;
};

constexpr double kMinBytesRatio = 5.0;
constexpr uint64_t kWorldSeed = 77;

datagen::World BenchWorld() {
  datagen::WorldOptions opts;
  opts.seed = kWorldSeed;
  opts.num_users = 200;
  opts.num_articles = 400;
  opts.num_tweets = 1200;
  opts.duration_days = 40;
  opts.num_news_events = 4;
  opts.num_chatter_events = 2;
  return datagen::GenerateWorld(opts);
}

core::PipelineOptions SmallOptions() {
  core::PipelineOptions popts;
  popts.topics.num_topics = 6;
  popts.topics.nmf.max_iterations = 40;
  popts.news_mabed.max_events = 20;
  popts.twitter_mabed.max_events = 30;
  return popts;
}

std::string StageFingerprint(const store::Database& db) {
  std::string out;
  for (const char* name :
       {core::kTopicsCollection, core::kNewsEventsCollection,
        core::kTwitterEventsCollection, core::kTrendingCollection,
        core::kCorrelationsCollection, core::kAssignmentsCollection}) {
    if (const store::Collection* c = db.Get(name)) {
      for (const store::Value& doc : c->All()) {
        out += store::ToJson(doc);
        out += '\n';
      }
    }
  }
  return out;
}

/// Stage two: build the store from the bench world, checkpoint it, then
/// refresh 1% of the documents and compare what each durability strategy
/// sends to disk — an O(delta) WAL group commit vs an O(store) snapshot
/// generation. Records the `wal_vs_snapshot.*` rows, gated on the WAL
/// syncing at least kMinBytesRatio times fewer bytes.
Status RunWalVsSnapshot(datagen::World& world,
                        const std::filesystem::path& root,
                        bench::Report& report) {
  namespace fs = std::filesystem;
  CountingFileIo wal_io(DefaultFileIo());
  const std::string wal_dir = (root / "wal_vs_snapshot").string();
  fs::remove_all(wal_dir);
  store::Database db;
  world.LoadInto(db);
  store::WalOptions wal;
  wal.io = &wal_io;
  store::SnapshotOptions snapshot;
  snapshot.io = &wal_io;
  NEWSDIFF_RETURN_IF_ERROR(db.AttachWal(wal_dir, wal));
  NEWSDIFF_RETURN_IF_ERROR(db.Checkpoint(snapshot));  // generation 1 baseline

  size_t docs = 0;
  for (const std::string& name : db.CollectionNames()) {
    docs += db.Get(name)->size();
  }
  const size_t delta_docs = docs >= 100 ? docs / 100 : 1;  // the 1% refresh

  // The delta: a metadata touch on 1% of the tweets (the paper's two-hour
  // refresh updates engagement counts on already-crawled documents).
  store::Collection& tweets = db.GetOrCreate("tweets");
  std::vector<store::DocId> ids;
  tweets.ForEach(store::Filter(),
                 [&](store::DocId id, const store::Value&) {
                   ids.push_back(id);
                   return ids.size() < delta_docs;
                 });

  wal_io.ResetCounters();
  Status synced = Status::OK();
  const double wal_ms = 1000.0 * bench::TimedSeconds([&] {
    for (store::DocId id : ids) {
      tweets.UpdateSet(
          store::Filter().Eq("_id", store::Value(static_cast<int64_t>(id))),
          "bench_touch", store::Value(static_cast<int64_t>(1)));
    }
    synced = db.WalSync();
  });
  NEWSDIFF_RETURN_IF_ERROR(synced);
  const size_t wal_bytes = wal_io.total_bytes();

  // The same store persisted the snapshot way: one full generation.
  CountingFileIo snap_io(DefaultFileIo());
  const std::string snap_dir = (root / "snapshot_path").string();
  fs::remove_all(snap_dir);
  store::SnapshotOptions full;
  full.io = &snap_io;
  Status saved = Status::OK();
  const double snapshot_ms = 1000.0 * bench::TimedSeconds([&] {
    saved = db.SaveToDir(snap_dir, full);
  });
  NEWSDIFF_RETURN_IF_ERROR(saved);
  const size_t snapshot_bytes = snap_io.total_bytes();
  const double bytes_ratio =
      wal_bytes > 0 ? static_cast<double>(snapshot_bytes) /
                          static_cast<double>(wal_bytes)
                    : 0.0;

  using bench::Better;
  report.Add("wal_vs_snapshot.docs", static_cast<double>(docs), "docs",
             Better::kNone);
  report.Add("wal_vs_snapshot.delta_docs", static_cast<double>(delta_docs),
             "docs", Better::kNone);
  report.Add("wal_vs_snapshot.snapshot_bytes",
             static_cast<double>(snapshot_bytes), "bytes", Better::kLower,
             bench::kExact);
  report.Add("wal_vs_snapshot.wal_bytes", static_cast<double>(wal_bytes),
             "bytes", Better::kLower, bench::kExact);
  report.AtLeast("wal_vs_snapshot.bytes_ratio", bytes_ratio, kMinBytesRatio,
                 "x");
  report.Add("wal_vs_snapshot.snapshot_ms", snapshot_ms, "ms", Better::kLower);
  report.Add("wal_vs_snapshot.wal_ms", wal_ms, "ms", Better::kLower);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  bench::Report report("ablation_durability", "BENCH_durability.json",
                       kWorldSeed, argc, argv, /*has_smoke=*/false);
  std::printf("=== Ablation: pipeline durability vs storage fault rate "
              "===\n\n");

  datagen::World world = BenchWorld();
  core::PretrainedConfig cfg;
  cfg.dimension = 32;
  cfg.background_sentences = 1200;
  cfg.epochs = 1;
  auto pretrained = core::LoadOrTrainPretrained("", cfg);
  if (!pretrained.ok()) {
    std::printf("embedding store failed: %s\n",
                pretrained.status().ToString().c_str());
    return 1;
  }

  // Fault-free reference outputs.
  store::Database base_db;
  world.LoadInto(base_db);
  core::PipelineSupervisor baseline(core::Pipeline(SmallOptions()),
                                    core::SupervisorOptions{});
  auto want = baseline.Run(base_db, *pretrained);
  if (!want.ok()) {
    std::printf("baseline run failed: %s\n",
                want.status().ToString().c_str());
    return 1;
  }
  const std::string want_fingerprint = StageFingerprint(base_db);

  const fs::path root =
      fs::temp_directory_path() / "newsdiff_ablation_durability";
  fs::remove_all(root);

  for (double rate : {0.0, 0.05, 0.10, 0.20}) {
    size_t kills = 0, recovered_runs = 0, total_reboots = 0;
    size_t resumed = 0, computed = 0, gens_skipped = 0;
    bool all_exact = true;

    // Kill points spread across the run: early (inside the raw-collection
    // writes), mid (stage checkpoints), late (final generations / GC).
    const size_t crash_points[] = {8, 30, 60, 90, 120, 400};
    size_t cycle = 0;
    double wall_ms = 1000.0 * bench::TimedSeconds([&] {
      for (size_t crash_at : crash_points) {
        ++cycle;
        const fs::path dir = root / (std::to_string(rate) + "-" +
                                     std::to_string(crash_at));
        datagen::StorageFaultOptions fopts;
        fopts.seed = 7000 + cycle + static_cast<uint64_t>(rate * 1000);
        fopts.lost_tail_rate = rate / 2;
        fopts.bit_flip_rate = rate / 2;
        fopts.crash_after_ops = crash_at;
        datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
        core::SupervisorOptions sopts;
        sopts.snapshot_dir = dir.string();
        sopts.snapshot.io = &faulty;
        sopts.snapshot.retain_generations = 4;

        store::Database db1;
        world.LoadInto(db1);
        core::PipelineSupervisor first(core::Pipeline(SmallOptions()), sopts);
        auto killed = first.Run(db1, *pretrained);
        if (killed.ok()) {
          all_exact &= StageFingerprint(db1) == want_fingerprint;
          continue;  // crash point was beyond this run's IO
        }

        ++kills;
        // A rebooted process that dies again (the fault rates stay active)
        // simply reboots once more: every durably committed stage shrinks the
        // remaining work, so the loop converges.
        bool done = false;
        for (size_t reboot = 0; reboot < 12 && !done; ++reboot) {
          ++total_reboots;
          faulty.Reboot();
          store::Database db2;
          core::PipelineSupervisor second(core::Pipeline(SmallOptions()),
                                          sopts);
          Status recov = second.Recover(db2);
          gens_skipped += second.report().recovery.generations_skipped;
          if (!recov.ok() || db2.Get("news") == nullptr) {
            // Nothing durable (or no intact generation): re-crawl the feeds.
            world.LoadInto(db2);
          }
          auto completed = second.Run(db2, *pretrained);
          if (!completed.ok()) continue;
          done = true;
          ++recovered_runs;
          resumed += second.report().stages_resumed;
          computed += second.report().stages_computed;
          all_exact &= StageFingerprint(db2) == want_fingerprint;
        }
      }
    });

    // Resumed = ledger entries honoured after a reboot (NMF/MABED work the
    // rerun did not repeat); recomputed = stages the interrupted run had
    // not yet durably finished.
    using bench::Better;
    char rate_buf[16];
    std::snprintf(rate_buf, sizeof(rate_buf), "%.2f", rate);
    const std::string prefix =
        std::string("fault_sweep.rate_") + rate_buf + ".";
    report.Add(prefix + "kills", static_cast<double>(kills), "runs",
               Better::kNone);
    report.Add(prefix + "recovered", static_cast<double>(recovered_runs),
               "runs", Better::kHigher);
    report.Add(prefix + "reboots", static_cast<double>(total_reboots),
               "reboots", Better::kLower);
    report.Add(prefix + "resumed", static_cast<double>(resumed), "stages",
               Better::kHigher);
    report.Add(prefix + "recomputed", static_cast<double>(computed), "stages",
               Better::kLower);
    report.Add(prefix + "gens_skipped", static_cast<double>(gens_skipped),
               "generations", Better::kLower);
    report.Add(prefix + "wall_ms", wall_ms, "ms", Better::kLower);
    report.Add(prefix + "outputs_exact", all_exact ? 1.0 : 0.0, "bool",
               Better::kHigher, bench::kExact);
  }

  const Status wvs = RunWalVsSnapshot(world, root, report);
  fs::remove_all(root);
  if (!wvs.ok()) {
    std::printf("wal_vs_snapshot stage failed: %s\n", wvs.ToString().c_str());
    return 1;
  }
  return report.Finish();
}
