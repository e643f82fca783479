// PipelineSupervisor integration tests: stage retries, soft deadlines, and
// the crash-kill contract — a run killed mid-save under injected storage
// faults recovers to the newest intact snapshot generation and, via the
// stage ledger, completes with outputs byte-identical to an uninterrupted
// fault-free run.
#include "core/supervisor.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/embedding_cache.h"
#include "datagen/faults.h"
#include "datagen/world.h"
#include "store/json.h"

namespace newsdiff::core {
namespace {

namespace fs = std::filesystem;

/// Advances 100 ms on every reading: any interval measured around a stage
/// looks like 100 ms, letting deadline tests trip without real sleeping.
class TickingClock : public Clock {
 public:
  int64_t NowMillis() override { return now_ += 100; }
  void SleepMillis(int64_t ms) override { now_ += ms; }

 private:
  int64_t now_ = 0;
};

class SupervisorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions wopts;
    wopts.seed = 77;
    wopts.num_users = 200;
    wopts.num_articles = 400;
    wopts.num_tweets = 1200;
    wopts.duration_days = 40;
    wopts.num_news_events = 4;
    wopts.num_chatter_events = 2;
    world_ = new datagen::World(datagen::GenerateWorld(wopts));

    PretrainedConfig cfg;
    cfg.dimension = 32;
    cfg.background_sentences = 1200;
    cfg.epochs = 1;
    auto store = LoadOrTrainPretrained("", cfg);
    ASSERT_TRUE(store.ok());
    store_ = new embed::PretrainedStore(std::move(store).value());
  }

  static void TearDownTestSuite() {
    delete store_;
    delete world_;
    store_ = nullptr;
    world_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_supervisor_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static PipelineOptions SmallOptions() {
    PipelineOptions popts;
    popts.topics.num_topics = 6;
    popts.topics.nmf.max_iterations = 40;
    popts.news_mabed.max_events = 20;
    popts.twitter_mabed.max_events = 30;
    return popts;
  }

  /// Canonical byte dump of every stage's checkpoint collection; equality
  /// means the analysis outputs are byte-identical.
  static std::string DumpStageOutputs(const store::Database& db) {
    std::string out;
    for (const char* name :
         {kTopicsCollection, kNewsEventsCollection, kTwitterEventsCollection,
          kTrendingCollection, kCorrelationsCollection,
          kAssignmentsCollection}) {
      out += "== ";
      out += name;
      out += '\n';
      if (const store::Collection* c = db.Get(name)) {
        for (const store::Value& doc : c->All()) {
          out += store::ToJson(doc);
          out += '\n';
        }
      }
    }
    return out;
  }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
  static datagen::World* world_;
  static embed::PretrainedStore* store_;
};

datagen::World* SupervisorFixture::world_ = nullptr;
embed::PretrainedStore* SupervisorFixture::store_ = nullptr;

TEST_F(SupervisorFixture, SupervisedRunMatchesPlainPipelineRun) {
  store::Database plain_db;
  world_->LoadInto(plain_db);
  Pipeline pipeline(SmallOptions());
  auto plain = pipeline.Run(plain_db, *store_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  store::Database db;
  world_->LoadInto(db);
  PipelineSupervisor supervisor(Pipeline(SmallOptions()), SupervisorOptions{});
  auto supervised = supervisor.Run(db, *store_);
  ASSERT_TRUE(supervised.ok()) << supervised.status().ToString();

  EXPECT_EQ(supervisor.report().stages_computed, 6u);
  EXPECT_EQ(supervisor.report().stages_resumed, 0u);
  EXPECT_EQ(supervisor.report().retries, 0u);

  ASSERT_EQ(supervised->news_events.size(), plain->news_events.size());
  for (size_t i = 0; i < plain->news_events.size(); ++i) {
    EXPECT_EQ(supervised->news_events[i].main_word,
              plain->news_events[i].main_word);
  }
  EXPECT_EQ(supervised->topics.size(), plain->topics.size());
  EXPECT_EQ(supervised->correlations.size(), plain->correlations.size());
  EXPECT_EQ(supervised->assignments.size(), plain->assignments.size());
  EXPECT_EQ(supervised->unrelated_twitter_events,
            plain->unrelated_twitter_events);

  // Stage outputs and the completion ledger landed in the store.
  EXPECT_NE(db.Get(kTopicsCollection), nullptr);
  ASSERT_NE(db.Get(kStageLedgerCollection), nullptr);
  EXPECT_EQ(db.Get(kStageLedgerCollection)->size(), 6u);
}

TEST_F(SupervisorFixture, TransientStageFaultIsRetried) {
  store::Database db;
  world_->LoadInto(db);
  SupervisorOptions sopts;
  sopts.max_stage_attempts = 3;
  sopts.stage_fault_hook = [](const std::string& stage, size_t attempt) {
    if (stage == "news_events" && attempt == 1) {
      return Status::Unavailable("injected transient stage failure");
    }
    return Status::OK();
  };
  PipelineSupervisor supervisor(Pipeline(SmallOptions()), sopts);
  auto result = supervisor.Run(db, *store_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(supervisor.report().retries, 1u);
  ASSERT_EQ(supervisor.report().stages.size(), 6u);
  EXPECT_EQ(supervisor.report().stages[1].name, "news_events");
  EXPECT_EQ(supervisor.report().stages[1].attempts, 2u);
}

TEST_F(SupervisorFixture, PersistentStageFaultExhaustsAttempts) {
  store::Database db;
  world_->LoadInto(db);
  SupervisorOptions sopts;
  sopts.max_stage_attempts = 2;
  sopts.stage_fault_hook = [](const std::string& stage, size_t) {
    return stage == "topics"
               ? Status::Unavailable("stage permanently down")
               : Status::OK();
  };
  PipelineSupervisor supervisor(Pipeline(SmallOptions()), sopts);
  auto result = supervisor.Run(db, *store_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(supervisor.report().retries, 1u);
}

TEST_F(SupervisorFixture, SoftDeadlineCountsAsFailedAttempt) {
  store::Database db;
  world_->LoadInto(db);
  TickingClock clock;  // every stage measures as 100 ms
  SupervisorOptions sopts;
  sopts.max_stage_attempts = 2;
  sopts.stage_deadline_ms = 50;
  sopts.clock = &clock;
  PipelineSupervisor supervisor(Pipeline(SmallOptions()), sopts);
  auto result = supervisor.Run(db, *store_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SupervisorFixture, LedgerResumesAndInputChangesInvalidateIt) {
  SupervisorOptions sopts;
  sopts.snapshot_dir = dir();
  {
    store::Database db;
    world_->LoadInto(db);
    PipelineSupervisor supervisor(Pipeline(SmallOptions()), sopts);
    ASSERT_TRUE(supervisor.Run(db, *store_).ok());
  }

  // Restarted process, unchanged inputs: everything resumes, nothing
  // recomputes.
  store::Database db;
  PipelineSupervisor resumed(Pipeline(SmallOptions()), sopts);
  ASSERT_TRUE(resumed.Recover(db).ok());
  EXPECT_TRUE(resumed.report().recovered);
  auto result = resumed.Run(db, *store_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(resumed.report().stages_resumed, 6u);
  EXPECT_EQ(resumed.report().stages_computed, 0u);
  EXPECT_FALSE(result->topics.empty());
  EXPECT_FALSE(result->assignments.empty());

  // A refreshed crawl (here: one extra tweet) changes the input signature;
  // serving the old ledger would mean stale analysis, so everything must
  // recompute.
  store::Collection* tweets = db.Get("tweets");
  ASSERT_NE(tweets, nullptr);
  ASSERT_TRUE(tweets->Insert(tweets->All().front()).ok());
  PipelineSupervisor again(Pipeline(SmallOptions()), sopts);
  ASSERT_TRUE(again.Run(db, *store_).ok());
  EXPECT_EQ(again.report().stages_resumed, 0u);
  EXPECT_EQ(again.report().stages_computed, 6u);
}

TEST_F(SupervisorFixture, KilledMidSaveRecoversByteIdentical) {
  // Reference: uninterrupted, fault-free supervised run.
  store::Database base_db;
  world_->LoadInto(base_db);
  PipelineSupervisor baseline(Pipeline(SmallOptions()), SupervisorOptions{});
  auto want = baseline.Run(base_db, *store_);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const std::string want_dump = DumpStageOutputs(base_db);

  bool any_crashed = false;
  bool any_resumed = false;
  for (size_t crash_at : {10u, 60u, 120u}) {
    SCOPED_TRACE("crash_after_ops=" + std::to_string(crash_at));
    const std::string snap_dir = dir() + "_" + std::to_string(crash_at);
    fs::remove_all(snap_dir);

    datagen::StorageFaultOptions fopts;
    fopts.seed = 9000 + crash_at;
    fopts.crash_after_ops = crash_at;
    datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
    SupervisorOptions sopts;
    sopts.snapshot_dir = snap_dir;
    sopts.snapshot.io = &faulty;

    store::Database db1;
    world_->LoadInto(db1);
    PipelineSupervisor first(Pipeline(SmallOptions()), sopts);
    auto killed = first.Run(db1, *store_);

    if (killed.ok()) {
      // Crash point landed beyond the run's ops (or inside best-effort GC).
      EXPECT_EQ(DumpStageOutputs(db1), want_dump);
    } else {
      any_crashed = true;
      // The "rebooted process": recover the newest intact generation into a
      // fresh store and let the ledger splice the run back together.
      faulty.Reboot();
      store::Database db2;
      PipelineSupervisor second(Pipeline(SmallOptions()), sopts);
      ASSERT_TRUE(second.Recover(db2).ok());
      if (db2.Get("news") == nullptr) {
        // Crashed before anything durable: the crawler refills the store.
        // Uncommitted collection files of the first save install nothing.
        EXPECT_TRUE(db2.CollectionNames().empty());
        world_->LoadInto(db2);
      }
      auto completed = second.Run(db2, *store_);
      ASSERT_TRUE(completed.ok()) << completed.status().ToString();
      any_resumed |= second.report().stages_resumed > 0;
      EXPECT_EQ(DumpStageOutputs(db2), want_dump)
          << "spliced run diverged from the uninterrupted one";
    }
    fs::remove_all(snap_dir);
  }
  EXPECT_TRUE(any_crashed) << "crash points never fired; test is vacuous";
  EXPECT_TRUE(any_resumed)
      << "no crash point exercised ledger-based stage resumption";
}

TEST_F(SupervisorFixture, WalLeaseExcludesASecondSupervisor) {
  ManualClock clock;
  SupervisorOptions sopts;
  sopts.snapshot_dir = dir();
  sopts.clock = &clock;
  sopts.lease_enabled = true;

  store::Database db_a;
  world_->LoadInto(db_a);
  PipelineSupervisor a(Pipeline(SmallOptions()), sopts);
  ASSERT_TRUE(a.Recover(db_a).ok());  // acquires the writer lease
  ASSERT_TRUE(a.lease().has_value());

  // A second supervisor pointed at the same directory fails fast, before
  // touching the store.
  store::Database db_b;
  world_->LoadInto(db_b);
  PipelineSupervisor b(Pipeline(SmallOptions()), sopts);
  auto blocked = b.Run(db_b, *store_);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);

  // The holder completes and releases on clean exit…
  auto finished = a.Run(db_a, *store_);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_FALSE(a.lease().has_value());

  // …after which the second supervisor acquires immediately and succeeds.
  auto unblocked = b.Run(db_b, *store_);
  ASSERT_TRUE(unblocked.ok()) << unblocked.status().ToString();
}

TEST_F(SupervisorFixture, WalLeaseTakeoverFencesThePresumedDeadSupervisor) {
  ManualClock clock;
  SupervisorOptions sopts;
  sopts.snapshot_dir = dir();
  sopts.clock = &clock;
  sopts.use_wal = true;
  sopts.lease_enabled = true;
  sopts.lease.ttl_ms = 1'000;

  // Supervisor "a" acquires the lease and then hangs (no renewals).
  store::Database db_a;
  world_->LoadInto(db_a);
  PipelineSupervisor a(Pipeline(SmallOptions()), sopts);
  ASSERT_TRUE(a.Recover(db_a).ok());
  ASSERT_TRUE(a.lease().has_value());

  // Past the TTL it is presumed dead; "b" takes over and completes a full
  // WAL-mode run.
  clock.Advance(1'500);
  store::Database db_b;
  world_->LoadInto(db_b);
  PipelineSupervisor b(Pipeline(SmallOptions()), sopts);
  auto takeover = b.Run(db_b, *store_);
  ASSERT_TRUE(takeover.ok()) << takeover.status().ToString();

  // "a" wakes up: its stale lease is fenced, so its Run fails before a
  // single byte of its state reaches the shared directory.
  auto stale = a.Run(db_a, *store_);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SupervisorFixture, WalModeKilledRunRecoversByteIdentical) {
  // Reference: uninterrupted, fault-free supervised run.
  store::Database base_db;
  world_->LoadInto(base_db);
  PipelineSupervisor baseline(Pipeline(SmallOptions()), SupervisorOptions{});
  auto want = baseline.Run(base_db, *store_);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const std::string want_dump = DumpStageOutputs(base_db);

  bool any_crashed = false;
  bool any_replayed = false;
  for (size_t crash_at : {12u, 40u, 60u, 90u}) {
    SCOPED_TRACE("crash_after_ops=" + std::to_string(crash_at));
    const std::string snap_dir = dir() + "_" + std::to_string(crash_at);
    fs::remove_all(snap_dir);

    datagen::StorageFaultOptions fopts;
    fopts.seed = 4000 + crash_at;
    fopts.crash_after_ops = crash_at;
    datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
    SupervisorOptions sopts;
    sopts.snapshot_dir = snap_dir;
    sopts.snapshot.io = &faulty;
    sopts.use_wal = true;

    store::Database db1;
    world_->LoadInto(db1);
    PipelineSupervisor first(Pipeline(SmallOptions()), sopts);
    auto killed = first.Run(db1, *store_);

    if (killed.ok()) {
      EXPECT_EQ(DumpStageOutputs(db1), want_dump);
    } else {
      any_crashed = true;
      // Rebooted process: checkpoint load + WAL replay, then the ledger
      // splices the run back together from where durability really stopped.
      faulty.Reboot();
      store::Database db2;
      PipelineSupervisor second(Pipeline(SmallOptions()), sopts);
      ASSERT_TRUE(second.Recover(db2).ok());
      any_replayed |= second.report().recovery.wal_records_replayed > 0;
      if (db2.Get("news") == nullptr) {
        // Crashed before the crawl became durable: the crawler refills the
        // store (its inserts now flow through the attached WAL).
        world_->LoadInto(db2);
      }
      auto completed = second.Run(db2, *store_);
      ASSERT_TRUE(completed.ok()) << completed.status().ToString();
      EXPECT_EQ(DumpStageOutputs(db2), want_dump)
          << "spliced WAL-mode run diverged from the uninterrupted one";
    }
    fs::remove_all(snap_dir);
  }
  EXPECT_TRUE(any_crashed) << "crash points never fired; test is vacuous";
  EXPECT_TRUE(any_replayed)
      << "no crash point exercised WAL replay on recovery";
}

}  // namespace
}  // namespace newsdiff::core
