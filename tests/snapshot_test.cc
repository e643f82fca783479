// Crash-safety tests for the generation-numbered snapshot engine: manifest
// round trips, retention/GC, corruption fallback, and recovery from a
// process killed mid-save.
#include "store/snapshot.h"

#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "datagen/faults.h"
#include "store/database.h"
#include "store/json.h"

namespace newsdiff::store {
namespace {

namespace fs = std::filesystem;

class SnapshotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_snapshot_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// Dumps every collection as name -> concatenated JSON lines; equality of
  /// two dumps means byte-identical reloaded state.
  static std::map<std::string, std::string> Dump(const Database& db) {
    std::map<std::string, std::string> out;
    for (const std::string& name : db.CollectionNames()) {
      std::string lines;
      for (const Value& doc : db.Get(name)->All()) {
        lines += ToJson(doc);
        lines += '\n';
      }
      out[name] = std::move(lines);
    }
    return out;
  }

  std::vector<std::string> ManifestsOnDisk() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (ParseManifestFileName(entry.path().filename().string()).ok()) {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  fs::path dir_;
};

TEST(SnapshotFormatTest, ManifestSerializeParseRoundTrip) {
  Manifest m;
  m.generation = 42;
  m.entries.push_back({"news", "news-0000000042.jsonl", 17, 0xdeadbeef});
  m.entries.push_back({"tweets", "tweets-0000000042.jsonl", 0, 0});
  StatusOr<Manifest> parsed = ParseManifest(SerializeManifest(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->generation, 42u);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].collection, "news");
  EXPECT_EQ(parsed->entries[0].file, "news-0000000042.jsonl");
  EXPECT_EQ(parsed->entries[0].docs, 17u);
  EXPECT_EQ(parsed->entries[0].crc32, 0xdeadbeefu);
  EXPECT_EQ(parsed->entries[1].collection, "tweets");
}

TEST(SnapshotFormatTest, ManifestFileNames) {
  EXPECT_EQ(ManifestFileName(42), "MANIFEST-0000000042");
  StatusOr<uint64_t> gen = ParseManifestFileName("MANIFEST-0000000042");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 42u);
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-00000000x2").ok());
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-").ok());
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-0000000042.tmp").ok());
  EXPECT_FALSE(ParseManifestFileName("news-0000000042.jsonl").ok());
  EXPECT_FALSE(ParseManifestFileName("").ok());
  EXPECT_EQ(SnapshotCollectionFileName("news", 7), "news-0000000007.jsonl");
}

TEST_F(SnapshotFixture, GenerationsGrowAndLoadPicksNewest) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  db.GetOrCreate("c").Insert(MakeObject({{"v", 2}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  Database loaded;
  SnapshotLoadReport report;
  ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(report.generations_skipped, 0u);
  EXPECT_EQ(loaded.Get("c")->size(), 2u);
}

TEST_F(SnapshotFixture, RetentionPrunesOldGenerations) {
  SnapshotOptions opts;
  opts.retain_generations = 2;
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.GetOrCreate("c").Insert(MakeObject({{"v", i}}));
    ASSERT_TRUE(db.SaveToDir(dir(), opts).ok());
  }
  EXPECT_EQ(ManifestsOnDisk(),
            (std::vector<std::string>{"MANIFEST-0000000004",
                                      "MANIFEST-0000000005"}));
  // Collection files of reaped generations are gone too.
  EXPECT_FALSE(fs::exists(dir_ / "c-0000000001.jsonl"));
  EXPECT_FALSE(fs::exists(dir_ / "c-0000000003.jsonl"));
  EXPECT_TRUE(fs::exists(dir_ / "c-0000000005.jsonl"));
}

TEST_F(SnapshotFixture, DroppedCollectionIsNotResurrectedOnLoad) {
  Database db;
  db.GetOrCreate("keep").Insert(MakeObject({{"v", 1}}));
  db.GetOrCreate("gone").Insert(MakeObject({{"v", 2}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  ASSERT_TRUE(db.Drop("gone").ok());
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDir(dir()).ok());
  EXPECT_NE(loaded.Get("keep"), nullptr);
  EXPECT_EQ(loaded.Get("gone"), nullptr)
      << "dropped collection resurrected from a stale snapshot file";
}

TEST_F(SnapshotFixture, LegacyOrphanFilesAreGarbageCollected) {
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "orphan.jsonl");
    out << "{\"stale\":true}\n";
  }
  SnapshotOptions opts;
  opts.retain_generations = 1;
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir(), opts).ok());
  EXPECT_FALSE(fs::exists(dir_ / "orphan.jsonl"))
      << "a collection file no manifest references must not linger";

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDir(dir()).ok());
  EXPECT_EQ(loaded.Get("orphan"), nullptr);
}

TEST_F(SnapshotFixture, ForeignFilesSurviveGarbageCollection) {
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "notes.txt");
    out << "operator notes, not snapshot state\n";
  }
  SnapshotOptions opts;
  opts.retain_generations = 1;
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(db.SaveToDir(dir(), opts).ok());
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));
}

TEST_F(SnapshotFixture, CorruptNewestManifestFallsBackToOlderGeneration) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  db.GetOrCreate("c").Insert(MakeObject({{"v", 2}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  // Flip one byte of the newest manifest.
  const fs::path manifest = dir_ / ManifestFileName(2);
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  Database loaded;
  SnapshotLoadReport report;
  ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.generations_skipped, 1u);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_EQ(loaded.Get("c")->size(), 1u);
}

TEST_F(SnapshotFixture, CorruptCollectionFileFallsBackToOlderGeneration) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  db.GetOrCreate("c").Insert(MakeObject({{"v", 2}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  // Damage the newest generation's data file; its manifest still verifies,
  // so only the per-file CRC can catch this.
  {
    std::ofstream out(dir_ / "c-0000000002.jsonl",
                      std::ios::binary | std::ios::app);
    out << "{\"injected\":true}\n";
  }

  Database loaded;
  SnapshotLoadReport report;
  ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.generations_skipped, 1u);
  EXPECT_EQ(loaded.Get("c")->size(), 1u);
}

TEST_F(SnapshotFixture, TruncatedCollectionFileFallsBack) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  db.GetOrCreate("c").Insert(MakeObject({{"v", 2}}));
  db.GetOrCreate("c").Insert(MakeObject({{"v", 3}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  const fs::path data = dir_ / "c-0000000002.jsonl";
  std::string bytes;
  {
    std::ifstream in(data, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(data, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }

  Database loaded;
  SnapshotLoadReport report;
  ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(loaded.Get("c")->size(), 1u);
}

TEST_F(SnapshotFixture, NoIntactGenerationIsAnError) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  {
    std::ofstream out(dir_ / ManifestFileName(1),
                      std::ios::binary | std::ios::trunc);
    out << "garbage\n";
  }
  Database loaded;
  SnapshotLoadReport report;
  Status s = loaded.LoadFromDir(dir(), SnapshotOptions{}, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no intact snapshot generation"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(report.generations_skipped, 1u);
}

TEST_F(SnapshotFixture, FailedLoadLeavesDatabaseUntouched) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());
  {
    std::ofstream out(dir_ / ManifestFileName(1),
                      std::ios::binary | std::ios::trunc);
    out << "garbage\n";
  }
  Database loaded;
  loaded.GetOrCreate("precious").Insert(MakeObject({{"v", 7}}));
  loaded.GetOrCreate("c").Insert(MakeObject({{"v", 8}}));
  EXPECT_FALSE(loaded.LoadFromDir(dir()).ok());
  // All-or-nothing: nothing was installed or clobbered by the failed load.
  EXPECT_EQ(loaded.Get("precious")->size(), 1u);
  EXPECT_EQ(loaded.Get("c")->All()[0].Find("v")->AsInt(), 8);
}

TEST_F(SnapshotFixture, UnreadableDirectoryFailsCleanly) {
  // Injected ListDir failure (chmod tricks don't bite when running as
  // root, so the seam is the only reliable way to model an unreadable
  // directory).
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  datagen::StorageFaultOptions fopts;
  fopts.read_failure_rate = 1.0;
  datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
  SnapshotOptions opts;
  opts.io = &faulty;
  Database loaded;
  Status s = loaded.LoadFromDir(dir(), opts);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);

  // A path that is a regular file, not a directory, must also fail via the
  // error_code path rather than throwing.
  Database other;
  EXPECT_FALSE(other.LoadFromDir((dir_ / "c-0000000001.jsonl").string()).ok());
}

TEST_F(SnapshotFixture, CrashAtEveryPointDuringSaveRecovers) {
  // Simulate kill -9 at every filesystem operation of a save and verify
  // recovery always lands on a complete state: the previous generation if
  // the crash hit before the manifest commit, the new one after. The first
  // save has no previous generation: recovery from it installs nothing.
  for (size_t crash_at = 1; crash_at <= 24; ++crash_at) {
    SCOPED_TRACE("crash_after_ops=" + std::to_string(crash_at));
    fs::remove_all(dir_);

    Database db;
    db.GetOrCreate("news").Insert(MakeObject({{"title", "first"}}));
    db.GetOrCreate("tweets").Insert(MakeObject({{"text", "hello"}}));
    const auto state1 = Dump(db);
    {
      datagen::StorageFaultOptions fopts;
      fopts.seed = 2000 + crash_at;
      fopts.crash_after_ops = crash_at;
      datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
      SnapshotOptions opts;
      opts.io = &faulty;
      Status saved = db.SaveToDir(dir(), opts);

      Database loaded;
      SnapshotLoadReport report;
      ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
      if (saved.ok()) {
        EXPECT_EQ(Dump(loaded), state1);
      } else {
        EXPECT_TRUE(loaded.CollectionNames().empty())
            << "a first save that never committed must install nothing";
        EXPECT_EQ(report.generation, 0u);
      }
    }
    fs::remove_all(dir_);
    ASSERT_TRUE(db.SaveToDir(dir()).ok());

    db.GetOrCreate("news").Insert(MakeObject({{"title", "second"}}));
    db.GetOrCreate("tweets").Insert(MakeObject({{"text", "world"}}));
    const auto state2 = Dump(db);

    datagen::StorageFaultOptions fopts;
    fopts.seed = 1000 + crash_at;
    fopts.crash_after_ops = crash_at;
    datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
    SnapshotOptions opts;
    opts.io = &faulty;
    Status saved = db.SaveToDir(dir(), opts);

    Database loaded;
    SnapshotLoadReport report;
    ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
    const auto recovered = Dump(loaded);
    if (saved.ok()) {
      // Crash (if any) hit after the commit point, e.g. during GC.
      EXPECT_EQ(recovered, state2);
    } else {
      EXPECT_EQ(recovered, state1)
          << "interrupted save must be invisible until its manifest commits";
    }
  }
}

TEST_F(SnapshotFixture, SavesUnderSilentCorruptionStillRecoverable) {
  // Lost tails and bit flips are reported as successful writes; the CRCs
  // must catch them at load time and fall back to an older intact
  // generation. With retention 3 and a moderate fault rate, at least one
  // generation survives in every seeded run below.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fs::remove_all(dir_);

    Database db;
    db.GetOrCreate("c").Insert(MakeObject({{"v", 0}}));
    ASSERT_TRUE(db.SaveToDir(dir()).ok());  // clean baseline generation
    std::vector<std::map<std::string, std::string>> states = {Dump(db)};

    datagen::StorageFaultOptions fopts;
    fopts.seed = seed;
    fopts.lost_tail_rate = 0.25;
    fopts.bit_flip_rate = 0.25;
    datagen::FaultyFileIo faulty(DefaultFileIo(), fopts);
    SnapshotOptions opts;
    opts.io = &faulty;
    opts.retain_generations = 4;
    for (int i = 1; i <= 3; ++i) {
      db.GetOrCreate("c").Insert(MakeObject({{"v", i}}));
      Status saved = db.SaveToDir(dir(), opts);
      if (saved.ok()) states.push_back(Dump(db));
    }

    Database loaded;
    SnapshotLoadReport report;
    ASSERT_TRUE(loaded.LoadFromDir(dir(), SnapshotOptions{}, &report).ok());
    const auto recovered = Dump(loaded);
    bool matches_some_commit = false;
    for (const auto& s : states) matches_some_commit |= (recovered == s);
    EXPECT_TRUE(matches_some_commit)
        << "recovered state matches no committed snapshot";
    EXPECT_EQ(report.generations_skipped, report.problems.size());
  }
}

}  // namespace
}  // namespace newsdiff::store
