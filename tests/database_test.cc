#include "store/database.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/strings.h"
#include "store/json.h"
#include "store/snapshot.h"

namespace newsdiff::store {
namespace {

namespace fs = std::filesystem;

class DatabaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_db_test_" + std::to_string(0) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// Commits snapshot generation 1 by hand: each (collection, contents)
  /// pair as its collection file, listed in a manifest with the contents'
  /// CRC and non-empty line count, so only the contents decide the load.
  void WriteGeneration(
      const std::vector<std::pair<std::string, std::string>>& files) {
    fs::create_directories(dir_);
    Manifest manifest;
    manifest.generation = 1;
    for (const auto& [name, contents] : files) {
      ManifestEntry entry;
      entry.collection = name;
      entry.file = SnapshotCollectionFileName(name, 1);
      entry.crc32 = Crc32(contents);
      for (const std::string& line : Split(contents, '\n')) {
        if (!line.empty()) ++entry.docs;
      }
      std::ofstream(dir_ / entry.file, std::ios::binary) << contents;
      manifest.entries.push_back(entry);
    }
    std::ofstream(dir_ / ManifestFileName(1), std::ios::binary)
        << SerializeManifest(manifest);
  }

  fs::path dir_;
};

TEST_F(DatabaseFixture, GetOrCreateMakesCollections) {
  Database db;
  Collection& c1 = db.GetOrCreate("news");
  Collection& c2 = db.GetOrCreate("news");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(db.CollectionNames(), (std::vector<std::string>{"news"}));
}

TEST_F(DatabaseFixture, GetMissingReturnsNull) {
  Database db;
  EXPECT_EQ(db.Get("nope"), nullptr);
  const Database& cdb = db;
  EXPECT_EQ(cdb.Get("nope"), nullptr);
}

TEST_F(DatabaseFixture, Drop) {
  Database db;
  db.GetOrCreate("a");
  EXPECT_TRUE(db.Drop("a").ok());
  EXPECT_EQ(db.Drop("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(db.Get("a"), nullptr);
}

TEST_F(DatabaseFixture, SaveLoadRoundTrip) {
  Database db;
  Collection& tweets = db.GetOrCreate("tweets");
  tweets.Insert(MakeObject({{"text", "hello"}, {"likes", 5}}));
  tweets.Insert(MakeObject(
      {{"text", "world \"quoted\"\nline"}, {"likes", 2.5}}));
  Collection& users = db.GetOrCreate("users");
  users.Insert(MakeObject({{"handle", "user_0"}, {"followers", 120}}));

  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  Database loaded;
  ASSERT_TRUE(loaded.LoadFromDir(dir()).ok());
  ASSERT_NE(loaded.Get("tweets"), nullptr);
  ASSERT_NE(loaded.Get("users"), nullptr);
  EXPECT_EQ(loaded.Get("tweets")->size(), 2u);
  EXPECT_EQ(loaded.Get("users")->size(), 1u);

  auto docs = loaded.Get("tweets")->All();
  EXPECT_EQ(docs[0].Find("text")->AsString(), "hello");
  EXPECT_EQ(docs[1].Find("text")->AsString(), "world \"quoted\"\nline");
  EXPECT_DOUBLE_EQ(docs[1].Find("likes")->AsDouble(), 2.5);
}

TEST_F(DatabaseFixture, LoadReplacesExistingCollection) {
  Database db;
  db.GetOrCreate("c").Insert(MakeObject({{"v", 1}}));
  ASSERT_TRUE(db.SaveToDir(dir()).ok());

  Database other;
  other.GetOrCreate("c").Insert(MakeObject({{"v", 99}}));
  other.GetOrCreate("c").Insert(MakeObject({{"v", 98}}));
  ASSERT_TRUE(other.LoadFromDir(dir()).ok());
  EXPECT_EQ(other.Get("c")->size(), 1u);
  EXPECT_EQ(other.Get("c")->All()[0].Find("v")->AsInt(), 1);
}

TEST_F(DatabaseFixture, LoadMissingDirFails) {
  Database db;
  EXPECT_FALSE(db.LoadFromDir(dir() + "/does/not/exist").ok());
}

TEST_F(DatabaseFixture, LoadRejectsMalformedLines) {
  // The manifest's CRC and count match, so the JSON parse is what rejects
  // the generation, naming the bad line.
  WriteGeneration({{"bad", "{\"ok\":1}\n{not json\n"}});
  Database db;
  SnapshotLoadReport report;
  Status s = db.LoadFromDir(dir(), SnapshotOptions{}, &report);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("bad-0000000001.jsonl:2:"),
            std::string::npos)
      << report.problems[0];
  EXPECT_EQ(db.Get("bad"), nullptr);
}

TEST_F(DatabaseFixture, LoadSkipsNonJsonlFiles) {
  // Only what the manifest lists loads: a foreign file and a collection
  // file no manifest references are both skipped.
  WriteGeneration({{"c", "{\"v\":1}\n"}});
  std::ofstream(dir_ / "notes.txt") << "not a collection\n";
  std::ofstream(dir_ / "stray.jsonl") << "{\"v\":2}\n";
  Database db;
  ASSERT_TRUE(db.LoadFromDir(dir()).ok());
  EXPECT_EQ(db.CollectionNames(), (std::vector<std::string>{"c"}));
}

TEST_F(DatabaseFixture, EmptyLinesIgnored) {
  WriteGeneration({{"c", "{\"v\":1}\n\n{\"v\":2}\n"}});
  Database db;
  ASSERT_TRUE(db.LoadFromDir(dir()).ok());
  EXPECT_EQ(db.Get("c")->size(), 2u);
}

}  // namespace
}  // namespace newsdiff::store
