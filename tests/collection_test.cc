#include "store/collection.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace newsdiff::store {
namespace {

Value Doc(int64_t user, int64_t likes, const std::string& text) {
  return MakeObject({{"user_id", user}, {"likes", likes}, {"text", text}});
}

class CollectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    coll_ = std::make_unique<Collection>("tweets");
    coll_->Insert(Doc(1, 50, "brexit vote"));
    coll_->Insert(Doc(1, 500, "trade war tariffs"));
    coll_->Insert(Doc(2, 1500, "huawei ban"));
    coll_->Insert(Doc(3, 10, "coffee morning"));
  }
  std::unique_ptr<Collection> coll_;
};

TEST_F(CollectionFixture, InsertAssignsSequentialIds) {
  EXPECT_EQ(coll_->size(), 4u);
  StatusOr<Value> doc = coll_->Get(0);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("_id")->AsInt(), 0);
  EXPECT_EQ(coll_->Get(3)->Find("_id")->AsInt(), 3);
}

TEST_F(CollectionFixture, InsertRejectsNonObjects) {
  EXPECT_FALSE(coll_->Insert(Value(5)).ok());
  EXPECT_FALSE(coll_->Insert(Value("str")).ok());
  EXPECT_FALSE(coll_->Insert(Value(Array{})).ok());
}

TEST_F(CollectionFixture, InsertOverridesCallerId) {
  Value doc = MakeObject({{"_id", int64_t{999}}, {"x", 1}});
  StatusOr<DocId> id = coll_->Insert(std::move(doc));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4);
  EXPECT_EQ(coll_->Get(4)->Find("_id")->AsInt(), 4);
}

TEST_F(CollectionFixture, GetMissing) {
  EXPECT_FALSE(coll_->Get(99).ok());
  EXPECT_FALSE(coll_->Get(-1).ok());
}

TEST_F(CollectionFixture, FindEq) {
  auto docs = coll_->Find(Filter().Eq("user_id", Value(int64_t{1})));
  EXPECT_EQ(docs.size(), 2u);
}

TEST_F(CollectionFixture, ConjunctionSemantics) {
  auto docs = coll_->Find(Filter()
                              .Eq("user_id", Value(int64_t{1}))
                              .Eq("likes", Value(int64_t{500})));
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].Find("text")->AsString(), "trade war tariffs");
  EXPECT_EQ(coll_->Count(Filter()
                             .Eq("user_id", Value(int64_t{2}))
                             .Eq("likes", Value(int64_t{500}))),
            0u);
}

TEST_F(CollectionFixture, FindOne) {
  StatusOr<Value> doc =
      coll_->FindOne(Filter().Eq("user_id", Value(int64_t{2})));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("likes")->AsInt(), 1500);
  EXPECT_FALSE(coll_->FindOne(Filter().Eq("user_id", Value(int64_t{42}))).ok());
}

TEST_F(CollectionFixture, ForEachEarlyStop) {
  size_t seen = 0;
  coll_->ForEach(Filter(), [&](DocId, const Value&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2u);
}

TEST_F(CollectionFixture, UpdateSet) {
  size_t n = coll_->UpdateSet(Filter().Eq("user_id", Value(int64_t{1})),
                              "flag", Value(true));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(coll_->Count(Filter().Eq("flag", Value(true))), 2u);
}

TEST_F(CollectionFixture, RemoveAndSize) {
  size_t n = coll_->Remove(Filter().Eq("user_id", Value(int64_t{1})));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(coll_->size(), 2u);
  // Removed ids are gone.
  EXPECT_FALSE(coll_->Get(0).ok());
  // Remaining docs still addressable.
  EXPECT_TRUE(coll_->Get(2).ok());
}

TEST_F(CollectionFixture, IndexedEqualityMatchesScan) {
  coll_->CreateIndex("user_id");
  EXPECT_TRUE(coll_->HasIndex("user_id"));
  auto docs = coll_->Find(Filter().Eq("user_id", Value(int64_t{1})));
  EXPECT_EQ(docs.size(), 2u);
  // Index stays correct across update and remove.
  coll_->UpdateSet(Filter().Eq("user_id", Value(int64_t{1})), "user_id",
                   Value(int64_t{9}));
  EXPECT_EQ(coll_->Count(Filter().Eq("user_id", Value(int64_t{1}))), 0u);
  EXPECT_EQ(coll_->Count(Filter().Eq("user_id", Value(int64_t{9}))), 2u);
  coll_->Remove(Filter().Eq("user_id", Value(int64_t{9})));
  EXPECT_EQ(coll_->Count(Filter().Eq("user_id", Value(int64_t{9}))), 0u);
}

TEST_F(CollectionFixture, IndexCreatedAfterInserts) {
  coll_->CreateIndex("likes");
  EXPECT_EQ(coll_->Count(Filter().Eq("likes", Value(int64_t{1500}))), 1u);
}

TEST_F(CollectionFixture, IndexedQueriesKeepInsertionOrderAfterRewrites) {
  // Rewriting a document in place (Upsert, UpdateSet, RestorePut into a
  // live or a dead slot) must not move it behind later documents of its
  // index bucket: with or without an index, matches come in insertion order.
  Collection indexed("tweets");
  indexed.CreateIndex("user_id");
  for (const Value& doc : coll_->All()) ASSERT_TRUE(indexed.Insert(doc).ok());
  const Filter user1 = Filter().Eq("user_id", Value(int64_t{1}));
  const Filter first = Filter().Eq("_id", Value(int64_t{0}));
  const auto ids = [&](const Collection& c) {
    std::vector<int64_t> out;
    c.ForEach(user1, [&](DocId id, const Value&) {
      out.push_back(id);
      return true;
    });
    return out;
  };
  for (Collection* c : {coll_.get(), &indexed}) {
    ASSERT_TRUE(c->Upsert(first, Doc(1, 60, "brexit vote")).ok());
  }
  StatusOr<Value> scanned = coll_->FindOne(user1);
  StatusOr<Value> looked_up = indexed.FindOne(user1);
  ASSERT_TRUE(scanned.ok());
  ASSERT_TRUE(looked_up.ok());
  EXPECT_EQ(scanned->Find("_id")->AsInt(), 0);
  EXPECT_EQ(looked_up->Find("_id")->AsInt(), 0);

  for (Collection* c : {coll_.get(), &indexed}) {
    EXPECT_EQ(c->UpdateSet(first, "likes", Value(int64_t{70})), 1u);
    ASSERT_TRUE(c->RestorePut(0, Doc(1, 80, "brexit vote")).ok());
  }
  EXPECT_EQ(ids(indexed), (std::vector<int64_t>{0, 1}));
  for (Collection* c : {coll_.get(), &indexed}) {
    EXPECT_EQ(c->Remove(first), 1u);
    ASSERT_TRUE(c->RestorePut(0, Doc(1, 90, "brexit vote")).ok());
  }
  EXPECT_EQ(ids(indexed), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(ids(indexed), ids(*coll_));
}

TEST_F(CollectionFixture, AllPreservesInsertionOrder) {
  auto docs = coll_->All();
  ASSERT_EQ(docs.size(), 4u);
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(docs[i].Find("_id")->AsInt(), static_cast<int64_t>(i));
  }
}

TEST(UpsertTest, InsertsWhenNoMatch) {
  Collection coll("state");
  auto id = coll.Upsert(Filter().Eq("key", Value("cursor")),
                        MakeObject({{"key", "cursor"}, {"value", 5}}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(coll.size(), 1u);
  EXPECT_EQ(coll.Get(*id)->Find("value")->AsInt(), 5);
}

TEST(UpsertTest, ReplacesExistingPreservingId) {
  Collection coll("state");
  coll.Insert(MakeObject({{"key", "cursor"}, {"value", 5}, {"old", true}}));
  auto id = coll.Upsert(Filter().Eq("key", Value("cursor")),
                        MakeObject({{"key", "cursor"}, {"value", 9}}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  EXPECT_EQ(coll.size(), 1u);
  StatusOr<Value> doc = coll.Get(0);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("value")->AsInt(), 9);
  EXPECT_EQ(doc->Find("old"), nullptr);  // full replacement
  EXPECT_EQ(doc->Find("_id")->AsInt(), 0);
}

TEST(UpsertTest, KeepsIndexesConsistent) {
  Collection coll("state");
  coll.CreateIndex("key");
  coll.Insert(MakeObject({{"key", "a"}, {"value", 1}}));
  coll.Upsert(Filter().Eq("key", Value("a")),
              MakeObject({{"key", "b"}, {"value", 2}}));
  EXPECT_EQ(coll.Count(Filter().Eq("key", Value("a"))), 0u);
  EXPECT_EQ(coll.Count(Filter().Eq("key", Value("b"))), 1u);
}

TEST(UpsertTest, RejectsNonObject) {
  Collection coll("state");
  EXPECT_FALSE(coll.Upsert(Filter(), Value(5)).ok());
}

/// Property: for random data, indexed equality queries return exactly the
/// same documents as a full scan with the same filter.
class IndexEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalenceSweep, IndexedEqualsScan) {
  Rng rng(GetParam());
  Collection indexed("indexed");
  Collection scanned("scanned");
  indexed.CreateIndex("k");
  for (int i = 0; i < 300; ++i) {
    Value doc = MakeObject({{"k", static_cast<int64_t>(rng.NextBelow(20))},
                            {"v", static_cast<int64_t>(i)}});
    indexed.Insert(doc);
    scanned.Insert(doc);
  }
  // Mutate both identically.
  indexed.Remove(Filter().Eq("k", Value(int64_t{3})));
  scanned.Remove(Filter().Eq("k", Value(int64_t{3})));
  for (int64_t k = 0; k < 20; ++k) {
    auto a = indexed.Find(Filter().Eq("k", Value(k)));
    auto b = scanned.Find(Filter().Eq("k", Value(k)));
    ASSERT_EQ(a.size(), b.size()) << "k=" << k;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].Find("v")->Equals(*b[i].Find("v")));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalenceSweep,
                         ::testing::Values(1ull, 7ull, 2024ull));

}  // namespace
}  // namespace newsdiff::store
