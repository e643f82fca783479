#include "core/collection.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/preprocess.h"
#include "datagen/world.h"
#include "index/codec.h"

namespace newsdiff::core {
namespace {

store::Database MakeDb() {
  store::Database db;
  store::Collection& users = db.GetOrCreate("users");
  users.Insert(store::MakeObject({{"user_id", int64_t{0}},
                                  {"handle", "user_0"},
                                  {"followers", int64_t{50}}}));
  users.Insert(store::MakeObject({{"user_id", int64_t{1}},
                                  {"handle", "user_1"},
                                  {"followers", int64_t{5000}}}));
  store::Collection& news = db.GetOrCreate("news");
  news.Insert(store::MakeObject({{"article_id", int64_t{10}},
                                 {"title", "Vote delayed"},
                                 {"body", "Parliament votes again."},
                                 {"published", int64_t{1000}}}));
  store::Collection& tweets = db.GetOrCreate("tweets");
  tweets.Insert(store::MakeObject({{"tweet_id", int64_t{100}},
                                   {"user_id", int64_t{1}},
                                   {"text", "vote now #brexit"},
                                   {"created", int64_t{1100}},
                                   {"likes", int64_t{1200}},
                                   {"retweets", int64_t{90}}}));
  tweets.Insert(store::MakeObject({{"tweet_id", int64_t{101}},
                                   {"user_id", int64_t{0}},
                                   {"text", "coffee time"},
                                   {"created", int64_t{1200}},
                                   {"likes", int64_t{3}},
                                   {"retweets", int64_t{0}}}));
  return db;
}

TEST(LoadNewsTest, ReadsAllFields) {
  store::Database db = MakeDb();
  auto news = LoadNews(db);
  ASSERT_TRUE(news.ok());
  ASSERT_EQ(news->size(), 1u);
  EXPECT_EQ((*news)[0].id, 10);
  EXPECT_EQ((*news)[0].title, "Vote delayed");
  EXPECT_EQ((*news)[0].body, "Parliament votes again.");
  EXPECT_EQ((*news)[0].published, 1000);
}

TEST(LoadNewsTest, MissingCollectionFails) {
  store::Database db;
  EXPECT_FALSE(LoadNews(db).ok());
}

TEST(LoadTweetsTest, JoinsFollowerMetadata) {
  store::Database db = MakeDb();
  auto tweets = LoadTweets(db);
  ASSERT_TRUE(tweets.ok());
  ASSERT_EQ(tweets->size(), 2u);
  const TweetRecord& influencer_tweet = (*tweets)[0];
  EXPECT_EQ(influencer_tweet.id, 100);
  EXPECT_EQ(influencer_tweet.followers, 5000);
  EXPECT_EQ(influencer_tweet.follower_class, 2);
  EXPECT_EQ(influencer_tweet.follower_bucket,
            datagen::FollowerBucket7(5000));
  const TweetRecord& small_tweet = (*tweets)[1];
  EXPECT_EQ(small_tweet.followers, 50);
  EXPECT_EQ(small_tweet.follower_class, 0);
}

TEST(LoadTweetsTest, UnknownUserGetsZeroFollowers) {
  store::Database db = MakeDb();
  db.Get("tweets")->Insert(store::MakeObject({{"tweet_id", int64_t{102}},
                                              {"user_id", int64_t{77}},
                                              {"text", "orphan"},
                                              {"created", int64_t{1300}},
                                              {"likes", int64_t{1}},
                                              {"retweets", int64_t{0}}}));
  auto tweets = LoadTweets(db);
  ASSERT_TRUE(tweets.ok());
  EXPECT_EQ((*tweets)[2].followers, 0);
  EXPECT_EQ((*tweets)[2].follower_class, 0);
}

TEST(LoadTweetsTest, ReadsWithoutWritingTheStore) {
  store::Database db = MakeDb();
  // A second document for user 1: the first one per id wins.
  db.Get("users")->Insert(store::MakeObject(
      {{"user_id", int64_t{1}}, {"followers", int64_t{7}}}));
  auto tweets = LoadTweets(db);
  ASSERT_TRUE(tweets.ok());
  EXPECT_EQ((*tweets)[0].followers, 5000);
  EXPECT_FALSE(db.Get("users")->HasIndex("user_id"));
}

TEST(LoadTweetsTest, MissingCollectionsFail) {
  store::Database db;
  EXPECT_FALSE(LoadTweets(db).ok());
  db.GetOrCreate("tweets");
  EXPECT_FALSE(LoadTweets(db).ok());  // still no users
}

TEST(PreprocessTest, CorporaAlignWithRecords) {
  store::Database db = MakeDb();
  auto news = LoadNews(db);
  auto tweets = LoadTweets(db);
  ASSERT_TRUE(news.ok() && tweets.ok());

  corpus::Corpus news_tm = BuildNewsTM(*news);
  corpus::Corpus news_ed = BuildNewsED(*news);
  corpus::Corpus twitter_ed = BuildTwitterED(*tweets);

  EXPECT_EQ(news_tm.size(), news->size());
  EXPECT_EQ(news_ed.size(), news->size());
  EXPECT_EQ(twitter_ed.size(), tweets->size());
  // Alignment: external ids and timestamps carried over.
  EXPECT_EQ(news_ed.doc(0).external_id, 10);
  EXPECT_EQ(news_ed.doc(0).timestamp, 1000);
  EXPECT_EQ(twitter_ed.doc(1).external_id, 101);
  EXPECT_EQ(twitter_ed.doc(1).timestamp, 1200);
  // NewsTM applied lemmatization + stopword removal; NewsED did not.
  EXPECT_EQ(news_tm.vocabulary().Get("the"), corpus::kUnknownTerm);
  EXPECT_NE(news_ed.vocabulary().Get("again"), corpus::kUnknownTerm);
  // TwitterED kept the hashtag word.
  EXPECT_NE(twitter_ed.vocabulary().Get("brexit"), corpus::kUnknownTerm);
}

// A canonical byte serialization of everything a corpus holds: its terms in
// id order with their doc_freq and term_freq, then each document's external
// id, timestamp, length, token ids and bag of counts.
std::string Canonical(const corpus::Corpus& corp) {
  std::string out;
  const corpus::Vocabulary& vocab = corp.vocabulary();
  index::PutU64(&out, vocab.size());
  for (uint32_t t = 0; t < vocab.size(); ++t) {
    index::PutLengthPrefixed(&out, vocab.Term(t));
    index::PutU32(&out, vocab.doc_freq(t));
    index::PutU64(&out, vocab.term_freq(t));
  }
  index::PutU64(&out, corp.size());
  index::PutU64(&out, corp.total_tokens());
  for (const corpus::Document& doc : corp.docs()) {
    index::PutU64(&out, static_cast<uint64_t>(doc.external_id));
    index::PutU64(&out, static_cast<uint64_t>(doc.timestamp));
    index::PutU32(&out, doc.length);
    index::PutU32(&out, static_cast<uint32_t>(doc.tokens.size()));
    for (uint32_t t : doc.tokens) index::PutU32(&out, t);
    index::PutU32(&out, static_cast<uint32_t>(doc.counts.size()));
    for (const corpus::TermCount& tc : doc.counts) {
      index::PutU32(&out, tc.term);
      index::PutU32(&out, tc.count);
    }
  }
  return out;
}

struct CorpusCrcs {
  uint32_t news_tm;
  uint32_t news_ed;
  uint32_t twitter_ed;
};

CorpusCrcs CrcsOf(const std::vector<NewsRecord>& news,
                  const std::vector<TweetRecord>& tweets) {
  return {Crc32(Canonical(BuildNewsTM(news))),
          Crc32(Canonical(BuildNewsED(news))),
          Crc32(Canonical(BuildTwitterED(tweets)))};
}

// The three corpora of a seeded datagen world, read back through the store
// as BuildIndex and the pipeline read them.
CorpusCrcs WorldCrcs(uint64_t seed, size_t articles, size_t tweets) {
  datagen::WorldOptions opts;
  opts.seed = seed;
  opts.num_users = 80;
  opts.num_articles = articles;
  opts.num_tweets = tweets;
  store::Database db;
  datagen::GenerateWorld(opts).LoadInto(db);
  StatusOr<std::vector<NewsRecord>> news = LoadNews(db);
  StatusOr<std::vector<TweetRecord>> loaded = LoadTweets(db);
  EXPECT_TRUE(news.ok() && loaded.ok());
  if (!news.ok() || !loaded.ok()) return {};
  return CrcsOf(*news, *loaded);
}

// Seeded records built from the inputs the recipes treat specially: names
// (entity folding across title and body), URLs (including "www." inside a
// word), mentions, hashtags, apostrophes (ASCII, U+2019 and its truncated
// prefixes), concept underscores, numbers, inflections and bytes >= 0x80.
CorpusCrcs HostileCrcs(uint64_t seed) {
  static const char* const kPieces[] = {
      "Theresa", "May",  "the", "of", "New", "York", "House", "Commons",
      "NASA", "US", "A", "I", "It", "don't", "don\xE2\x80\x99t", "'",
      "\xE2\x80\x99", "\xE2\x80", "\xE2", "O'Neil", "dogs'", "_",
      "new_york", "http://x.co/a?b=1", "https://t.co/Zq", "www.ex.com",
      "awww.z", "@user_1", "@", "#", "#Brexit", "a#b", "2019", "25", "1,500",
      "Running", "parties", "tried", "stopped", "making", "votes", "were",
      "\xC3\xA9t\xC3\xA9", "caf\xC3\xA9", "\xFF", "\x80", ".", "!", "?",
      ",", "--", "(", ")"};
  static const char* const kGaps[] = {" ", " ", " ", "", "\t", "\n", ". ",
                                      ", "};
  Rng rng(seed);
  auto text = [&](size_t min_pieces, size_t max_pieces) {
    std::string out;
    const size_t n = min_pieces + rng.NextBelow(max_pieces - min_pieces + 1);
    for (size_t i = 0; i < n; ++i) {
      out += kPieces[rng.NextBelow(std::size(kPieces))];
      if (i + 1 < n) out += kGaps[rng.NextBelow(std::size(kGaps))];
    }
    return out;
  };
  std::vector<NewsRecord> news(150);
  for (size_t i = 0; i < news.size(); ++i) {
    news[i].id = static_cast<int64_t>(i);
    news[i].title = text(0, 8);
    news[i].body = text(0, 60);
    news[i].published = static_cast<UnixSeconds>(1000 + 60 * i);
  }
  std::vector<TweetRecord> tweets(400);
  for (size_t i = 0; i < tweets.size(); ++i) {
    tweets[i].id = static_cast<int64_t>(1000 + i);
    tweets[i].text = text(0, 25);
    tweets[i].created = static_cast<UnixSeconds>(2000 + 30 * i);
  }
  return CrcsOf(news, tweets);
}

// The exactness gate of the streaming text front end: every corpus is
// byte-for-byte the one the char-by-char tokenizer and per-token string
// vectors built before it (same term ids in first-seen order, tokens,
// counts, doc_freq and term_freq). The CRCs were computed with that code.
TEST(PreprocessTest, CorporaAreBitwiseStable) {
  struct Case {
    const char* name;
    CorpusCrcs got;
    CorpusCrcs want;
  };
  const Case cases[] = {
      {"world seed 7", WorldCrcs(7, 120, 400),
       {0x59d9e0c4, 0x358fda08, 0x59294430}},
      {"world seed 2021", WorldCrcs(2021, 300, 900),
       {0x4216d923, 0x2ec270ca, 0xecf73100}},
      {"hostile seed 11", HostileCrcs(11),
       {0x25f965cb, 0xf1d76f5c, 0x766d70af}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Crc32Hex(c.got.news_tm), Crc32Hex(c.want.news_tm));
    EXPECT_EQ(Crc32Hex(c.got.news_ed), Crc32Hex(c.want.news_ed));
    EXPECT_EQ(Crc32Hex(c.got.twitter_ed), Crc32Hex(c.want.twitter_ed));
  }
}

TEST(RoundTripTest, WorldThroughStoreAndBack) {
  datagen::WorldOptions opts;
  opts.seed = 77;
  opts.num_users = 50;
  opts.num_articles = 40;
  opts.num_tweets = 120;
  datagen::World world = datagen::GenerateWorld(opts);
  store::Database db;
  world.LoadInto(db);
  auto news = LoadNews(db);
  auto tweets = LoadTweets(db);
  ASSERT_TRUE(news.ok() && tweets.ok());
  EXPECT_EQ(news->size(), world.articles.size());
  EXPECT_EQ(tweets->size(), world.tweets.size());
  // The store preserves engagement values and the join recovers follower
  // classes identical to the generator's ground truth.
  for (size_t i = 0; i < tweets->size(); ++i) {
    EXPECT_EQ((*tweets)[i].likes, world.tweets[i].likes);
    EXPECT_EQ((*tweets)[i].follower_class,
              world.users[world.tweets[i].user].follower_class);
  }
}

}  // namespace
}  // namespace newsdiff::core
