#include "core/collection.h"

#include <unordered_map>

#include "datagen/world.h"

namespace newsdiff::core {

StatusOr<std::vector<NewsRecord>> LoadNews(const store::Database& db) {
  const store::Collection* coll = db.Get("news");
  if (coll == nullptr) return Status::NotFound("no 'news' collection");
  std::vector<NewsRecord> out;
  out.reserve(coll->size());
  coll->ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    NewsRecord rec;
    if (const store::Value* v = doc.Find("article_id")) rec.id = v->AsInt();
    if (const store::Value* v = doc.Find("title")) rec.title = v->AsString();
    if (const store::Value* v = doc.Find("body")) rec.body = v->AsString();
    if (const store::Value* v = doc.Find("published")) {
      rec.published = v->AsInt();
    }
    if (const store::Value* v = doc.Find("degraded")) {
      rec.degraded = v->is_bool() && v->bool_value();
    }
    out.push_back(std::move(rec));
    return true;
  });
  return out;
}

StatusOr<std::vector<TweetRecord>> LoadTweets(const store::Database& db) {
  const store::Collection* tweets = db.Get("tweets");
  if (tweets == nullptr) return Status::NotFound("no 'tweets' collection");
  const store::Collection* users = db.Get("users");
  if (users == nullptr) return Status::NotFound("no 'users' collection");

  // One scan of the users resolves every follower count. Ids are matched
  // as the crawler writes them: as integers.
  std::unordered_map<int64_t, int64_t> followers_by_user;
  followers_by_user.reserve(users->size());
  users->ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    const store::Value* id = doc.Find("user_id");
    if (id != nullptr && id->is_int()) {
      const store::Value* followers = doc.Find("followers");
      followers_by_user.emplace(id->int_value(),
                                followers != nullptr ? followers->AsInt() : 0);
    }
    return true;
  });

  std::vector<TweetRecord> out;
  out.reserve(tweets->size());
  tweets->ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    TweetRecord rec;
    if (const store::Value* v = doc.Find("tweet_id")) rec.id = v->AsInt();
    if (const store::Value* v = doc.Find("user_id")) rec.user_id = v->AsInt();
    if (const store::Value* v = doc.Find("text")) rec.text = v->AsString();
    if (const store::Value* v = doc.Find("created")) rec.created = v->AsInt();
    if (const store::Value* v = doc.Find("likes")) rec.likes = v->AsInt();
    if (const store::Value* v = doc.Find("retweets")) {
      rec.retweets = v->AsInt();
    }
    auto it = followers_by_user.find(rec.user_id);
    rec.followers = it != followers_by_user.end() ? it->second : 0;
    rec.follower_class = datagen::EncodeCountClass(rec.followers);
    rec.follower_bucket = datagen::FollowerBucket7(rec.followers);
    out.push_back(std::move(rec));
    return true;
  });
  return out;
}

}  // namespace newsdiff::core
