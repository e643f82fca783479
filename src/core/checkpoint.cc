#include "core/checkpoint.h"

#include <algorithm>

namespace newsdiff::core {
namespace {

store::Value StringsToArray(const std::vector<std::string>& strings) {
  store::Array arr;
  arr.reserve(strings.size());
  for (const std::string& s : strings) arr.emplace_back(s);
  return store::Value(std::move(arr));
}

store::Value DoublesToArray(const std::vector<double>& values) {
  store::Array arr;
  arr.reserve(values.size());
  for (double v : values) arr.emplace_back(v);
  return store::Value(std::move(arr));
}

store::Value IndicesToArray(const std::vector<size_t>& values) {
  store::Array arr;
  arr.reserve(values.size());
  for (size_t v : values) arr.emplace_back(static_cast<int64_t>(v));
  return store::Value(std::move(arr));
}

Status ReadStrings(const store::Value& doc, const std::string& key,
                   std::vector<std::string>* out) {
  const store::Value* v = doc.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::ParseError("missing array field " + key);
  }
  for (const store::Value& item : v->array()) {
    out->push_back(item.AsString());
  }
  return Status::OK();
}

Status ReadDoubles(const store::Value& doc, const std::string& key,
                   std::vector<double>* out) {
  const store::Value* v = doc.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::ParseError("missing array field " + key);
  }
  for (const store::Value& item : v->array()) {
    out->push_back(item.AsDouble());
  }
  return Status::OK();
}

Status ReadIndices(const store::Value& doc, const std::string& key,
                   std::vector<size_t>* out) {
  const store::Value* v = doc.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::ParseError("missing array field " + key);
  }
  for (const store::Value& item : v->array()) {
    out->push_back(static_cast<size_t>(item.AsInt()));
  }
  return Status::OK();
}

store::Value TermsToArray(const std::vector<uint32_t>& terms) {
  store::Array arr;
  arr.reserve(terms.size());
  for (uint32_t t : terms) arr.emplace_back(static_cast<int64_t>(t));
  return store::Value(std::move(arr));
}

store::Value EventToDoc(const event::Event& ev) {
  // Term ids and slice indices are relative to the corpus / time slicing,
  // both of which rebuild deterministically from the raw collections — so
  // they stay valid across a save/load cycle. DocumentBelongsToEvent
  // matches by term id, so dropping them would break restored events.
  return store::MakeObject({
      {"main_word", ev.main_word},
      {"main_term", static_cast<int64_t>(ev.main_term)},
      {"related_words", StringsToArray(ev.related_words)},
      {"related_weights", DoublesToArray(ev.related_weights)},
      {"related_terms", TermsToArray(ev.related_terms)},
      {"start_slice", static_cast<int64_t>(ev.start_slice)},
      {"end_slice", static_cast<int64_t>(ev.end_slice)},
      {"start_time", ev.start_time},
      {"end_time", ev.end_time},
      {"magnitude", ev.magnitude},
      {"support", static_cast<int64_t>(ev.support)},
  });
}

StatusOr<event::Event> EventFromDoc(const store::Value& doc) {
  event::Event ev;
  if (const store::Value* v = doc.Find("main_word")) {
    ev.main_word = v->AsString();
  } else {
    return Status::ParseError("event missing main_word");
  }
  NEWSDIFF_RETURN_IF_ERROR(
      ReadStrings(doc, "related_words", &ev.related_words));
  NEWSDIFF_RETURN_IF_ERROR(
      ReadDoubles(doc, "related_weights", &ev.related_weights));
  if (const store::Value* v = doc.Find("main_term")) {
    ev.main_term = static_cast<uint32_t>(v->AsInt());
  }
  if (const store::Value* v = doc.Find("related_terms")) {
    if (!v->is_array()) return Status::ParseError("related_terms not array");
    for (const store::Value& item : v->array()) {
      ev.related_terms.push_back(static_cast<uint32_t>(item.AsInt()));
    }
  }
  if (const store::Value* v = doc.Find("start_slice")) {
    ev.start_slice = static_cast<size_t>(v->AsInt());
  }
  if (const store::Value* v = doc.Find("end_slice")) {
    ev.end_slice = static_cast<size_t>(v->AsInt());
  }
  if (const store::Value* v = doc.Find("start_time")) {
    ev.start_time = v->AsInt();
  }
  if (const store::Value* v = doc.Find("end_time")) ev.end_time = v->AsInt();
  if (const store::Value* v = doc.Find("magnitude")) {
    ev.magnitude = v->AsDouble();
  }
  if (const store::Value* v = doc.Find("support")) {
    ev.support = static_cast<size_t>(v->AsInt());
  }
  return ev;
}

Status SaveEvents(const std::vector<event::Event>& events,
                  store::Collection& coll) {
  for (const event::Event& ev : events) {
    StatusOr<store::DocId> id = coll.Insert(EventToDoc(ev));
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

Status LoadEvents(const store::Collection& coll,
                  std::vector<event::Event>* out) {
  Status status = Status::OK();
  coll.ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    StatusOr<event::Event> ev = EventFromDoc(doc);
    if (!ev.ok()) {
      status = ev.status();
      return false;
    }
    out->push_back(std::move(ev).value());
    return true;
  });
  return status;
}

Status SaveTopics(const std::vector<topic::Topic>& in,
                  store::Collection& coll) {
  for (const topic::Topic& t : in) {
    StatusOr<store::DocId> id = coll.Insert(store::MakeObject({
        {"topic_id", static_cast<int64_t>(t.id)},
        {"keywords", StringsToArray(t.keywords)},
        {"weights", DoublesToArray(t.weights)},
    }));
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

Status LoadTopics(const store::Collection& coll,
                  std::vector<topic::Topic>* out) {
  Status status = Status::OK();
  coll.ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    topic::Topic t;
    if (const store::Value* v = doc.Find("topic_id")) {
      t.id = static_cast<size_t>(v->AsInt());
    }
    status = ReadStrings(doc, "keywords", &t.keywords);
    if (!status.ok()) return false;
    status = ReadDoubles(doc, "weights", &t.weights);
    if (!status.ok()) return false;
    out->push_back(std::move(t));
    return true;
  });
  return status;
}

Status SaveTrending(const std::vector<TrendingNewsTopic>& in,
                    store::Collection& coll) {
  for (const TrendingNewsTopic& t : in) {
    StatusOr<store::DocId> id = coll.Insert(store::MakeObject({
        {"topic_id", static_cast<int64_t>(t.topic_id)},
        {"news_event", static_cast<int64_t>(t.news_event)},
        {"similarity", t.similarity},
    }));
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

void LoadTrending(const store::Collection& coll,
                  std::vector<TrendingNewsTopic>* out) {
  coll.ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    TrendingNewsTopic t;
    if (const store::Value* v = doc.Find("topic_id")) {
      t.topic_id = static_cast<size_t>(v->AsInt());
    }
    if (const store::Value* v = doc.Find("news_event")) {
      t.news_event = static_cast<size_t>(v->AsInt());
    }
    if (const store::Value* v = doc.Find("similarity")) {
      t.similarity = v->AsDouble();
    }
    out->push_back(t);
    return true;
  });
}

Status SaveCorrelations(const std::vector<EventCorrelation>& in,
                        store::Collection& coll) {
  for (const EventCorrelation& c : in) {
    StatusOr<store::DocId> id = coll.Insert(store::MakeObject({
        {"trending", static_cast<int64_t>(c.trending)},
        {"twitter_event", static_cast<int64_t>(c.twitter_event)},
        {"similarity", c.similarity},
    }));
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

void LoadCorrelations(const store::Collection& coll,
                      std::vector<EventCorrelation>* out) {
  coll.ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    EventCorrelation c;
    if (const store::Value* v = doc.Find("trending")) {
      c.trending = static_cast<size_t>(v->AsInt());
    }
    if (const store::Value* v = doc.Find("twitter_event")) {
      c.twitter_event = static_cast<size_t>(v->AsInt());
    }
    if (const store::Value* v = doc.Find("similarity")) {
      c.similarity = v->AsDouble();
    }
    out->push_back(c);
    return true;
  });
}

Status SaveAssignments(const std::vector<EventTweetAssignment>& in,
                       store::Collection& coll) {
  for (const EventTweetAssignment& a : in) {
    StatusOr<store::DocId> id = coll.Insert(store::MakeObject({
        {"twitter_event", static_cast<int64_t>(a.twitter_event)},
        {"tweet_indices", IndicesToArray(a.tweet_indices)},
    }));
    if (!id.ok()) return id.status();
  }
  return Status::OK();
}

Status LoadAssignments(const store::Collection& coll,
                       std::vector<EventTweetAssignment>* out) {
  Status status = Status::OK();
  coll.ForEach(store::Filter(), [&](store::DocId, const store::Value& doc) {
    EventTweetAssignment a;
    if (const store::Value* v = doc.Find("twitter_event")) {
      a.twitter_event = static_cast<size_t>(v->AsInt());
    }
    status = ReadIndices(doc, "tweet_indices", &a.tweet_indices);
    if (!status.ok()) return false;
    out->push_back(std::move(a));
    return true;
  });
  return status;
}

}  // namespace

Status SaveStageOutput(const std::string& stage, const PipelineResult& result,
                       store::Database& db) {
  if (stage == "topics") {
    (void)db.Drop(kTopicsCollection);
    return SaveTopics(result.topics, db.GetOrCreate(kTopicsCollection));
  }
  if (stage == "news_events") {
    (void)db.Drop(kNewsEventsCollection);
    return SaveEvents(result.news_events,
                      db.GetOrCreate(kNewsEventsCollection));
  }
  if (stage == "twitter_events") {
    (void)db.Drop(kTwitterEventsCollection);
    return SaveEvents(result.twitter_events,
                      db.GetOrCreate(kTwitterEventsCollection));
  }
  if (stage == "trending") {
    (void)db.Drop(kTrendingCollection);
    return SaveTrending(result.trending, db.GetOrCreate(kTrendingCollection));
  }
  if (stage == "correlations") {
    (void)db.Drop(kCorrelationsCollection);
    return SaveCorrelations(result.correlations,
                            db.GetOrCreate(kCorrelationsCollection));
  }
  if (stage == "assignments") {
    (void)db.Drop(kAssignmentsCollection);
    return SaveAssignments(result.assignments,
                           db.GetOrCreate(kAssignmentsCollection));
  }
  return Status::InvalidArgument("unknown pipeline stage: " + stage);
}

Status LoadStageOutput(const std::string& stage, const store::Database& db,
                       PipelineResult* result) {
  auto find = [&](const char* name) -> const store::Collection* {
    return db.Get(name);
  };
  if (stage == "topics") {
    const store::Collection* c = find(kTopicsCollection);
    if (c == nullptr) return Status::NotFound("no topics checkpoint");
    result->topics.clear();
    return LoadTopics(*c, &result->topics);
  }
  if (stage == "news_events") {
    const store::Collection* c = find(kNewsEventsCollection);
    if (c == nullptr) return Status::NotFound("no news_events checkpoint");
    result->news_events.clear();
    return LoadEvents(*c, &result->news_events);
  }
  if (stage == "twitter_events") {
    const store::Collection* c = find(kTwitterEventsCollection);
    if (c == nullptr) return Status::NotFound("no twitter_events checkpoint");
    result->twitter_events.clear();
    return LoadEvents(*c, &result->twitter_events);
  }
  if (stage == "trending") {
    const store::Collection* c = find(kTrendingCollection);
    if (c == nullptr) return Status::NotFound("no trending checkpoint");
    result->trending.clear();
    LoadTrending(*c, &result->trending);
    return Status::OK();
  }
  if (stage == "correlations") {
    const store::Collection* c = find(kCorrelationsCollection);
    if (c == nullptr) return Status::NotFound("no correlations checkpoint");
    result->correlations.clear();
    LoadCorrelations(*c, &result->correlations);
    // Derived view; twitter_events must already be populated (the supervisor
    // restores stages in execution order, so it is).
    result->unrelated_twitter_events = UnrelatedTwitterEvents(
        result->correlations, result->twitter_events.size());
    return Status::OK();
  }
  if (stage == "assignments") {
    const store::Collection* c = find(kAssignmentsCollection);
    if (c == nullptr) return Status::NotFound("no assignments checkpoint");
    result->assignments.clear();
    return LoadAssignments(*c, &result->assignments);
  }
  return Status::InvalidArgument("unknown pipeline stage: " + stage);
}

}  // namespace newsdiff::core
