#include "store/collection.h"

#include <algorithm>

#include "store/json.h"

namespace newsdiff::store {

Filter& Filter::Eq(std::string field, Value v) {
  conditions_.push_back({std::move(field), std::move(v)});
  return *this;
}

bool Filter::Matches(const Value& doc) const {
  for (const Condition& c : conditions_) {
    const Value* f = doc.Find(c.field);
    if (f == nullptr || !f->Equals(c.value)) return false;
  }
  return true;
}

Collection::Collection(std::string name) : name_(std::move(name)) {}

std::string Collection::IndexKey(const Value& v) { return ToJson(v); }

StatusOr<DocId> Collection::Insert(Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("Insert requires an object document");
  }
  DocId id = static_cast<DocId>(slots_.size());
  doc.Set("_id", Value(id));
  if (observer_ != nullptr) observer_->OnPut(*this, id, doc);
  IndexInsert(id, doc);
  slots_.push_back({std::move(doc), true});
  ++live_count_;
  return id;
}

StatusOr<Value> Collection::Get(DocId id) const {
  if (id < 0 || static_cast<size_t>(id) >= slots_.size() ||
      !slots_[static_cast<size_t>(id)].live) {
    return Status::NotFound("no document with _id " + std::to_string(id));
  }
  return slots_[static_cast<size_t>(id)].doc;
}

std::vector<DocId> Collection::Candidates(const Filter& filter) const {
  for (const Condition& c : filter.conditions()) {
    auto idx_it = indexes_.find(c.field);
    if (idx_it == indexes_.end()) continue;
    auto bucket = idx_it->second.find(IndexKey(c.value));
    if (bucket == idx_it->second.end()) return {};
    return bucket->second;
  }
  std::vector<DocId> all;
  all.reserve(live_count_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) all.push_back(static_cast<DocId>(i));
  }
  return all;
}

std::vector<Value> Collection::Find(const Filter& filter) const {
  std::vector<Value> out;
  ForEach(filter, [&](DocId, const Value& doc) {
    out.push_back(doc);
    return true;
  });
  return out;
}

StatusOr<Value> Collection::FindOne(const Filter& filter) const {
  StatusOr<Value> result = Status::NotFound("no matching document");
  ForEach(filter, [&](DocId, const Value& doc) {
    result = doc;
    return false;
  });
  return result;
}

void Collection::ForEach(
    const Filter& filter,
    const std::function<bool(DocId, const Value&)>& fn) const {
  std::vector<DocId> cands = Candidates(filter);
  for (DocId id : cands) {
    const Slot& slot = slots_[static_cast<size_t>(id)];
    if (!slot.live) continue;
    if (!filter.Matches(slot.doc)) continue;
    if (!fn(id, slot.doc)) return;
  }
}

size_t Collection::Count(const Filter& filter) const {
  size_t n = 0;
  ForEach(filter, [&](DocId, const Value&) {
    ++n;
    return true;
  });
  return n;
}

size_t Collection::UpdateSet(const Filter& filter, const std::string& field,
                             Value v) {
  std::vector<DocId> cands = Candidates(filter);
  size_t n = 0;
  for (DocId id : cands) {
    Slot& slot = slots_[static_cast<size_t>(id)];
    if (!slot.live || !filter.Matches(slot.doc)) continue;
    if (observer_ != nullptr) {
      // Log-before-apply: hand the observer the post-image this update
      // will produce, then mutate.
      Value post = slot.doc;
      post.Set(field, v);
      observer_->OnPut(*this, id, post);
    }
    IndexRemove(id, slot.doc);
    slot.doc.Set(field, v);
    IndexInsert(id, slot.doc);
    ++n;
  }
  return n;
}

StatusOr<DocId> Collection::Upsert(const Filter& filter, Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("Upsert requires an object document");
  }
  DocId target = -1;
  ForEach(filter, [&](DocId id, const Value&) {
    target = id;
    return false;
  });
  if (target < 0) return Insert(std::move(doc));
  Slot& slot = slots_[static_cast<size_t>(target)];
  doc.Set("_id", Value(target));
  if (observer_ != nullptr) observer_->OnPut(*this, target, doc);
  IndexRemove(target, slot.doc);
  slot.doc = std::move(doc);
  IndexInsert(target, slot.doc);
  return target;
}

size_t Collection::Remove(const Filter& filter) {
  std::vector<DocId> cands = Candidates(filter);
  size_t n = 0;
  for (DocId id : cands) {
    Slot& slot = slots_[static_cast<size_t>(id)];
    if (!slot.live || !filter.Matches(slot.doc)) continue;
    if (observer_ != nullptr) observer_->OnDelete(*this, id);
    IndexRemove(id, slot.doc);
    slot.live = false;
    slot.doc = Value();
    --live_count_;
    ++n;
  }
  return n;
}

void Collection::CreateIndex(const std::string& field) {
  if (indexes_.count(field) > 0) return;
  auto& index = indexes_[field];
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    const Value* f = slots_[i].doc.Find(field);
    if (f != nullptr) {
      index[IndexKey(*f)].push_back(static_cast<DocId>(i));
    }
  }
}

bool Collection::HasIndex(const std::string& field) const {
  return indexes_.count(field) > 0;
}

std::vector<Value> Collection::All() const { return Find(Filter()); }

Status Collection::RestorePut(DocId id, Value doc) {
  if (id < 0) return Status::InvalidArgument("RestorePut: negative id");
  if (!doc.is_object()) {
    return Status::InvalidArgument("RestorePut requires an object document");
  }
  PadSlots(static_cast<size_t>(id) + 1);
  Slot& slot = slots_[static_cast<size_t>(id)];
  doc.Set("_id", Value(id));
  if (slot.live) {
    IndexRemove(id, slot.doc);
  } else {
    slot.live = true;
    ++live_count_;
  }
  slot.doc = std::move(doc);
  IndexInsert(id, slot.doc);
  return Status::OK();
}

void Collection::RestoreDelete(DocId id) {
  if (id < 0 || static_cast<size_t>(id) >= slots_.size()) return;
  Slot& slot = slots_[static_cast<size_t>(id)];
  if (!slot.live) return;
  IndexRemove(id, slot.doc);
  slot.live = false;
  slot.doc = Value();
  --live_count_;
}

void Collection::PadSlots(size_t n) {
  if (slots_.size() < n) slots_.resize(n);
}

void Collection::IndexInsert(DocId id, const Value& doc) {
  for (auto& [field, index] : indexes_) {
    const Value* f = doc.Find(field);
    if (f == nullptr) continue;
    // Buckets stay in id order, which is insertion order, whatever order
    // rewrites and replayed records arrive in.
    std::vector<DocId>& ids = index[IndexKey(*f)];
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  }
}

void Collection::IndexRemove(DocId id, const Value& doc) {
  for (auto& [field, index] : indexes_) {
    const Value* f = doc.Find(field);
    if (f == nullptr) continue;
    auto bucket = index.find(IndexKey(*f));
    if (bucket == index.end()) continue;
    auto& ids = bucket->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) index.erase(bucket);
  }
}

}  // namespace newsdiff::store
