#ifndef NEWSDIFF_STORE_COLLECTION_H_
#define NEWSDIFF_STORE_COLLECTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/value.h"

namespace newsdiff::store {

/// One equality condition on a top-level field.
struct Condition {
  std::string field;
  Value value;
};

/// A conjunction of equality conditions (MongoDB's implicit AND semantics).
class Filter {
 public:
  Filter() = default;

  /// Adds `field == v`; returns *this for chaining.
  Filter& Eq(std::string field, Value v);

  const std::vector<Condition>& conditions() const { return conditions_; }

  /// True if `doc` satisfies every condition. A missing field fails.
  bool Matches(const Value& doc) const;

 private:
  std::vector<Condition> conditions_;
};

/// Document id assigned by the collection on insert.
using DocId = int64_t;

class Collection;

/// Mutation hook for write-ahead logging. The collection invokes the
/// observer *before* touching its in-memory state, with the post-image the
/// mutation will produce — append-to-log-then-apply ordering. Callbacks are
/// infallible by design: the WAL binding only buffers here; durability
/// errors surface at the group-commit sync, not at the mutation site.
class CollectionObserver {
 public:
  virtual ~CollectionObserver() = default;

  /// `doc` is the full post-image (with "_id" set) about to occupy slot
  /// `id` — an insert, upsert replacement, or field update alike.
  virtual void OnPut(const Collection& collection, DocId id,
                     const Value& doc) = 0;

  /// The document in slot `id` is about to be removed.
  virtual void OnDelete(const Collection& collection, DocId id) = 0;
};

/// An in-memory collection of JSON documents with optional hash indexes on
/// top-level fields. Insert assigns a monotonically increasing "_id".
/// A condition on an indexed field is served from the index; other queries
/// scan. Not thread-safe (single-writer model, like the pipeline).
class Collection {
 public:
  /// Creates an empty collection named `name`.
  explicit Collection(std::string name);

  const std::string& name() const { return name_; }
  size_t size() const { return live_count_; }

  /// Total slots ever assigned (live + dead). Ids are never reused, so this
  /// is also the next id Insert would assign — the WAL records it in each
  /// segment header so recovery reproduces id assignment bit for bit.
  size_t slot_count() const { return slots_.size(); }

  /// Installs (or clears, with nullptr) the mutation observer. The observer
  /// must outlive the collection or be cleared first.
  void SetObserver(CollectionObserver* observer) { observer_ = observer; }
  CollectionObserver* observer() const { return observer_; }

  /// Inserts `doc` (must be an object). A fresh "_id" field is added
  /// (replacing any caller-provided one). Returns the id.
  StatusOr<DocId> Insert(Value doc);

  /// Returns the document with the given id, or NotFound.
  StatusOr<Value> Get(DocId id) const;

  /// Returns copies of all documents matching `filter`, in insertion order.
  std::vector<Value> Find(const Filter& filter) const;

  /// Returns the first match, or NotFound.
  StatusOr<Value> FindOne(const Filter& filter) const;

  /// Calls `fn` for each matching document (no copies). Stops early if `fn`
  /// returns false.
  void ForEach(const Filter& filter,
               const std::function<bool(DocId, const Value&)>& fn) const;

  /// Counts matches.
  size_t Count(const Filter& filter) const;

  /// Sets `field` to `v` on all documents matching `filter`; returns the
  /// number updated.
  size_t UpdateSet(const Filter& filter, const std::string& field, Value v);

  /// Replaces the first document matching `filter` with `doc` (its "_id" is
  /// preserved); inserts `doc` when nothing matches. Returns the affected
  /// document's id.
  StatusOr<DocId> Upsert(const Filter& filter, Value doc);

  /// Removes matching documents; returns the number removed.
  size_t Remove(const Filter& filter);

  /// Builds a hash index on a top-level field. Subsequent conditions on
  /// that field use the index. Indexing an already-indexed
  /// field is a no-op.
  void CreateIndex(const std::string& field);

  /// True if `field` has an index.
  bool HasIndex(const std::string& field) const;

  /// All live documents in insertion order (copies).
  std::vector<Value> All() const;

  /// WAL-replay restore path: places `doc` in slot `id` exactly (padding
  /// dead slots as needed), preserving the id assignment of the original
  /// run. Unlike Insert, never renumbers and never notifies the observer —
  /// replayed records must not be re-logged. Replaying a record whose
  /// effect is already present is a no-op (physical records are
  /// idempotent).
  Status RestorePut(DocId id, Value doc);

  /// WAL-replay counterpart of Remove for a single slot; out-of-range or
  /// already-dead slots are a no-op (idempotent).
  void RestoreDelete(DocId id);

  /// Extends the slot vector with dead slots up to `n` total, so the next
  /// Insert assigns id `n`. Used to restore trailing dead slots that no
  /// surviving document pins. Never shrinks.
  void PadSlots(size_t n);

 private:
  struct Slot {
    Value doc;
    bool live = false;
  };

  // Key for index buckets: serialised form of the field value.
  static std::string IndexKey(const Value& v);

  void IndexInsert(DocId id, const Value& doc);
  void IndexRemove(DocId id, const Value& doc);

  // Returns candidate slot ids for the filter: the index bucket of its
  // first indexed field, or all live ids.
  std::vector<DocId> Candidates(const Filter& filter) const;

  std::string name_;
  std::vector<Slot> slots_;  // slot index == DocId
  size_t live_count_ = 0;
  CollectionObserver* observer_ = nullptr;  // not owned
  // field -> (index key -> doc ids, ascending)
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<DocId>>>
      indexes_;
};

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_COLLECTION_H_
