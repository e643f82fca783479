#ifndef NEWSDIFF_STORE_REPLICA_H_
#define NEWSDIFF_STORE_REPLICA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/retry.h"
#include "common/status.h"
#include "store/database.h"
#include "store/lease.h"
#include "store/replication.h"

namespace newsdiff::store {

/// A read replica of a WAL-enabled store, with fenced failover.
///
/// The replica bootstraps a caller-provided Database from the newest intact
/// snapshot generation in the writer's directory, then follows the live log
/// with a WalTailer (store/replication.h): each Poll() applies the records
/// the writer has synced since the last one, through the same idempotent
/// restore path crash recovery uses, so the replica's state is always some
/// synced prefix of the writer's history — never a torn or reordered view.
/// The Database serves reads throughout; it must have no WAL attached until
/// promotion (the replica replays, it does not re-log).
///
/// Bounded staleness: after every poll the replica knows how many durable
/// bytes it has yet to consume (bytes_behind) and how long it has been
/// since it was last provably caught up (staleness_ms, on the injectable
/// Clock). A poll that suffered a transient read fault cannot prove
/// anything, so it never resets the staleness clock.
///
/// Failover (Promote) is fenced against split-brain by the store lease
/// (store/lease.h): the replica acquires the lease — obtaining a fencing
/// token strictly above every token ever issued for the directory — then
/// drains the log until provably dry, announces itself with a promotion
/// record in every collection's log, and checkpoints to open a fresh
/// generation. A partitioned stale writer that wakes up later fails its
/// next group-commit sync at the write gate (its lease token no longer
/// matches), so no record it buffered after the takeover can ever reach
/// the shared log: every record acknowledged-as-synced before the takeover
/// is in the promoted replica, and nothing after it is double-applied.
///
/// The Replica owns the lease it acquires, and the promoted Database's
/// write gate points back at it — the Replica must outlive any use of that
/// Database's WAL.
struct ReplicaOptions {
  /// Snapshot seam and retention, used for bootstrap, resync, and the
  /// post-promotion checkpoint. `snapshot.io` is also the tailer's and the
  /// lease's filesystem seam.
  SnapshotOptions snapshot;
  /// Clock for staleness accounting (and the lease, unless its options
  /// name one); nullptr uses the wall clock.
  Clock* clock = nullptr;
  /// Forwarded to WalTailerOptions::max_reject_polls.
  size_t max_reject_polls = 3;
  /// Promotion declares the log drained after this many consecutive polls
  /// that made no progress and hit no read fault. Each clean poll consumes
  /// every durable frame, so requiring several in a row makes missing
  /// synced data vanishingly unlikely even under heavy read-fault rates.
  size_t promote_drain_polls = 16;
  /// Transiently-failing promotion steps (lease reads, checkpoint I/O) are
  /// retried this many times before Promote gives up.
  size_t promote_attempts = 8;
};

struct ReplicaStats {
  uint64_t bootstrap_generation = 0;  // snapshot generation last loaded
  size_t polls = 0;
  size_t records_applied = 0;  // mutations applied to the local Database
  size_t resyncs = 0;          // re-bootstraps after falling behind pruning
  uint64_t bytes_behind = 0;
  uint64_t fencing_token = 0;  // newest promotion token seen (or held)
  uint64_t checkpoint_generation = 0;  // newest ckpt marker followed
  bool caught_up = false;      // last poll proved nothing durable is left
  int64_t staleness_ms = 0;    // time since last provably-caught-up poll
};

class Replica {
 public:
  /// Follows the store under `dir` into `*db` (not owned; must outlive the
  /// replica and have no WAL attached).
  Replica(std::string dir, Database* db, ReplicaOptions options = {});

  /// Loads the newest intact snapshot generation (empty directory = empty
  /// store) and positions the tailer after it. Called implicitly by the
  /// first Poll(); call it directly to surface bootstrap errors early.
  Status Bootstrap();

  /// One catch-up pass: applies every record the writer synced since the
  /// last poll. Falling behind segment pruning triggers an automatic
  /// Resync(). kFailedPrecondition once promoted.
  Status Poll();

  /// Drops local state and re-bootstraps from the newest snapshot.
  Status Resync();

  /// Fenced failover: drain, acquire the lease (fencing every earlier
  /// writer), drain again until provably dry, attach a gated WAL, log a
  /// promotion record in every collection, and checkpoint. On OK the
  /// Database is the store's writer and returns the fencing token held.
  StatusOr<uint64_t> Promote(const LeaseOptions& lease_options,
                             const WalOptions& wal_options = {});

  /// Releases the held lease (clean handoff); no-op when none is held.
  Status ReleaseLease();

  /// Renews the held lease; kFailedPrecondition when fenced or none held.
  Status RenewLease();

  bool promoted() const { return promoted_; }
  Lease* lease() { return lease_.has_value() ? &*lease_ : nullptr; }
  const ReplicaStats& stats() const { return stats_; }
  /// Tailer counters (null before the first Bootstrap).
  const WalTailerStats* tailer_stats() const;
  const std::string& dir() const { return dir_; }
  Database* db() { return db_; }

 private:
  FileIo& io() const;
  Clock& clock() const;
  /// Polls until `promote_drain_polls` consecutive quiet polls (no new
  /// records, no read faults, no resync) prove the fenced log is dry.
  Status DrainUntilQuiet();

  std::string dir_;
  Database* db_;  // not owned
  ReplicaOptions options_;
  std::unique_ptr<WalTailer> tailer_;
  std::optional<Lease> lease_;
  bool promoted_ = false;
  int64_t last_caught_up_ms_ = 0;
  ReplicaStats stats_;
};

}  // namespace newsdiff::store

#endif  // NEWSDIFF_STORE_REPLICA_H_
