#ifndef NEWSDIFF_CORE_SUPERVISOR_H_
#define NEWSDIFF_CORE_SUPERVISOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "common/retry.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "store/database.h"
#include "store/lease.h"
#include "store/replica.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace newsdiff::core {

/// Self-healing orchestration of the analysis pipeline (§4.9: the deployed
/// system refreshes every two hours and resumes "from checkpoints or from
/// scratch"). The supervisor runs Pipeline's stages one at a time; after
/// each stage it persists the stage's outputs (core/checkpoint.h) plus a
/// stage-ledger entry into the store, and snapshots the store to disk
/// (store/snapshot.h). A process killed mid-run — even mid-snapshot — is
/// restarted as: Recover() (load the newest intact snapshot generation),
/// then Run() again; the ledger marks which stages already completed, so
/// only the unfinished tail recomputes. Because the expensive stages (NMF
/// topic modeling, the two MABED passes) are deterministic for fixed
/// inputs, the spliced run's outputs are byte-identical to an uninterrupted
/// one.
struct SupervisorOptions {
  /// Snapshot directory for durable progress. Empty disables persistence —
  /// retries and deadlines still apply, but a killed process recomputes.
  std::string snapshot_dir;
  store::SnapshotOptions snapshot;
  /// Attempts per stage before Run gives up (>= 1).
  size_t max_stage_attempts = 3;
  /// Soft per-stage deadline: stages cannot be preempted mid-computation,
  /// so an attempt that measures longer than this counts as a failed
  /// attempt (kDeadlineExceeded) and is retried. 0 disables.
  int64_t stage_deadline_ms = 0;
  /// Clock used for deadlines (nullptr = wall clock). Tests pass a
  /// ManualClock.
  Clock* clock = nullptr;
  /// Fault seam for tests/benches: invoked before each stage attempt; a
  /// non-OK return is treated as that attempt failing.
  std::function<Status(const std::string& stage, size_t attempt)>
      stage_fault_hook;
  /// Storage engine v2: log every store mutation to a per-collection
  /// write-ahead log, and make per-stage durability an O(delta) group-
  /// commit sync instead of a full snapshot rewrite. Recover() replays the
  /// log tail on top of the newest intact checkpoint; Run() takes a full
  /// checkpoint (snapshot + log rotation) when it first attaches to an
  /// unlogged store and again when the pipeline completes. Ignored when
  /// snapshot_dir is empty.
  bool use_wal = false;
  store::WalOptions wal;
  /// Multi-writer exclusion: acquire an owner-stamped lease on
  /// snapshot_dir before Recover()/Run() touch the store, renew it before
  /// each stage's durable step, and release it on clean exit only (a
  /// crashed holder's lease expires on its own). A second supervisor
  /// pointed at the same directory fails fast with kUnavailable, waits up
  /// to lease.wait_ms, or takes over an expired lease — its fencing token
  /// then makes the stale writer's next sync fail instead of interleaving
  /// writes. lease.io / lease.clock default to the snapshot seam and
  /// `clock` above when unset.
  bool lease_enabled = false;
  store::LeaseOptions lease;
};

/// What happened to one stage during a supervised run.
struct StageRun {
  std::string name;
  size_t attempts = 0;   // 0 = outputs restored from the checkpoint
  double seconds = 0.0;  // of the successful attempt (0 when restored)
};

/// Bookkeeping for one Run() (and the Recover() preceding it).
struct SupervisorReport {
  std::vector<StageRun> stages;
  size_t stages_resumed = 0;   // served from checkpoints
  size_t stages_computed = 0;  // actually executed
  size_t retries = 0;          // failed attempts across all stages
  /// Filled by Recover(): which snapshot generation was loaded and what
  /// damage was skipped on the way there.
  store::SnapshotLoadReport recovery;
  bool recovered = false;  // Recover() found and loaded a snapshot
};

class PipelineSupervisor {
 public:
  PipelineSupervisor(Pipeline pipeline, SupervisorOptions options)
      : pipeline_(std::move(pipeline)), options_(std::move(options)) {}

  /// Restores `db` from the newest intact snapshot generation in
  /// options.snapshot_dir (no-op when the directory is absent or
  /// persistence is disabled). Call on a fresh Database before Run to
  /// resume a killed process.
  Status Recover(store::Database& db);

  /// Follower mode (replication; see store/replica.h): instead of
  /// recovering for writing, bootstrap `db` as a read replica of
  /// options.snapshot_dir and tail the live writer's log. The database
  /// serves reads between polls; `db` must outlive the supervisor and must
  /// not have a WAL attached. Mutually exclusive with Recover()/Run()
  /// until PromoteFollower() succeeds.
  Status Follow(store::Database& db);

  /// One catch-up pass of the follower (see Replica::Poll). Resyncs
  /// automatically when the writer's pruning outruns the tail.
  Status PollFollower();

  /// Fenced failover: takes over the store once the writer's lease has
  /// expired (options.lease supplies owner/TTL; options.wal the write
  /// path). On OK the followed database is the writer — a subsequent Run()
  /// picks up its attached, gated WAL — and the fencing token is returned;
  /// the partitioned previous writer's next sync fails at the write gate.
  StatusOr<uint64_t> PromoteFollower();

  /// The replica driving follower mode (nullptr unless Follow was called).
  store::Replica* replica() { return replica_.get(); }

  /// Runs the pipeline under supervision. `db` must hold the raw news /
  /// tweets collections (either freshly crawled or restored by Recover).
  StatusOr<PipelineResult> Run(store::Database& db,
                               const embed::PretrainedStore& store);

  const SupervisorReport& report() const { return report_; }

  /// The lease currently held (empty when lease_enabled is off or none is
  /// held). Exposed for tests.
  const std::optional<store::Lease>& lease() const { return lease_; }

 private:
  /// Dispatches to the Pipeline stage method named `stage`.
  Status RunStage(const std::string& stage,
                  const embed::PretrainedStore& store,
                  PipelineResult* result) const;

  /// Acquires the writer lease when configured and not already held.
  Status AcquireLeaseIfNeeded();
  /// Renews the held lease, if any; kFailedPrecondition when fenced.
  Status RenewLease();
  /// WAL options with the fencing write gate wired to the held lease.
  store::WalOptions GatedWalOptions();

  Pipeline pipeline_;
  SupervisorOptions options_;
  SupervisorReport report_;
  std::optional<store::Lease> lease_;
  /// Follower mode. Owns the post-promotion lease, and the promoted
  /// database's write gate points into it — it must outlive any use of
  /// that database's WAL, so the supervisor keeps it for its own lifetime.
  std::unique_ptr<store::Replica> replica_;
};

}  // namespace newsdiff::core

#endif  // NEWSDIFF_CORE_SUPERVISOR_H_
