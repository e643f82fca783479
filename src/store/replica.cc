#include "store/replica.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "store/snapshot.h"

namespace newsdiff::store {

Replica::Replica(std::string dir, Database* db, ReplicaOptions options)
    : dir_(std::move(dir)), db_(db), options_(std::move(options)) {}

FileIo& Replica::io() const {
  return options_.snapshot.io != nullptr ? *options_.snapshot.io
                                         : DefaultFileIo();
}

Clock& Replica::clock() const {
  static SystemClock system_clock;
  return options_.clock != nullptr ? *options_.clock : system_clock;
}

const WalTailerStats* Replica::tailer_stats() const {
  return tailer_ != nullptr ? &tailer_->stats() : nullptr;
}

Status Replica::Bootstrap() {
  if (promoted_) {
    return Status::FailedPrecondition("replica already promoted");
  }
  if (db_->wal_attached()) {
    return Status::FailedPrecondition(
        "replica database must not have a WAL before promotion");
  }
  // Start from scratch every time: Bootstrap doubles as Resync's reset.
  for (const std::string& name : db_->CollectionNames()) {
    (void)db_->Drop(name);
  }
  NEWSDIFF_RETURN_IF_ERROR(io().CreateDirectories(dir_));
  StatusOr<std::vector<std::string>> listing = io().ListDir(dir_);
  if (!listing.ok()) return listing.status();
  bool have_manifest = false;
  for (const std::string& name : *listing) {
    if (ParseManifestFileName(name).ok()) have_manifest = true;
  }
  SnapshotLoadReport report;
  if (have_manifest) {
    // The log addresses documents by the writer's ids; the checkpoint must
    // load with id assignment intact.
    SnapshotOptions load = options_.snapshot;
    load.preserve_doc_ids = true;
    NEWSDIFF_RETURN_IF_ERROR(db_->LoadFromDir(dir_, load, &report));
  }
  stats_.bootstrap_generation = report.generation;
  stats_.fencing_token = std::max(stats_.fencing_token, report.wal_fencing_token);

  WalTailerOptions tailer_options;
  tailer_options.io = options_.snapshot.io;
  tailer_options.max_reject_polls = options_.max_reject_polls;
  tailer_ = std::make_unique<WalTailer>(dir_, report.generation,
                                        tailer_options);
  stats_.bytes_behind = 0;
  stats_.caught_up = false;
  last_caught_up_ms_ = clock().NowMillis();
  return Status::OK();
}

Status Replica::Poll() {
  if (promoted_) {
    return Status::FailedPrecondition("replica already promoted");
  }
  if (tailer_ == nullptr) {
    NEWSDIFF_RETURN_IF_ERROR(Bootstrap());
  }
  ++stats_.polls;
  const size_t failures_before = tailer_->stats().read_failures;
  Status polled = tailer_->Poll(
      [this](const std::string& collection, const WalRecord& record) {
        NEWSDIFF_RETURN_IF_ERROR(db_->ApplyWalRecord(collection, record));
        if (record.is_mutation()) ++stats_.records_applied;
        return Status::OK();
      });
  const WalTailerStats& tailed = tailer_->stats();
  stats_.checkpoint_generation =
      std::max(stats_.checkpoint_generation, tailed.checkpoint_generation);
  stats_.fencing_token = std::max(stats_.fencing_token, tailed.fencing_token);
  if (!polled.ok()) {
    // The writer pruned a segment we still needed; everything it held is
    // in a newer snapshot, so start over from there.
    return Resync();
  }
  stats_.bytes_behind = tailed.bytes_behind;
  // A poll that hit a read fault may have missed durable bytes — it proves
  // nothing, so it cannot reset the staleness clock.
  stats_.caught_up = tailed.bytes_behind == 0 &&
                     tailed.read_failures == failures_before;
  const int64_t now_ms = clock().NowMillis();
  if (stats_.caught_up) last_caught_up_ms_ = now_ms;
  stats_.staleness_ms = now_ms - last_caught_up_ms_;
  return Status::OK();
}

Status Replica::Resync() {
  ++stats_.resyncs;
  tailer_.reset();  // a failed resync retries from Bootstrap on next Poll
  return Bootstrap();
}

Status Replica::DrainUntilQuiet() {
  // Hard cap so a permanently failing filesystem cannot spin forever.
  const size_t max_polls = std::max<size_t>(options_.promote_drain_polls, 1) * 64;
  size_t quiet = 0;
  for (size_t i = 0; i < max_polls; ++i) {
    const size_t delivered_before =
        tailer_ != nullptr ? tailer_->stats().records_delivered : 0;
    const size_t failures_before =
        tailer_ != nullptr ? tailer_->stats().read_failures : 0;
    const size_t resyncs_before = stats_.resyncs;
    const Status polled = Poll();
    if (!polled.ok()) {
      // A resync that died on a transient read fault; the next poll
      // re-bootstraps from scratch, so keep draining until the cap.
      quiet = 0;
      continue;
    }
    const size_t delivered_after =
        tailer_ != nullptr ? tailer_->stats().records_delivered : 0;
    const size_t failures_after =
        tailer_ != nullptr ? tailer_->stats().read_failures : 0;
    const bool progressed = delivered_after != delivered_before ||
                            stats_.resyncs != resyncs_before ||
                            failures_after != failures_before;
    quiet = progressed ? 0 : quiet + 1;
    if (quiet >= options_.promote_drain_polls) return Status::OK();
  }
  return Status::Unavailable("replica could not drain the log");
}

StatusOr<uint64_t> Replica::Promote(const LeaseOptions& lease_options,
                                    const WalOptions& wal_options) {
  if (promoted_) {
    return Status::FailedPrecondition("replica already promoted");
  }
  if (tailer_ == nullptr) {
    const Status booted = Bootstrap();
    (void)booted;  // transient faults retry inside the drain loops below
  }
  // Best-effort pre-catch-up keeps the fenced-but-not-serving window short;
  // correctness comes from the post-acquire drain, so transient poll
  // failures here are ignored rather than aborting the takeover.
  for (size_t i = 0; i < options_.promote_drain_polls && !stats_.caught_up;
       ++i) {
    const Status polled = Poll();
    (void)polled;
  }

  // Acquire the lease: from here every earlier writer is fenced — its next
  // group-commit sync fails at the write gate, so the durable log can no
  // longer grow under us. Transient read faults can make an attempt fail
  // spuriously; retry a few times.
  LeaseOptions lease_opts = lease_options;
  if (lease_opts.io == nullptr) lease_opts.io = options_.snapshot.io;
  if (lease_opts.clock == nullptr) lease_opts.clock = options_.clock;
  Status acquire_error = Status::OK();
  for (size_t attempt = 0; attempt < std::max<size_t>(options_.promote_attempts, 1);
       ++attempt) {
    StatusOr<Lease> acquired = Lease::Acquire(dir_, lease_opts);
    if (acquired.ok()) {
      lease_.emplace(std::move(acquired).value());
      acquire_error = Status::OK();
      break;
    }
    acquire_error = acquired.status();
    if (acquire_error.code() == StatusCode::kUnavailable) break;  // held
  }
  NEWSDIFF_RETURN_IF_ERROR(acquire_error);

  // Consume everything the old writer managed to sync before it was
  // fenced. Torn tails that never complete are exactly the unacknowledged
  // bytes recovery drops.
  NEWSDIFF_RETURN_IF_ERROR(DrainUntilQuiet());

  // Become the writer: gate every durable append on the held lease, then
  // announce the takeover in each collection's log and checkpoint so the
  // store opens a fresh generation under the new token.
  WalOptions gated = wal_options;
  if (gated.io == nullptr) gated.io = options_.snapshot.io;
  if (gated.clock == nullptr) gated.clock = options_.clock;
  gated.write_gate = [this]() {
    return lease_.has_value() ? lease_->Check() : Status::OK();
  };
  Status step = Status::OK();
  for (size_t attempt = 0; attempt < std::max<size_t>(options_.promote_attempts, 1);
       ++attempt) {
    if (!db_->wal_attached()) {
      // Attaching lists the directory to resume past existing segments; a
      // transient read fault here is retried like any other step.
      step = db_->AttachWal(dir_, gated);
      if (!step.ok()) continue;
    }
    step = Status::OK();
    WalWriter* wal = db_->wal();
    for (const std::string& name : db_->CollectionNames()) {
      wal->OpenSegment(name, db_->Get(name)->slot_count());
      step = wal->LogPromotion(name, lease_->token(), lease_opts.owner);
      if (!step.ok()) break;
    }
    if (step.ok()) step = db_->WalSync();
    if (step.ok()) step = db_->Checkpoint(options_.snapshot);
    if (step.ok()) {
      // Re-announce in the fresh generation: the pre-checkpoint record is
      // pruned with its segment, and tailers that resync from the new
      // snapshot must still find the token in the live log (duplicate
      // promotion records are idempotent control records).
      for (const std::string& name : db_->CollectionNames()) {
        step = wal->LogPromotion(name, lease_->token(), lease_opts.owner);
        if (!step.ok()) break;
      }
      if (step.ok()) step = db_->WalSync();
    }
    if (step.ok()) break;
  }
  NEWSDIFF_RETURN_IF_ERROR(step);

  promoted_ = true;
  tailer_.reset();
  stats_.fencing_token = std::max(stats_.fencing_token, lease_->token());
  stats_.caught_up = true;
  stats_.bytes_behind = 0;
  stats_.staleness_ms = 0;
  return lease_->token();
}

Status Replica::ReleaseLease() {
  if (!lease_.has_value()) return Status::OK();
  Status released = lease_->Release();
  lease_.reset();
  return released;
}

Status Replica::RenewLease() {
  if (!lease_.has_value()) {
    return Status::FailedPrecondition("replica holds no lease");
  }
  return lease_->Renew();
}

}  // namespace newsdiff::store
