#include "core/supervisor.h"

#include "common/crc32.h"
#include "common/logging.h"
#include "core/checkpoint.h"

namespace newsdiff::core {

namespace {

constexpr size_t kNumStages = sizeof(kStageNames) / sizeof(kStageNames[0]);

/// Fingerprint of the pipeline inputs. Ledger entries carry it so a stage
/// completed against a previous crawl is never served for a refreshed one:
/// a changed corpus changes the signature, which invalidates every entry.
int64_t InputSignature(const PipelineResult& result) {
  std::string key = "news=" + std::to_string(result.news.size()) +
                    ";tweets=" + std::to_string(result.tweets.size());
  // Mix in the time range so same-sized but different crawls diverge.
  if (!result.news.empty()) {
    key += ";n0=" + std::to_string(result.news.front().published);
    key += ";n1=" + std::to_string(result.news.back().published);
  }
  if (!result.tweets.empty()) {
    key += ";t0=" + std::to_string(result.tweets.front().created);
    key += ";t1=" + std::to_string(result.tweets.back().created);
  }
  return static_cast<int64_t>(Crc32(key));
}

bool LedgerDone(const store::Database& db, const std::string& stage,
                int64_t sig) {
  const store::Collection* ledger = db.Get(kStageLedgerCollection);
  if (ledger == nullptr) return false;
  bool done = false;
  ledger->ForEach(store::Filter(),
                  [&](store::DocId, const store::Value& doc) {
                    const store::Value* s = doc.Find("stage");
                    const store::Value* v = doc.Find("input_sig");
                    if (s != nullptr && v != nullptr && s->AsString() == stage &&
                        v->AsInt() == sig) {
                      done = true;
                      return false;
                    }
                    return true;
                  });
  return done;
}

Status AppendLedger(store::Database& db, const std::string& stage,
                    int64_t sig, size_t seq) {
  store::Collection& ledger = db.GetOrCreate(kStageLedgerCollection);
  StatusOr<store::DocId> id = ledger.Insert(store::MakeObject({
      {"stage", stage},
      {"input_sig", sig},
      {"seq", static_cast<int64_t>(seq)},
  }));
  return id.ok() ? Status::OK() : id.status();
}

}  // namespace

Status PipelineSupervisor::AcquireLeaseIfNeeded() {
  if (!options_.lease_enabled || options_.snapshot_dir.empty()) {
    return Status::OK();
  }
  if (lease_.has_value()) return Status::OK();
  // A promoted follower already holds the directory's lease (with the
  // fencing token that ended the previous writer); acquiring a second one
  // would fence ourselves.
  if (replica_ != nullptr && replica_->lease() != nullptr) return Status::OK();
  store::LeaseOptions lease_options = options_.lease;
  if (lease_options.io == nullptr) lease_options.io = options_.snapshot.io;
  if (lease_options.clock == nullptr) lease_options.clock = options_.clock;
  FileIo& io = lease_options.io != nullptr ? *lease_options.io
                                           : DefaultFileIo();
  NEWSDIFF_RETURN_IF_ERROR(io.CreateDirectories(options_.snapshot_dir));
  StatusOr<store::Lease> lease =
      store::Lease::Acquire(options_.snapshot_dir, lease_options);
  if (!lease.ok()) return lease.status();
  lease_.emplace(std::move(lease).value());
  NEWSDIFF_LOG(Info) << "supervisor: acquired lease on "
                     << options_.snapshot_dir << " (token "
                     << lease_->token() << ")";
  return Status::OK();
}

Status PipelineSupervisor::RenewLease() {
  if (lease_.has_value()) return lease_->Renew();
  if (replica_ != nullptr && replica_->lease() != nullptr) {
    return replica_->RenewLease();
  }
  return Status::OK();
}

store::WalOptions PipelineSupervisor::GatedWalOptions() {
  store::WalOptions wal = options_.wal;
  if (wal.io == nullptr) wal.io = options_.snapshot.io;
  if (wal.clock == nullptr) wal.clock = options_.clock;
  if (options_.lease_enabled && !wal.write_gate) {
    // The gate outlives nothing: the supervisor owns both the lease and
    // (via the Database the caller passes around) nothing else captures it.
    // A promoted follower's lease gates the same way.
    wal.write_gate = [this]() {
      if (lease_.has_value()) return lease_->Check();
      if (replica_ != nullptr && replica_->lease() != nullptr) {
        return replica_->lease()->Check();
      }
      return Status::OK();
    };
  }
  return wal;
}

Status PipelineSupervisor::Follow(store::Database& db) {
  if (options_.snapshot_dir.empty()) {
    return Status::InvalidArgument("follower mode requires a snapshot_dir");
  }
  store::ReplicaOptions replica_options;
  replica_options.snapshot = options_.snapshot;
  replica_options.clock = options_.clock;
  replica_ = std::make_unique<store::Replica>(options_.snapshot_dir, &db,
                                              replica_options);
  NEWSDIFF_RETURN_IF_ERROR(replica_->Bootstrap());
  NEWSDIFF_LOG(Info) << "supervisor: following " << options_.snapshot_dir
                     << " from checkpoint generation "
                     << replica_->stats().bootstrap_generation;
  return Status::OK();
}

Status PipelineSupervisor::PollFollower() {
  if (replica_ == nullptr) {
    return Status::FailedPrecondition("not in follower mode (call Follow)");
  }
  return replica_->Poll();
}

StatusOr<uint64_t> PipelineSupervisor::PromoteFollower() {
  if (replica_ == nullptr) {
    return Status::FailedPrecondition("not in follower mode (call Follow)");
  }
  store::LeaseOptions lease_options = options_.lease;
  if (lease_options.io == nullptr) lease_options.io = options_.snapshot.io;
  if (lease_options.clock == nullptr) lease_options.clock = options_.clock;
  StatusOr<uint64_t> token = replica_->Promote(lease_options, options_.wal);
  if (token.ok()) {
    NEWSDIFF_LOG(Info) << "supervisor: promoted follower of "
                       << options_.snapshot_dir << " (fencing token "
                       << token.value() << ")";
  }
  return token;
}

Status PipelineSupervisor::Recover(store::Database& db) {
  report_ = SupervisorReport{};
  if (options_.snapshot_dir.empty()) return Status::OK();
  FileIo& io =
      options_.snapshot.io != nullptr ? *options_.snapshot.io : DefaultFileIo();
  const bool first_run = !io.Exists(options_.snapshot_dir);
  // Exclusivity comes first: recovery replays the log and (in WAL mode)
  // attaches the write path, so no second writer may be active.
  NEWSDIFF_RETURN_IF_ERROR(AcquireLeaseIfNeeded());
  if (first_run) return Status::OK();
  if (options_.use_wal) {
    NEWSDIFF_RETURN_IF_ERROR(db.RecoverWal(options_.snapshot_dir,
                                           options_.snapshot, GatedWalOptions(),
                                           &report_.recovery));
    report_.recovered = true;
    NEWSDIFF_LOG(Info) << "supervisor: recovered checkpoint generation "
                       << report_.recovery.generation << " + "
                       << report_.recovery.wal_records_replayed
                       << " replayed wal records from "
                       << options_.snapshot_dir;
    return Status::OK();
  }
  NEWSDIFF_RETURN_IF_ERROR(db.LoadFromDir(
      options_.snapshot_dir, options_.snapshot, &report_.recovery));
  report_.recovered = true;
  NEWSDIFF_LOG(Info) << "supervisor: recovered snapshot generation "
                     << report_.recovery.generation << " from "
                     << options_.snapshot_dir;
  return Status::OK();
}

Status PipelineSupervisor::RunStage(const std::string& stage,
                                    const embed::PretrainedStore& store,
                                    PipelineResult* result) const {
  if (stage == "topics") return pipeline_.RunTopics(result);
  if (stage == "news_events") return pipeline_.RunNewsEvents(result);
  if (stage == "twitter_events") return pipeline_.RunTwitterEvents(result);
  if (stage == "trending") return pipeline_.RunTrending(store, result);
  if (stage == "correlations") return pipeline_.RunCorrelations(store, result);
  if (stage == "assignments") return pipeline_.RunAssignments(result);
  return Status::InvalidArgument("unknown pipeline stage: " + stage);
}

StatusOr<PipelineResult> PipelineSupervisor::Run(
    store::Database& db, const embed::PretrainedStore& store) {
  SupervisorReport report;
  report.recovery = report_.recovery;  // keep what Recover() learned
  report.recovered = report_.recovered;
  report_ = std::move(report);

  SystemClock system_clock;
  Clock* clock = options_.clock != nullptr ? options_.clock : &system_clock;
  const size_t max_attempts =
      options_.max_stage_attempts == 0 ? 1 : options_.max_stage_attempts;

  NEWSDIFF_RETURN_IF_ERROR(AcquireLeaseIfNeeded());
  const bool wal_mode = options_.use_wal && !options_.snapshot_dir.empty();
  if (wal_mode && !db.wal_attached()) {
    // Fresh store (no Recover, or first run): everything inserted so far —
    // the crawl — predates logging, so attach and immediately checkpoint.
    // From here on, every mutation hits the log before memory.
    NEWSDIFF_RETURN_IF_ERROR(
        db.AttachWal(options_.snapshot_dir, GatedWalOptions()));
    NEWSDIFF_RETURN_IF_ERROR(RenewLease());
    NEWSDIFF_RETURN_IF_ERROR(db.Checkpoint(options_.snapshot));
  }

  PipelineResult result;
  NEWSDIFF_RETURN_IF_ERROR(pipeline_.LoadInputs(db, &result));
  const int64_t sig = InputSignature(result);

  // Resumable prefix: the longest run of leading stages whose ledger entry
  // matches the current inputs. A stage after the first recomputed one is
  // never resumed — its checkpointed outputs were derived from upstream
  // outputs that are about to be replaced.
  size_t done_prefix = 0;
  while (done_prefix < kNumStages &&
         LedgerDone(db, kStageNames[done_prefix], sig)) {
    ++done_prefix;
  }

  // The ledger is rewritten from scratch so stale entries (older inputs,
  // stages past the resume point) cannot linger. A first run has no ledger
  // to drop.
  (void)db.Drop(kStageLedgerCollection);

  size_t resumed = 0;
  for (; resumed < done_prefix; ++resumed) {
    const std::string stage = kStageNames[resumed];
    Status loaded = LoadStageOutput(stage, db, &result);
    if (!loaded.ok()) {
      NEWSDIFF_LOG(Warning) << "supervisor: ledger marks '" << stage
                            << "' complete but its checkpoint failed to load ("
                            << loaded.message() << "); recomputing from here";
      break;
    }
    NEWSDIFF_RETURN_IF_ERROR(AppendLedger(db, stage, sig, resumed));
    report_.stages.push_back(StageRun{stage});
    ++report_.stages_resumed;
  }

  for (size_t i = resumed; i < kNumStages; ++i) {
    const std::string stage = kStageNames[i];
    StageRun run;
    run.name = stage;

    Status status = Status::OK();
    for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      run.attempts = attempt;
      if (attempt > 1) ++report_.retries;
      if (options_.stage_fault_hook) {
        status = options_.stage_fault_hook(stage, attempt);
        if (!status.ok()) {
          NEWSDIFF_LOG(Warning) << "supervisor: injected fault in '" << stage
                                << "' attempt " << attempt << ": "
                                << status.message();
          continue;
        }
      }
      const int64_t start_ms = clock->NowMillis();
      status = RunStage(stage, store, &result);
      const int64_t elapsed_ms = clock->NowMillis() - start_ms;
      run.seconds = static_cast<double>(elapsed_ms) / 1000.0;
      if (status.ok() && options_.stage_deadline_ms > 0 &&
          elapsed_ms > options_.stage_deadline_ms) {
        status = Status::DeadlineExceeded(
            "stage '" + stage + "' took " + std::to_string(elapsed_ms) +
            "ms (deadline " + std::to_string(options_.stage_deadline_ms) +
            "ms)");
      }
      if (status.ok()) break;
      NEWSDIFF_LOG(Warning) << "supervisor: stage '" << stage << "' attempt "
                            << attempt << "/" << max_attempts
                            << " failed: " << status.message();
    }
    if (!status.ok()) return status;

    // Durability, in dependency order. The lease is renewed first so a
    // fenced writer fails here instead of publishing. In WAL mode the
    // outputs and the completion record get *separate* syncs: per-
    // collection logs flush independently, so one sync covering both could
    // crash with the ledger entry durable but the outputs it vouches for
    // still pending — a resume would then trust incomplete outputs. Split,
    // a crash can only leave outputs without a ledger entry, and the stage
    // recomputes deterministically. Snapshot mode needs no such care: the
    // whole-store save commits atomically at the manifest rename.
    NEWSDIFF_RETURN_IF_ERROR(RenewLease());
    NEWSDIFF_RETURN_IF_ERROR(SaveStageOutput(stage, result, db));
    if (wal_mode) {
      NEWSDIFF_RETURN_IF_ERROR(db.WalSync());
      NEWSDIFF_RETURN_IF_ERROR(AppendLedger(db, stage, sig, i));
      NEWSDIFF_RETURN_IF_ERROR(db.WalSync());
    } else {
      NEWSDIFF_RETURN_IF_ERROR(AppendLedger(db, stage, sig, i));
      if (!options_.snapshot_dir.empty()) {
        NEWSDIFF_RETURN_IF_ERROR(
            db.SaveToDir(options_.snapshot_dir, options_.snapshot));
      }
    }
    report_.stages.push_back(std::move(run));
    ++report_.stages_computed;
  }

  if (wal_mode) {
    // Fold the run's log tail into a fresh checkpoint so the next process
    // recovers from a snapshot plus a short log, not the whole run's log.
    NEWSDIFF_RETURN_IF_ERROR(RenewLease());
    NEWSDIFF_RETURN_IF_ERROR(db.Checkpoint(options_.snapshot));
  }
  if (lease_.has_value()) {
    // Clean exit: hand the directory to the next writer immediately. Error
    // paths above deliberately keep the lease — it expires on its own, the
    // crash-takeover contract.
    NEWSDIFF_RETURN_IF_ERROR(lease_->Release());
    lease_.reset();
  } else if (replica_ != nullptr && replica_->lease() != nullptr) {
    NEWSDIFF_RETURN_IF_ERROR(replica_->ReleaseLease());
  }

  NEWSDIFF_LOG(Info) << "supervisor: " << report_.stages_resumed
                     << " stages resumed, " << report_.stages_computed
                     << " computed, " << report_.retries << " retries";
  return result;
}

}  // namespace newsdiff::core
