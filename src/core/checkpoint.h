#ifndef NEWSDIFF_CORE_CHECKPOINT_H_
#define NEWSDIFF_CORE_CHECKPOINT_H_

#include "common/status.h"
#include "core/pipeline.h"
#include "store/database.h"

namespace newsdiff::core {

/// Stage-output checkpointing (§4.9): the deployed system refreshes its
/// datasets every two hours and resumes "from checkpoints or from scratch"
/// after each update. These helpers persist the analysis outputs (topics,
/// events, trending topics, correlations, assignments) one stage at a time
/// into the same document store the raw data lives in, so a restarted
/// process can read the previous results without recomputation.
///
/// Corpora and tweet/news records are NOT checkpointed (they are already in
/// the store as raw collections); a loaded checkpoint therefore restores the
/// analysis outputs only.

/// Collection names used by the checkpoint.
inline constexpr char kTopicsCollection[] = "ckpt_topics";
inline constexpr char kNewsEventsCollection[] = "ckpt_news_events";
inline constexpr char kTwitterEventsCollection[] = "ckpt_twitter_events";
inline constexpr char kTrendingCollection[] = "ckpt_trending";
inline constexpr char kCorrelationsCollection[] = "ckpt_correlations";
inline constexpr char kAssignmentsCollection[] = "ckpt_assignments";
/// Stage-completion ledger written by PipelineSupervisor (one doc per
/// finished stage); lives beside the checkpoints so a snapshot of the
/// store captures both atomically.
inline constexpr char kStageLedgerCollection[] = "stage_ledger";

/// The analysis stages in execution order, as named in the stage ledger.
inline constexpr const char* kStageNames[] = {
    "topics",      "news_events",  "twitter_events",
    "trending",    "correlations", "assignments",
};

/// Stage-granular checkpoint IO for the supervisor: persists / restores the
/// outputs of a single named stage (one of kStageNames). Saving replaces
/// that stage's collection only; loading fails with NotFound when the
/// stage's collection is absent.
Status SaveStageOutput(const std::string& stage, const PipelineResult& result,
                       store::Database& db);
Status LoadStageOutput(const std::string& stage, const store::Database& db,
                       PipelineResult* result);

}  // namespace newsdiff::core

#endif  // NEWSDIFF_CORE_CHECKPOINT_H_
