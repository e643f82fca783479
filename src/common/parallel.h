#ifndef NEWSDIFF_COMMON_PARALLEL_H_
#define NEWSDIFF_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/rng.h"

namespace newsdiff {

/// Execution configuration for the parallel primitives, threaded through
/// every stage that has a parallelized hot loop (core/pipeline fans it out).
///
/// The determinism contract (see DESIGN.md "Parallel execution"):
///   - `threads` is pure execution width. It NEVER influences results: the
///     same work items run in the same per-shard order whether shards
///     execute on one thread or sixteen.
///   - `shards` is the fixed partition count. Shard boundaries are a pure
///     function of (range, shards) — ShardBounds below — so any two
///     machines, at any thread count, produce bitwise-identical outputs.
///   - Map-style kernels (disjoint output writes, per-element work
///     independent of shard boundaries — all the la/ GEMMs, elementwise
///     matrix ops, the MABED scan) are additionally invariant to `shards`,
///     i.e. bitwise equal to the pre-parallel serial code.
///   - Sharded-semantics stages (per-shard partials combined in shard
///     order: PV-DBOW epochs, Conv1D's backward batch gradient) depend on
///     the *resolved shard count* only; pin `shards` when comparing runs.
struct Parallelism {
  /// Worker count. 1 (default) executes shards inline on the calling
  /// thread, reproducing single-threaded behaviour exactly.
  size_t threads = 1;
  /// Partition count. 0 resolves to 1 when threads <= 1 (legacy serial
  /// semantics) and to kDefaultShards otherwise — a constant, so results
  /// do not vary with the machine's core count.
  size_t shards = 0;

  bool serial() const { return threads <= 1; }
};

/// Default shard count used when Parallelism::shards == 0 and threads > 1.
/// Deliberately a constant (not hardware_concurrency) so auto-sharded
/// reductions are machine-invariant.
inline constexpr size_t kDefaultShards = 16;

/// Number of shards a range will actually be split into: explicit shards
/// clamped to the range, else 1 (serial) or kDefaultShards. Returns 0 only
/// for an empty range.
size_t ResolveShards(const Parallelism& par, size_t range);

/// Half-open element range [begin, end) owned by one shard.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Fixed partition of [0, range) into num_shards contiguous chunks whose
/// sizes differ by at most one (the first range % num_shards shards get the
/// extra element). Pure function of its arguments.
ShardRange ShardBounds(size_t range, size_t num_shards, size_t shard);

/// Best-effort hardware thread count (>= 1).
size_t HardwareThreads();

/// True while the calling thread is executing a ParallelFor shard body.
/// ParallelFor calls made in that state run inline (no pool re-entry).
bool InParallelRegion();

/// Runs `body(shard, begin, end)` for every shard of the fixed partition of
/// [0, range). Shard writes must be disjoint. With par.serial(), inside a
/// parallel region, or a single resolved shard, shards run inline in shard
/// order on the calling thread; otherwise they are executed by a shared
/// persistent pool (the caller participates). If bodies throw, every shard
/// still runs/joins and the exception from the lowest-numbered throwing
/// shard is rethrown — deterministically, regardless of scheduling.
void ParallelFor(
    const Parallelism& par, size_t range,
    const std::function<void(size_t shard, size_t begin, size_t end)>& body);

/// Derives the RNG stream for one shard of a sharded stochastic stage.
/// Streams are decorrelated (two splitmix64 rounds over seed and stream id)
/// and depend only on (seed, stream), matching the checkpoint/resume
/// determinism contract: the same seed and shard layout reproduce the same
/// draws on any machine at any thread count.
Rng ShardRng(uint64_t seed, uint64_t stream);

}  // namespace newsdiff

#endif  // NEWSDIFF_COMMON_PARALLEL_H_
