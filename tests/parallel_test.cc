#include "common/parallel.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace newsdiff {
namespace {

TEST(ParallelShardBounds, CoversRangeDisjointly) {
  for (size_t range : {0u, 1u, 2u, 7u, 16u, 17u, 100u, 1000u}) {
    for (size_t shards : {1u, 2u, 3u, 16u, 64u}) {
      std::vector<int> hits(range, 0);
      size_t prev_end = 0;
      for (size_t s = 0; s < shards; ++s) {
        ShardRange r = ShardBounds(range, shards, s);
        EXPECT_EQ(r.begin, prev_end) << "range=" << range << " shard=" << s;
        EXPECT_LE(r.end, range);
        prev_end = r.end;
        for (size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      EXPECT_EQ(prev_end, range) << "range=" << range << " shards=" << shards;
      for (size_t i = 0; i < range; ++i) EXPECT_EQ(hits[i], 1);
    }
  }
}

TEST(ParallelShardBounds, SizesDifferByAtMostOne) {
  ShardRange a = ShardBounds(10, 4, 0);
  ShardRange b = ShardBounds(10, 4, 3);
  EXPECT_EQ(a.size(), 3u);  // 10 = 3+3+2+2
  EXPECT_EQ(b.size(), 2u);
}

TEST(ParallelResolveShards, FollowsContract) {
  EXPECT_EQ(ResolveShards({}, 100), 1u);               // serial default
  EXPECT_EQ(ResolveShards({.threads = 8}, 100), kDefaultShards);
  EXPECT_EQ(ResolveShards({.threads = 8}, 5), 5u);     // clamped to range
  EXPECT_EQ(ResolveShards({.threads = 8, .shards = 4}, 100), 4u);
  EXPECT_EQ(ResolveShards({.threads = 1, .shards = 4}, 100), 4u);
  EXPECT_EQ(ResolveShards({.threads = 8}, 0), 0u);     // empty range
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ParallelFor({.threads = 8}, 0,
              [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanShardCount) {
  Parallelism par{.threads = 8, .shards = 16};
  std::vector<int> hits(3, 0);
  ParallelFor(par, 3, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, VisitsEveryElementOnceAcrossThreadCounts) {
  constexpr size_t kN = 10007;
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h = 0;
    ParallelFor({.threads = threads}, kN,
                [&](size_t, size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) ++hits[i];
                });
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, ExceptionFromOneShardPropagatesAndJoins) {
  Parallelism par{.threads = 4, .shards = 8};
  std::atomic<int> ran{0};
  auto boom = [&]() {
    ParallelFor(par, 8, [&](size_t shard, size_t, size_t) {
      ++ran;
      if (shard == 3) throw std::runtime_error("shard 3 failed");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // Every shard still ran (the pool joined cleanly rather than abandoning
  // work mid-flight).
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelFor, LowestThrowingShardWinsDeterministically) {
  Parallelism par{.threads = 4, .shards = 8};
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      ParallelFor(par, 8, [&](size_t shard, size_t, size_t) {
        if (shard >= 2) throw std::runtime_error("shard " + std::to_string(shard));
      });
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2");
    }
  }
}

TEST(ParallelFor, PoolUsableAfterException) {
  Parallelism par{.threads = 4, .shards = 8};
  EXPECT_THROW(ParallelFor(par, 8,
                           [&](size_t, size_t, size_t) {
                             throw std::runtime_error("x");
                           }),
               std::runtime_error);
  std::atomic<size_t> sum{0};
  ParallelFor(par, 100, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelFor, NestedCallRunsInlineInShardOrder) {
  Parallelism par{.threads = 4, .shards = 4};
  std::vector<std::vector<size_t>> inner_orders(4);
  std::atomic<bool> saw_region{false};
  ParallelFor(par, 4, [&](size_t shard, size_t, size_t) {
    if (InParallelRegion()) saw_region = true;
    // Nested ParallelFor must not re-enter the pool; it runs inline, so
    // the inner shard order is exactly 0,1,2,3 on this thread.
    ParallelFor(par, 4, [&](size_t inner, size_t, size_t) {
      inner_orders[shard].push_back(inner);
    });
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(InParallelRegion());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(inner_orders[s], (std::vector<size_t>{0, 1, 2, 3}));
  }
}

TEST(ParallelFor, OversubscriptionBeyondHardwareThreads) {
  // 64 threads on any machine: shards must still each run exactly once
  // and the shard-order sum must stay bitwise equal to serial.
  constexpr size_t kN = 5000;
  constexpr size_t kShards = 16;
  std::vector<double> v(kN);
  Rng rng(11);
  for (double& x : v) x = rng.NextDouble();
  auto sum_with = [&](size_t threads) {
    std::vector<double> partials(kShards, 0.0);
    ParallelFor({.threads = threads, .shards = kShards}, kN,
                [&](size_t shard, size_t begin, size_t end) {
                  partials[shard] = std::accumulate(v.begin() + begin,
                                                    v.begin() + end, 0.0);
                });
    return std::accumulate(partials.begin(), partials.end(), 0.0);
  };
  EXPECT_EQ(sum_with(1), sum_with(64));
}

TEST(ParallelShardRng, StreamsAreIndependentAndReproducible) {
  Rng a0 = ShardRng(23, 0);
  Rng a0_again = ShardRng(23, 0);
  Rng a1 = ShardRng(23, 1);
  Rng b0 = ShardRng(24, 0);
  uint64_t x = a0.NextU64();
  EXPECT_EQ(x, a0_again.NextU64());  // reproducible
  EXPECT_NE(x, a1.NextU64());        // distinct streams
  EXPECT_NE(x, b0.NextU64());        // distinct seeds
}

TEST(ParallelMisc, HardwareThreadsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

}  // namespace
}  // namespace newsdiff
