// Lease tests: single-writer exclusion over a store directory — contention
// fails fast, an expired lease is taken over, and the fencing token makes a
// stale writer's renewals (and, through the write gate, its WAL syncs)
// fail instead of interleaving with the new holder's writes.
#include "store/lease.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/retry.h"
#include "store/database.h"
#include "store/wal.h"

namespace newsdiff::store {
namespace {

namespace fs = std::filesystem;

class LeaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("newsdiff_lease_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  LeaseOptions With(Clock* clock, const std::string& owner) const {
    LeaseOptions options;
    options.clock = clock;
    options.owner = owner;
    return options;
  }

  fs::path dir_;
};

TEST(LeaseRecordTest, SerializeParseRoundTrip) {
  LeaseRecord record;
  record.owner = "pipeline-7";
  record.token = 42;
  record.expires_ms = 123456789;
  StatusOr<LeaseRecord> parsed = ParseLeaseRecord(SerializeLeaseRecord(record));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->owner, "pipeline-7");
  EXPECT_EQ(parsed->token, 42u);
  EXPECT_EQ(parsed->expires_ms, 123456789);
}

TEST(LeaseRecordTest, ParseRejectsDamage) {
  LeaseRecord record;
  record.owner = "w";
  record.token = 1;
  record.expires_ms = 1000;
  const std::string pristine = SerializeLeaseRecord(record);
  EXPECT_FALSE(ParseLeaseRecord("").ok());
  EXPECT_FALSE(ParseLeaseRecord("not a lease").ok());
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string damaged = pristine;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x2a);
    StatusOr<LeaseRecord> parsed = ParseLeaseRecord(damaged);
    if (!parsed.ok()) continue;  // detected, fine
    // The CRC trailer makes undetected single-byte damage impossible.
    ADD_FAILURE() << "flip at byte " << i << " parsed cleanly";
  }
}

TEST(LeaseRecordTest, FieldsOutsideTheirTypeAreMalformed) {
  const auto lease = [](const std::string& token, const std::string& expiry) {
    const std::string body = "newsdiff-lease 1\nowner w\ntoken " + token +
                             "\nexpires_ms " + expiry + "\n";
    return ParseLeaseRecord(body + "crc " + Crc32Hex(Crc32(body)) + "\n");
  };
  EXPECT_FALSE(lease("18446744073709551616", "0").ok());  // 2^64
  EXPECT_FALSE(lease("1", "9223372036854775808").ok());   // 2^63
  EXPECT_FALSE(lease("1", "-9223372036854775809").ok());
  StatusOr<LeaseRecord> extremes =
      lease("18446744073709551615", "-9223372036854775808");
  ASSERT_TRUE(extremes.ok());
  EXPECT_EQ(extremes->token, UINT64_MAX);
  EXPECT_EQ(extremes->expires_ms, INT64_MIN);
}

TEST_F(LeaseFixture, LeaseFreshAcquireGetsTokenOne) {
  ManualClock clock;
  StatusOr<Lease> lease = Lease::Acquire(dir(), With(&clock, "a"));
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(lease->token(), 1u);
  EXPECT_TRUE(lease->Check().ok());
  EXPECT_TRUE(lease->Renew().ok());
}

TEST_F(LeaseFixture, LeaseContentionFailsFast) {
  ManualClock clock;
  StatusOr<Lease> holder = Lease::Acquire(dir(), With(&clock, "a"));
  ASSERT_TRUE(holder.ok());
  StatusOr<Lease> contender = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable);
  // The error tells the operator who holds it.
  EXPECT_NE(contender.status().message().find("a"), std::string::npos);
}

TEST_F(LeaseFixture, LeaseWaiterTakesOverOnceTtlExpires) {
  // One ManualClock shared by both writers: the waiter's poll sleeps
  // advance simulated time past the holder's expiry, at which point the
  // wait converts into a takeover.
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> holder = Lease::Acquire(dir(), a);
  ASSERT_TRUE(holder.ok());

  LeaseOptions b = With(&clock, "b");
  b.wait_ms = 5'000;
  b.poll_ms = 100;
  StatusOr<Lease> waiter = Lease::Acquire(dir(), b);
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter->token(), 2u);
  // The dead holder's handle is now fenced.
  EXPECT_EQ(holder->Check().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LeaseFixture, LeaseExpiryTakeoverFencesTheStaleWriter) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> stale = Lease::Acquire(dir(), a);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->token(), 1u);

  clock.Advance(1'500);  // "a" stops renewing; its lease expires
  StatusOr<Lease> takeover = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(takeover.ok());
  EXPECT_EQ(takeover->token(), 2u);

  // The old holder wakes up: every path it could write through must fail.
  Status check = stale->Check();
  EXPECT_EQ(check.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(check.message().find("fenced"), std::string::npos);
  EXPECT_EQ(stale->Renew().code(), StatusCode::kFailedPrecondition);
  // The new holder is unaffected.
  EXPECT_TRUE(takeover->Check().ok());
  EXPECT_TRUE(takeover->Renew().ok());
}

TEST_F(LeaseFixture, LeaseWriteGateStopsAFencedWalSync) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> stale = Lease::Acquire(dir(), a);
  ASSERT_TRUE(stale.ok());

  WalOptions wal;
  wal.sync_every_records = 1;
  wal.write_gate = [&]() { return stale->Check(); };
  Database db;
  ASSERT_TRUE(db.AttachWal(dir(), wal).ok());
  Collection& c = db.GetOrCreate("articles");
  ASSERT_TRUE(c.Insert(MakeObject({{"k", static_cast<int64_t>(0)}})).ok());
  ASSERT_TRUE(db.WalSync().ok());  // still the holder: writes flow

  clock.Advance(1'500);
  StatusOr<Lease> takeover = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(takeover.ok());

  // The stale writer keeps mutating its in-memory store, but nothing may
  // reach the shared log: the gate fails the sync before any append.
  const size_t synced_before = db.wal()->stats().records_synced;
  ASSERT_TRUE(c.Insert(MakeObject({{"k", static_cast<int64_t>(1)}})).ok());
  Status sync = db.WalSync();
  EXPECT_EQ(sync.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.wal()->stats().records_synced, synced_before);
}

TEST_F(LeaseFixture, LeaseReleaseLetsTheNextWriterAcquireImmediately) {
  ManualClock clock;
  StatusOr<Lease> first = Lease::Acquire(dir(), With(&clock, "a"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Release().ok());
  // No TTL wait: the file is gone, so "b" claims instantly. The token
  // high-water mark survives the release, so the fencing token still
  // advances past the released one.
  StatusOr<Lease> second = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->token(), 2u);
}

TEST_F(LeaseFixture, LeaseCorruptFileIsClaimable) {
  ManualClock clock;
  StatusOr<Lease> holder = Lease::Acquire(dir(), With(&clock, "a"));
  ASSERT_TRUE(holder.ok());
  {
    std::ofstream out(dir_ / Lease::FileName(),
                      std::ios::trunc | std::ios::binary);
    out << "garbage that is not a lease record";
  }
  // Corruption means the holder's last renewal never landed intact; the
  // file is treated as absent and claimed without waiting. The token
  // high-water mark keeps the fencing token monotonic even though the
  // incumbent's token is unreadable.
  StatusOr<Lease> next = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->token(), 2u);
  EXPECT_EQ(holder->Check().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// TTL boundary semantics (see the contract in store/lease.h). Promotion
// correctness leans on these exact edges, so they are pinned here.

TEST_F(LeaseFixture, LeaseBoundaryTakeoverAllowedExactlyAtExpiry) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> holder = Lease::Acquire(dir(), a);
  ASSERT_TRUE(holder.ok());

  // One tick before expiry the lease is still live: contention fails fast.
  clock.Advance(999);
  StatusOr<Lease> early = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kUnavailable);

  // At exactly `expires_ms` the holder is presumed dead: takeover allowed.
  clock.Advance(1);
  StatusOr<Lease> takeover = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(takeover.ok());
  EXPECT_EQ(takeover->token(), 2u);
  EXPECT_EQ(holder->Check().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LeaseFixture, LeaseBoundaryExpiredButUntakenStillBelongsToHolder) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> holder = Lease::Acquire(dir(), a);
  ASSERT_TRUE(holder.ok());

  // Expiry alone does not fence: Check and Renew compare tokens only, so
  // the incumbent may resurrect its own expired lease right up until
  // someone else claims it.
  clock.Advance(5'000);
  EXPECT_TRUE(holder->Check().ok());
  ASSERT_TRUE(holder->Renew().ok());

  // The renewal restored a live TTL; a contender is locked out again.
  StatusOr<Lease> contender = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable);
}

TEST_F(LeaseFixture, LeaseBoundaryFencedRenewAndReleaseLeaveFileIntact) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> stale = Lease::Acquire(dir(), a);
  ASSERT_TRUE(stale.ok());
  clock.Advance(1'000);
  StatusOr<Lease> takeover = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(takeover.ok());

  // The fenced holder can neither renew nor release: both check the token
  // first, so the new holder's lease file is never touched.
  EXPECT_EQ(stale->Renew().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale->Release().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(takeover->Check().ok());
  EXPECT_TRUE(takeover->Renew().ok());
}

TEST_F(LeaseFixture, LeaseBoundaryHighWaterKeepsTokensMonotonicThroughCorruption) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> first = Lease::Acquire(dir(), a);  // token 1
  ASSERT_TRUE(first.ok());
  clock.Advance(1'000);
  LeaseOptions b = With(&clock, "b");
  b.ttl_ms = 1'000;
  StatusOr<Lease> second = Lease::Acquire(dir(), b);  // token 2 fences "a"
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->token(), 2u);

  // The lease file rots away entirely. Without the high-water mark the next
  // claimant would restart at token 1 — handing the long-fenced "a" its own
  // token back and re-opening split brain.
  {
    std::ofstream out(dir_ / Lease::FileName(),
                      std::ios::trunc | std::ios::binary);
    out << "garbage";
  }
  StatusOr<Lease> third = Lease::Acquire(dir(), With(&clock, "c"));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->token(), 3u);
  EXPECT_EQ(first->Check().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(second->Check().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LeaseFixture, LeaseBoundaryMissingHighWaterFallsBackToIncumbentToken) {
  ManualClock clock;
  LeaseOptions a = With(&clock, "a");
  a.ttl_ms = 1'000;
  StatusOr<Lease> first = Lease::Acquire(dir(), a);
  ASSERT_TRUE(first.ok());
  // A corrupt or missing mark is treated as absent; the incumbent's token
  // still bounds the claim, so fencing is preserved.
  fs::remove(dir_ / Lease::HighWaterFileName());
  clock.Advance(1'000);
  StatusOr<Lease> second = Lease::Acquire(dir(), With(&clock, "b"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->token(), 2u);
  EXPECT_EQ(first->Check().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace newsdiff::store
