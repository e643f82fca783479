#ifndef NEWSDIFF_COMMON_RETRY_H_
#define NEWSDIFF_COMMON_RETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace newsdiff {

/// Injectable time source for the retry machinery. Production code uses
/// SystemClock; tests and fault-injected crawls use ManualClock so that
/// backoff sleeps and circuit-breaker cooldowns elapse instantly.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic milliseconds; the epoch is arbitrary.
  virtual int64_t NowMillis() = 0;

  /// Blocks (or pretends to block) for `ms` milliseconds.
  virtual void SleepMillis(int64_t ms) = 0;
};

/// Real steady-clock time and real sleeping.
class SystemClock : public Clock {
 public:
  int64_t NowMillis() override;
  void SleepMillis(int64_t ms) override;
};

/// Deterministic clock for tests and simulations: sleeping advances
/// simulated time, so a 10-second backoff schedule runs in microseconds.
/// The counter is atomic so one thread can Advance() while another polls
/// NowMillis().
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t start_ms = 0) : now_ms_(start_ms) {}

  int64_t NowMillis() override {
    return now_ms_.load(std::memory_order_relaxed);
  }
  void SleepMillis(int64_t ms) override {
    now_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

  /// Advances time without anyone sleeping (e.g. to cool down a breaker).
  void Advance(int64_t ms) { now_ms_.fetch_add(ms, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> now_ms_;
};

/// True for the transient upstream conditions worth retrying —
/// kUnavailable, kResourceExhausted (rate limits) and kDeadlineExceeded
/// (timeouts). Every other code is fatal for the attempted operation.
bool IsRetryable(StatusCode code);

/// Exponential backoff with decorrelated jitter (the AWS builders'-library
/// scheme): sleep_{n+1} = min(cap, Uniform(base, 3 * sleep_n)). With jitter
/// disabled the schedule is plain exponential: base * multiplier^n.
struct RetryPolicy {
  int max_attempts = 5;
  int64_t initial_backoff_ms = 100;
  int64_t max_backoff_ms = 10000;
  double multiplier = 2.0;  // growth factor when jitter is disabled
  bool decorrelated_jitter = true;
  /// An attempt observed to take longer than this is converted to
  /// kDeadlineExceeded even if it eventually returned OK — the caller has
  /// already abandoned it, so its result must not be used. 0 disables.
  int64_t attempt_timeout_ms = 0;
  /// Overall wall-time budget across attempts and backoff. 0 disables.
  int64_t overall_deadline_ms = 0;
};

/// Counters accumulated across Run() calls (cumulative; callers diff
/// snapshots to attribute counts to a window of work).
struct RetryStats {
  int64_t attempts = 0;     // operations actually invoked
  int64_t retries = 0;      // failed retryable attempts
  int64_t exhausted = 0;    // Run() calls that gave up
  int64_t backoff_ms = 0;   // total (possibly simulated) time slept
  int64_t breaker_rejections = 0;  // attempts skipped: breaker open
  // Failed attempts by classification.
  int64_t unavailable = 0;
  int64_t resource_exhausted = 0;
  int64_t deadline_exceeded = 0;
  int64_t fatal = 0;
};

/// Per-endpoint circuit breaker. Closed passes requests through; a run of
/// consecutive failures opens it (requests rejected without touching the
/// endpoint); after a cooldown it half-opens and admits probe requests,
/// closing again after enough probe successes, reopening on any probe
/// failure.
struct CircuitBreakerOptions {
  int failure_threshold = 5;  // consecutive failures that open the circuit
  int64_t open_ms = 2000;     // cooldown before the half-open probe
  int half_open_successes = 2;  // probe successes required to close
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(CircuitBreakerOptions options, Clock* clock,
                 std::string name = "");

  /// True if a request may be issued now. A cooled-down open breaker
  /// transitions to half-open and admits probes.
  bool AllowRequest();

  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  /// Number of closed/half-open -> open transitions so far.
  int64_t trips() const { return trips_; }
  const std::string& name() const { return name_; }

 private:
  void Trip();

  CircuitBreakerOptions options_;
  Clock* clock_;
  std::string name_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_seen_ = 0;
  int64_t open_until_ms_ = 0;
  int64_t trips_ = 0;
};

/// Runs fallible operations under a RetryPolicy, optionally gated by a
/// CircuitBreaker. Backoff jitter draws from a seeded Rng, so retry timing
/// is deterministic given (policy, seed, failure sequence).
class Retrier {
 public:
  Retrier(RetryPolicy policy, Clock* clock, uint64_t seed = 0x5eedull);

  /// Invokes `op` until it returns OK, a non-retryable status, the attempt
  /// budget is exhausted, or the overall deadline passes; sleeps the
  /// backoff schedule between attempts. When `breaker` is given, each
  /// attempt consults it first; attempts while it is open are skipped
  /// (counted as breaker_rejections) but still consume backoff, which is
  /// what gives the breaker time to half-open.
  Status Run(const std::function<Status()>& op,
             CircuitBreaker* breaker = nullptr);

  const RetryStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  int64_t NextBackoff(int64_t prev_ms);

  RetryPolicy policy_;
  Clock* clock_;
  Rng rng_;
  RetryStats stats_;
};

}  // namespace newsdiff

#endif  // NEWSDIFF_COMMON_RETRY_H_
