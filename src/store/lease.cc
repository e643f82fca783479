#include "store/lease.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"

namespace newsdiff::store {

namespace {

constexpr char kLeaseFile[] = "LEASE";
constexpr char kHighWaterFile[] = "LEASE.hwm";
constexpr char kMagic[] = "newsdiff-lease";
constexpr char kHwmMagic[] = "newsdiff-lease-hwm";
constexpr int kFormatVersion = 1;

}  // namespace

std::string SerializeLeaseRecord(const LeaseRecord& record) {
  std::string body = std::string(kMagic) + " " +
                     std::to_string(kFormatVersion) + "\n";
  body += "owner " + record.owner + "\n";
  body += "token " + std::to_string(record.token) + "\n";
  body += "expires_ms " + std::to_string(record.expires_ms) + "\n";
  return WithTrailer(std::move(body));
}

StatusOr<LeaseRecord> ParseLeaseRecord(const std::string& text) {
  StatusOr<std::string> body = CheckTrailer(text, "lease");
  if (!body.ok()) return body.status();

  LeaseRecord record;
  bool saw_magic = false, saw_owner = false, saw_token = false,
       saw_expiry = false;
  for (const std::string& line : Split(*body, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (tokens[0] == kMagic) {
      if (tokens.size() != 2 || tokens[1] != std::to_string(kFormatVersion)) {
        return Status::ParseError("unsupported lease format: " + line);
      }
      saw_magic = true;
    } else if (tokens[0] == "owner") {
      // Owner names are free-form but whitespace-free (they come from
      // SupervisorOptions); rejoin defensively anyway.
      record.owner = line.substr(std::string("owner ").size());
      saw_owner = true;
    } else if (tokens[0] == "token") {
      if (tokens.size() != 2 || !ParseU64(tokens[1], &record.token)) {
        return Status::ParseError("malformed lease token: " + line);
      }
      saw_token = true;
    } else if (tokens[0] == "expires_ms") {
      if (tokens.size() != 2 || !ParseI64(tokens[1], &record.expires_ms)) {
        return Status::ParseError("malformed lease expiry: " + line);
      }
      saw_expiry = true;
    } else {
      return Status::ParseError("unknown lease directive: " + tokens[0]);
    }
  }
  if (!saw_magic || !saw_owner || !saw_token || !saw_expiry) {
    return Status::ParseError("lease file missing required fields");
  }
  return record;
}

std::string Lease::FileName() { return kLeaseFile; }

std::string Lease::HighWaterFileName() { return kHighWaterFile; }

std::string Lease::path() const { return dir_ + "/" + kLeaseFile; }

FileIo& Lease::io() const {
  return options_.io != nullptr ? *options_.io : DefaultFileIo();
}

Clock& Lease::clock() const {
  static SystemClock system_clock;
  return options_.clock != nullptr ? *options_.clock : system_clock;
}

StatusOr<LeaseRecord> Lease::ReadRecord() const {
  if (!io().Exists(path())) return Status::NotFound("no lease file");
  StatusOr<std::string> contents = io().ReadFile(path());
  if (!contents.ok()) {
    // A failed read proves nothing about the file's contents: claiming on
    // top of it could mint a token the live holder already owns. Propagate
    // the fault and let the caller retry; only a file that reads cleanly
    // but fails its CRC (below) is durably corrupt and claimable.
    return contents.status();
  }
  StatusOr<LeaseRecord> record = ParseLeaseRecord(contents.value());
  if (!record.ok()) {
    return Status::NotFound("corrupt lease file: " +
                            record.status().message());
  }
  return record;
}

Status Lease::WriteRecord(const LeaseRecord& record) const {
  return WriteFileAtomic(io(), path(), SerializeLeaseRecord(record));
}

StatusOr<uint64_t> Lease::ReadTokenHighWater() const {
  const std::string hwm_path = dir_ + "/" + kHighWaterFile;
  if (!io().Exists(hwm_path)) return uint64_t{0};
  StatusOr<std::string> contents = io().ReadFile(hwm_path);
  // A transient read fault must not be mistaken for an absent mark: the
  // mark is exactly what keeps a re-minted token above every fenced one.
  if (!contents.ok()) return contents.status();
  // Format: "newsdiff-lease-hwm <token>\ncrc <hex>\n". A mark that fails
  // its CRC is treated as absent — the incumbent lease record still bounds
  // the token, so a lost mark only matters when both files are damaged at
  // once, and even then the fallback is the pre-mark behaviour.
  StatusOr<std::string> body = CheckTrailer(contents.value(), "lease mark");
  if (!body.ok()) return uint64_t{0};
  const std::vector<std::string> fields = SplitWhitespace(*body);
  uint64_t token = 0;
  if (fields.size() != 2 || fields[0] != kHwmMagic ||
      !ParseU64(fields[1], &token)) {
    return uint64_t{0};
  }
  return token;
}

StatusOr<Lease> Lease::Acquire(const std::string& dir,
                               const LeaseOptions& options) {
  Lease lease(dir, options, /*token=*/0);
  const int64_t give_up_ms = lease.clock().NowMillis() + options.wait_ms;
  while (true) {
    StatusOr<LeaseRecord> incumbent = lease.ReadRecord();
    if (!incumbent.ok() &&
        incumbent.status().code() != StatusCode::kNotFound) {
      // Transient read fault: retrying is the caller's call, claiming on
      // an unproven view of the incumbent is not.
      return incumbent.status();
    }
    const int64_t now_ms = lease.clock().NowMillis();
    StatusOr<uint64_t> hwm = lease.ReadTokenHighWater();
    if (!hwm.ok()) return hwm.status();
    uint64_t floor = *hwm;
    bool claimable = true;
    if (incumbent.ok()) {
      floor = std::max(floor, incumbent->token);
      claimable = incumbent->expires_ms <= now_ms;  // holder presumed dead
    }
    if (claimable) {
      const uint64_t next_token = floor + 1;
      // Persist the high-water mark *before* the lease record: if we crash
      // between the two, the next claimant still starts above next_token,
      // so a fenced writer can never be handed its own token back even
      // when the lease file is later lost or corrupted.
      NEWSDIFF_RETURN_IF_ERROR(WriteFileAtomic(
          lease.io(), dir + "/" + kHighWaterFile,
          WithTrailer(std::string(kHwmMagic) + " " +
                      std::to_string(next_token) + "\n")));
      LeaseRecord record;
      record.owner = options.owner;
      record.token = next_token;
      record.expires_ms = now_ms + options.ttl_ms;
      NEWSDIFF_RETURN_IF_ERROR(lease.WriteRecord(record));
      lease.token_ = next_token;
      return lease;
    }
    if (now_ms >= give_up_ms) {
      return Status::Unavailable(
          "lease on " + dir + " held by " + incumbent->owner + " (token " +
          std::to_string(incumbent->token) + ", expires in " +
          std::to_string(incumbent->expires_ms - now_ms) + "ms)");
    }
    lease.clock().SleepMillis(options.poll_ms);
  }
}

Status Lease::Check() {
  StatusOr<LeaseRecord> current = ReadRecord();
  if (!current.ok()) {
    if (current.status().code() != StatusCode::kNotFound) {
      // A transient read fault is retryable — it is not evidence that
      // someone else took the lease, so do not self-fence on it.
      return current.status();
    }
    // Our own lease file vanished or turned to garbage under us. We cannot
    // prove we still hold exclusivity, so the safe verdict is "fenced".
    return Status::FailedPrecondition("lease lost: " +
                                      current.status().message());
  }
  if (current->token != token_ || current->owner != options_.owner) {
    return Status::FailedPrecondition(
        "fenced: lease token " + std::to_string(current->token) + " (held by " +
        current->owner + ") supersedes ours (" + std::to_string(token_) + ")");
  }
  return Status::OK();
}

Status Lease::Renew() {
  NEWSDIFF_RETURN_IF_ERROR(Check());
  LeaseRecord record;
  record.owner = options_.owner;
  record.token = token_;
  record.expires_ms = clock().NowMillis() + options_.ttl_ms;
  return WriteRecord(record);
}

Status Lease::Release() {
  NEWSDIFF_RETURN_IF_ERROR(Check());
  return io().Remove(path());
}

}  // namespace newsdiff::store
