#include "store/replication.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace newsdiff::store {

namespace {

std::pair<uint64_t, uint64_t> Position(const WalSegmentName& segment) {
  return {segment.base_generation, segment.part};
}

}  // namespace

WalTailer::WalTailer(std::string dir, uint64_t base_generation,
                     WalTailerOptions options)
    : dir_(std::move(dir)),
      base_generation_(base_generation),
      options_(options) {}

FileIo& WalTailer::io() const {
  return options_.io != nullptr ? *options_.io : DefaultFileIo();
}

void WalTailer::AbandonSegment(Cursor& cursor) {
  ++stats_.damaged_segments;
  cursor.done = true;
  cursor.unconsumed = 0;  // the bytes past the damage will never be applied
  cursor.last_reject.clear();
  cursor.reject_polls = 0;
}

void WalTailer::ConsumeDelta(const std::string& collection, Cursor& cursor,
                             std::string_view bytes, bool closed,
                             const Apply& apply) {
  while (true) {
    WalFrame frame = cursor.reader.Next(&bytes);
    switch (frame.verdict) {
      case WalFrame::Verdict::kRecord:
        break;
      case WalFrame::Verdict::kEnd:
        // Clean frame boundary: everything observed is applied.
        cursor.last_reject.clear();
        cursor.reject_polls = 0;
        cursor.unconsumed = 0;
        // A closed segment that ends cleanly (no ckpt marker — the writer
        // rotated on size or a poisoned append) is simply finished.
        if (closed) cursor.done = true;
        return;
      case WalFrame::Verdict::kTorn:
        if (closed) {
          // Nothing more will ever arrive: this is the poisoned tail of a
          // part the writer rotated away from — the bytes recovery drops.
          cursor.done = true;
          cursor.unconsumed = 0;
          cursor.last_reject.clear();
          cursor.reject_polls = 0;
        } else {
          // An append in flight, or a transiently torn read; wait it out.
          ++stats_.torn_waits;
          cursor.unconsumed = bytes.size();
        }
        return;
      case WalFrame::Verdict::kCorrupt:
        // Unverifiable bytes: in-flight rot on the read path redraws next
        // poll, durable rot in the file repeats byte-for-byte. Closed
        // segments are read with ReadFile, which cannot race an append —
        // the damage is already known durable.
        if (closed) {
          AbandonSegment(cursor);
          return;
        }
        if (bytes == cursor.last_reject) {
          if (++cursor.reject_polls >= options_.max_reject_polls) {
            AbandonSegment(cursor);
            return;
          }
        } else {
          cursor.last_reject = std::string(bytes);
          cursor.reject_polls = 1;
        }
        cursor.unconsumed = bytes.size();
        return;
      case WalFrame::Verdict::kRejected:
        // CRC-valid but unusable is durable logical damage, not a
        // transient read artifact; stop trusting the segment, as recovery
        // does.
        AbandonSegment(cursor);
        return;
    }

    const WalRecord& record = frame.record;
    if (record.type == WalRecord::Type::kCheckpoint) {
      stats_.checkpoint_generation =
          std::max(stats_.checkpoint_generation, record.generation);
      // End-of-segment marker: the writer rotated to the new base.
      cursor.done = true;
    } else if (record.type == WalRecord::Type::kPromotion) {
      stats_.fencing_token = std::max(stats_.fencing_token, record.token);
    }
    if (!apply(collection, record).ok()) {
      AbandonSegment(cursor);
      return;
    }
    cursor.last_reject.clear();
    cursor.reject_polls = 0;
    ++stats_.records_delivered;
    if (cursor.done) {
      cursor.unconsumed = 0;
      return;
    }
  }
}

Status WalTailer::Poll(const Apply& apply) {
  ++stats_.polls;
  StatusOr<std::vector<std::string>> listing = io().ListDir(dir_);
  if (!listing.ok()) {
    ++stats_.read_failures;
    return Status::OK();  // transient; retry next poll
  }

  std::map<std::string, std::vector<WalSegmentInfo>> groups;
  for (WalSegmentInfo& segment : ListWalSegments(*listing)) {
    if (segment.base_generation < base_generation_) continue;
    groups[segment.collection].push_back(std::move(segment));
  }

  // A cursor whose collection lost every segment mid-read fell out of
  // checkpoint retention; nothing it still needed can be recovered here.
  for (const auto& [collection, cursor] : cursors_) {
    if (!cursor.done && groups.find(collection) == groups.end()) {
      return Status::Unavailable("wal segments for '" + collection +
                                 "' pruned under the tailer; resync");
    }
  }

  for (auto& [collection, segments] : groups) {
    auto it = cursors_.find(collection);
    if (it == cursors_.end()) {
      it = cursors_.emplace(collection, Cursor(segments.front())).first;
      ++stats_.segments_tracked;
    }
    Cursor& cursor = it->second;
    while (true) {
      if (cursor.done) {
        // Advance to the next segment in (base, part) order, if one exists
        // in this listing.
        const WalSegmentInfo* next = nullptr;
        for (const WalSegmentInfo& segment : segments) {
          if (Position(segment) > Position(cursor.reader.segment())) {
            next = &segment;
            break;
          }
        }
        if (next == nullptr) break;  // caught up; wait for rotation
        cursor = Cursor(*next);
        ++stats_.segments_tracked;
      }

      const WalSegmentInfo* current = nullptr;
      bool later_exists = false;
      for (const WalSegmentInfo& segment : segments) {
        const auto here = Position(cursor.reader.segment());
        if (Position(segment) == here) current = &segment;
        if (Position(segment) > here) later_exists = true;
      }
      if (current == nullptr) {
        // The segment under the cursor vanished before it was finished —
        // the prune race. Whatever it still held is only in newer
        // snapshots now.
        return Status::Unavailable(
            "wal segment " +
            WalSegmentFileName(collection,
                               cursor.reader.segment().base_generation,
                               cursor.reader.segment().part) +
            " pruned under the tailer; resync");
      }

      const std::string path = dir_ + "/" + current->file;
      const uint64_t offset = cursor.reader.offset();
      const bool closed = later_exists;
      std::string delta;
      if (closed) {
        // A closed segment cannot race an append, so read it whole: the
        // result is its final contents and every verdict on it is final.
        StatusOr<std::string> whole = io().ReadFile(path);
        if (!whole.ok()) {
          ++stats_.read_failures;
          break;  // transient; retry next poll
        }
        if (whole->size() > offset) delta = whole->substr(offset);
      } else {
        StatusOr<std::string> tail = io().ReadFileFrom(path, offset);
        if (!tail.ok()) {
          ++stats_.read_failures;
          break;  // transient; retry next poll
        }
        delta = std::move(tail).value();
      }
      stats_.bytes_read += delta.size();
      ConsumeDelta(collection, cursor, delta, closed, apply);
      if (!cursor.done) break;  // waiting for more bytes in an open segment
    }
  }

  uint64_t behind = 0;
  for (const auto& [collection, cursor] : cursors_) {
    behind += cursor.unconsumed;
  }
  stats_.bytes_behind = behind;
  return Status::OK();
}

}  // namespace newsdiff::store
