// walcat: dump and verify newsdiff write-ahead-log segments.
//
// Usage:
//   walcat [--verify] <store-dir | segment.wal> [more paths...]
//
// For each segment (every `*.wal` in a directory argument, in replay
// order), prints one line per frame — offset, record type, and the fields
// that matter operationally (ids, checkpoint generations, promotion fencing
// tokens) — then a trailer summarising whether the segment is intact, ends
// in a torn tail, or was rejected at damage. Segments are read with the
// WalSegmentReader that recovery and the replication tailer use, so walcat
// reports exactly the records they would apply and stops where they stop.
//
// --verify prints only the trailers and exits nonzero if any segment is
// damaged, torn or mislabelled, so it can gate scripts and CI jobs.

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "store/wal.h"

namespace {

using newsdiff::FileIo;
using newsdiff::StatusOr;
using newsdiff::store::ListWalSegments;
using newsdiff::store::ParseWalSegmentFileName;
using newsdiff::store::WalFrame;
using newsdiff::store::WalRecord;
using newsdiff::store::WalSegmentInfo;
using newsdiff::store::WalSegmentName;
using newsdiff::store::WalSegmentReader;

std::string DescribeRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecord::Type::kSegmentHeader:
      return "seg   " + record.collection +
             " base=" + std::to_string(record.base_generation) +
             " part=" + std::to_string(record.part) +
             " slots=" + std::to_string(record.slot_count);
    case WalRecord::Type::kPut:
      return "put   id=" + std::to_string(record.id) +
             " bytes=" + std::to_string(record.doc_json.size());
    case WalRecord::Type::kDelete:
      return "del   id=" + std::to_string(record.id);
    case WalRecord::Type::kDrop:
      return "drop";
    case WalRecord::Type::kCheckpoint:
      return "ckpt  gen=" + std::to_string(record.generation);
    case WalRecord::Type::kPromotion:
      return "promo token=" + std::to_string(record.token) +
             (record.owner.empty() ? "" : " owner=" + record.owner);
  }
  return "unknown";
}

/// Dumps one segment; returns true when it is intact and correctly named.
bool DumpSegment(FileIo& io, const std::string& path, const std::string& name,
                 bool verify_only) {
  std::printf("== %s\n", path.c_str());
  StatusOr<WalSegmentName> parsed = ParseWalSegmentFileName(name);
  if (!parsed.ok()) {
    std::printf("-- DAMAGED: not a well-formed segment file name\n");
    return false;
  }
  StatusOr<std::string> bytes = io.ReadFile(path);
  if (!bytes.ok()) {
    std::printf("-- DAMAGED: %s\n", bytes.status().message().c_str());
    return false;
  }

  WalSegmentReader reader(std::move(parsed).value());
  std::string_view rest = *bytes;
  size_t records = 0;
  while (true) {
    const size_t offset = reader.offset();
    WalFrame frame = reader.Next(&rest);
    if (frame.verdict == WalFrame::Verdict::kEnd) {
      std::printf("-- %zu records, %zu bytes, intact\n", records,
                  bytes->size());
      return true;
    }
    if (frame.verdict != WalFrame::Verdict::kRecord) {
      std::printf("-- %zu records verified, then %s: %s (%zu of %zu bytes "
                  "dropped)\n",
                  records,
                  frame.verdict == WalFrame::Verdict::kTorn ? "torn tail"
                                                            : "rejected",
                  frame.problem.c_str(), rest.size(), bytes->size());
      return false;
    }
    if (!verify_only) {
      std::printf("%010zu %s\n", offset, DescribeRecord(frame.record).c_str());
    }
    ++records;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: walcat [--verify] <store-dir | segment.wal> [...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify_only = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify_only = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return Usage();

  FileIo& io = newsdiff::DefaultFileIo();
  size_t damaged = 0, total = 0;
  for (const std::string& path : paths) {
    StatusOr<std::vector<std::string>> listing = io.ListDir(path);
    if (listing.ok()) {
      // A directory: dump its segments in replay order.
      const std::vector<WalSegmentInfo> segments = ListWalSegments(*listing);
      if (segments.empty()) {
        std::fprintf(stderr, "walcat: no wal segments in %s\n", path.c_str());
      }
      for (const WalSegmentInfo& segment : segments) {
        ++total;
        if (!DumpSegment(io, path + "/" + segment.file, segment.file,
                         verify_only)) {
          ++damaged;
        }
      }
      continue;
    }
    const size_t slash = path.find_last_of('/');
    const std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    ++total;
    if (!DumpSegment(io, path, name, verify_only)) ++damaged;
  }

  if (verify_only || damaged > 0) {
    std::printf("walcat: %zu/%zu segments intact\n", total - damaged, total);
  }
  return damaged == 0 ? 0 : 1;
}
