#include "store/snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"

namespace newsdiff::store {

namespace {

constexpr char kMagic[] = "newsdiff-snapshot";
constexpr int kFormatVersion = 1;
constexpr char kManifestPrefix[] = "MANIFEST-";
constexpr size_t kGenDigits = 10;

std::string GenToken(uint64_t generation) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%010" PRIu64, generation);
  return std::string(buf);
}

}  // namespace

std::string SerializeManifest(const Manifest& manifest) {
  std::string body = std::string(kMagic) + " " +
                     std::to_string(kFormatVersion) + "\n";
  body += "generation " + std::to_string(manifest.generation) + "\n";
  for (const ManifestEntry& e : manifest.entries) {
    body += "collection " + e.collection + " " + e.file + " " +
            std::to_string(e.docs) + " " + Crc32Hex(e.crc32) + "\n";
  }
  return WithTrailer(std::move(body));
}

StatusOr<Manifest> ParseManifest(const std::string& text) {
  // The trailer covers every byte before it; verify it before trusting any
  // field.
  StatusOr<std::string> body = CheckTrailer(text, "manifest");
  if (!body.ok()) return body.status();

  Manifest manifest;
  bool saw_magic = false;
  bool saw_generation = false;
  for (std::string& line : Split(*body, '\n')) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> tokens = Split(line, ' ');
    if (!saw_magic) {
      uint64_t version = 0;
      if (tokens.size() != 2 || tokens[0] != kMagic ||
          !ParseU64(tokens[1], &version)) {
        return Status::ParseError("not a snapshot manifest");
      }
      if (version != static_cast<uint64_t>(kFormatVersion)) {
        return Status::ParseError("unsupported snapshot version " +
                                  tokens[1]);
      }
      saw_magic = true;
      continue;
    }
    if (tokens[0] == "generation") {
      if (tokens.size() != 2 || !ParseU64(tokens[1], &manifest.generation)) {
        return Status::ParseError("malformed generation line");
      }
      saw_generation = true;
    } else if (tokens[0] == "collection") {
      if (tokens.size() != 5) {
        return Status::ParseError("malformed collection line: " + line);
      }
      ManifestEntry entry;
      entry.collection = tokens[1];
      entry.file = tokens[2];
      if (entry.collection.empty() || entry.file.empty() ||
          entry.file.find('/') != std::string::npos ||
          entry.file.find("..") != std::string::npos) {
        return Status::ParseError("malformed collection entry: " + line);
      }
      uint64_t docs = 0;
      if (!ParseU64(tokens[3], &docs) ||
          !ParseCrc32Hex(tokens[4], &entry.crc32)) {
        return Status::ParseError("malformed collection entry: " + line);
      }
      entry.docs = docs;
      manifest.entries.push_back(std::move(entry));
    } else {
      return Status::ParseError("unknown manifest directive: " + tokens[0]);
    }
  }
  if (!saw_magic) return Status::ParseError("empty manifest");
  if (!saw_generation) return Status::ParseError("manifest missing generation");
  return manifest;
}

std::string ManifestFileName(uint64_t generation) {
  return std::string(kManifestPrefix) + GenToken(generation);
}

StatusOr<uint64_t> ParseManifestFileName(const std::string& name) {
  const size_t prefix_len = sizeof(kManifestPrefix) - 1;
  uint64_t generation = 0;
  if (name.size() != prefix_len + kGenDigits ||
      name.compare(0, prefix_len, kManifestPrefix) != 0 ||
      !ParseU64(name.substr(prefix_len), &generation)) {
    return Status::ParseError("not a manifest file name: " + name);
  }
  return generation;
}

std::string SnapshotCollectionFileName(const std::string& collection,
                                       uint64_t generation) {
  return collection + "-" + GenToken(generation) + ".jsonl";
}

}  // namespace newsdiff::store
