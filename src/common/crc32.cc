#include "common/crc32.h"

#include <array>
#include <cstdio>

namespace newsdiff {
namespace {

constexpr uint32_t kPoly = 0xedb88320u;  // reflected IEEE polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const std::array<uint32_t, 256>& table = Table();
  uint32_t c = seed ^ 0xffffffffu;
  for (unsigned char byte : data) {
    c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string Crc32Hex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

bool ParseCrc32Hex(std::string_view hex, uint32_t* out) {
  if (hex.size() != 8) return false;
  uint32_t v = 0;
  for (char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

std::string WithTrailer(std::string payload) {
  payload += "crc " + Crc32Hex(Crc32(payload)) + "\n";
  return payload;
}

StatusOr<std::string> CheckTrailer(std::string_view contents,
                                   std::string_view what) {
  const size_t crc_pos = contents.rfind("crc ");
  if (crc_pos == std::string_view::npos ||
      (crc_pos != 0 && contents[crc_pos - 1] != '\n')) {
    return Status::ParseError(std::string(what) + ": missing crc trailer");
  }
  std::string_view hex = contents.substr(crc_pos + 4);
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r')) {
    hex.remove_suffix(1);
  }
  uint32_t stated = 0;
  if (!ParseCrc32Hex(hex, &stated)) {
    return Status::ParseError(std::string(what) + ": malformed crc trailer");
  }
  const std::string_view payload = contents.substr(0, crc_pos);
  if (Crc32(payload) != stated) {
    return Status::ParseError(std::string(what) +
                              ": checksum mismatch (torn write or bit rot)");
  }
  return std::string(payload);
}

}  // namespace newsdiff
