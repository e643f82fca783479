#ifndef NEWSDIFF_COMMON_CRC32_H_
#define NEWSDIFF_COMMON_CRC32_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace newsdiff {

/// CRC-32 (IEEE 802.3, the zlib polynomial). Used by the snapshot engine
/// and the model-checkpoint format to detect torn writes and bit rot.
/// Incremental: feed the previous return value back in as `seed` to
/// checksum a stream in chunks. `seed` is the *finalised* CRC of the
/// preceding data (0 for none), matching zlib's crc32() contract.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// Lower-case 8-hex-digit rendering ("00000000".."ffffffff").
std::string Crc32Hex(uint32_t crc);

/// Parses an 8-hex-digit CRC; returns false on malformed input.
bool ParseCrc32Hex(std::string_view hex, uint32_t* out);

/// The text files the store and the model trainer persist (snapshot
/// manifest, lease record, lease high-water mark, model weights, training
/// checkpoints) end in one trailer line, "crc <8-hex>\n", the CRC-32 of
/// every byte before it. WithTrailer appends that line to `payload`, which
/// must be empty or end in '\n'.
std::string WithTrailer(std::string payload);

/// Verifies the trailer of a file written by WithTrailer and returns the
/// payload before it. The trailer is the last "crc " that starts a line;
/// trailing '\r'/'\n' after its digits are ignored. kParseError, naming
/// `what`, when the trailer is missing or malformed or the CRC mismatches.
StatusOr<std::string> CheckTrailer(std::string_view contents,
                                   std::string_view what);

}  // namespace newsdiff

#endif  // NEWSDIFF_COMMON_CRC32_H_
