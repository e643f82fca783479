#include "common/crc32.h"

#include <gtest/gtest.h>

namespace newsdiff {
namespace {

TEST(CrcTrailerTest, RoundTripsAnyPayload) {
  for (const std::string& payload :
       {std::string(), std::string("newsdiff-lease-hwm 7\n"),
        std::string("crc in the body\n")}) {
    const std::string file = WithTrailer(payload);
    EXPECT_EQ(file, payload + "crc " + Crc32Hex(Crc32(payload)) + "\n");
    StatusOr<std::string> read = CheckTrailer(file, "f");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, payload);
  }
  // A CRLF line end after the digits is tolerated.
  std::string crlf = WithTrailer("x\n");
  crlf.insert(crlf.size() - 1, "\r");
  EXPECT_TRUE(CheckTrailer(crlf, "f").ok());
}

TEST(CrcTrailerTest, RejectsMissingMalformedAndMismatchedTrailers) {
  const std::string file = WithTrailer("token 7\n");
  const auto message = [](std::string_view contents) {
    StatusOr<std::string> read = CheckTrailer(contents, "lease");
    EXPECT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kParseError);
    return read.status().message();
  };
  EXPECT_EQ(message("token 7\n"), "lease: missing crc trailer");
  // "crc " must start a line.
  EXPECT_EQ(message("token 7 crc 00000000\n"), "lease: missing crc trailer");
  EXPECT_EQ(message(file.substr(0, file.size() - 2)),
            "lease: malformed crc trailer");
  EXPECT_EQ(message(file + "extra"), "lease: malformed crc trailer");
  std::string flipped = file;
  flipped[2] ^= 0x01;
  EXPECT_EQ(message(flipped),
            "lease: checksum mismatch (torn write or bit rot)");
  for (size_t i = 0; i < file.size(); ++i) {
    std::string damaged = file;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(CheckTrailer(damaged, "lease").ok()) << "flip at " << i;
  }
}

}  // namespace
}  // namespace newsdiff
