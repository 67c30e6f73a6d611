#include "qbase/fnv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace qnetp {
namespace {

std::uint64_t fnv_of(const std::string& s) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a(h, s.data(), s.size());
  return h;
}

TEST(Fnv, MatchesPublishedTestVectors) {
  // The 64-bit FNV-1a reference values.
  EXPECT_EQ(fnv_of(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv_of("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv_of("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv, FoldingInPiecesEqualsOnePass) {
  // Digests fold their fields one after another into one running hash.
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a(h, "foo", 3);
  fnv1a(h, "bar", 3);
  EXPECT_EQ(h, fnv_of("foobar"));
  // Zero bytes leave the hash alone.
  fnv1a(h, "", 0);
  EXPECT_EQ(h, fnv_of("foobar"));
}

TEST(Fnv, U64FoldsLeastSignificantByteFirst) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_u64(h, 0x0807060504030201ull);
  const unsigned char little_endian[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t bytes = kFnvOffsetBasis;
  fnv1a(bytes, little_endian, sizeof little_endian);
  EXPECT_EQ(h, bytes);
  const unsigned char big_endian[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  std::uint64_t reversed = kFnvOffsetBasis;
  fnv1a(reversed, big_endian, sizeof big_endian);
  EXPECT_NE(h, reversed);
}

}  // namespace
}  // namespace qnetp
