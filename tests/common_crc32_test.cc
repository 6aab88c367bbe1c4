#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace minihive {
namespace {

/// Bit-at-a-time CRC-32 straight from the polynomial: shares no tables or
/// folding constants with the production code, whichever arm it takes.
uint32_t ReferenceCrc32(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return ~crc;
}

std::string RandomBytes(Random* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Next());
  return out;
}

TEST(Crc32Test, KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryShortLength) {
  // 0..300 covers the slice-by-8 tail, the 64-byte folding threshold, and
  // every residue mod 16 on both sides of it.
  Random rng(7);
  std::string buffer = RandomBytes(&rng, 300 + 15);
  for (size_t len = 0; len <= 300; ++len) {
    for (size_t misalign : {0, 1, 15}) {
      std::string_view data(buffer.data() + misalign, len);
      for (uint32_t seed : {0u, 0xFFFFFFFFu, static_cast<uint32_t>(len)}) {
        ASSERT_EQ(Crc32(data, seed), ReferenceCrc32(data, seed))
            << "len=" << len << " misalign=" << misalign << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceAtRandomLengthsAndSeeds) {
  Random rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Uniform(64 * 1024 + 1);
    std::string data = RandomBytes(&rng, len);
    uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(data, seed), ReferenceCrc32(data, seed))
        << "trial=" << trial << " len=" << len;
  }
}

TEST(Crc32Test, ChainingAtRandomCutPointsEqualsOneShot) {
  Random rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Uniform(4096 + 1);
    std::string data = RandomBytes(&rng, len);
    size_t cut = rng.Uniform(len + 1);
    std::string_view a(data.data(), cut);
    std::string_view b(data.data() + cut, len - cut);
    uint32_t whole = Crc32(data);
    ASSERT_EQ(Crc32(b, Crc32(a)), whole) << "len=" << len << " cut=" << cut;
    ASSERT_EQ(whole, ReferenceCrc32(data, 0));
  }
}

}  // namespace
}  // namespace minihive
