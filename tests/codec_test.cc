#include "codec/codec.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace minihive::codec {
namespace {

class CodecRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CodecRoundTrip, EmptyInput) {
  const Codec* codec = GetCodec(GetParam());
  ASSERT_NE(codec, nullptr);
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress("", &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, "");
}

TEST_P(CodecRoundTrip, ShortStrings) {
  const Codec* codec = GetCodec(GetParam());
  for (const std::string input :
       {"a", "ab", "abc", "aaaa", "abcabcabcabc", "hello world hello world"}) {
    std::string compressed, output;
    ASSERT_TRUE(codec->Compress(input, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
    EXPECT_EQ(output, input);
  }
}

TEST_P(CodecRoundTrip, HighlyRepetitive) {
  const Codec* codec = GetCodec(GetParam());
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "the quick brown fox ";
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 10)
      << "repetitive data should compress well";
  ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, RandomBinary) {
  const Codec* codec = GetCodec(GetParam());
  Random rng(42);
  std::string input;
  for (int i = 0; i < 100000; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, MixedStructure) {
  const Codec* codec = GetCodec(GetParam());
  Random rng(7);
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.5)) {
      input += "common-prefix-";
    }
    input += rng.NextString(rng.Uniform(20));
    input.push_back('\n');
  }
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size());
  ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CodecRoundTrip, OverlappingMatchRunLength) {
  // distance < match_len exercises the forward-copy path.
  const Codec* codec = GetCodec(GetParam());
  std::string input(100000, 'x');
  std::string compressed, output;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), 100u);
  ASSERT_TRUE(codec->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CompressionKind::kFastLz,
                                           CompressionKind::kDeepLz),
                         [](const auto& info) {
                           return CompressionKindName(info.param);
                         });

TEST(CodecTest, DeepLzCompressesBetterOnStructuredData) {
  std::string input;
  Random rng(3);
  std::vector<std::string> words = {"alpha", "beta", "gamma", "delta",
                                    "epsilon"};
  for (int i = 0; i < 20000; ++i) {
    input += words[rng.Uniform(words.size())];
    input.push_back(' ');
  }
  std::string fast, deep;
  ASSERT_TRUE(GetCodec(CompressionKind::kFastLz)->Compress(input, &fast).ok());
  ASSERT_TRUE(GetCodec(CompressionKind::kDeepLz)->Compress(input, &deep).ok());
  EXPECT_LE(deep.size(), fast.size());
}

TEST(CodecTest, DecompressRejectsCorruptDistance) {
  std::string bogus;
  // literal_len=0, match_len=4, distance=100 (no prior output).
  bogus.push_back(0);
  bogus.push_back(4);
  bogus.push_back(100);
  std::string output;
  EXPECT_FALSE(
      GetCodec(CompressionKind::kFastLz)->Decompress(bogus, &output).ok());
}

TEST(CompressionUnitsTest, RoundTripMultipleUnits) {
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  Random rng(11);
  std::string input;
  for (int i = 0; i < 3000; ++i) input += rng.NextString(100);
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(codec, input, 4096, &framed).ok());
  ASSERT_TRUE(DecompressUnits(codec, framed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionUnitsTest, NoCodecStoresRaw) {
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(nullptr, "hello units", 4, &framed).ok());
  ASSERT_TRUE(DecompressUnits(nullptr, framed, &output).ok());
  EXPECT_EQ(output, "hello units");
}

TEST(CompressionUnitsTest, EmptyPayload) {
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(nullptr, "", 4096, &framed).ok());
  ASSERT_TRUE(DecompressUnits(nullptr, framed, &output).ok());
  EXPECT_EQ(output, "");
}

TEST(CompressionUnitsTest, IncompressibleUnitStoredRaw) {
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  Random rng(5);
  std::string input;
  for (int i = 0; i < 1024; ++i) {
    input.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string framed, output;
  ASSERT_TRUE(CompressToUnits(codec, input, 256, &framed).ok());
  ASSERT_TRUE(DecompressUnits(codec, framed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionUnitsTest, ViewUnitsReadsOneStoredUnitInPlace) {
  const Codec* codec = GetCodec(CompressionKind::kFastLz);
  Random rng(7);
  std::string random_bytes, text;
  for (int i = 0; i < 1024; ++i) {
    random_bytes.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  for (int i = 0; i < 100; ++i) text += "abcabcabc";
  struct Case {
    const char* name;
    const Codec* codec;
    std::string input;
    size_t unit_size;
    bool in_place;  // Exactly one stored unit.
  };
  const Case cases[] = {
      {"one stored unit, no codec", nullptr, text, 4096, true},
      {"one incompressible unit", codec, random_bytes, 4096, true},
      {"empty payload", nullptr, "", 4096, true},
      {"several stored units", nullptr, text, 256, false},
      {"one compressed unit", codec, text, 4096, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string framed, scratch = "stale";
    ASSERT_TRUE(CompressToUnits(c.codec, c.input, c.unit_size, &framed).ok());
    std::string_view view;
    ASSERT_TRUE(ViewUnits(c.codec, framed, &scratch, &view).ok());
    EXPECT_EQ(view, c.input);
    const bool inside_framed = view.data() >= framed.data() &&
                               view.data() <= framed.data() + framed.size();
    EXPECT_EQ(inside_framed, c.in_place);
  }
  // Damaged framing fails as DecompressUnits does.
  std::string framed, scratch, output;
  ASSERT_TRUE(CompressToUnits(nullptr, text, 4096, &framed).ok());
  framed.pop_back();
  std::string_view view;
  EXPECT_TRUE(ViewUnits(nullptr, framed, &scratch, &view).IsCorruption());
  EXPECT_TRUE(DecompressUnits(nullptr, framed, &output).IsCorruption());
}

}  // namespace
}  // namespace minihive::codec
