#include "orc/stream_encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/wrap_arith.h"

namespace minihive::orc {
namespace {

// ---------------------------------------------------------------- RLE byte

std::vector<uint8_t> RoundTripBytes(const std::vector<uint8_t>& values) {
  RunLengthByteEncoder encoder;
  for (uint8_t v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  RunLengthByteDecoder decoder(encoded);
  std::vector<uint8_t> out(values.size());
  EXPECT_TRUE(decoder.NextBatch(out.data(), out.size()).ok());
  EXPECT_TRUE(decoder.AtEnd());
  return out;
}

TEST(RunLengthByteTest, Empty) {
  RunLengthByteEncoder encoder;
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_TRUE(encoded.empty());
}

TEST(RunLengthByteTest, SingleValue) {
  std::vector<uint8_t> v = {42};
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, LongRunCompresses) {
  std::vector<uint8_t> v(10000, 7);
  RunLengthByteEncoder encoder;
  for (uint8_t b : v) encoder.Add(b);
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_LT(encoded.size(), 200u);
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, LiteralsBeforeRunKeepOrder) {
  // Regression: literals pending when a run flushes must be emitted first.
  std::vector<uint8_t> v = {1, 2, 3, 9, 9, 9, 9, 9, 4, 5};
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, AlternatingValues) {
  std::vector<uint8_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2);
  EXPECT_EQ(RoundTripBytes(v), v);
}

TEST(RunLengthByteTest, RandomMix) {
  Random rng(123);
  std::vector<uint8_t> v;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) {
      uint8_t b = static_cast<uint8_t>(rng.Next());
      size_t run = rng.Uniform(300) + 1;
      for (size_t j = 0; j < run; ++j) v.push_back(b);
    } else {
      v.push_back(static_cast<uint8_t>(rng.Next()));
    }
  }
  EXPECT_EQ(RoundTripBytes(v), v);
}

// ---------------------------------------------------------------- Int RLE

std::vector<int64_t> RoundTripInts(const std::vector<int64_t>& values,
                                   size_t* encoded_size = nullptr) {
  IntRleEncoder encoder;
  for (int64_t v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  if (encoded_size != nullptr) *encoded_size = encoded.size();
  IntRleDecoder decoder(encoded);
  std::vector<int64_t> out(values.size());
  EXPECT_TRUE(decoder.NextBatch(out.data(), out.size()).ok());
  EXPECT_TRUE(decoder.AtEnd());
  return out;
}

TEST(IntRleTest, Empty) {
  std::vector<int64_t> v;
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, ConstantRun) {
  std::vector<int64_t> v(100000, -12345);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 5000u);
}

TEST(IntRleTest, DeltaRunAscending) {
  // Monotone sequences use the delta encoding (paper: run length + delta).
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 100000; ++i) v.push_back(i * 3);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 5000u);
}

TEST(IntRleTest, DeltaRunDescending) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 1000; ++i) v.push_back(1000000 - i * 7);
  size_t size;
  EXPECT_EQ(RoundTripInts(v, &size), v);
  EXPECT_LT(size, 100u);
}

TEST(IntRleTest, ExtremeValues) {
  std::vector<int64_t> v = {INT64_MIN, INT64_MAX, 0, -1, 1,
                            INT64_MIN, INT64_MAX};
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, LiteralsThenRunThenLiterals) {
  std::vector<int64_t> v = {9, 1, 7, 5, 5, 5, 5, 5, 2, 8, 11, 12, 13, 14, 3};
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, DeltaTooLargeForRunStaysLiteral) {
  std::vector<int64_t> v = {0, 1000, 2000, 3000, 4000};  // delta 1000 > 127
  EXPECT_EQ(RoundTripInts(v), v);
}

TEST(IntRleTest, RandomMix) {
  Random rng(77);
  std::vector<int64_t> v;
  for (int round = 0; round < 2000; ++round) {
    switch (rng.Uniform(3)) {
      case 0: {  // run
        int64_t base = static_cast<int64_t>(rng.Next());
        size_t n = rng.Uniform(200) + 1;
        for (size_t i = 0; i < n; ++i) v.push_back(base);
        break;
      }
      case 1: {  // arithmetic sequence
        int64_t base = rng.Range(-1000000, 1000000);
        int64_t delta = rng.Range(-128, 127);
        size_t n = rng.Uniform(200) + 1;
        for (size_t i = 0; i < n; ++i) v.push_back(base + delta * i);
        break;
      }
      default:  // literals
        v.push_back(static_cast<int64_t>(rng.Next()));
    }
  }
  EXPECT_EQ(RoundTripInts(v), v);
}

// ---------------------------------------------------------------- Bit field

std::vector<bool> RoundTripBits(const std::vector<bool>& values) {
  BitFieldEncoder encoder;
  for (bool v : values) encoder.Add(v);
  std::string encoded;
  encoder.Finish(&encoded);
  BitFieldDecoder decoder(encoded);
  std::vector<uint8_t> bits(values.size());
  EXPECT_TRUE(decoder.NextBatch(bits.data(), bits.size()).ok());
  return std::vector<bool>(bits.begin(), bits.end());
}

TEST(BitFieldTest, VariousLengths) {
  Random rng(9);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    std::vector<bool> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = rng.Bernoulli(0.5);
    EXPECT_EQ(RoundTripBits(v), v) << "n=" << n;
  }
}

TEST(BitFieldTest, AllTrueCompressesViaByteRle) {
  std::vector<bool> v(80000, true);
  BitFieldEncoder encoder;
  for (bool b : v) encoder.Add(b);
  std::string encoded;
  encoder.Finish(&encoded);
  EXPECT_LT(encoded.size(), 200u);
  EXPECT_EQ(RoundTripBits(v), v);
}

TEST(BitFieldTest, ConcatenatedGroupsDecodeWithAlign) {
  // Two groups encoded independently and concatenated: a sequential decoder
  // must AlignToByte between them (full-scan mode in the ORC reader).
  std::vector<bool> g1 = {true, false, true};  // 3 bits -> padded byte
  std::vector<bool> g2 = {false, false, true, true, false};
  std::string encoded;
  {
    BitFieldEncoder enc;
    for (bool b : g1) enc.Add(b);
    enc.Finish(&encoded);
  }
  {
    BitFieldEncoder enc;
    for (bool b : g2) enc.Add(b);
    enc.Finish(&encoded);
  }
  BitFieldDecoder dec(encoded);
  for (bool expected : g1) {
    uint8_t b;
    ASSERT_TRUE(dec.NextBatch(&b, 1).ok());
    EXPECT_EQ(b, expected ? 1 : 0);
  }
  dec.AlignToByte();
  for (bool expected : g2) {
    uint8_t b;
    ASSERT_TRUE(dec.NextBatch(&b, 1).ok());
    EXPECT_EQ(b, expected ? 1 : 0);
  }
}

TEST(IntRleTest, ConcatenatedGroupsDecodeSequentially) {
  // Int RLE groups end on token boundaries, so concatenated groups decode
  // with a single decoder and no realignment.
  std::vector<int64_t> g1 = {1, 2, 3, 4, 5};
  std::vector<int64_t> g2 = {100, 100, 100, 7};
  std::string encoded;
  {
    IntRleEncoder enc;
    for (int64_t v : g1) enc.Add(v);
    enc.Finish(&encoded);
  }
  {
    IntRleEncoder enc;
    for (int64_t v : g2) enc.Add(v);
    enc.Finish(&encoded);
  }
  IntRleDecoder dec(encoded);
  std::vector<int64_t> out(g1.size() + g2.size());
  ASSERT_TRUE(dec.NextBatch(out.data(), out.size()).ok());
  std::vector<int64_t> expected = g1;
  expected.insert(expected.end(), g2.begin(), g2.end());
  EXPECT_EQ(out, expected);
}

// ------------------------------------------- Batch decode at any chunking
//
// Token streams are built by hand, so each kind of token appears exactly as
// named: runs of 3 and 130, literal lists of 1 and 128, deltas of +-127
// whose runs wrap past INT64_MIN/MAX, and 10-byte varints. Decoding in
// chunks of 1 puts a chunk boundary inside every token.

std::vector<size_t> ChunkSizes(Random* rng, size_t total) {
  std::vector<size_t> sizes = {1, 3, 7, 127, 128, 130, 1024};
  for (int i = 0; i < 4; ++i) sizes.push_back(rng->Uniform(300) + 1);
  sizes.push_back(total);
  return sizes;
}

/// Decodes `total` values with `Decoder::NextBatch` in chunks of `chunk`
/// (the last one shorter).
template <typename Decoder, typename T>
std::vector<T> DecodeChunked(std::string_view encoded, size_t total,
                             size_t chunk) {
  Decoder decoder(encoded);
  std::vector<T> out(total);
  for (size_t at = 0; at < total; at += chunk) {
    size_t n = std::min(chunk, total - at);
    Status s = decoder.NextBatch(out.data() + at, n);
    EXPECT_TRUE(s.ok()) << "chunk " << chunk << " at " << at << ": "
                        << s.ToString();
    if (!s.ok()) break;
  }
  return out;
}

void PutIntRun(std::string* out, std::vector<int64_t>* expected, int length,
               int8_t delta, int64_t base) {
  out->push_back(static_cast<char>(length - 3));
  out->push_back(static_cast<char>(delta));
  PutVarintSigned64(out, base);
  for (int i = 0; i < length; ++i) {
    expected->push_back(WrapAdd(base, WrapMul(delta, i)));
  }
}

void PutIntLiterals(std::string* out, std::vector<int64_t>* expected,
                    const std::vector<int64_t>& values) {
  out->push_back(static_cast<char>(-static_cast<int>(values.size())));
  for (int64_t v : values) PutVarintSigned64(out, v);
  expected->insert(expected->end(), values.begin(), values.end());
}

/// A random sequence of int-RLE tokens of every kind; appends the values it
/// encodes to *expected.
std::string IntTokenMix(Random* rng, std::vector<int64_t>* expected) {
  std::string out;
  for (int token = 0; token < 400; ++token) {
    switch (rng->Uniform(6)) {
      case 0:
        PutIntRun(&out, expected, rng->Bernoulli(0.5) ? 3 : 130,
                  static_cast<int8_t>(rng->Range(-128, 127)),
                  rng->Range(-1000000, 1000000));
        break;
      case 1:  // Wraps past INT64_MAX.
        PutIntRun(&out, expected, 130, 127, INT64_MAX - rng->Uniform(5000));
        break;
      case 2:  // Wraps past INT64_MIN.
        PutIntRun(&out, expected, rng->Bernoulli(0.5) ? 3 : 130, -127,
                  INT64_MIN + static_cast<int64_t>(rng->Uniform(300)));
        break;
      default: {
        size_t n = rng->Bernoulli(0.5) ? 1 : 128;
        std::vector<int64_t> values;
        for (size_t i = 0; i < n; ++i) {
          // Full 64-bit values take 9-10 varint bytes; extremes take 10.
          switch (rng->Uniform(4)) {
            case 0:
              values.push_back(rng->Bernoulli(0.5) ? INT64_MIN : INT64_MAX);
              break;
            case 1:
              values.push_back(static_cast<int64_t>(rng->Next()));
              break;
            default:
              values.push_back(rng->Range(-200, 1 << 20));
          }
        }
        PutIntLiterals(&out, expected, values);
      }
    }
  }
  return out;
}

TEST(IntRleBatchTest, ChunkedDecodeEqualsOneShot) {
  Random rng(2701);
  for (int round = 0; round < 3; ++round) {
    std::vector<int64_t> expected;
    std::string encoded = IntTokenMix(&rng, &expected);
    std::vector<int64_t> one_shot =
        DecodeChunked<IntRleDecoder, int64_t>(encoded, expected.size(),
                                              expected.size());
    ASSERT_EQ(one_shot, expected);
    for (size_t chunk : ChunkSizes(&rng, expected.size())) {
      EXPECT_EQ((DecodeChunked<IntRleDecoder, int64_t>(
                    encoded, expected.size(), chunk)),
                one_shot)
          << "chunk " << chunk;
    }
    IntRleDecoder decoder(encoded);
    std::vector<int64_t> all(expected.size());
    ASSERT_TRUE(decoder.NextBatch(all.data(), all.size()).ok());
    EXPECT_TRUE(decoder.AtEnd());
    int64_t extra;
    EXPECT_TRUE(decoder.NextBatch(&extra, 1).IsCorruption());
  }
}

TEST(IntRleBatchTest, MalformedTokensAreCorruption) {
  auto decode = [](const std::string& encoded, size_t n) {
    IntRleDecoder decoder(encoded);
    std::vector<int64_t> out(n);
    return decoder.NextBatch(out.data(), n);
  };
  std::vector<int64_t> ignored;
  // A literal list of 5 holding only 3 values.
  std::string short_list;
  short_list.push_back(static_cast<char>(-5));
  for (int64_t v : {1, 2, 3}) PutVarintSigned64(&short_list, v);
  EXPECT_TRUE(decode(short_list, 5).IsCorruption());
  EXPECT_TRUE(decode(short_list, 3).ok());  // The values that are there.
  // A literal varint cut off by the end of the segment.
  std::string cut_literal;
  PutIntLiterals(&cut_literal, &ignored, {7, INT64_MIN});
  cut_literal.pop_back();
  EXPECT_TRUE(decode(cut_literal, 2).IsCorruption());
  // A run's base varint cut off.
  std::string cut_base;
  PutIntRun(&cut_base, &ignored, 3, 1, INT64_MAX);
  cut_base.pop_back();
  EXPECT_TRUE(decode(cut_base, 3).IsCorruption());
  // A run header with no delta byte.
  EXPECT_TRUE(decode(std::string(1, '\x00'), 3).IsCorruption());
  // An 11-byte varint: ten continuation bytes, then a final byte.
  std::string long_varint(1, static_cast<char>(-1));
  long_varint.append(10, '\xff');
  long_varint.push_back('\x01');
  EXPECT_TRUE(decode(long_varint, 1).IsCorruption());
  // Ten continuation bytes and then the end of the segment.
  EXPECT_TRUE(decode(long_varint.substr(0, 11), 1).IsCorruption());
  // The 10-byte varint of the same family still decodes.
  std::string ten_bytes(1, static_cast<char>(-1));
  ten_bytes.append(9, '\xff');
  ten_bytes.push_back('\x01');
  IntRleDecoder decoder(ten_bytes);
  int64_t v;
  ASSERT_TRUE(decoder.NextBatch(&v, 1).ok());
  EXPECT_EQ(v, INT64_MIN);
}

/// A random sequence of byte-RLE tokens of every kind; appends the values
/// it encodes to *expected.
std::string ByteTokenMix(Random* rng, std::vector<uint8_t>* expected) {
  std::string out;
  for (int token = 0; token < 400; ++token) {
    if (rng->Bernoulli(0.5)) {
      int length = rng->Bernoulli(0.5) ? 3 : 130;
      uint8_t value = static_cast<uint8_t>(rng->Next());
      out.push_back(static_cast<char>(length - 3));
      out.push_back(static_cast<char>(value));
      expected->insert(expected->end(), length, value);
    } else {
      int length = rng->Bernoulli(0.5) ? 1 : 128;
      out.push_back(static_cast<char>(-length));
      for (int i = 0; i < length; ++i) {
        uint8_t value = static_cast<uint8_t>(rng->Next());
        out.push_back(static_cast<char>(value));
        expected->push_back(value);
      }
    }
  }
  return out;
}

TEST(RunLengthByteBatchTest, ChunkedDecodeEqualsOneShot) {
  Random rng(2703);
  std::vector<uint8_t> expected;
  std::string encoded = ByteTokenMix(&rng, &expected);
  std::vector<uint8_t> one_shot = DecodeChunked<RunLengthByteDecoder, uint8_t>(
      encoded, expected.size(), expected.size());
  ASSERT_EQ(one_shot, expected);
  for (size_t chunk : ChunkSizes(&rng, expected.size())) {
    EXPECT_EQ((DecodeChunked<RunLengthByteDecoder, uint8_t>(
                  encoded, expected.size(), chunk)),
              one_shot)
        << "chunk " << chunk;
  }
}

TEST(RunLengthByteBatchTest, MalformedTokensAreCorruption) {
  auto decode = [](const std::string& encoded, size_t n) {
    RunLengthByteDecoder decoder(encoded);
    std::vector<uint8_t> out(n);
    return decoder.NextBatch(out.data(), n);
  };
  // A literal list of 5 holding only 3 bytes: caught at its header.
  std::string short_list = {static_cast<char>(-5), 'a', 'b', 'c'};
  EXPECT_TRUE(decode(short_list, 1).IsCorruption());
  // A run header with no value byte.
  EXPECT_TRUE(decode(std::string(1, '\x05'), 1).IsCorruption());
  // More values asked for than the stream holds.
  EXPECT_TRUE(decode(std::string("\x00\x07", 2), 4).IsCorruption());
  EXPECT_TRUE(decode(std::string("\x00\x07", 2), 3).ok());
}

TEST(BitFieldBatchTest, ChunkedDecodeEqualsOneShot) {
  Random rng(2704);
  // Packed bytes as byte-RLE tokens of every kind; the bits are each
  // byte's, most significant first.
  std::vector<uint8_t> packed;
  std::string encoded = ByteTokenMix(&rng, &packed);
  std::vector<uint8_t> expected;
  for (uint8_t byte : packed) {
    for (int t = 7; t >= 0; --t) expected.push_back((byte >> t) & 1);
  }
  for (size_t chunk : ChunkSizes(&rng, expected.size())) {
    EXPECT_EQ((DecodeChunked<BitFieldDecoder, uint8_t>(
                  encoded, expected.size(), chunk)),
              expected)
        << "chunk " << chunk;
  }
  // Truncated byte stream: a list of 128 literals missing its last byte.
  std::string cut = {static_cast<char>(-128)};
  cut.append(127, '\x55');
  BitFieldDecoder decoder(cut);
  uint8_t bit;
  EXPECT_TRUE(decoder.NextBatch(&bit, 1).IsCorruption());
}

TEST(BitFieldBatchTest, MidByteChunkThenAlignDecodesNextGroup) {
  // Groups of 13 and 21 bits, encoded independently and concatenated (each
  // is padded to a byte). The first group is read as 5 + 8 bits, so the last
  // chunk ends in the middle of its second byte.
  Random rng(2705);
  std::vector<uint8_t> g1(13), g2(21);
  for (auto& b : g1) b = rng.Bernoulli(0.5);
  for (auto& b : g2) b = rng.Bernoulli(0.5);
  std::string encoded;
  for (const auto* group : {&g1, &g2}) {
    BitFieldEncoder enc;
    for (uint8_t b : *group) enc.Add(b != 0);
    enc.Finish(&encoded);
  }
  BitFieldDecoder dec(encoded);
  std::vector<uint8_t> got(13);
  ASSERT_TRUE(dec.NextBatch(got.data(), 5).ok());
  ASSERT_TRUE(dec.NextBatch(got.data() + 5, 8).ok());
  EXPECT_EQ(got, g1);
  dec.AlignToByte();
  got.assign(21, 0);
  ASSERT_TRUE(dec.NextBatch(got.data(), 3).ok());
  ASSERT_TRUE(dec.NextBatch(got.data() + 3, 18).ok());
  EXPECT_EQ(got, g2);
}

}  // namespace
}  // namespace minihive::orc
