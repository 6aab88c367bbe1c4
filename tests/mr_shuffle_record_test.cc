// Properties of the shuffle record encoding (mr/shuffle_record.h): memcmp
// order of key bytes equals the Value::Compare order the shuffle sorted by
// before it went binary, the typed encoders agree with the Value encoder
// byte for byte, and keys and values decode back to what was encoded.

#include "mr/shuffle_record.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace minihive::mr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// The comparator the shuffle sorted keys with before key bytes (the old
/// engine's ShuffleLess without its tag tie-break), kept as the reference.
int ReferenceCompare(const Row& a, const Row& b,
                     const std::vector<bool>& ascending) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) {
      bool asc = i >= ascending.size() || ascending[i];
      return asc ? c : -c;
    }
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

int Sign(int c) { return (c > 0) - (c < 0); }

int ByteCompare(const std::string& a, const std::string& b) {
  return Sign(a.compare(b));
}

/// Kinds of key column the generator draws; a column never mixes int and
/// double unless it is declared double (then every int widens).
enum class ColumnKind { kInt, kDouble, kString, kMixed, kWidened };

TypeKind DeclaredType(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kInt: return TypeKind::kBigInt;
    case ColumnKind::kString: return TypeKind::kString;
    case ColumnKind::kMixed: return TypeKind::kString;
    default: return TypeKind::kDouble;
  }
}

Value RandomInt(Random* rng) {
  const int64_t edges[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  return rng->Bernoulli(0.4) ? Value::Int(edges[rng->Uniform(7)])
                             : Value::Int(rng->Range(-1000, 1000));
}

Value RandomDouble(Random* rng, bool with_nan) {
  const double edges[] = {0.0,
                          -0.0,
                          kInf,
                          -kInf,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min() / 4,
                          1e19,
                          -1e19,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::quiet_NaN()};
  const int n_edges = with_nan ? 11 : 10;
  return rng->Bernoulli(0.5)
             ? Value::Double(edges[rng->Uniform(n_edges)])
             : Value::Double(static_cast<double>(rng->Range(-500, 500)) / 8);
}

Value RandomString(Random* rng) {
  const char* edges[] = {"", "a", "ab", "abc", "b"};
  switch (rng->Uniform(4)) {
    case 0: return Value::String(edges[rng->Uniform(5)]);
    case 1: return Value::String(std::string(1, '\0'));
    case 2: {
      // Bytes 0x00, 0x01, 0x02 and 0xff around a common prefix.
      const char tails[] = {'\0', '\x01', '\x02', '\xff'};
      std::string s = "a";
      for (uint64_t i = rng->Uniform(3); i > 0; --i) {
        s.push_back(tails[rng->Uniform(4)]);
      }
      return Value::String(s);
    }
    default: return Value::String(rng->NextString(rng->Uniform(3)));
  }
}

Value RandomValue(ColumnKind kind, Random* rng, bool with_nan) {
  if (rng->Bernoulli(0.15)) return Value::Null();
  switch (kind) {
    case ColumnKind::kInt: return RandomInt(rng);
    case ColumnKind::kDouble: return RandomDouble(rng, with_nan);
    case ColumnKind::kString: return RandomString(rng);
    case ColumnKind::kMixed:
      switch (rng->Uniform(3)) {
        case 0: return RandomInt(rng);
        case 1: return RandomString(rng);
        default: {
          Value::Array elements;
          for (uint64_t i = rng->Uniform(3); i > 0; --i) {
            elements.push_back(rng->Bernoulli(0.2)
                                   ? Value::Null()
                                   : Value::Int(rng->Range(-2, 2)));
          }
          return Value::MakeArray(std::move(elements));
        }
      }
    case ColumnKind::kWidened:
      // Small ints only: Value::Compare orders two ints exactly, the
      // widened bytes as doubles, and they agree below 2^53.
      return rng->Bernoulli(0.5) ? Value::Int(rng->Range(-100, 100))
                                 : RandomDouble(rng, with_nan);
  }
  return Value::Null();
}

std::string Encode(const Row& key, const std::vector<ColumnKind>& kinds,
                   const std::vector<bool>& ascending) {
  std::string out;
  for (size_t c = 0; c < key.size(); ++c) {
    AppendKeyValue(&out, key[c], DeclaredType(kinds[c]), ascending[c]);
  }
  return out;
}

TEST(ShuffleRecordTest, KeyBytesSortLikeValueCompare) {
  Random rng(20241019);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t width = 1 + rng.Uniform(3);
    std::vector<ColumnKind> kinds;
    std::vector<bool> ascending;
    for (size_t c = 0; c < width; ++c) {
      kinds.push_back(static_cast<ColumnKind>(rng.Uniform(5)));
      ascending.push_back(rng.Bernoulli(0.5));
    }
    std::vector<Row> keys;
    std::vector<std::string> bytes;
    for (int i = 0; i < 40; ++i) {
      Row key;
      for (size_t c = 0; c < width; ++c) {
        key.push_back(RandomValue(kinds[c], &rng, /*with_nan=*/false));
      }
      // Widened columns compare as doubles: box their ints the same way
      // for the reference.
      Row reference = key;
      for (size_t c = 0; c < width; ++c) {
        if (kinds[c] == ColumnKind::kWidened && reference[c].is_int()) {
          reference[c] = Value::Double(reference[c].AsDouble());
        }
      }
      bytes.push_back(Encode(key, kinds, ascending));
      keys.push_back(std::move(reference));
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      for (size_t j = 0; j < keys.size(); ++j) {
        ASSERT_EQ(ByteCompare(bytes[i], bytes[j]),
                  Sign(ReferenceCompare(keys[i], keys[j], ascending)))
            << "trial " << trial << ": " << keys[i][0].ToString() << " vs "
            << keys[j][0].ToString();
      }
    }
  }
}

TEST(ShuffleRecordTest, NullAndNanPlacement) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  const Value values[] = {Value::Double(-kInf), Value::Double(-1e19),
                          Value::Double(-0.0), Value::Double(0.0),
                          Value::Double(1e19), Value::Double(kInf)};
  for (bool asc : {true, false}) {
    auto enc = [asc](const Value& v) {
      std::string out;
      AppendKeyValue(&out, v, TypeKind::kDouble, asc);
      return out;
    };
    const std::string null_bytes = enc(Value::Null());
    const std::string nan_bytes = enc(nan);
    // Every NaN is one value.
    std::string other_nan;
    AppendKeyDouble(&other_nan, -std::numeric_limits<double>::quiet_NaN(),
                    asc);
    EXPECT_EQ(nan_bytes, other_nan);
    for (const Value& v : values) {
      // NULL first ascending, last descending; NaN after +inf ascending.
      EXPECT_EQ(ByteCompare(null_bytes, enc(v)), asc ? -1 : 1);
      EXPECT_EQ(ByteCompare(nan_bytes, enc(v)), asc ? 1 : -1);
    }
    EXPECT_EQ(enc(Value::Double(-0.0)), enc(Value::Double(0.0)));
    EXPECT_EQ(ByteCompare(null_bytes, nan_bytes), asc ? -1 : 1);
  }
}

TEST(ShuffleRecordTest, TypedEncodersMatchTheValueEncoder) {
  Random rng(7);
  for (int i = 0; i < 2000; ++i) {
    const bool asc = rng.Bernoulli(0.5);
    std::string typed, boxed;
    const Value v =
        RandomValue(static_cast<ColumnKind>(rng.Uniform(3)), &rng, true);
    if (v.is_null()) {
      AppendKeyNull(&typed, asc);
      AppendKeyValue(&boxed, v, TypeKind::kBigInt, asc);
    } else if (v.is_int()) {
      AppendKeyInt(&typed, v.AsInt(), asc);
      AppendKeyValue(&boxed, v, TypeKind::kBigInt, asc);
      // Under a floating type an int is written as its double.
      std::string widened, as_double;
      AppendKeyValue(&widened, v, TypeKind::kDouble, asc);
      AppendKeyDouble(&as_double, v.AsDouble(), asc);
      EXPECT_EQ(widened, as_double);
    } else if (v.is_double()) {
      AppendKeyDouble(&typed, v.AsDouble(), asc);
      AppendKeyValue(&boxed, v, TypeKind::kDouble, asc);
    } else {
      AppendKeyString(&typed, v.AsString(), asc);
      AppendKeyValue(&boxed, v, TypeKind::kString, asc);
    }
    EXPECT_EQ(typed, boxed) << v.ToString();
  }
}

/// Bit-exact equality, except that key decoding turns -0.0 into 0.0 and
/// any NaN into a NaN.
void ExpectSameValue(const Value& decoded, const Value& original, bool key) {
  if (original.is_double() && decoded.is_double()) {
    double want = original.AsDouble();
    double got = decoded.AsDouble();
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got));
      return;
    }
    if (key && want == 0) want = 0.0;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << got << " vs " << want;
    return;
  }
  EXPECT_EQ(decoded.Compare(original), 0)
      << decoded.ToString() << " vs " << original.ToString();
  EXPECT_EQ(decoded.is_int(), original.is_int());
  EXPECT_EQ(decoded.is_string(), original.is_string());
  EXPECT_EQ(decoded.is_null(), original.is_null());
}

TEST(ShuffleRecordTest, KeysAndValuesDecodeToWhatWasEncoded) {
  Random rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    Row row;
    std::vector<bool> ascending;
    for (uint64_t c = 1 + rng.Uniform(3); c > 0; --c) {
      row.push_back(
          RandomValue(static_cast<ColumnKind>(rng.Uniform(4)), &rng, true));
      ascending.push_back(rng.Bernoulli(0.5));
    }
    if (rng.Bernoulli(0.1)) {
      row.push_back(Value::MakeStruct({Value::Int(1), Value::String("x")}));
      row.push_back(Value::MakeMap({{Value::String("k"), Value::Double(2.5)}}));
      row.push_back(Value::MakeUnion(3, Value::Int(-4)));
      ascending.insert(ascending.end(), {false, true, false});
    }
    Row key, values;
    ASSERT_TRUE(DecodeKey(EncodeKey(row, ascending), &key).ok());
    ASSERT_TRUE(DecodeValues(EncodeValues(row), &values).ok());
    ASSERT_EQ(key.size(), row.size());
    ASSERT_EQ(values.size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      ExpectSameValue(key[c], row[c], /*key=*/true);
      ExpectSameValue(values[c], row[c], /*key=*/false);
    }
  }
  // Truncated or foreign bytes are an error, not a read past the end.
  Row out;
  std::string key = EncodeKey({Value::String("abc"), Value::Int(5)});
  EXPECT_FALSE(DecodeKey(key.substr(0, key.size() - 1), &out).ok());
  EXPECT_FALSE(DecodeKey(std::string(1, '\x40'), &out).ok());
}

TEST(ShuffleRecordTest, EqualKeysShareAPartition) {
  // 3.0 under a double key and -0.0 / 0.0 land together; the partition
  // is a function of the key bytes alone.
  std::string a, b;
  AppendKeyValue(&a, Value::Int(3), TypeKind::kDouble, true);
  AppendKeyValue(&b, Value::Double(3.0), TypeKind::kDouble, true);
  EXPECT_EQ(a, b);
  for (int n : {1, 2, 3, 7, 64}) {
    EXPECT_EQ(KeyPartition(a, n), KeyPartition(b, n));
    EXPECT_GE(KeyPartition(a, n), 0);
    EXPECT_LT(KeyPartition(a, n), n);
  }
}

}  // namespace
}  // namespace minihive::mr
