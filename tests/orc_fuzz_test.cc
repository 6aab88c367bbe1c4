// Property/fuzz tests for ORC: random values over a set of schemas
// (including deeply nested complex types), random writer options, random
// null densities — written and read back, compared value-for-value.

#include <gtest/gtest.h>

#include "common/random.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

/// Value `k` of a pool of strings: distinct for distinct k (the digits of
/// k end every value but the empty one), some holding '\0'.
std::string PoolString(uint64_t k) {
  if (k == 0) return "";
  std::string s(k % 9, static_cast<char>('a' + k % 26));
  if (k % 7 == 3) s.push_back('\0');
  return s + std::to_string(k);
}

/// Generates a random value of the given type (NULL with probability p).
/// Strings are random, or drawn from a pool of `string_pool` values when it
/// is nonzero, so that they repeat and dictionary-encode.
Value RandomValue(const TypeDescription& type, Random* rng,
                  double null_probability, uint64_t string_pool,
                  int depth = 0) {
  if (rng->Bernoulli(null_probability)) return Value::Null();
  switch (type.kind()) {
    case TypeKind::kBoolean:
      return Value::Bool(rng->Bernoulli(0.5));
    case TypeKind::kTinyInt:
      return Value::Int(rng->Range(-128, 127));
    case TypeKind::kSmallInt:
      return Value::Int(rng->Range(-32768, 32767));
    case TypeKind::kInt:
    case TypeKind::kBigInt:
    case TypeKind::kTimestamp:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      return Value::Double((rng->NextDouble() - 0.5) * 1e9);
    case TypeKind::kString:
      if (string_pool > 0) {
        return Value::String(PoolString(rng->Uniform(string_pool)));
      }
      return Value::String(rng->NextString(rng->Uniform(24)));
    case TypeKind::kArray: {
      Value::Array elements;
      uint64_t n = depth > 2 ? 0 : rng->Uniform(4);
      for (uint64_t i = 0; i < n; ++i) {
        elements.push_back(RandomValue(*type.children()[0], rng,
                                       null_probability, string_pool,
                                       depth + 1));
      }
      return Value::MakeArray(std::move(elements));
    }
    case TypeKind::kMap: {
      Value::MapEntries entries;
      uint64_t n = depth > 2 ? 0 : rng->Uniform(3);
      for (uint64_t i = 0; i < n; ++i) {
        entries.push_back(
            {RandomValue(*type.children()[0], rng, 0, string_pool, depth + 1),
             RandomValue(*type.children()[1], rng, null_probability,
                         string_pool, depth + 1)});
      }
      return Value::MakeMap(std::move(entries));
    }
    case TypeKind::kStruct: {
      Value::StructFields fields;
      for (const TypePtr& child : type.children()) {
        fields.push_back(RandomValue(*child, rng, null_probability,
                                     string_pool, depth + 1));
      }
      return Value::MakeStruct(std::move(fields));
    }
    case TypeKind::kUnion: {
      int tag = static_cast<int>(rng->Uniform(type.children().size()));
      return Value::MakeUnion(
          tag, RandomValue(*type.children()[tag], rng, null_probability,
                           string_pool, depth + 1));
    }
  }
  return Value::Null();
}

struct FuzzCase {
  std::string name;
  std::string schema;
  double null_probability;
  codec::CompressionKind compression;
  uint64_t stripe_size;
  uint64_t stride;
  int rows;
  /// Distinct strings to draw from; 0 draws random strings, which almost
  /// never dictionary-encode. A pool exercises the dictionary path, repeated
  /// interning probes, the id table's growth and its per-stripe reset.
  uint64_t string_pool = 0;
};

class OrcFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(OrcFuzzTest, WriteReadRoundTrip) {
  const FuzzCase& fuzz = GetParam();
  TypePtr schema = *TypeDescription::Parse(fuzz.schema);
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.compression = fuzz.compression;
  options.stripe_size = fuzz.stripe_size;
  options.row_index_stride = fuzz.stride;
  auto writer =
      std::move(OrcWriter::Create(&fs, "/fuzz", schema, options)).ValueOrDie();

  Random rng(std::hash<std::string>{}(fuzz.name));
  std::vector<Row> rows;
  for (int i = 0; i < fuzz.rows; ++i) {
    Row row;
    for (const TypePtr& field : schema->children()) {
      row.push_back(
          RandomValue(*field, &rng, fuzz.null_probability, fuzz.string_pool));
    }
    rows.push_back(row);
    ASSERT_TRUE(writer->AddRow(row).ok()) << "row " << i;
  }
  ASSERT_TRUE(writer->Close().ok());

  auto reader = std::move(OrcReader::Open(&fs, "/fuzz")).ValueOrDie();
  EXPECT_EQ(reader->tail().num_rows, static_cast<uint64_t>(fuzz.rows));
  Row row;
  for (int i = 0; i < fuzz.rows; ++i) {
    auto more = reader->NextRow(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more) << "premature EOF at " << i;
    ASSERT_EQ(row.size(), rows[i].size());
    for (size_t c = 0; c < row.size(); ++c) {
      ASSERT_EQ(row[c].Compare(rows[i][c]), 0)
          << fuzz.name << " row " << i << " col " << c << ": got "
          << row[c].ToString() << " want " << rows[i][c].ToString();
    }
  }
  EXPECT_FALSE(*reader->NextRow(&row));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OrcFuzzTest,
    ::testing::Values(
        FuzzCase{"flat_primitives",
                 "struct<a:boolean,b:tinyint,c:smallint,d:int,e:bigint,"
                 "f:float,g:double,h:string,i:timestamp>",
                 0.1, codec::CompressionKind::kNone, 1 << 20, 1000, 5000},
        FuzzCase{"flat_dense_nulls",
                 "struct<a:bigint,b:double,c:string>",
                 0.7, codec::CompressionKind::kFastLz, 1 << 18, 500, 8000,
                 5},
        FuzzCase{"nested_paper_figure3",
                 "struct<col1:int,col2:array<int>,"
                 "col4:map<string,struct<col7:string,col8:int>>,col9:string>",
                 0.2, codec::CompressionKind::kFastLz, 1 << 18, 777, 3000,
                 60},
        FuzzCase{"deep_nesting",
                 "struct<a:array<map<string,array<struct<x:int,"
                 "y:array<double>>>>>,b:uniontype<int,string,double>>",
                 0.25, codec::CompressionKind::kDeepLz, 1 << 17, 300, 1500},
        FuzzCase{"tiny_stripes_many_groups",
                 "struct<a:bigint,b:string,c:double>",
                 0.05, codec::CompressionKind::kFastLz, 64 * 1024, 100, 9000,
                 300},
        FuzzCase{"no_nulls_at_all",
                 "struct<a:bigint,b:string,c:boolean>",
                 0.0, codec::CompressionKind::kNone, 1 << 19, 2048, 6000,
                 2000}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace minihive::orc
