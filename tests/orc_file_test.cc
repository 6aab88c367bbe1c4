#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "common/crc32.h"
#include "common/random.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

TypePtr FlatSchema() {
  return *TypeDescription::Parse(
      "struct<id:bigint,name:string,score:double,flag:boolean,small:tinyint>");
}

Row FlatRow(int64_t i) {
  return {Value::Int(i), Value::String("name-" + std::to_string(i % 50)),
          Value::Double(i * 0.5), Value::Bool(i % 3 == 0),
          Value::Int((i % 256) - 128)};
}

void WriteFlatFile(dfs::FileSystem* fs, const std::string& path, int rows,
                   OrcWriterOptions options = OrcWriterOptions()) {
  auto writer =
      std::move(OrcWriter::Create(fs, path, FlatSchema(), options))
          .ValueOrDie();
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(writer->AddRow(FlatRow(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

TEST(OrcFileTest, FlatRoundTrip) {
  dfs::FileSystem fs;
  WriteFlatFile(&fs, "/orc/flat", 25000);
  auto reader = std::move(OrcReader::Open(&fs, "/orc/flat")).ValueOrDie();
  EXPECT_EQ(reader->tail().num_rows, 25000u);
  Row row;
  for (int i = 0; i < 25000; ++i) {
    auto next = reader->NextRow(&row);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(*next) << "EOF at " << i;
    ASSERT_EQ(row[0].AsInt(), i);
    ASSERT_EQ(row[1].AsString(), "name-" + std::to_string(i % 50));
    ASSERT_DOUBLE_EQ(row[2].AsDouble(), i * 0.5);
    ASSERT_EQ(row[3].AsBool(), i % 3 == 0);
    ASSERT_EQ(row[4].AsInt(), (i % 256) - 128);
  }
  EXPECT_FALSE(*reader->NextRow(&row));
}

TEST(OrcFileTest, NullsRoundTrip) {
  dfs::FileSystem fs;
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/nulls", FlatSchema()))
          .ValueOrDie();
  Random rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    Row row = FlatRow(i);
    for (auto& v : row) {
      if (rng.Bernoulli(0.3)) v = Value::Null();
    }
    rows.push_back(row);
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto reader = std::move(OrcReader::Open(&fs, "/orc/nulls")).ValueOrDie();
  Row row;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(*reader->NextRow(&row));
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c].Compare(rows[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

TEST(OrcFileTest, ComplexTypesDecomposedAndRoundTrip) {
  // The paper's Figure 3 schema, including map-of-struct.
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse(
      "struct<col1:int,col2:array<int>,"
      "col4:map<string,struct<col7:string,col8:int>>,col9:string>");
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/nested", schema)).ValueOrDie();
  std::vector<Row> rows;
  Random rng(6);
  for (int i = 0; i < 500; ++i) {
    Value::Array arr;
    for (uint64_t j = 0; j < rng.Uniform(5); ++j) {
      arr.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                       : Value::Int(rng.Range(0, 100)));
    }
    Value::MapEntries map;
    for (uint64_t j = 0; j < rng.Uniform(3); ++j) {
      map.push_back(
          {Value::String(rng.NextString(4)),
           Value::MakeStruct({Value::String(rng.NextString(6)),
                              Value::Int(rng.Range(-10, 10))})});
    }
    Row row = {rng.Bernoulli(0.1) ? Value::Null() : Value::Int(i),
               Value::MakeArray(std::move(arr)),
               Value::MakeMap(std::move(map)),
               Value::String(std::string("r").append(std::to_string(i)))};
    rows.push_back(row);
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  auto reader = std::move(OrcReader::Open(&fs, "/orc/nested")).ValueOrDie();
  Row row;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(*reader->NextRow(&row)) << i;
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c].Compare(rows[i][c]), 0)
          << "row " << i << " col " << c << ": " << row[c].ToString()
          << " vs " << rows[i][c].ToString();
    }
  }
}

TEST(OrcFileTest, UnionRoundTrip) {
  dfs::FileSystem fs;
  TypePtr schema =
      *TypeDescription::Parse("struct<u:uniontype<int,string>>");
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/union", schema)).ValueOrDie();
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    Row row = {i % 3 == 0
                   ? Value::MakeUnion(0, Value::Int(i))
                   : (i % 3 == 1 ? Value::MakeUnion(
                                       1, Value::String(std::to_string(i)))
                                 : Value::Null())};
    rows.push_back(row);
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  auto reader = std::move(OrcReader::Open(&fs, "/orc/union")).ValueOrDie();
  Row row;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(*reader->NextRow(&row));
    EXPECT_EQ(row[0].Compare(rows[i][0]), 0) << i;
  }
}

TEST(OrcFileTest, MultipleStripes) {
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.stripe_size = 64 * 1024;  // Force several stripes.
  WriteFlatFile(&fs, "/orc/stripes", 60000, options);
  auto reader = std::move(OrcReader::Open(&fs, "/orc/stripes")).ValueOrDie();
  EXPECT_GT(reader->tail().stripes.size(), 2u);
  Row row;
  int count = 0;
  while (*reader->NextRow(&row)) {
    ASSERT_EQ(row[0].AsInt(), count);
    ++count;
  }
  EXPECT_EQ(count, 60000);
}

TEST(OrcFileTest, FileStatisticsAnswerAggregates) {
  dfs::FileSystem fs;
  WriteFlatFile(&fs, "/orc/stats", 10000);
  auto reader = std::move(OrcReader::Open(&fs, "/orc/stats")).ValueOrDie();
  const FileTail& tail = reader->tail();
  // Column id 1 = "id" (root is 0).
  const ColumnStatistics& id_stats = tail.file_stats[1];
  EXPECT_EQ(id_stats.num_values(), 10000u);
  EXPECT_EQ(id_stats.int_min(), 0);
  EXPECT_EQ(id_stats.int_max(), 9999);
  EXPECT_EQ(id_stats.int_sum(), 10000LL * 9999 / 2);
  const ColumnStatistics& name_stats = tail.file_stats[2];
  EXPECT_TRUE(name_stats.has_string_stats());
  EXPECT_EQ(name_stats.string_min(), "name-0");
  const ColumnStatistics& score_stats = tail.file_stats[3];
  EXPECT_DOUBLE_EQ(score_stats.double_max(), 9999 * 0.5);
}

TEST(OrcFileTest, DictionaryEncodingChosenForLowCardinality) {
  dfs::FileSystem fs;
  // 50 distinct names over 25000 rows -> ratio 0.002 << 0.8: dictionary.
  WriteFlatFile(&fs, "/orc/dict", 25000);
  uint64_t dict_size = *fs.FileSize("/orc/dict");

  // Now a file where every name is unique -> ratio 1.0 > 0.8: direct.
  auto writer = std::move(OrcWriter::Create(&fs, "/orc/direct", FlatSchema()))
                    .ValueOrDie();
  for (int i = 0; i < 25000; ++i) {
    Row row = FlatRow(i);
    row[1] = Value::String("unique-name-" + std::to_string(i));
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  uint64_t direct_size = *fs.FileSize("/orc/direct");
  EXPECT_LT(dict_size, direct_size);

  // Both still round-trip.
  auto reader = std::move(OrcReader::Open(&fs, "/orc/direct")).ValueOrDie();
  Row row;
  ASSERT_TRUE(*reader->NextRow(&row));
  EXPECT_EQ(row[1].AsString(), "unique-name-0");
}

TEST(OrcFileTest, ProjectionReadsOnlyNeededStreams) {
  dfs::FileSystem fs;
  WriteFlatFile(&fs, "/orc/proj", 50000);
  auto scan = [&](std::vector<int> fields) {
    fs.stats().Reset();
    OrcReadOptions options;
    options.projected_fields = std::move(fields);
    auto reader =
        std::move(OrcReader::Open(&fs, "/orc/proj", options)).ValueOrDie();
    Row row;
    while (*reader->NextRow(&row)) {
    }
    return fs.stats().bytes_read.load();
  };
  uint64_t all = scan({});
  uint64_t just_id = scan({0});
  EXPECT_LT(just_id, all / 2);
}

TEST(OrcFileTest, SargSkipsStripes) {
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.stripe_size = 64 * 1024;
  WriteFlatFile(&fs, "/orc/skip", 60000, options);

  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kBetween, Value::Int(100), Value::Int(200),
                {}});
  OrcReadOptions ropts;
  ropts.sarg = &sarg;
  auto reader =
      std::move(OrcReader::Open(&fs, "/orc/skip", ropts)).ValueOrDie();
  EXPECT_GT(reader->stripes_skipped(), 0u);
  Row row;
  int matches = 0;
  while (*reader->NextRow(&row)) {
    // Selected groups may contain non-matching rows; the row-level filter is
    // the execution engine's job. Count true matches only.
    int64_t id = row[0].AsInt();
    if (id >= 100 && id <= 200) ++matches;
  }
  EXPECT_EQ(matches, 101);
}

TEST(OrcFileTest, SargSkipsIndexGroupsAndCutsBytes) {
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.row_index_stride = 1000;
  WriteFlatFile(&fs, "/orc/groups", 100000, options);

  // Full scan bytes.
  fs.stats().Reset();
  {
    auto reader = std::move(OrcReader::Open(&fs, "/orc/groups")).ValueOrDie();
    Row row;
    while (*reader->NextRow(&row)) {
    }
  }
  uint64_t full_bytes = fs.stats().bytes_read.load();

  // Selective scan: a narrow id range covers 1 of 100 groups.
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kBetween, Value::Int(50000), Value::Int(50010),
                {}});
  fs.stats().Reset();
  OrcReadOptions ropts;
  ropts.sarg = &sarg;
  auto reader =
      std::move(OrcReader::Open(&fs, "/orc/groups", ropts)).ValueOrDie();
  Row row;
  int rows = 0;
  while (*reader->NextRow(&row)) ++rows;
  uint64_t selective_bytes = fs.stats().bytes_read.load();
  EXPECT_GT(reader->groups_skipped(), 90u);
  // One index group's worth was decoded; phase 1 returned only its matches.
  EXPECT_EQ(rows, 11);
  EXPECT_EQ(rows + reader->rows_late_skipped(), 1000u);
  EXPECT_LT(selective_bytes, full_bytes / 5)
      << "index groups should cut bytes read";
}

TEST(OrcFileTest, SargOnAllMatchingDataAddsOnlyIndexOverhead) {
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.row_index_stride = 1000;
  WriteFlatFile(&fs, "/orc/hard", 50000, options);

  fs.stats().Reset();
  {
    auto reader = std::move(OrcReader::Open(&fs, "/orc/hard")).ValueOrDie();
    Row row;
    while (*reader->NextRow(&row)) {
    }
  }
  uint64_t no_ppd_bytes = fs.stats().bytes_read.load();

  SearchArgument sarg;  // Matches everything.
  sarg.AddLeaf({0, PredicateOp::kGreaterThanEquals, Value::Int(-1), {}, {}});
  fs.stats().Reset();
  OrcReadOptions ropts;
  ropts.sarg = &sarg;
  auto reader =
      std::move(OrcReader::Open(&fs, "/orc/hard", ropts)).ValueOrDie();
  Row row;
  int rows = 0;
  while (*reader->NextRow(&row)) ++rows;
  uint64_t ppd_bytes = fs.stats().bytes_read.load();
  EXPECT_EQ(rows, 50000);
  EXPECT_GT(ppd_bytes, no_ppd_bytes);  // Index data is extra...
  EXPECT_LT(ppd_bytes, no_ppd_bytes + no_ppd_bytes / 4)  // ...but small.
      << "index overhead should be modest (paper: ~40MB on 17GB)";
}

TEST(OrcFileTest, VectorizedBatchMatchesRowMode) {
  dfs::FileSystem fs;
  WriteFlatFile(&fs, "/orc/vec", 10000);
  OrcReadOptions options;
  options.projected_fields = {0, 2, 1};
  auto row_reader =
      std::move(OrcReader::Open(&fs, "/orc/vec", options)).ValueOrDie();
  auto batch_reader =
      std::move(OrcReader::Open(&fs, "/orc/vec", options)).ValueOrDie();
  auto batch = std::move(batch_reader->CreateBatch()).ValueOrDie();
  Row row;
  int checked = 0;
  while (true) {
    auto more = batch_reader->NextBatch(batch.get());
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    auto* ids = batch->LongCol(0);
    auto* scores = batch->DoubleCol(1);
    auto* names = batch->BytesCol(2);
    for (int i = 0; i < batch->size; ++i) {
      ASSERT_TRUE(*row_reader->NextRow(&row));
      EXPECT_EQ(ids->vector[i], row[0].AsInt());
      EXPECT_DOUBLE_EQ(scores->vector[i], row[2].AsDouble());
      EXPECT_EQ(names->GetView(i), row[1].AsString());
      ++checked;
    }
    EXPECT_TRUE(ids->no_nulls);
  }
  EXPECT_EQ(checked, 10000);
  EXPECT_FALSE(*row_reader->NextRow(&row));
}

TEST(OrcFileTest, VectorizedBatchWithNulls) {
  dfs::FileSystem fs;
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/vecnull", FlatSchema()))
          .ValueOrDie();
  for (int i = 0; i < 2000; ++i) {
    Row row = FlatRow(i);
    if (i % 7 == 0) row[0] = Value::Null();
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  OrcReadOptions options;
  options.projected_fields = {0};
  auto reader =
      std::move(OrcReader::Open(&fs, "/orc/vecnull", options)).ValueOrDie();
  auto batch = std::move(reader->CreateBatch()).ValueOrDie();
  int i = 0;
  while (*reader->NextBatch(batch.get())) {
    auto* ids = batch->LongCol(0);
    EXPECT_FALSE(ids->no_nulls);
    for (int j = 0; j < batch->size; ++j, ++i) {
      if (i % 7 == 0) {
        EXPECT_FALSE(ids->not_null[j]) << i;
      } else {
        ASSERT_TRUE(ids->not_null[j]) << i;
        EXPECT_EQ(ids->vector[j], i);
      }
    }
  }
  EXPECT_EQ(i, 2000);
}

TEST(OrcFileTest, StripeAlignmentKeepsStripesInOneBlock) {
  dfs::FileSystemOptions fs_options;
  fs_options.block_size = 256 * 1024;
  dfs::FileSystem fs(fs_options);
  OrcWriterOptions options;
  options.stripe_size = 150 * 1024;
  options.align_stripes_to_blocks = true;
  WriteFlatFile(&fs, "/orc/aligned", 120000, options);

  auto reader = std::move(OrcReader::Open(&fs, "/orc/aligned")).ValueOrDie();
  ASSERT_GT(reader->tail().stripes.size(), 1u);
  for (const StripeInformation& stripe : reader->tail().stripes) {
    uint64_t stripe_len =
        stripe.index_length + stripe.data_length + stripe.footer_length;
    if (stripe_len > fs_options.block_size) continue;  // Cannot fit anyway.
    uint64_t first_block = stripe.offset / fs_options.block_size;
    uint64_t last_block =
        (stripe.offset + stripe_len - 1) / fs_options.block_size;
    EXPECT_EQ(first_block, last_block)
        << "aligned stripe spans blocks at offset " << stripe.offset;
  }
}

TEST(OrcFileTest, SplitByStripeOffsetsCoversFileOnce) {
  dfs::FileSystem fs;
  OrcWriterOptions options;
  options.stripe_size = 64 * 1024;
  WriteFlatFile(&fs, "/orc/split", 60000, options);
  uint64_t file_size = *fs.FileSize("/orc/split");
  uint64_t half = file_size / 2;
  int total = 0;
  for (auto [off, len] : {std::pair<uint64_t, uint64_t>{0, half},
                          std::pair<uint64_t, uint64_t>{half,
                                                        file_size - half}}) {
    OrcReadOptions ropts;
    ropts.split_offset = off;
    ropts.split_length = len;
    auto reader =
        std::move(OrcReader::Open(&fs, "/orc/split", ropts)).ValueOrDie();
    Row row;
    while (*reader->NextRow(&row)) ++total;
  }
  EXPECT_EQ(total, 60000);
}

TEST(OrcMemoryManagerTest, ScalesConcurrentWriters) {
  MemoryManager manager(1000);
  EXPECT_DOUBLE_EQ(manager.Scale(), 1.0);
  int w1, w2, w3;
  manager.AddWriter(&w1, 600);
  EXPECT_DOUBLE_EQ(manager.Scale(), 1.0);
  manager.AddWriter(&w2, 600);
  EXPECT_NEAR(manager.Scale(), 1000.0 / 1200.0, 1e-9);
  manager.AddWriter(&w3, 800);
  EXPECT_NEAR(manager.Scale(), 1000.0 / 2000.0, 1e-9);
  manager.RemoveWriter(&w2);
  EXPECT_NEAR(manager.Scale(), 1000.0 / 1400.0, 1e-9);
  manager.RemoveWriter(&w1);
  manager.RemoveWriter(&w3);
  EXPECT_DOUBLE_EQ(manager.Scale(), 1.0);
  manager.RemoveWriter(&w3);  // Idempotent.
}

TEST(OrcMemoryManagerTest, WritersFlushSmallerStripesUnderPressure) {
  dfs::FileSystem fs;
  MemoryManager manager(256 * 1024);
  OrcWriterOptions options;
  options.stripe_size = 1024 * 1024;
  options.memory_manager = &manager;
  // Two concurrent writers: each effective stripe ~128 KB, so writing
  // ~1 MB of data each should produce multiple stripes per file.
  auto w1 = std::move(OrcWriter::Create(&fs, "/orc/mm1", FlatSchema(),
                                        options))
                .ValueOrDie();
  auto w2 = std::move(OrcWriter::Create(&fs, "/orc/mm2", FlatSchema(),
                                        options))
                .ValueOrDie();
  for (int i = 0; i < 30000; ++i) {
    ASSERT_TRUE(w1->AddRow(FlatRow(i)).ok());
    ASSERT_TRUE(w2->AddRow(FlatRow(i)).ok());
  }
  ASSERT_TRUE(w1->Close().ok());
  ASSERT_TRUE(w2->Close().ok());
  EXPECT_GT(w1->stripes_written(), 1u)
      << "memory manager should have forced early stripe flushes";
}

TEST(OrcFileTest, EmptyFile) {
  dfs::FileSystem fs;
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/empty", FlatSchema()))
          .ValueOrDie();
  ASSERT_TRUE(writer->Close().ok());
  auto reader = std::move(OrcReader::Open(&fs, "/orc/empty")).ValueOrDie();
  EXPECT_EQ(reader->tail().num_rows, 0u);
  Row row;
  EXPECT_FALSE(*reader->NextRow(&row));
}

TEST(OrcFileTest, CompressionShrinksFile) {
  dfs::FileSystem fs;
  WriteFlatFile(&fs, "/orc/raw", 30000);
  OrcWriterOptions options;
  options.compression = codec::CompressionKind::kFastLz;
  WriteFlatFile(&fs, "/orc/snappy", 30000, options);
  EXPECT_LT(*fs.FileSize("/orc/snappy"), *fs.FileSize("/orc/raw"));
  // And still readable.
  auto reader = std::move(OrcReader::Open(&fs, "/orc/snappy")).ValueOrDie();
  Row row;
  int count = 0;
  while (*reader->NextRow(&row)) ++count;
  EXPECT_EQ(count, 30000);
}

// Pins the writer's output bytes, its stripe cuts and its buffered-size
// estimate; the constants were recorded at commit 54a8f3f. A change to how
// the writer buffers or encodes a stripe must leave all three as they are;
// a change meant to move bytes re-records them.
TEST(OrcFileTest, WriterBytesAreStable) {
  TypePtr schema = *TypeDescription::Parse(
      "struct<id:bigint,pool:string,uniq:string,x:double>");
  // 50 values, including the empty string and values holding '\0'.
  std::vector<std::string> pool;
  for (int k = 0; k < 50; ++k) {
    if (k == 0) {
      pool.emplace_back();
    } else if (k % 7 == 0) {
      pool.push_back(std::string("a\0b", 3) + std::to_string(k));
    } else {
      pool.push_back("pool-" + std::to_string(k * 37));
    }
  }
  struct Expected {
    codec::CompressionKind compression;
    uint64_t size;
    uint32_t crc;
    uint64_t stripes;
    uint64_t buffered_bytes_sum;  // Over every row: pins MemoryUsage().
  };
  const Expected kExpected[] = {
      {codec::CompressionKind::kNone, 116917, 3066743654u, 7, 112713117},
      {codec::CompressionKind::kFastLz, 115541, 3669672164u, 7, 112713117},
  };
  for (const Expected& expected : kExpected) {
    SCOPED_TRACE(static_cast<int>(expected.compression));
    dfs::FileSystem fs;
    OrcWriterOptions options;
    options.stripe_size = 64 * 1024;  // The floor: several stripes.
    options.row_index_stride = 1000;
    options.compression = expected.compression;
    auto writer = std::move(OrcWriter::Create(&fs, "/orc/pinned", schema,
                                              options))
                      .ValueOrDie();
    Random rng(26);
    uint64_t buffered_sum = 0;
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : std::move(v);
    };
    for (int i = 0; i < 5000; ++i) {
      std::string uniq(i % 5 == 0 ? 1 : 0, '\0');
      uniq += rng.NextString(rng.Uniform(12)) + std::to_string(i);
      Row row = {
          maybe_null(Value::Int(i % 3 == 0 ? static_cast<int64_t>(rng.Next())
                                           : i / 4)),
          maybe_null(Value::String(pool[rng.Uniform(pool.size())])),
          maybe_null(Value::String(uniq)),
          maybe_null(Value::Double((rng.NextDouble() - 0.5) * 1e6))};
      ASSERT_TRUE(writer->AddRow(row).ok());
      buffered_sum += writer->buffered_bytes();
    }
    ASSERT_TRUE(writer->Close().ok());
    auto file = std::move(fs.Open("/orc/pinned")).ValueOrDie();
    std::string contents;
    ASSERT_TRUE(file->ReadAt(0, file->Size(), &contents).ok());
    EXPECT_GE(writer->stripes_written(), 2u);
    EXPECT_EQ(writer->stripes_written(), expected.stripes);
    EXPECT_EQ(buffered_sum, expected.buffered_bytes_sum);
    EXPECT_EQ(contents.size(), expected.size);
    EXPECT_EQ(Crc32(contents), expected.crc);
  }
}

// ------------------------------------------------ Batch decode, end to end

uint64_t BitsOf(double v) { return std::bit_cast<uint64_t>(v); }

/// Boxes slot `i` of batch column `col`, read as a column of `kind`.
Value BoxSlot(const vec::VectorizedRowBatch& batch, int col, int i,
              TypeKind kind) {
  const vec::ColumnVector* c = batch.columns[col].get();
  if (c->is_repeating) i = 0;
  if (!c->no_nulls && !c->not_null[i]) return Value::Null();
  switch (c->kind()) {
    case vec::VectorKind::kLong: {
      int64_t v = static_cast<const vec::LongColumnVector*>(c)->vector[i];
      return kind == TypeKind::kBoolean ? Value::Bool(v != 0) : Value::Int(v);
    }
    case vec::VectorKind::kDouble:
      return Value::Double(
          static_cast<const vec::DoubleColumnVector*>(c)->vector[i]);
    default:
      return Value::String(std::string(
          static_cast<const vec::BytesColumnVector*>(c)->GetView(i)));
  }
}

/// Reads every row of `path`, row by row or in batches (honouring the
/// batch's selection vector).
Result<std::vector<Row>> ReadRows(dfs::FileSystem* fs, const std::string& path,
                                  OrcReadOptions options, bool vectorized) {
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<OrcReader> reader,
                            OrcReader::Open(fs, path, options));
  std::vector<Row> rows;
  Row row;
  if (!vectorized) {
    while (true) {
      MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextRow(&row));
      if (!more) return rows;
      rows.push_back(row);
    }
  }
  const TypePtr& schema = reader->schema();
  MINIHIVE_ASSIGN_OR_RETURN(std::unique_ptr<vec::VectorizedRowBatch> batch,
                            reader->CreateBatch());
  while (true) {
    MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextBatch(batch.get()));
    if (!more) return rows;
    for (int j = 0; j < batch->SelectedCount(); ++j) {
      int i = batch->selected_in_use ? batch->selected[j] : j;
      row.clear();
      for (size_t c = 0; c < batch->columns.size(); ++c) {
        row.push_back(BoxSlot(*batch, static_cast<int>(c), i,
                              schema->children()[c]->kind()));
      }
      rows.push_back(row);
    }
  }
}

void ExpectSameRows(const std::vector<Row>& expected,
                    const std::vector<Row>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(expected[r].size(), actual[r].size());
    for (size_t c = 0; c < expected[r].size(); ++c) {
      ASSERT_EQ(expected[r][c].Compare(actual[r][c]), 0)
          << "row " << r << " col " << c << ": " << actual[r][c].ToString()
          << " vs expected " << expected[r][c].ToString();
    }
  }
}

TEST(OrcFileTest, DoublesRoundTripBitExact) {
  const double kSpecial[] = {
      -0.0,
      0.0,
      std::bit_cast<double>(uint64_t{0x7ff8dead0000beef}),  // NaN, payload.
      std::bit_cast<double>(uint64_t{0xfff800000000c0de}),  // -NaN, payload.
      std::numeric_limits<double>::denorm_min(),
      -std::bit_cast<double>(uint64_t{0x000fffffffffffff}),  // Max denormal.
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      1.0 / 3};
  constexpr int kSpecials = sizeof(kSpecial) / sizeof(kSpecial[0]);
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse("struct<id:bigint,d:double>");
  OrcWriterOptions options;
  options.row_index_stride = 1000;
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/doubles", schema, options))
          .ValueOrDie();
  constexpr int kRows = 3000;  // NULLs only in the last group.
  auto is_null = [](int i) { return i >= 2000 && i % 5 == 0; };
  for (int i = 0; i < kRows; ++i) {
    Row row = {Value::Int(i), Value::Double(kSpecial[i % kSpecials])};
    if (is_null(i)) row[1] = Value::Null();
    ASSERT_TRUE(writer->AddRow(row).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  SearchArgument all;  // Matches every row, but reads group by group.
  all.AddLeaf({0, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}});
  for (const SearchArgument* sarg : {static_cast<SearchArgument*>(nullptr),
                                     &all}) {
    for (bool vectorized : {false, true}) {
      SCOPED_TRACE(std::string(sarg != nullptr ? "ppd " : "full ") +
                   (vectorized ? "vectorized" : "rows"));
      OrcReadOptions ropts;
      ropts.sarg = sarg;
      auto rows = ReadRows(&fs, "/orc/doubles", ropts, vectorized);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
      for (int i = 0; i < kRows; ++i) {
        const Value& d = (*rows)[i][1];
        if (is_null(i)) {
          ASSERT_TRUE(d.is_null()) << i;
        } else {
          ASSERT_EQ(BitsOf(d.AsDouble()), BitsOf(kSpecial[i % kSpecials]))
              << "row " << i;
        }
      }
    }
  }
}

/// Rewrites `path` with the one occurrence of `from` replaced by `to` (of
/// the same size, so no offset moves).
void PatchFile(dfs::FileSystem* fs, const std::string& path,
               const std::string& from, const std::string& to) {
  ASSERT_EQ(from.size(), to.size());
  std::string contents;
  {
    auto file = std::move(fs->Open(path)).ValueOrDie();
    ASSERT_TRUE(file->ReadAt(0, file->Size(), &contents).ok());
  }
  size_t at = contents.find(from);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(contents.find(from, at + 1), std::string::npos);
  contents.replace(at, from.size(), to);
  ASSERT_TRUE(fs->Delete(path).ok());
  auto file = std::move(fs->Create(path)).ValueOrDie();
  ASSERT_TRUE(file->Append(contents).ok());
  ASSERT_TRUE(file->Close().ok());
}

/// Reads `path` with and without a SARG, row by row and in batches, with
/// checksums off and on; every read must fail with Corruption.
void ExpectEveryReadCorrupt(dfs::FileSystem* fs, const std::string& path) {
  SearchArgument all;
  all.AddLeaf({0, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}});
  for (const SearchArgument* sarg : {static_cast<SearchArgument*>(nullptr),
                                     &all}) {
    for (bool vectorized : {false, true}) {
      for (bool verify : {false, true}) {
        OrcReadOptions ropts;
        ropts.sarg = sarg;
        ropts.verify_checksums = verify;
        auto rows = ReadRows(fs, path, ropts, vectorized);
        EXPECT_TRUE(rows.status().IsCorruption())
            << "ppd " << (sarg != nullptr) << " vectorized " << vectorized
            << " verify " << verify << ": " << rows.status().ToString();
      }
    }
  }
}

TEST(OrcFileTest, DoubleSegmentOneByteShortIsCorruption) {
  // One group of 10 doubles: a stored unit {len 80, flag 0, len 80, bits}.
  // Re-frame it in place as a 79-byte unit (its stored length written as a
  // two-byte varint), so the segment keeps its size but decodes to 79 bytes.
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse("struct<id:bigint,d:double>");
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/short", schema)).ValueOrDie();
  std::string bits;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer->AddRow({Value::Int(i), Value::Double(i * 1.5)}).ok());
    PutDoubleBits(&bits, i * 1.5);
  }
  ASSERT_TRUE(writer->Close().ok());
  PatchFile(&fs, "/orc/short", std::string("\x50\x00\x50", 3) + bits,
            std::string("\x4f\x00\xcf\x00", 4) + bits.substr(0, 79));
  ExpectEveryReadCorrupt(&fs, "/orc/short");
}

TEST(OrcFileTest, PresentBitsMustCountTheNonNullValues) {
  // 16 rows, x NULL in rows 0 and 9: present bits 0x7f 0xbf, one literal
  // byte-RLE token in one stored unit. Marking row 0 present claims a 15th
  // value where the footer (and the data stream) hold 14.
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse("struct<id:bigint,x:bigint>");
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/present", schema)).ValueOrDie();
  for (int i = 0; i < 16; ++i) {
    Value x = i == 0 || i == 9 ? Value::Null() : Value::Int(i * 1000);
    ASSERT_TRUE(writer->AddRow({Value::Int(i), x}).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  PatchFile(&fs, "/orc/present", std::string("\x03\x00\x03\xfe\x7f\xbf", 6),
            std::string("\x03\x00\x03\xfe\xff\xbf", 6));
  ExpectEveryReadCorrupt(&fs, "/orc/present");
}

TEST(OrcFileTest, NegativeStringLengthIsCorruption) {
  // Three unique strings stay DIRECT: lengths 2, 3, 1 are one literal
  // int-RLE token (zigzag 4, 6, 2). A length of -1 keeps the total inside
  // the data stream, so only the length check can catch it.
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse("struct<id:bigint,s:string>");
  auto writer =
      std::move(OrcWriter::Create(&fs, "/orc/length", schema)).ValueOrDie();
  int64_t id = 0;
  for (const char* s : {"aa", "bbb", "c"}) {
    ASSERT_TRUE(writer->AddRow({Value::Int(id++), Value::String(s)}).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  PatchFile(&fs, "/orc/length", std::string("\x04\x00\x04\xfd\x04\x06\x02", 7),
            std::string("\x04\x00\x04\xfd\x01\x06\x02", 7));
  ExpectEveryReadCorrupt(&fs, "/orc/length");
}

TEST(OrcFileTest, GroupsWithAndWithoutNullsReadAlikeInEveryMode) {
  // NULLs in groups 1, 4 and 6 only (group 3's DOUBLEs are all NULL), so
  // each nullable column has a present stream in which most groups hold no
  // NULL at all.
  TypePtr schema = *TypeDescription::Parse(
      "struct<id:bigint,x:bigint,d:double,u:string,p:string,b:boolean,"
      "t:tinyint>");
  constexpr int kRows = 8000;
  std::vector<Row> written;
  for (int i = 0; i < kRows; ++i) {
    Row row = {Value::Int(i),
               Value::Int((i * 7919) % 100000 - 50000),
               Value::Double(i * 0.5 - 100),
               Value::String(std::string("u").append(std::to_string(i))),
               Value::String(std::string("p").append(std::to_string(i % 9))),
               Value::Bool(i % 3 == 0),
               Value::Int(i % 200 - 100)};
    const int group = i / 1000;
    if (group == 1 || group == 4 || group == 6) {
      for (size_t c = 1; c < row.size(); ++c) {
        if ((i + c) % 4 == 0) row[c] = Value::Null();
      }
    }
    if (group == 3) row[2] = Value::Null();
    written.push_back(std::move(row));
  }
  constexpr int64_t kLo = 1500, kHi = 6200;
  SearchArgument sarg;
  sarg.AddLeaf({0, PredicateOp::kBetween, Value::Int(kLo), Value::Int(kHi),
                {}});
  std::vector<Row> matching;
  for (const Row& row : written) {
    if (row[0].AsInt() >= kLo && row[0].AsInt() <= kHi) matching.push_back(row);
  }
  for (codec::CompressionKind compression :
       {codec::CompressionKind::kNone, codec::CompressionKind::kFastLz}) {
    dfs::FileSystem fs;
    OrcWriterOptions options;
    options.row_index_stride = 1000;
    options.compression = compression;
    auto writer =
        std::move(OrcWriter::Create(&fs, "/orc/mixed", schema, options))
            .ValueOrDie();
    for (const Row& row : written) ASSERT_TRUE(writer->AddRow(row).ok());
    ASSERT_TRUE(writer->Close().ok());
    for (bool vectorized : {false, true}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(compression)) +
                   (vectorized ? " vectorized" : " rows"));
      auto all = ReadRows(&fs, "/orc/mixed", OrcReadOptions(), vectorized);
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      ExpectSameRows(written, *all);
      for (bool late : {false, true}) {
        SCOPED_TRACE(late ? "late" : "eager");
        OrcReadOptions ropts;
        ropts.sarg = &sarg;
        ropts.enable_late_materialization = late;
        auto read = ReadRows(&fs, "/orc/mixed", ropts, vectorized);
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        // Eager reads return whole selected groups; the predicate picks the
        // same rows from them.
        std::vector<Row> picked;
        for (const Row& row : *read) {
          if (row[0].AsInt() >= kLo && row[0].AsInt() <= kHi) {
            picked.push_back(row);
          }
        }
        if (late) {
          EXPECT_EQ(picked.size(), read->size());
        }
        ExpectSameRows(matching, picked);
      }
    }
  }
}

}  // namespace
}  // namespace minihive::orc
