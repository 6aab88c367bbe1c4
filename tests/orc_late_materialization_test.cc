/// Late-materialization equivalence: the two-phase (PREWHERE-style) read —
/// vectorized, and row by row over nested lazy columns and deletions — must
/// hand back byte-identical surviving rows to an eager decode at every
/// selectivity — with nulls, with the metadata cache on or
/// off, and under injected faults (which must surface as typed errors,
/// never as silently wrong rows). Also pins the skipping telemetry:
/// rows_late_skipped / lazy_decodes_avoided fire exactly when phase 1
/// actually rejects rows.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/delete_bitmap.h"
#include "common/fault.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace minihive::orc {
namespace {

constexpr int kRows = 20000;
constexpr int64_t kCatRange = 1 << 30;

TypePtr Schema() {
  return *TypeDescription::Parse(
      "struct<id:bigint,cat:bigint,score:double,name:string,pad:string>");
}

/// Pseudo-random category: every 1000-row index group spans nearly the whole
/// [0, kCatRange) domain, so group min/max statistics can never prune on it —
/// skipping must come from phase-1 row evaluation.
int64_t CatOf(int i) {
  return static_cast<int64_t>(static_cast<uint64_t>(i) * 2654435761ULL %
                              kCatRange);
}

Row MakeRow(int i, bool with_nulls) {
  Row row = {Value::Int(i), Value::Int(CatOf(i)), Value::Double(i * 0.25),
             Value::String("name-" + std::to_string(i % 50)),
             Value::String("pad-" + std::to_string(i))};
  if (with_nulls) {
    if (i % 11 == 0) row[1] = Value::Null();
    if (i % 13 == 0) row[2] = Value::Null();
    if (i % 17 == 0) row[3] = Value::Null();
  }
  return row;
}

void WriteFile(dfs::FileSystem* fs, const std::string& path, bool with_nulls) {
  OrcWriterOptions options;
  options.row_index_stride = 1000;
  auto writer =
      std::move(OrcWriter::Create(fs, path, Schema(), options)).ValueOrDie();
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeRow(i, with_nulls)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

Value BoxCol(vec::VectorizedRowBatch* batch, int col, int row) {
  const vec::ColumnVector* c = batch->columns[col].get();
  int i = c->is_repeating ? 0 : row;
  if (!c->no_nulls && !c->not_null[i]) return Value::Null();
  switch (c->kind()) {
    case vec::VectorKind::kLong:
      return Value::Int(
          static_cast<const vec::LongColumnVector*>(c)->vector[i]);
    case vec::VectorKind::kDouble:
      return Value::Double(
          static_cast<const vec::DoubleColumnVector*>(c)->vector[i]);
    default:
      return Value::String(std::string(
          static_cast<const vec::BytesColumnVector*>(c)->GetView(i)));
  }
}

struct ScanResult {
  std::vector<Row> rows;
  uint64_t rows_late_skipped = 0;
  uint64_t lazy_decodes_avoided = 0;
  uint64_t groups_read = 0;
};

/// Batch-scans `path`, honoring the batch's selection vector (the late
/// reader's phase-1 verdicts); an eager reader returns every group row.
Result<ScanResult> ScanBatches(dfs::FileSystem* fs, const std::string& path,
                               const SearchArgument* sarg, bool late) {
  OrcReadOptions options;
  options.projected_fields = {0, 1, 2, 3, 4};
  options.sarg = sarg;
  options.enable_late_materialization = late;
  auto reader_or = OrcReader::Open(fs, path, options);
  MINIHIVE_RETURN_IF_ERROR(reader_or.status());
  auto reader = std::move(reader_or).ValueOrDie();
  auto batch = std::move(reader->CreateBatch()).ValueOrDie();
  ScanResult result;
  while (true) {
    auto more = reader->NextBatch(batch.get());
    MINIHIVE_RETURN_IF_ERROR(more.status());
    if (!*more) break;
    int n = batch->SelectedCount();
    for (int j = 0; j < n; ++j) {
      int i = batch->selected_in_use ? batch->selected[j] : j;
      Row row;
      for (int c = 0; c < 5; ++c) row.push_back(BoxCol(batch.get(), c, i));
      result.rows.push_back(std::move(row));
    }
  }
  result.rows_late_skipped = reader->rows_late_skipped();
  result.lazy_decodes_avoided = reader->lazy_decodes_avoided();
  result.groups_read = reader->groups_read();
  return result;
}

void ExpectSameRows(const std::vector<Row>& expected,
                    const std::vector<Row>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    for (size_t c = 0; c < expected[r].size(); ++c) {
      ASSERT_EQ(expected[r][c].Compare(actual[r][c]), 0)
          << "row " << r << " col " << c << ": " << actual[r][c].ToString()
          << " vs expected " << expected[r][c].ToString();
    }
  }
}

/// The eager scan returns every row of every surviving group; applying
/// `pred` to it yields the rows phase 1 must hand through.
template <typename Pred>
std::vector<Row> FilterRows(const std::vector<Row>& rows, Pred pred) {
  std::vector<Row> out;
  for (const Row& row : rows) {
    if (pred(row)) out.push_back(row);
  }
  return out;
}

TEST(OrcLateMaterializationTest, SelectivitySweepMatchesEagerDecode) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/late", /*with_nulls=*/false);

  struct Case {
    const char* label;
    LeafPredicate leaf;
    std::function<bool(int64_t)> pred;  // Row-level truth on cat.
    bool expect_row_skips;  // Phase 1 must reject at least one row.
  };
  // An in-range cat value no row carries: equality on it is 0% selective at
  // row level while group min/max statistics still say "maybe".
  std::set<int64_t> cats;
  for (int i = 0; i < kRows; ++i) cats.insert(CatOf(i));
  int64_t absent = kCatRange / 2;
  while (cats.count(absent) != 0) ++absent;

  std::vector<Case> cases = {
      {"0%",
       {1, PredicateOp::kEquals, Value::Int(absent), {}, {}},
       [=](int64_t cat) { return cat == absent; },
       true},
      {"1%",
       {1, PredicateOp::kLessThan, Value::Int(kCatRange / 100), {}, {}},
       [](int64_t cat) { return cat < kCatRange / 100; },
       true},
      {"50%",
       {1, PredicateOp::kLessThan, Value::Int(kCatRange / 2), {}, {}},
       [](int64_t cat) { return cat < kCatRange / 2; },
       true},
      {"100%",
       {1, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}},
       [](int64_t cat) { return cat >= 0; },
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    SearchArgument sarg;
    sarg.AddLeaf(c.leaf);
    ScanResult eager =
        std::move(ScanBatches(&fs, "/orc/late", &sarg, false)).ValueOrDie();
    ScanResult late =
        std::move(ScanBatches(&fs, "/orc/late", &sarg, true)).ValueOrDie();
    EXPECT_GT(late.groups_read, 0u) << "statistics pruned what phase 1 "
                                       "should have handled";
    std::vector<Row> expected = FilterRows(
        eager.rows, [&](const Row& row) { return c.pred(row[1].AsInt()); });
    ExpectSameRows(expected, late.rows);
    EXPECT_EQ(eager.rows_late_skipped, 0u);
    EXPECT_EQ(eager.lazy_decodes_avoided, 0u);
    if (c.expect_row_skips) {
      EXPECT_GT(late.rows_late_skipped, 0u);
    } else {
      EXPECT_EQ(late.rows_late_skipped, 0u);
    }
  }

  // The 0% case must also skip whole lazy-column group decodes.
  SearchArgument none;
  none.AddLeaf({1, PredicateOp::kEquals, Value::Int(absent), {}, {}});
  ScanResult empty =
      std::move(ScanBatches(&fs, "/orc/late", &none, true)).ValueOrDie();
  EXPECT_TRUE(empty.rows.empty());
  EXPECT_GT(empty.lazy_decodes_avoided, 0u);
}

TEST(OrcLateMaterializationTest, NullRowsDropLikeTheEngineFilter) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/late_nulls", /*with_nulls=*/true);

  // cat >= 0 matches every non-null cat; NULL compares not-true and must be
  // rejected by phase 1 exactly like the engine's row filter would.
  SearchArgument sarg;
  sarg.AddLeaf({1, PredicateOp::kGreaterThanEquals, Value::Int(0), {}, {}});
  ScanResult eager =
      std::move(ScanBatches(&fs, "/orc/late_nulls", &sarg, false))
          .ValueOrDie();
  ScanResult late =
      std::move(ScanBatches(&fs, "/orc/late_nulls", &sarg, true)).ValueOrDie();
  std::vector<Row> expected = FilterRows(
      eager.rows, [](const Row& row) { return !row[1].is_null(); });
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), eager.rows.size());
  ExpectSameRows(expected, late.rows);
  EXPECT_GT(late.rows_late_skipped, 0u);

  // IS NULL keeps only the null rows.
  SearchArgument nulls_only;
  nulls_only.AddLeaf({1, PredicateOp::kIsNull, {}, {}, {}});
  ScanResult eager_nulls =
      std::move(ScanBatches(&fs, "/orc/late_nulls", &nulls_only, false))
          .ValueOrDie();
  ScanResult late_nulls =
      std::move(ScanBatches(&fs, "/orc/late_nulls", &nulls_only, true))
          .ValueOrDie();
  ExpectSameRows(FilterRows(eager_nulls.rows,
                            [](const Row& row) { return row[1].is_null(); }),
                 late_nulls.rows);
}

TEST(OrcLateMaterializationTest, MetadataCacheOnAndOffAgree) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/late_cache", /*with_nulls=*/false);
  SearchArgument sarg;
  sarg.AddLeaf({1, PredicateOp::kLessThan, Value::Int(kCatRange / 4), {}, {}});
  // No CacheManager installed yet: the uncached read.
  ScanResult uncached =
      std::move(ScanBatches(&fs, "/orc/late_cache", &sarg, true)).ValueOrDie();

  auto caches = std::make_shared<cache::CacheManager>(4 * 1024 * 1024);
  fs.set_cache_manager(caches);
  // First cached run populates, second serves from the cache; all three
  // must agree row for row and keep skipping at row level.
  ScanResult warm =
      std::move(ScanBatches(&fs, "/orc/late_cache", &sarg, true)).ValueOrDie();
  ScanResult hot =
      std::move(ScanBatches(&fs, "/orc/late_cache", &sarg, true)).ValueOrDie();
  EXPECT_GT(caches->metadata_cache()->usage(), 0u);
  EXPECT_GT(caches->metadata_cache()->stats().hits, 0u);
  ExpectSameRows(uncached.rows, warm.rows);
  ExpectSameRows(uncached.rows, hot.rows);
  EXPECT_GT(hot.rows_late_skipped, 0u);
  fs.set_cache_manager(nullptr);
}

TEST(OrcLateMaterializationTest, InjectedFaultsSurfaceAsErrorsNotWrongRows) {
  dfs::FileSystem fs;
  WriteFile(&fs, "/orc/late_fault", /*with_nulls=*/false);
  SearchArgument sarg;
  sarg.AddLeaf({1, PredicateOp::kLessThan, Value::Int(kCatRange / 10), {}, {}});
  ScanResult clean =
      std::move(ScanBatches(&fs, "/orc/late_fault", &sarg, true)).ValueOrDie();
  ASSERT_FALSE(clean.rows.empty());

  int detections = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultConfig config;
    config.seed = seed;
    config.read_flip_probability = 0.02;
    config.path_filter = "/orc/late_fault";
    FaultInjector injector(config);
    fs.set_fault_injector(&injector);
    auto result = ScanBatches(&fs, "/orc/late_fault", &sarg, true);
    fs.set_fault_injector(nullptr);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCorruption() ||
                  result.status().IsIoError())
          << result.status().ToString();
      ++detections;
      continue;
    }
    if (injector.stats().byte_flips.load() == 0) continue;
    // A flip that went undetected must have landed in dead bytes: the rows
    // are still exactly the clean rows.
    ExpectSameRows(clean.rows, result.ValueOrDie().rows);
  }
  EXPECT_GT(detections, 0) << "no injected flip was ever detected";
}

/// Rows with nested (array / map / struct / union) lazy columns around one
/// filter column; nulls at every level keep the skip path honest.
Row MakeNestedRow(int i) {
  Value::Array tags;
  for (int j = 0; j < i % 4; ++j) {
    tags.push_back(j == 2 ? Value::Null()
                          : Value::String("t" + std::to_string(i + j)));
  }
  Value::MapEntries attrs;
  for (int j = 0; j < i % 3; ++j) {
    attrs.push_back({Value::String("k" + std::to_string(j)),
                     Value::MakeArray({Value::Int(i), Value::Int(j)})});
  }
  Value info = Value::MakeStruct(
      {Value::Int(i * 3),
       i % 9 == 0 ? Value::Null() : Value::String("s" + std::to_string(i))});
  Value choice = i % 2 == 0 ? Value::MakeUnion(0, Value::Int(i))
                            : Value::MakeUnion(1, Value::String("u"));
  return {Value::Int(i),
          i % 11 == 0 ? Value::Null() : Value::Int(CatOf(i)),
          i % 7 == 0 ? Value::Null() : Value::MakeArray(std::move(tags)),
          Value::MakeMap(std::move(attrs)),
          i % 5 == 0 ? Value::Null() : std::move(info),
          std::move(choice)};
}

struct RowScan {
  std::vector<Row> rows;
  uint64_t rows_late_skipped = 0;
  uint64_t lazy_decodes_avoided = 0;
};

RowScan ScanRows(dfs::FileSystem* fs, const std::string& path,
                 const SearchArgument* sarg, bool late,
                 const DeleteBitmap* deleted) {
  OrcReadOptions options;
  options.sarg = sarg;
  options.enable_late_materialization = late;
  options.delete_bitmap = deleted;
  auto reader = std::move(OrcReader::Open(fs, path, options)).ValueOrDie();
  RowScan scan;
  Row row;
  while (*reader->NextRow(&row)) scan.rows.push_back(row);
  scan.rows_late_skipped = reader->rows_late_skipped();
  scan.lazy_decodes_avoided = reader->lazy_decodes_avoided();
  return scan;
}

TEST(OrcLateMaterializationTest, RowScanSkipsDeadRowsAcrossNestedColumns) {
  dfs::FileSystem fs;
  TypePtr schema = *TypeDescription::Parse(
      "struct<id:bigint,cat:bigint,tags:array<string>,"
      "attrs:map<string,array<bigint>>,info:struct<a:bigint,b:string>,"
      "choice:uniontype<bigint,string>>");
  OrcWriterOptions writer_options;
  writer_options.row_index_stride = 1000;
  auto writer = std::move(OrcWriter::Create(&fs, "/orc/late_nested", schema,
                                            writer_options))
                    .ValueOrDie();
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(writer->AddRow(MakeNestedRow(i)).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  DeleteBitmap deleted(kRows);
  for (int i = 0; i < kRows; i += 6) deleted.MarkDeleted(i);

  for (int64_t bound : {kCatRange / 3, kCatRange / 50}) {
    SCOPED_TRACE(bound);
    SearchArgument sarg;
    sarg.AddLeaf({1, PredicateOp::kLessThan, Value::Int(bound), {}, {}});
    RowScan eager = ScanRows(&fs, "/orc/late_nested", &sarg, false, &deleted);
    RowScan late = ScanRows(&fs, "/orc/late_nested", &sarg, true, &deleted);
    for (const Row& row : eager.rows) {
      ASSERT_NE(row[0].AsInt() % 6, 0) << "a deleted row was returned";
    }
    std::vector<Row> expected = FilterRows(eager.rows, [&](const Row& row) {
      return !row[1].is_null() && row[1].AsInt() < bound;
    });
    ASSERT_FALSE(expected.empty());
    ASSERT_LT(expected.size(), eager.rows.size());
    ExpectSameRows(expected, late.rows);
    EXPECT_EQ(eager.rows_late_skipped, 0u);
    EXPECT_GT(late.rows_late_skipped, 0u);
  }
}

}  // namespace
}  // namespace minihive::orc
