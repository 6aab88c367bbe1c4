#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <set>

#include "common/json.h"
#include "datagen/tpch.h"
#include "orc/reader.h"
#include "orc/writer.h"
#include "ql/driver.h"

namespace minihive::vec {
namespace {

using ql::Catalog;
using ql::Driver;
using ql::DriverOptions;
using ql::QueryResult;

/// TPC-H Q1 analogue over the generated lineitem (shipdate is a day
/// number): one predicate, eight aggregates, grouped by two low-cardinality
/// string columns — the paper's Figure 12 workload.
const char kQ1[] =
    "SELECT l_returnflag, l_linestatus, "
    "  SUM(l_quantity) AS sum_qty, "
    "  SUM(l_extendedprice) AS sum_base_price, "
    "  SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "  SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "  AVG(l_quantity) AS avg_qty, "
    "  AVG(l_extendedprice) AS avg_price, "
    "  AVG(l_discount) AS avg_disc, "
    "  COUNT(*) AS count_order "
    "FROM tpch_lineitem WHERE l_shipdate <= 10471 "
    "GROUP BY l_returnflag, l_linestatus";

/// TPC-H Q6 analogue: four predicates, one aggregate.
const char kQ6[] =
    "SELECT SUM(l_extendedprice * l_discount) AS revenue "
    "FROM tpch_lineitem "
    "WHERE l_shipdate BETWEEN 8766 AND 9131 "
    "  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

class VecPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fs_ = new dfs::FileSystem();
    catalog_ = new Catalog(fs_);
    datagen::TpchOptions options;
    options.lineitem_rows = 60000;
    options.orders_rows = 1000;
    options.format = formats::FormatKind::kOrcFile;
    ASSERT_TRUE(datagen::LoadTpch(catalog_, "tpch", options).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete fs_;
  }

  QueryResult MustExecute(const std::string& sql, bool vectorized) {
    DriverOptions options;
    options.vectorized_execution = vectorized;
    Driver driver(fs_, catalog_, options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  static std::vector<std::string> Canonical(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        // Round doubles so row/vector summation-order differences in the
        // same group do not flip the comparison.
        if (v.is_double()) {
          char buf[64];
          snprintf(buf, sizeof(buf), "%.4f", v.AsDouble());
          s += buf;
        } else {
          s += v.ToString();
        }
        s += "|";
      }
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static dfs::FileSystem* fs_;
  static Catalog* catalog_;
};

dfs::FileSystem* VecPipelineTest::fs_ = nullptr;
Catalog* VecPipelineTest::catalog_ = nullptr;

TEST_F(VecPipelineTest, Q1VectorizedMatchesRowMode) {
  QueryResult row_mode = MustExecute(kQ1, false);
  QueryResult vec_mode = MustExecute(kQ1, true);
  ASSERT_EQ(row_mode.rows.size(), 6u);  // 3 flags x 2 statuses.
  EXPECT_EQ(Canonical(row_mode), Canonical(vec_mode));
}

TEST_F(VecPipelineTest, Q6VectorizedMatchesRowMode) {
  QueryResult row_mode = MustExecute(kQ6, false);
  QueryResult vec_mode = MustExecute(kQ6, true);
  ASSERT_EQ(row_mode.rows.size(), 1u);
  ASSERT_EQ(vec_mode.rows.size(), 1u);
  EXPECT_NEAR(row_mode.rows[0][0].AsDouble(), vec_mode.rows[0][0].AsDouble(),
              1e-6);
  EXPECT_FALSE(row_mode.rows[0][0].is_null());
}

TEST_F(VecPipelineTest, VectorizationCutsCpuTime) {
  // The headline §6 claim: substantially less cumulative task CPU time.
  QueryResult row_mode = MustExecute(kQ1, false);
  QueryResult vec_mode = MustExecute(kQ1, true);
  EXPECT_LT(vec_mode.counters.cpu_millis(),
            row_mode.counters.cpu_millis())
      << "vectorized Q1 should consume less CPU";
}

TEST_F(VecPipelineTest, ProjectionOnlyQueryVectorizes) {
  const std::string sql =
      "SELECT l_orderkey, l_extendedprice * l_discount AS x "
      "FROM tpch_lineitem WHERE l_quantity < 3";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  ASSERT_FALSE(row_mode.rows.empty());
  EXPECT_EQ(Canonical(row_mode), Canonical(vec_mode));
}

TEST_F(VecPipelineTest, UnsupportedShapeFallsBackToRowMode) {
  // OR predicates are not vectorizable; the run must still succeed
  // (validation falls back, paper §6.4).
  const std::string sql =
      "SELECT COUNT(*) AS c FROM tpch_lineitem "
      "WHERE l_returnflag = 'N' OR l_returnflag = 'R'";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  ASSERT_EQ(row_mode.rows.size(), 1u);
  EXPECT_EQ(row_mode.rows[0][0].AsInt(), vec_mode.rows[0][0].AsInt());
}

TEST_F(VecPipelineTest, StringFilterVectorizes) {
  const std::string sql =
      "SELECT COUNT(*) AS c, SUM(l_quantity) AS q FROM tpch_lineitem "
      "WHERE l_returnflag = 'R' AND l_shipdate > 9000";
  QueryResult row_mode = MustExecute(sql, false);
  QueryResult vec_mode = MustExecute(sql, true);
  EXPECT_EQ(row_mode.rows[0][0].AsInt(), vec_mode.rows[0][0].AsInt());
  EXPECT_NEAR(row_mode.rows[0][1].AsDouble(), vec_mode.rows[0][1].AsDouble(),
              1e-6);
}


// ---- Vectorized aggregation edge cases. Every query runs in both engines
// and must give byte-identical rows (doubles compared by bit pattern); the
// vectorized run must really have vectorized (its scan counts batches).

class VecAggEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
  }

  /// Writes `rows` as one more ORC file of table `name` (at last_path_),
  /// creating the table on first use.
  void AddOrcFile(const std::string& name, const std::string& schema,
                  const std::vector<Row>& rows,
                  orc::OrcWriterOptions options = orc::OrcWriterOptions()) {
    if (!catalog_->GetTable(name).ok()) {
      ASSERT_TRUE(catalog_
                      ->CreateTable(name, *TypeDescription::Parse(schema),
                                    formats::FormatKind::kOrcFile)
                      .ok());
    }
    const ql::TableDesc* table = *catalog_->GetTable(name);
    last_path_ = table->path_prefix + "/part-" + std::to_string(files_++);
    auto writer = orc::OrcWriter::Create(fs_.get(), last_path_,
                                         table->schema, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Row& row : rows) ASSERT_TRUE((*writer)->AddRow(row).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }

  QueryResult Run(const std::string& sql, bool vectorized) {
    DriverOptions options;
    options.vectorized_execution = vectorized;
    options.enable_profiling = true;
    options.enable_late_materialization = late_materialization_;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  static std::vector<std::string> Exact(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        if (v.is_double()) {
          char buf[64];
          snprintf(buf, sizeof(buf), "%a", v.AsDouble());
          s += buf;
        } else {
          s += v.ToString();
        }
        s += "|";
      }
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs `sql` in both engines, expects identical rows, returns them.
  std::vector<std::string> ExpectSameInBothEngines(const std::string& sql) {
    QueryResult row_mode = Run(sql, false);
    QueryResult vec_mode = Run(sql, true);
    EXPECT_NE(vec_mode.profile, nullptr);
    if (vec_mode.profile != nullptr) {
      json::Writer w;
      vec_mode.profile->WriteJson(&w, /*include_timing=*/false);
      EXPECT_NE(w.str().find("\"batches\""), std::string::npos)
          << "query did not vectorize: " << sql;
    }
    std::vector<std::string> rows = Exact(row_mode);
    EXPECT_EQ(rows, Exact(vec_mode)) << sql;
    return rows;
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
  int files_ = 0;
  std::string last_path_;  // Of the most recent AddOrcFile.
  bool late_materialization_ = true;
};

constexpr char kEdgeSchema[] =
    "struct<k:string,g:bigint,v:bigint,d:double,s:string>";

TEST_F(VecAggEdgeTest, NullKeysAndNullArguments) {
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({i % 7 == 0 ? Value::Null()
                               : Value::String(i % 3 ? "x" : "y"),
                    i % 11 == 0 ? Value::Null() : Value::Int(i % 4),
                    i % 5 == 0 ? Value::Null() : Value::Int(i),
                    i % 9 == 0 ? Value::Null() : Value::Double(i * 0.1),
                    i % 13 == 0 ? Value::Null()
                                : Value::String("s" + std::to_string(i % 97))});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT k, g, COUNT(*) AS c, COUNT(v) AS cv, COUNT(s) AS cs, "
      "SUM(v) AS sv, SUM(d) AS sd, AVG(d) AS ad, MIN(v) AS mnv, "
      "MAX(d) AS mxd FROM t GROUP BY k, g");
  EXPECT_EQ(out.size(), 3u * 5u);  // {x, y, NULL} x {0..3, NULL}.
  // A group whose arguments are all NULL: counts of zero, NULL sums.
  AddOrcFile("n", kEdgeSchema,
             {{Value::String("a"), Value::Int(1), Value::Null(),
               Value::Null(), Value::Null()}});
  out = ExpectSameInBothEngines(
      "SELECT k, COUNT(*) AS c, COUNT(v) AS cv, SUM(v) AS sv, "
      "AVG(d) AS ad, MIN(s) AS mn FROM n GROUP BY k");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "a|1|0|NULL|NULL|NULL|");
}

TEST_F(VecAggEdgeTest, RepeatingKeysAndArguments) {
  // One dictionary entry per file -> every key batch is is_repeating; the
  // literal arguments are repeating scratch columns.
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value::String("only"), Value::Int(i % 3), Value::Int(i),
                    Value::Double(i * 0.5), Value::String("z")});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  ExpectSameInBothEngines(
      "SELECT k, COUNT(*) AS c, SUM(2) AS s2, SUM(0.25) AS sq, MIN(3) AS m, "
      "MAX(s) AS ms, SUM(d) AS sd FROM t GROUP BY k");
  ExpectSameInBothEngines(
      "SELECT k, g, SUM(7) AS s7, AVG(1.5) AS a, COUNT(s) AS cs "
      "FROM t GROUP BY k, g");
  ExpectSameInBothEngines(
      "SELECT SUM(2) AS s, MAX(s) AS m FROM t WHERE g >= 0");
}

TEST_F(VecAggEdgeTest, DictionaryCodesRemapAcrossStripes) {
  // Small stripes: the first stripes' dictionaries are {b, c}, the later
  // ones' {a, b, c}, so the same strings arrive under different codes
  // within one map task (the writer sorts each stripe's dictionary).
  orc::OrcWriterOptions options;
  options.stripe_size = 1;  // Clamped to the writer's 64 KiB minimum.
  std::vector<Row> rows;
  for (int i = 0; i < 12000; ++i) {
    const char* early[] = {"c", "b"};
    const char* late[] = {"a", "c", "b"};
    std::string k = i < 4096 ? early[i % 2] : late[i % 3];
    rows.push_back({Value::String(k), Value::Int(i % 2), Value::Int(i),
                    Value::Double(i * 1.25), Value::String(k + "!")});
  }
  AddOrcFile("t", kEdgeSchema, rows, options);

  // Premise: "b" really shows up under two codes.
  orc::OrcReadOptions read_options;
  read_options.projected_fields = {0};
  auto reader = orc::OrcReader::Open(fs_.get(), last_path_, read_options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto batch = std::move((*reader)->CreateBatch()).ValueOrDie();
  std::set<int32_t> b_codes;
  while (*(*reader)->NextBatch(batch.get())) {
    auto* keys = batch->BytesCol(0);
    ASSERT_NE(keys->dictionary, nullptr);
    for (int i = 0; i < batch->size; ++i) {
      int slot = keys->is_repeating ? 0 : i;
      if (keys->GetView(slot) == "b") b_codes.insert(keys->codes[slot]);
    }
  }
  ASSERT_EQ(b_codes.size(), 2u);

  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT k, COUNT(*) AS c, SUM(v) AS sv, SUM(d) AS sd, MIN(s) AS mn "
      "FROM t GROUP BY k");
  ASSERT_EQ(out.size(), 3u);
  ExpectSameInBothEngines(
      "SELECT s, g, COUNT(*) AS c FROM t GROUP BY s, g");
}

TEST_F(VecAggEdgeTest, DictionaryAndDirectFilesAgree) {
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({Value::String("key" + std::to_string(i % 5)),
                    Value::Int(i % 2), Value::Int(i), Value::Double(i * 0.3),
                    Value::String("v" + std::to_string(i % 40))});
  }
  AddOrcFile("t", kEdgeSchema, rows);  // Dictionary-encoded strings.
  orc::OrcWriterOptions direct;
  direct.dictionary_key_ratio = 0;  // Direct-encoded strings.
  AddOrcFile("t", kEdgeSchema, rows, direct);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT k, g, COUNT(*) AS c, SUM(v) AS sv, MAX(s) AS mx "
      "FROM t GROUP BY k, g");
  ASSERT_EQ(out.size(), 10u);
  // Each group's count covers both files.
  EXPECT_NE(out[0].find("|600|"), std::string::npos) << out[0];
}

TEST_F(VecAggEdgeTest, ManyGroupsGrowTheTable) {
  std::vector<Row> rows;
  for (int i = 0; i < 12000; ++i) {
    int g = i % 3000;
    rows.push_back({Value::String("p" + std::to_string(g % 7)), Value::Int(g),
                    Value::Int(i), Value::Double(i * 0.01), Value::Null()});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT k, g, COUNT(*) AS c, SUM(v) AS sv, SUM(d) AS sd "
      "FROM t GROUP BY k, g");
  EXPECT_EQ(out.size(), 3000u);
  out = ExpectSameInBothEngines("SELECT g, MAX(v) AS m FROM t GROUP BY g");
  EXPECT_EQ(out.size(), 3000u);
}

TEST_F(VecAggEdgeTest, StringMinMaxAndIntSumWraparound) {
  const int64_t big = std::numeric_limits<int64_t>::max() - 10;
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({Value::String(i % 2 ? "odd" : "even"), Value::Int(0),
                    Value::Int(big - i), Value::Double(-0.0),
                    Value::String(std::string(1 + i % 4, 'a' + i % 26))});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT k, SUM(v) AS sv, MIN(s) AS mn, MAX(s) AS mx, MIN(d) AS md "
      "FROM t GROUP BY k");
  ASSERT_EQ(out.size(), 2u);
  ExpectSameInBothEngines(
      "SELECT SUM(v) AS sv, MIN(s) AS mn, MAX(s) AS mx FROM t WHERE g >= 0");
}

TEST_F(VecAggEdgeTest, DoubleMinMaxKeepValueCompareOrder) {
  // NaN compares equal to everything and -0.0 == 0.0 under Value::Compare,
  // so whichever of them a group sees first sticks; each group below sees
  // the special values in a different order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double cycle[] = {0.0, -0.0, nan, 1.5, -2.5, -0.0, nan, 0.0};
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    int g = i % 5;
    rows.push_back({Value::String("k"), Value::Int(g), Value::Int(i),
                    Value::Double(cycle[(i / 5 + g) % 8]), Value::Null()});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT g, MIN(d) AS mn, MAX(d) AS mx FROM t GROUP BY g");
  EXPECT_EQ(out.size(), 5u);
}

TEST_F(VecAggEdgeTest, KeylessAggregateOverEmptyInputEmitsZeroPartial) {
  // Index statistics cannot prune g = 0 (every group spans -5..5) and late
  // materialization is off, so batches reach the pipeline and the filter
  // empties every one of them.
  late_materialization_ = false;
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value::String("k"), Value::Int(i % 2 ? 5 : -5),
                    Value::Int(i), Value::Double(i), Value::String("s")});
  }
  AddOrcFile("t", kEdgeSchema, rows);
  std::vector<std::string> out = ExpectSameInBothEngines(
      "SELECT COUNT(*) AS c, COUNT(v) AS cv, SUM(v) AS sv, AVG(d) AS ad, "
      "MIN(s) AS mn, MAX(d) AS mx FROM t WHERE g = 0");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "0|0|NULL|NULL|NULL|NULL|");
}

}  // namespace
}  // namespace minihive::vec
