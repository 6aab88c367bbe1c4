#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "common/json.h"
#include "datagen/tpcds.h"
#include "datagen/tpch.h"
#include "exec/operators.h"
#include "mr/shuffle_record.h"
#include "orc/reader.h"
#include "orc/writer.h"
#include "ql/driver.h"
#include "vec/vectorized_pipeline.h"

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

  /// Every map task of the query ran on batches (none fell back).
  static void ExpectAllMapTasksVectorized(const QueryResult& result) {
    EXPECT_GT(result.counters.map_tasks, 0);
    EXPECT_EQ(result.counters.vectorized_map_tasks,
              static_cast<uint64_t>(result.counters.map_tasks));
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
  ExpectAllMapTasksVectorized(vec_mode);
  EXPECT_EQ(row_mode.counters.vectorized_map_tasks, 0u);
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
  EXPECT_GT(vec_mode.counters.map_tasks, 0);
  EXPECT_EQ(vec_mode.counters.vectorized_map_tasks, 0u);
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
  ExpectAllMapTasksVectorized(vec_mode);
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

  QueryResult Run(const std::string& sql, bool vectorized,
                  bool mapjoin = true) {
    DriverOptions options;
    options.vectorized_execution = vectorized;
    options.mapjoin_conversion = mapjoin;
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
                    Value::String(std::string("v").append(std::to_string(i % 40)))});
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
    rows.push_back({Value::String(std::string("p").append(std::to_string(g % 7))), Value::Int(g),
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

// ---- Vectorized map join. The fact table "f" is the probe side of every
// join below (it is far larger than each dimension); each query runs in
// both engines and must give identical rows.

constexpr char kFactSchema[] =
    "struct<fk:bigint,fd:double,fs:string,fv:bigint>";

class VecMapJoinTest : public VecAggEdgeTest {
 protected:
  void SetUp() override {
    VecAggEdgeTest::SetUp();
    // fk: 0..59 (the dimensions know 0..39), NULL every 13th row, the int64
    // extremes (a wrong cast of 1e19 lands on one of them; INT64_MAX as a
    // double is 2^63) and +-9.2e18. fd: fk as a double (-0.0 for some
    // zeros), or 2.5. fs: "s0".."s49", the empty string, or NULL.
    std::vector<Row> fact;
    for (int i = 0; i < 6000; ++i) {
      Value fk = i % 13 == 0 ? Value::Null() : Value::Int(i % 60);
      if (i == 1) fk = Value::Int(std::numeric_limits<int64_t>::min());
      if (i == 2) fk = Value::Int(std::numeric_limits<int64_t>::max());
      if (i == 3) fk = Value::Int(9200000000000000000);
      if (i == 4) fk = Value::Int(-9200000000000000000);
      fact.push_back(
          {fk,
           i % 7 == 0      ? Value::Double(2.5)
           : i % 120 == 60 ? Value::Double(-0.0)
                           : Value::Double(i % 60),
           i % 17 == 0   ? Value::Null()
           : i % 11 == 0 ? Value::String("")
                         : Value::String("s" + std::to_string(i % 50)),
           Value::Int(i)});
    }
    AddOrcFile("f", kFactSchema, {fact.begin(), fact.begin() + 3000});
    AddOrcFile("f", kFactSchema, {fact.begin() + 3000, fact.end()});

    std::vector<Row> dl, dd, ds, dg, dc, dup;
    for (int k = 0; k < 40; ++k) {
      const std::string name = "n" + std::to_string(k);
      dl.push_back({Value::Int(k),
                    k % 5 == 0 ? Value::Null() : Value::String(name),
                    Value::Double(k * 1.5), Value::Int(k % 4)});
      // The build key of d0 is -0.0.
      dd.push_back({Value::Double(k == 0 ? -0.0 : k),
                    Value::String("d" + std::to_string(k))});
      ds.push_back({Value::String("s" + std::to_string(k)), Value::Int(k)});
      dc.push_back({Value::String(name), Value::Int(100 + k)});
      dup.push_back({Value::Int(k), Value::String("first")});
      dup.push_back({Value::Int(k), Value::String("second")});
    }
    for (int g = 0; g < 3; ++g) {
      dg.push_back({Value::Int(g), Value::String("g" + std::to_string(g))});
    }
    dl.push_back({Value::Null(), Value::String("null-key"), Value::Double(0),
                  Value::Int(0)});
    dd.push_back({Value::Double(1e19), Value::String("huge")});
    dd.push_back({Value::Double(2.5), Value::String("half")});
    dd.push_back({Value::Double(9.2e18), Value::String("p92")});
    dd.push_back({Value::Double(-9.2e18), Value::String("m92")});
    dd.push_back({Value::Double(std::ldexp(1.0, 63)), Value::String("two63")});
    ds.push_back({Value::String(""), Value::Int(1000)});
    ds.push_back({Value::Null(), Value::Int(2000)});
    AddOrcFile("dl", "struct<lk:bigint,lname:string,lx:double,lgrp:bigint>",
               dl);
    AddOrcFile("dd", "struct<dk:double,dname:string>", dd);
    AddOrcFile("ds", "struct<sk:string,sv:bigint>", ds);
    AddOrcFile("dg", "struct<gk:bigint,gname:string>", dg);
    AddOrcFile("dc", "struct<ck:string,cv:bigint>", dc);
    AddOrcFile("dup", "struct<uk:bigint,uname:string>", dup);
  }

  /// Runs `sql` (one job over "f") in both engines and expects identical
  /// rows, and the same rows again from the reduce join (map-join
  /// conversion off), which groups keys by their shuffle bytes. Every map
  /// task of the vectorized run ran on batches when `vectorizes`; none did
  /// otherwise (the map join fell back).
  std::vector<std::string> ExpectJoinSameInBothEngines(const std::string& sql,
                                                       bool vectorizes = true) {
    QueryResult row_mode = Run(sql, false);
    QueryResult vec_mode = Run(sql, true);
    QueryResult reduce_join = Run(sql, true, /*mapjoin=*/false);
    EXPECT_EQ(vec_mode.num_jobs, 1) << sql;
    EXPECT_EQ(vec_mode.counters.map_tasks, 2) << sql;
    EXPECT_EQ(vec_mode.counters.vectorized_map_tasks, vectorizes ? 2u : 0u)
        << sql;
    // The reduce join scans the build table in map tasks of its own.
    EXPECT_GT(reduce_join.counters.map_tasks, 2u) << sql;
    std::vector<std::string> rows = Exact(row_mode);
    EXPECT_EQ(rows, Exact(vec_mode)) << sql;
    EXPECT_EQ(rows, Exact(reduce_join)) << sql;
    return rows;
  }

  static bool Contains(const std::vector<std::string>& rows,
                       const std::string& needle) {
    for (const std::string& row : rows) {
      if (row.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

TEST_F(VecMapJoinTest, LongKeysWithNullsAndMisses) {
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT lname, COUNT(*) AS c, SUM(fv) AS s, MIN(lx) AS mx "
      "FROM f JOIN dl ON fk = lk GROUP BY lname");
  EXPECT_EQ(out.size(), 33u);  // 32 names and the NULL one.
  EXPECT_FALSE(Contains(out, "null-key"));
  // Row by row, through every column of the join's output.
  out = ExpectJoinSameInBothEngines(
      "SELECT fv, fk, lk, lname, lx, fs FROM f JOIN dl ON fk = lk "
      "WHERE fv < 700");
  EXPECT_GT(out.size(), 300u);
}

TEST_F(VecMapJoinTest, BigintProbesDoubleBuildKeys) {
  // 3 == 3.0 and 0 == -0.0 match; 2.5 and 1e19 have no bigint twin;
  // +-9.2e18 match their exact bigints and 2^63 matches INT64_MAX, which
  // the planner's CAST(fk AS DOUBLE) rounds to 2^63. A double probe key
  // (fd) matches 2.5 too, and its -0.0 matches d0.
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT dname, COUNT(*) AS c FROM f JOIN dd ON fk = dk GROUP BY dname");
  EXPECT_EQ(out.size(), 43u);
  EXPECT_TRUE(Contains(out, "d0|"));
  EXPECT_TRUE(Contains(out, "p92|1|"));
  EXPECT_TRUE(Contains(out, "m92|1|"));
  EXPECT_TRUE(Contains(out, "two63|1|"));
  EXPECT_FALSE(Contains(out, "huge"));
  EXPECT_FALSE(Contains(out, "half"));
  out = ExpectJoinSameInBothEngines(
      "SELECT dname, COUNT(*) AS c FROM f JOIN dd ON fd = dk GROUP BY dname");
  EXPECT_EQ(out.size(), 41u);
  EXPECT_TRUE(Contains(out, "half|"));
  EXPECT_FALSE(Contains(out, "huge"));
  // A computed double probe key against bigint build keys.
  out = ExpectJoinSameInBothEngines(
      "SELECT lname, COUNT(*) AS c FROM f JOIN dl ON fk * 1.0 = lk "
      "GROUP BY lname");
  EXPECT_EQ(out.size(), 33u);
}

TEST_F(VecMapJoinTest, StringKeysEmptyIsNotNull) {
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT sv, COUNT(*) AS c FROM f JOIN ds ON fs = sk GROUP BY sv");
  EXPECT_TRUE(Contains(out, "1000|"));   // "" matches "".
  EXPECT_FALSE(Contains(out, "2000|"));  // NULL matches nothing.
  EXPECT_EQ(out.size(), 41u);
}

TEST_F(VecMapJoinTest, RepeatingProbeKey) {
  // A file whose string key has one dictionary entry: every batch's probe
  // column is is_repeating.
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({Value::Int(i % 40), Value::Double(i), Value::String("s7"),
                    Value::Int(i)});
  }
  AddOrcFile("r", kFactSchema, rows);
  std::vector<Row> miss(rows);
  for (Row& row : miss) row[2] = Value::String("s99");
  AddOrcFile("r", kFactSchema, miss);
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT sv, COUNT(*) AS c, SUM(fv) AS s FROM r JOIN ds ON fs = sk "
      "GROUP BY sv");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].substr(0, 7), "7|3000|");
}

TEST_F(VecMapJoinTest, FilteredBatchesAndEmptyMatches) {
  // A fact filter runs first, so the probe sees selected[] in use.
  ExpectJoinSameInBothEngines(
      "SELECT lname, COUNT(*) AS c FROM f JOIN dl ON fk = lk "
      "WHERE fv > 1000 AND fd < 30 GROUP BY lname");
  // The build side is empty: the probe rejects every row.
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT COUNT(*) AS c, SUM(fv) AS s FROM f JOIN dl ON fk = lk "
      "WHERE lx > 1000");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "0|NULL|");
}

TEST_F(VecMapJoinTest, ChainedProbesOnGatheredColumns) {
  // The second probe's key is a build value the first probe gathered: a
  // string (handed over as a dictionary) and a bigint.
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT cv, COUNT(*) AS c, SUM(fv) AS s FROM f JOIN dl ON fk = lk "
      "JOIN dc ON lname = ck GROUP BY cv");
  EXPECT_EQ(out.size(), 32u);
  out = ExpectJoinSameInBothEngines(
      "SELECT gname, lname, COUNT(*) AS c FROM f JOIN dl ON fk = lk "
      "JOIN dg ON lgrp = gk GROUP BY gname, lname");
  // 30 keys have an lgrp of 0..2 (3 has no group); the 6 with a NULL
  // name fold into one NULL-name row per group.
  EXPECT_EQ(out.size(), 27u);
}

TEST_F(VecMapJoinTest, OuterAndDuplicateKeySidesFallBack) {
  std::vector<std::string> out = ExpectJoinSameInBothEngines(
      "SELECT lname, COUNT(*) AS c FROM f LEFT OUTER JOIN dl ON fk = lk "
      "GROUP BY lname",
      /*vectorizes=*/false);
  EXPECT_EQ(out.size(), 33u);
  out = ExpectJoinSameInBothEngines(
      "SELECT uname, COUNT(*) AS c FROM f JOIN dup ON fk = uk GROUP BY uname",
      /*vectorizes=*/false);
  EXPECT_EQ(out.size(), 2u);
  // The profile names the reason on each map task.
  QueryResult vec_mode = Run(
      "EXPLAIN PROFILE SELECT uname, COUNT(*) AS c FROM f JOIN dup "
      "ON fk = uk GROUP BY uname",
      true);
  EXPECT_NE(vec_mode.plan_text.find(
                "row_mode=vectorized map join: duplicate build keys in dup"),
            std::string::npos)
      << vec_mode.plan_text;
}

/// Captures what a ReduceSink emits.
class CaptureEmitter : public mr::ShuffleEmitter {
 public:
  Status Emit(std::string_view key, std::string_view value,
              int tag) override {
    (void)key;
    (void)tag;
    rows.emplace_back();
    return mr::DecodeValues(value, &rows.back());
  }
  std::vector<Row> rows;
};

// SQL always puts an IS NOT NULL filter on an inner join's probe keys, so
// only a hand-built pipeline feeds the probe NULL keys and dense batches
// (selected[] not in use), with a column or a constant (is_repeating) key.
TEST_F(VecMapJoinTest, ProbeOfNullKeysInDenseBatches) {
  using exec::Expr;
  using exec::OpDesc;
  using exec::OpKind;
  const ql::TableDesc* fact = *catalog_->GetTable("f");
  struct Case {
    const char* name;
    exec::ExprPtr fact_filter;  // Null: the probe sees dense batches.
    exec::ExprPtr build_filter;
    exec::ExprPtr probe_key;
  };
  const exec::ExprPtr fk = Expr::Column(0, TypeKind::kBigInt);
  const Case cases[] = {
      {"dense", nullptr, nullptr, fk},
      {"filtered",
       Expr::Binary(exec::ExprKind::kGt, Expr::Column(3, TypeKind::kBigInt),
                    Expr::Literal(Value::Int(2500), TypeKind::kBigInt)),
       nullptr, fk},
      {"empty build", nullptr,
       Expr::Binary(exec::ExprKind::kLt, Expr::Column(2, TypeKind::kDouble),
                    Expr::Literal(Value::Double(-1), TypeKind::kDouble)),
       fk},
      {"constant key", nullptr, nullptr,
       Expr::Literal(Value::Int(7), TypeKind::kBigInt)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // TS(f) [-> FIL] -> MAPJOIN(fk = dl.lk) -> RS(every output column).
    exec::OpDescPtr scan = exec::MakeOp(OpKind::kTableScan);
    scan->table_name = "f";
    scan->table_width = 4;
    scan->output_width = 4;
    exec::OpDescPtr tail = scan;
    if (c.fact_filter != nullptr) {
      exec::OpDescPtr filter = exec::MakeOp(OpKind::kFilter);
      filter->predicate = c.fact_filter;
      filter->output_width = 4;
      OpDesc::Connect(tail, filter);
      tail = filter;
    }
    exec::OpDescPtr mapjoin = exec::MakeOp(OpKind::kMapJoin);
    OpDesc::MapJoinSmallSide side;
    side.table_name = "dl";
    side.build_filter = c.build_filter;
    side.build_keys = {Expr::Column(0, TypeKind::kBigInt)};
    side.build_values = {Expr::Column(1, TypeKind::kString),
                         Expr::Column(2, TypeKind::kDouble)};
    mapjoin->mapjoin_small_sides.push_back(side);
    mapjoin->mapjoin_probe_keys = {c.probe_key};
    mapjoin->mapjoin_big_values = {Expr::Column(3, TypeKind::kBigInt),
                                   Expr::Column(2, TypeKind::kString)};
    mapjoin->mapjoin_big_tag = 1;  // Output: fk ++ (lname, lx) ++ (fv, fs).
    mapjoin->output_width = 5;
    OpDesc::Connect(tail, mapjoin);
    exec::OpDescPtr rs = exec::MakeOp(OpKind::kReduceSink);
    const TypeKind types[] = {TypeKind::kBigInt, TypeKind::kString,
                              TypeKind::kDouble, TypeKind::kBigInt,
                              TypeKind::kString};
    for (int i = 0; i < 5; ++i) {
      rs->sink_values.push_back(Expr::Column(i, types[i]));
    }
    rs->output_width = 5;
    OpDesc::Connect(mapjoin, rs);

    exec::TableResolver resolve =
        [this](const std::string& name) -> Result<exec::SmallTableSource> {
      const ql::TableDesc* table = *catalog_->GetTable(name);
      exec::SmallTableSource source;
      source.paths = catalog_->TableFiles(*table);
      source.format = table->format;
      source.schema = table->schema;
      return source;
    };
    auto built = exec::BuildMapJoinTables(fs_.get(), *mapjoin, resolve,
                                          /*late_materialization=*/false);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>> tables = {
        {mapjoin->id, *built}};

    std::vector<std::string> out[2];
    for (int vectorized = 0; vectorized < 2; ++vectorized) {
      CaptureEmitter emitter;
      mr::JobCounters counters;
      exec::TaskContext ctx;
      ctx.fs = fs_.get();
      ctx.task_suffix = "m-0";
      ctx.emitter = &emitter;
      ctx.mapjoin_tables = &tables;
      ctx.counters = &counters;
      for (const std::string& path : catalog_->TableFiles(*fact)) {
        formats::ReadOptions read;
        if (vectorized) {
          Status s = RunVectorizedMapPipeline(scan.get(), fact->schema,
                                              fact->format, path, read, &ctx);
          ASSERT_TRUE(s.ok()) << s.ToString();
          continue;
        }
        exec::OperatorArena arena;
        auto root = exec::BuildOperatorTree(scan.get(), &arena);
        ASSERT_TRUE(root.ok());
        ASSERT_TRUE((*root)->Init(&ctx).ok());
        auto reader = formats::GetFileFormat(fact->format)
                          ->OpenReader(fs_.get(), path, fact->schema, read);
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        Row row;
        while (*(*reader)->Next(&row)) {
          ASSERT_TRUE((*root)->Process(row, 0).ok());
        }
        ASSERT_TRUE((*root)->Finish().ok());
      }
      EXPECT_EQ(counters.vectorized_map_tasks, vectorized ? 2u : 0u);
      QueryResult result;
      result.rows = std::move(emitter.rows);
      out[vectorized] = Exact(result);
    }
    EXPECT_EQ(out[0], out[1]);
    if (c.build_filter != nullptr) {
      EXPECT_TRUE(out[1].empty());
    } else {
      EXPECT_GT(out[1].size(), 1000u);
    }
  }
}

// The tpcds_join benchmark's query shapes: every map task over the fact
// table runs on batches, through its map-join probes, and the profile
// shows batches on each TS, FIL and MAPJOIN of the fact scans' map-side
// chains.
TEST_F(VecAggEdgeTest, TpcdsFactScansVectorizeThroughMapJoins) {
  datagen::TpcdsOptions data;
  data.store_sales_rows = 20000;
  data.format = formats::FormatKind::kOrcFile;
  data.compression = codec::CompressionKind::kFastLz;
  ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", data).ok());
  const char* const queries[] = {
      // Q27.
      "SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS "
      "agg2, AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 "
      "FROM tpcds_store_sales "
      "JOIN tpcds_customer_demographics ON tpcds_store_sales.ss_cdemo_sk = "
      "  tpcds_customer_demographics.cd_demo_sk "
      "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
      "  tpcds_date_dim.d_date_sk "
      "JOIN tpcds_store ON tpcds_store_sales.ss_store_sk = "
      "  tpcds_store.s_store_sk "
      "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
      "WHERE cd_gender = 'M' AND cd_marital_status = 'S' "
      "  AND cd_education_status = 'College' AND d_year = 2000 "
      "GROUP BY i_item_id ORDER BY i_item_id",
      // Q95.
      "SELECT ss.ss_store_sk AS store, COUNT(*) AS cnt, "
      "       SUM(ss.ss_net_profit) AS profit "
      "FROM tpcds_store_sales ss "
      "JOIN tpcds_store ON ss.ss_store_sk = tpcds_store.s_store_sk "
      "JOIN (SELECT s.ss_ticket_number AS tn, AVG(s.ss_net_profit) AS ap "
      "      FROM tpcds_store_sales s GROUP BY s.ss_ticket_number) agg "
      "  ON ss.ss_ticket_number = agg.tn "
      "JOIN tpcds_store_sales ss2 ON agg.tn = ss2.ss_ticket_number "
      "WHERE ss.ss_net_profit > agg.ap AND ss2.ss_quantity > 97 "
      "  AND s_state != 'ZZ' "
      "GROUP BY ss.ss_store_sk",
      // Q3.
      "SELECT d_year, i_category, SUM(ss_sales_price) AS sum_agg, "
      "COUNT(*) AS cnt FROM tpcds_store_sales "
      "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
      "  tpcds_date_dim.d_date_sk "
      "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
      "WHERE d_moy = 11 AND i_current_price > 50 "
      "GROUP BY d_year, i_category ORDER BY d_year, i_category",
  };
  size_t batch_sinks = 0;
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    // The perfbench tpcds_join configuration, profiled.
    DriverOptions options;
    options.vectorized_execution = true;
    options.correlation_optimizer = true;
    options.mapjoin_threshold_bytes = 1 << 20;
    options.job_startup_ms = 0;
    options.num_workers = 4;
    options.enable_profiling = true;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto vec_mode = driver.Execute(sql);
    ASSERT_TRUE(vec_mode.ok()) << vec_mode.status().ToString();
    ASSERT_NE(vec_mode->profile, nullptr);
    const std::string profile = vec_mode->profile->Render();

    // Every map task over the fact table ran on batches; only tasks over
    // intermediate (non-ORC) files ran row by row.
    uint64_t fact_tasks = 0;
    std::istringstream lines(profile);
    for (std::string line; std::getline(lines, line);) {
      if (line.find("split=/warehouse/tpcds_store_sales/") ==
          std::string::npos) {
        continue;
      }
      ++fact_tasks;
      EXPECT_EQ(line.find("row_mode="), std::string::npos) << line;
    }
    EXPECT_GT(fact_tasks, 0u);
    EXPECT_EQ(vec_mode->counters.vectorized_map_tasks, fact_tasks);

    // The map-side chain of each fact scan in the plan (one child per
    // line, two more spaces of indent each), up to its GroupBy or sink.
    std::vector<std::string> chain_ops;
    lines = std::istringstream(vec_mode->plan_text);
    size_t chain_indent = std::string::npos;
    size_t mapjoins = 0;
    for (std::string line; std::getline(lines, line);) {
      const size_t indent = line.find_first_not_of(' ');
      const std::string op = line.substr(indent, line.find(' ', indent) - indent);
      if (op.rfind("TS_", 0) == 0 &&
          line.find("table=tpcds_store_sales") != std::string::npos) {
        chain_indent = indent;
      } else if (chain_indent == std::string::npos ||
                 indent != chain_indent + 2 ||
                 (op.rfind("FIL_", 0) != 0 && op.rfind("MAPJOIN_", 0) != 0 &&
                  op.rfind("RS_", 0) != 0)) {
        chain_indent = std::string::npos;
        continue;
      } else {
        chain_indent = indent;
        mapjoins += op.rfind("MAPJOIN_", 0) == 0;
        // A sink straight after the batch stages runs on batches too.
        batch_sinks += op.rfind("RS_", 0) == 0;
      }
      std::string label = op;
      label[label.find('_')] = '#';
      chain_ops.push_back("op:" + label + " ");
    }
    EXPECT_GT(mapjoins, 0u) << vec_mode->plan_text;
    for (const std::string& label : chain_ops) {
      const size_t at = profile.find(label);
      ASSERT_NE(at, std::string::npos) << label << "\n" << profile;
      const std::string line = profile.substr(at, profile.find('\n', at) - at);
      EXPECT_NE(line.find("batches="), std::string::npos) << line;
    }

    options.vectorized_execution = false;
    Driver row_driver(fs_.get(), catalog_.get(), options);
    auto row_mode = row_driver.Execute(sql);
    ASSERT_TRUE(row_mode.ok()) << row_mode.status().ToString();
    EXPECT_EQ(Exact(*row_mode), Exact(*vec_mode));
  }
  // Q95's ss branch ends in a ReduceSink right after its map join.
  EXPECT_GT(batch_sinks, 0u);
}

// A vectorized map-side hash aggregation flushes its partials at the
// map_aggr_flush_entries bound, as the row engine does, so its table never
// holds more groups than the bound; the reduce merge re-aggregates the
// duplicates.
TEST_F(VecAggEdgeTest, MapAggregationFlushesAtItsBound) {
  datagen::TpcdsOptions data;
  data.store_sales_rows = 20000;
  data.format = formats::FormatKind::kOrcFile;
  ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", data).ok());
  const std::string sql =
      "SELECT ss_ticket_number, COUNT(*) AS c FROM tpcds_store_sales "
      "GROUP BY ss_ticket_number";
  // Row mode and vectorized with the bound, then vectorized without one.
  QueryResult results[3];
  for (int run = 0; run < 3; ++run) {
    DriverOptions options;
    options.vectorized_execution = run > 0;
    options.map_aggr_flush_entries = run < 2 ? 100 : 0;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results[run] = std::move(result).ValueOrDie();
  }
  const QueryResult& vec_mode = results[1];
  const uint64_t groups = vec_mode.rows.size();
  EXPECT_EQ(groups, 6667u);
  EXPECT_GT(vec_mode.counters.map_output_records.load(), groups);
  // Each flush re-emits the groups that span it: more partials than the
  // one per group per task of an unbounded table.
  EXPECT_GT(vec_mode.counters.map_output_records.load(),
            results[2].counters.map_output_records.load());
  EXPECT_GT(vec_mode.counters.map_tasks, 0);
  EXPECT_EQ(vec_mode.counters.vectorized_map_tasks.load(),
            static_cast<uint64_t>(vec_mode.counters.map_tasks));
  EXPECT_EQ(Exact(results[0]), Exact(vec_mode));
}

}  // namespace
}  // namespace minihive::vec
