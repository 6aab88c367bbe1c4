#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

/// Reproduces the running example of the paper's §5 (Figure 4): two small
/// dimension tables, three big tables, a grouped subquery, and a chain of
/// joins all keyed on the same column.
class CorrelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    Random rng(7);

    auto big_schema = *TypeDescription::Parse(
        "struct<key:bigint,skey1:bigint,skey2:bigint,"
        "value1:double,value2:double>");
    auto make_big = [&](const std::string& name, int rows, uint64_t seed) {
      Random local(seed);
      std::vector<Row> data;
      for (int i = 0; i < rows; ++i) {
        data.push_back({Value::Int(local.Range(0, 199)),
                        Value::Int(local.Range(0, 9)),
                        Value::Int(local.Range(0, 9)),
                        Value::Double(local.Range(0, 1000) * 0.5),
                        Value::Double(local.Range(0, 100) * 0.25)});
      }
      ASSERT_TRUE(datagen::CreateAndLoad(catalog_.get(), name, big_schema,
                                         formats::FormatKind::kTextFile,
                                         codec::CompressionKind::kNone, data,
                                         2)
                      .ok());
    };
    make_big("big1", 3000, 1);
    make_big("big2", 3000, 2);
    make_big("big3", 3000, 3);

    auto small_schema =
        *TypeDescription::Parse("struct<key:bigint,value1:string>");
    for (const std::string name : {"small1", "small2"}) {
      std::vector<Row> data;
      for (int i = 0; i < 10; ++i) {
        data.push_back(
            {Value::Int(i), Value::String(name + "-" + std::to_string(i))});
      }
      ASSERT_TRUE(datagen::CreateAndLoad(catalog_.get(), name, small_schema,
                                         formats::FormatKind::kTextFile,
                                         codec::CompressionKind::kNone, data)
                      .ok());
    }
  }

  static std::vector<std::string> Canonical(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) s += v.ToString() + "|";
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  QueryResult MustExecute(const std::string& sql, DriverOptions options) {
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  // The paper's Figure 4(a) query (with qualified subquery columns).
  const std::string kRunningExample =
      "SELECT big1.key, small1.value1, small2.value1, big2.value1, sq1.total "
      "FROM big1 "
      "JOIN small1 ON (big1.skey1 = small1.key) "
      "JOIN small2 ON (big1.skey2 = small2.key) "
      "JOIN (SELECT big2.key AS key, AVG(big3.value1) AS avg, "
      "             SUM(big3.value2) AS total "
      "      FROM big2 JOIN big3 ON (big2.key = big3.key) "
      "      GROUP BY big2.key) sq1 ON (big1.key = sq1.key) "
      "JOIN big2 ON (sq1.key = big2.key) "
      "WHERE big2.value1 > sq1.avg";

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CorrelationTest, GroupByAfterJoinMergesIntoOneJob) {
  // A simple job-flow correlation: join on key, then aggregate on the same
  // key. Without CO: 2 MR jobs; with CO: 1.
  const std::string sql =
      "SELECT big1.key, COUNT(*) AS cnt, SUM(big2.value1) AS total "
      "FROM big1 JOIN big2 ON big1.key = big2.key GROUP BY big1.key";
  DriverOptions off;
  off.mapjoin_conversion = false;
  off.correlation_optimizer = false;
  QueryResult baseline = MustExecute(sql, off);

  DriverOptions on = off;
  on.correlation_optimizer = true;
  QueryResult optimized = MustExecute(sql, on);

  EXPECT_EQ(Canonical(baseline), Canonical(optimized));
  EXPECT_LT(optimized.num_jobs, baseline.num_jobs);
  EXPECT_EQ(optimized.num_jobs, 1);
}

TEST_F(CorrelationTest, InputCorrelationDedupesSharedTable) {
  // big2 joined with an aggregate of itself: same table, same key — the
  // optimizer should scan big2 once (Fig. 5's shared RSOp-4).
  const std::string sql =
      "SELECT big2.key, big2.value1, agg.total "
      "FROM big2 JOIN (SELECT big2.key AS key, SUM(big2.value1) AS total "
      "                FROM big2 GROUP BY big2.key) agg "
      "ON big2.key = agg.key";
  DriverOptions off;
  off.mapjoin_conversion = false;
  off.correlation_optimizer = false;
  QueryResult baseline = MustExecute(sql, off);

  DriverOptions on = off;
  on.correlation_optimizer = true;
  QueryResult optimized = MustExecute(sql, on);

  EXPECT_EQ(Canonical(baseline), Canonical(optimized));
  EXPECT_EQ(optimized.num_jobs, 1);
  EXPECT_GT(baseline.num_jobs, 1);
}

TEST_F(CorrelationTest, RunningExampleAllOptimizerCombinations) {
  // Figure 4's query must produce identical results under every optimizer
  // combination, with strictly fewer jobs as optimizations turn on.
  DriverOptions plain;
  plain.mapjoin_conversion = false;
  plain.merge_maponly_jobs = false;
  plain.correlation_optimizer = false;
  QueryResult base = MustExecute(kRunningExample, plain);
  ASSERT_FALSE(base.rows.empty());

  DriverOptions with_mapjoin = plain;
  with_mapjoin.mapjoin_conversion = true;
  QueryResult mapjoin_result = MustExecute(kRunningExample, with_mapjoin);

  DriverOptions with_merge = with_mapjoin;
  with_merge.merge_maponly_jobs = true;
  QueryResult merge_result = MustExecute(kRunningExample, with_merge);

  DriverOptions with_co = with_merge;
  with_co.correlation_optimizer = true;
  QueryResult co_result = MustExecute(kRunningExample, with_co);

  EXPECT_EQ(Canonical(base), Canonical(mapjoin_result));
  EXPECT_EQ(Canonical(base), Canonical(merge_result));
  EXPECT_EQ(Canonical(base), Canonical(co_result));

  // Job-count staircase (paper: Figure 5 reaches one MapReduce job for the
  // shuffle work; map joins hide in the map phase).
  EXPECT_GT(mapjoin_result.num_map_only_jobs, 0);
  EXPECT_LT(merge_result.num_jobs, mapjoin_result.num_jobs);
  EXPECT_LT(co_result.num_jobs, merge_result.num_jobs);
  EXPECT_EQ(co_result.num_jobs, 1) << co_result.plan_text;
}

TEST_F(CorrelationTest, InputCorrelationSurvivesColumnPruning) {
  // The grouped subquery reads big2.key and the outer join big2.value1:
  // pruning alone would give the two big2 scans different projections.
  // It keeps them identical, so the optimizer still loads big2 once.
  DriverOptions options;
  options.mapjoin_conversion = false;
  options.correlation_optimizer = true;
  Driver driver(fs_.get(), catalog_.get(), options);
  auto plan = driver.Explain(kRunningExample);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = plan->plan_text;
  size_t first = text.find("table=big2 proj=");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("table=big2", first + 1), std::string::npos) << text;
}

TEST_F(CorrelationTest, CorrelationDisabledForOrderBy) {
  // ORDER BY's single-reducer shuffle must not be folded into a
  // correlation; results stay sorted.
  const std::string sql =
      "SELECT big1.key AS k, COUNT(*) AS cnt FROM big1 "
      "JOIN big2 ON big1.key = big2.key GROUP BY big1.key ORDER BY k";
  DriverOptions on;
  on.mapjoin_conversion = false;
  on.correlation_optimizer = true;
  QueryResult result = MustExecute(sql, on);
  ASSERT_FALSE(result.rows.empty());
  for (size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_LE(result.rows[i - 1][0].AsInt(), result.rows[i][0].AsInt());
  }
}

}  // namespace
}  // namespace minihive::ql
