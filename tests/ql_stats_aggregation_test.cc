// Tests for the §4.2 metadata-only aggregation path: simple aggregates over
// unfiltered ORC tables are answered from file statistics with zero jobs,
// and the answers match a real scan.

#include <gtest/gtest.h>

#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

class StatsAggregationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    std::vector<Row> rows;
    for (int i = 0; i < 5000; ++i) {
      rows.push_back({Value::Int(i),
                      i % 11 == 0 ? Value::Null() : Value::Double(i * 0.25),
                      Value::String(std::string("s").append(std::to_string(i % 13)))});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orc_t",
                    *TypeDescription::Parse(
                        "struct<a:bigint,b:double,c:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kFastLz, rows, 3)
                    .ok());
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "text_t",
                    *TypeDescription::Parse(
                        "struct<a:bigint,b:double,c:string>"),
                    formats::FormatKind::kTextFile,
                    codec::CompressionKind::kNone, rows, 3)
                    .ok());
  }

  QueryResult Execute(const std::string& sql, bool stats_enabled) {
    DriverOptions options;
    options.stats_aggregation = stats_enabled;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).ValueOrDie() : QueryResult();
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(StatsAggregationTest, AnswersWithoutRunningJobs) {
  const std::string sql =
      "SELECT COUNT(*), COUNT(b), MIN(a), MAX(a), SUM(a), AVG(b), MIN(c), "
      "MAX(c) FROM orc_t";
  fs_->stats().Reset();
  QueryResult fast = Execute(sql, true);
  EXPECT_EQ(fast.num_jobs, 0) << "should be answered from metadata";
  // Only file tails were read.
  uint64_t tail_bytes = fs_->stats().bytes_read.load();
  EXPECT_LT(tail_bytes, 64u * 1024) << "a stats answer must not scan data";

  QueryResult slow = Execute(sql, false);
  EXPECT_GT(slow.num_jobs, 0);
  ASSERT_EQ(fast.rows.size(), 1u);
  ASSERT_EQ(slow.rows.size(), 1u);
  for (size_t c = 0; c < fast.rows[0].size(); ++c) {
    if (fast.rows[0][c].is_double()) {
      EXPECT_NEAR(fast.rows[0][c].AsDouble(), slow.rows[0][c].AsDouble(),
                  1e-6)
          << "column " << c;
    } else {
      EXPECT_EQ(fast.rows[0][c].Compare(slow.rows[0][c]), 0) << "column " << c;
    }
  }
  EXPECT_EQ(fast.rows[0][0].AsInt(), 5000);
  EXPECT_EQ(fast.rows[0][1].AsInt(), 5000 - 455);  // 455 NULLs (i % 11 == 0).
}

TEST_F(StatsAggregationTest, FilteredQueryStillScans) {
  QueryResult result = Execute("SELECT COUNT(*) FROM orc_t WHERE a > 100",
                               true);
  EXPECT_GT(result.num_jobs, 0);
  EXPECT_EQ(result.rows[0][0].AsInt(), 4899);
}

TEST_F(StatsAggregationTest, GroupedQueryStillScans) {
  QueryResult result =
      Execute("SELECT c, COUNT(*) FROM orc_t GROUP BY c", true);
  EXPECT_GT(result.num_jobs, 0);
  EXPECT_EQ(result.rows.size(), 13u);
}

TEST_F(StatsAggregationTest, NonOrcTableStillScans) {
  QueryResult result = Execute("SELECT COUNT(*) FROM text_t", true);
  EXPECT_GT(result.num_jobs, 0);
  EXPECT_EQ(result.rows[0][0].AsInt(), 5000);
}

TEST_F(StatsAggregationTest, ComputedAggregateArgumentStillScans) {
  QueryResult result = Execute("SELECT SUM(a * 2) FROM orc_t", true);
  EXPECT_GT(result.num_jobs, 0);
  EXPECT_EQ(result.rows[0][0].AsInt(), 2LL * 4999 * 5000 / 2);
}

TEST_F(StatsAggregationTest, ExpressionOverAggregates) {
  // Final projections over the aggregates still evaluate (MAX - MIN).
  QueryResult result =
      Execute("SELECT MAX(a) - MIN(a) AS spread FROM orc_t", true);
  EXPECT_EQ(result.num_jobs, 0);
  EXPECT_EQ(result.rows[0][0].AsInt(), 4999);
}

}  // namespace
}  // namespace minihive::ql
