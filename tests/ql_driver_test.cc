#include "ql/driver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "datagen/loader.h"

namespace minihive::ql {
namespace {

/// Shared fixture: a small star-ish schema with deterministic contents.
class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 256 * 1024;
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<Catalog>(fs_.get());

    // orders(o_id, o_custkey, o_amount, o_status)
    std::vector<Row> orders;
    Random rng(42);
    for (int i = 0; i < 2000; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 100),
                        Value::Double((i % 50) * 1.5),
                        Value::String(i % 3 == 0 ? "open" : "done")});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse("struct<o_id:bigint,"
                                            "o_custkey:bigint,o_amount:double,"
                                            "o_status:string>"),
                    formats::FormatKind::kTextFile,
                    codec::CompressionKind::kNone, orders, 3)
                    .ok());

    // customers(c_id, c_name, c_segment)
    std::vector<Row> customers;
    for (int i = 0; i < 100; ++i) {
      customers.push_back({Value::Int(i),
                           Value::String("cust-" + std::to_string(i)),
                           Value::String(i % 4 == 0 ? "gold" : "basic")});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "customers",
                    *TypeDescription::Parse("struct<c_id:bigint,"
                                            "c_name:string,c_segment:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, customers)
                    .ok());
  }

  QueryResult MustExecute(const std::string& sql,
                          DriverOptions options = DriverOptions()) {
    options.num_workers = 2;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(DriverTest, SimpleProjectionAndFilter) {
  QueryResult result = MustExecute(
      "SELECT o_id, o_amount FROM orders WHERE o_id < 5");
  ASSERT_EQ(result.rows.size(), 5u);
  std::vector<int64_t> ids;
  for (const Row& row : result.rows) ids.push_back(row[0].AsInt());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.column_names[1], "o_amount");
}

TEST_F(DriverTest, ArithmeticAndStringPredicates) {
  QueryResult result = MustExecute(
      "SELECT o_id, o_amount * 2 AS double_amount FROM orders "
      "WHERE o_status = 'open' AND o_id BETWEEN 0 AND 8");
  ASSERT_EQ(result.rows.size(), 3u);  // ids 0, 3, 6.
  for (const Row& row : result.rows) {
    EXPECT_EQ(row[0].AsInt() % 3, 0);
    EXPECT_DOUBLE_EQ(row[1].AsDouble(),
                     (row[0].AsInt() % 50) * 1.5 * 2);
  }
}

TEST_F(DriverTest, GlobalAggregation) {
  QueryResult result = MustExecute(
      "SELECT COUNT(*), SUM(o_amount), MIN(o_id), MAX(o_id), AVG(o_amount) "
      "FROM orders");
  ASSERT_EQ(result.rows.size(), 1u);
  const Row& row = result.rows[0];
  EXPECT_EQ(row[0].AsInt(), 2000);
  double expected_sum = 0;
  for (int i = 0; i < 2000; ++i) expected_sum += (i % 50) * 1.5;
  EXPECT_NEAR(row[1].AsDouble(), expected_sum, 1e-6);
  EXPECT_EQ(row[2].AsInt(), 0);
  EXPECT_EQ(row[3].AsInt(), 1999);
  EXPECT_NEAR(row[4].AsDouble(), expected_sum / 2000, 1e-9);
}

TEST_F(DriverTest, GroupByWithHaving) {
  QueryResult result = MustExecute(
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey");
  ASSERT_EQ(result.rows.size(), 100u);
  for (const Row& row : result.rows) {
    EXPECT_EQ(row[1].AsInt(), 20);  // 2000 rows over 100 customers.
  }
}

TEST_F(DriverTest, MapAggrFlushDuplicatesMergeOnReducer) {
  // A tiny hash-flush cap makes the map-side hash GroupBy emit many
  // duplicate partials per key. They are shuffled as they are, and the
  // reducer's merge-partial GroupBy must merge them into the same rows an
  // unbounded hash table gives.
  const char* sql =
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total, "
      "       MIN(o_id) AS lo, MAX(o_id) AS hi "
      "FROM orders GROUP BY o_custkey";
  auto run = [&](int flush_entries) {
    DriverOptions options;
    options.map_aggr_flush_entries = flush_entries;
    return MustExecute(sql, options);
  };
  QueryResult unbounded = run(0);
  QueryResult bounded = run(4);

  ASSERT_EQ(unbounded.rows.size(), 100u);
  ASSERT_EQ(bounded.rows.size(), unbounded.rows.size());
  auto sorted_rows = [](const QueryResult& result) {
    std::vector<Row> rows = result.rows;
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a[0].AsInt() < b[0].AsInt();
    });
    return rows;
  };
  std::vector<Row> lhs = sorted_rows(unbounded);
  std::vector<Row> rhs = sorted_rows(bounded);
  for (size_t i = 0; i < lhs.size(); ++i) {
    for (size_t c = 0; c < lhs[i].size(); ++c) {
      EXPECT_EQ(lhs[i][c].Compare(rhs[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }

  // The flush duplicates reached the reducer, which merged them.
  EXPECT_GT(bounded.counters.reduce_input_records.load(),
            unbounded.counters.reduce_input_records.load());
}

TEST_F(DriverTest, AvgGroupByMergesFlushedPartials) {
  // AVG's (sum, count) partials from bounded-memory hash flushing must
  // merge on the reducer into correct averages.
  DriverOptions options;
  options.map_aggr_flush_entries = 4;
  QueryResult result = MustExecute(
      "SELECT o_custkey, AVG(o_amount) AS avg_amount, COUNT(*) AS cnt "
      "FROM orders GROUP BY o_custkey",
      options);
  ASSERT_EQ(result.rows.size(), 100u);
  for (const Row& row : result.rows) {
    int64_t custkey = row[0].AsInt();
    // Customer k owns orders k, k+100, ...: amounts ((k + 100j) % 50) * 1.5.
    double expected = 0;
    for (int j = 0; j < 20; ++j) expected += ((custkey + 100 * j) % 50) * 1.5;
    EXPECT_NEAR(row[1].AsDouble(), expected / 20, 1e-9) << custkey;
    EXPECT_EQ(row[2].AsInt(), 20);
  }
}

TEST_F(DriverTest, OrderByAndLimit) {
  QueryResult result = MustExecute(
      "SELECT o_id, o_amount FROM orders WHERE o_id < 100 "
      "ORDER BY o_id DESC LIMIT 10");
  ASSERT_EQ(result.rows.size(), 10u);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i][0].AsInt(), 99 - static_cast<int64_t>(i));
  }
}

TEST_F(DriverTest, ReduceJoin) {
  DriverOptions options;
  options.mapjoin_conversion = false;  // Force the common (reduce) join.
  QueryResult result = MustExecute(
      "SELECT o_id, c_name FROM orders JOIN customers ON "
      "orders.o_custkey = customers.c_id WHERE o_id < 10",
      options);
  ASSERT_EQ(result.rows.size(), 10u);
  for (const Row& row : result.rows) {
    EXPECT_EQ(row[1].AsString(),
              "cust-" + std::to_string(row[0].AsInt() % 100));
  }
}

TEST_F(DriverTest, MapJoinMatchesReduceJoin) {
  const std::string sql =
      "SELECT o_custkey, c_segment, COUNT(*) AS cnt FROM orders "
      "JOIN customers ON orders.o_custkey = customers.c_id "
      "GROUP BY o_custkey, c_segment";
  DriverOptions reduce_options;
  reduce_options.mapjoin_conversion = false;
  QueryResult reduce_result = MustExecute(sql, reduce_options);

  DriverOptions map_options;
  map_options.mapjoin_conversion = true;
  map_options.merge_maponly_jobs = true;
  QueryResult map_result = MustExecute(sql, map_options);

  auto canonical = [](const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) s += v.ToString() + "|";
      rows.push_back(s);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(canonical(reduce_result), canonical(map_result));
  EXPECT_EQ(reduce_result.rows.size(), 100u);
  EXPECT_LT(map_result.num_jobs, reduce_result.num_jobs)
      << "map-join + merge should eliminate the join shuffle";
}

TEST_F(DriverTest, MergeMapOnlyJobsReducesJobCount) {
  const std::string sql =
      "SELECT o_id, c_name FROM orders JOIN customers ON "
      "orders.o_custkey = customers.c_id WHERE o_id < 50";
  DriverOptions unmerged;
  unmerged.mapjoin_conversion = true;
  unmerged.merge_maponly_jobs = false;
  QueryResult with_extra = MustExecute(sql, unmerged);

  DriverOptions merged;
  merged.mapjoin_conversion = true;
  merged.merge_maponly_jobs = true;
  QueryResult without_extra = MustExecute(sql, merged);

  EXPECT_EQ(with_extra.rows.size(), 50u);
  EXPECT_EQ(without_extra.rows.size(), 50u);
  EXPECT_GT(with_extra.num_map_only_jobs, without_extra.num_map_only_jobs);
  EXPECT_LT(without_extra.num_jobs, with_extra.num_jobs);
}

TEST_F(DriverTest, JoinThenGroupBy) {
  DriverOptions options;
  options.mapjoin_conversion = false;
  QueryResult result = MustExecute(
      "SELECT c_segment, SUM(o_amount) AS total FROM orders "
      "JOIN customers ON orders.o_custkey = customers.c_id "
      "GROUP BY c_segment",
      options);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_GE(result.num_jobs, 2);  // Join job + aggregation job.
}

TEST_F(DriverTest, SubqueryInFrom) {
  QueryResult result = MustExecute(
      "SELECT big.o_custkey, big.total FROM "
      "(SELECT o_custkey, SUM(o_amount) AS total FROM orders "
      " GROUP BY o_custkey) big WHERE big.total > 700");
  for (const Row& row : result.rows) {
    EXPECT_GT(row[1].AsDouble(), 700.0);
  }
  EXPECT_FALSE(result.rows.empty());
}

TEST_F(DriverTest, LeftOuterJoinPadsNulls) {
  // Orders with custkey >= 100 do not exist; make some.
  DriverOptions options;
  options.mapjoin_conversion = false;
  QueryResult result = MustExecute(
      "SELECT c_id, o_id FROM customers LEFT JOIN orders ON "
      "customers.c_id = orders.o_custkey AND orders.o_id < 0",
      options);
  // No order has o_id < 0, so every customer pads with NULL.
  ASSERT_EQ(result.rows.size(), 100u);
  for (const Row& row : result.rows) {
    EXPECT_TRUE(row[1].is_null());
  }
}

TEST_F(DriverTest, ParseErrorsSurface) {
  Driver driver(fs_.get(), catalog_.get(), DriverOptions());
  EXPECT_FALSE(driver.Execute("SELECT FROM x").ok());
  EXPECT_FALSE(driver.Execute("SELECT a FROM missing_table").ok());
  EXPECT_FALSE(driver.Execute("SELECT bogus_col FROM orders").ok());
}

TEST_F(DriverTest, ExplainDoesNotExecute) {
  Driver driver(fs_.get(), catalog_.get(), DriverOptions());
  auto result = driver.Explain("SELECT o_id FROM orders WHERE o_id < 5");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_FALSE(result->plan_text.empty());
  EXPECT_GE(result->num_jobs, 1);
}

}  // namespace
}  // namespace minihive::ql
