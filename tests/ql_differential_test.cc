/// Differential harness: randomized grammar-generated queries executed by
/// the row engine and the vectorized engine over TPC-H-shaped data must
/// produce identical results. Any divergence prints the seed and the SQL,
/// so a failure reproduces with a one-line test filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/loader.h"
#include "ql/driver.h"
#include "vec/simd.h"

namespace minihive::ql {
namespace {

/// Query generator: a small SQL grammar over lineitem/orders/customer.
/// Everything is driven by one Random stream, so a seed fully determines
/// the query. Joins become map joins over lineitem: a third of them chain
/// a second one (customer, probed by a column the first one gathered), and
/// a third probe orders with a double key, l_orderkey * 1.0 (the grammar
/// has no CAST), against its bigint keys.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    bool join = rng_.Bernoulli(0.3);
    bool chain = join && rng_.Bernoulli(1.0 / 3);
    bool double_key = join && rng_.Bernoulli(1.0 / 3);
    bool aggregate = rng_.Bernoulli(0.7);
    std::string sql = "SELECT ";
    std::string group_col;
    if (aggregate) {
      if (rng_.Bernoulli(0.8)) {
        group_col = PickGroupColumn(join, chain);
        sql += group_col + ", ";
      }
      int num_aggs = 1 + static_cast<int>(rng_.Uniform(3));
      for (int i = 0; i < num_aggs; ++i) {
        if (i > 0) sql += ", ";
        sql += PickAggregate(i);
      }
    } else {
      sql += "l_orderkey, l_linenumber, " + PickNumericExpr("p");
    }
    sql += " FROM lineitem";
    if (join) {
      sql += std::string(" JOIN orders ON ") +
             (double_key ? "l_orderkey * 1.0" : "l_orderkey") +
             " = o_orderkey";
    }
    if (chain) sql += " JOIN customer ON o_custkey = c_custkey";
    if (rng_.Bernoulli(0.75)) sql += " WHERE " + PickPredicate(join);
    if (!group_col.empty()) sql += " GROUP BY " + group_col;
    return sql;
  }

 private:
  std::string PickGroupColumn(bool join, bool chain) {
    const char* own[] = {"l_returnflag", "l_linenumber", "l_suppkey"};
    const char* joined[] = {"l_returnflag", "l_linenumber", "o_priority",
                            "c_nation"};
    return join ? joined[rng_.Uniform(chain ? 4 : 3)] : own[rng_.Uniform(3)];
  }

  std::string PickNumericColumn() {
    const char* cols[] = {"l_quantity", "l_extendedprice", "l_discount",
                          "l_suppkey"};
    return cols[rng_.Uniform(4)];
  }

  std::string PickAggregate(int i) {
    std::string col = PickNumericColumn();
    std::string alias = " AS a" + std::to_string(i);
    switch (rng_.Uniform(5)) {
      case 0: return "COUNT(*)" + alias;
      case 1: return "SUM(" + col + ")" + alias;
      case 2: return "MIN(" + col + ")" + alias;
      case 3: return "MAX(" + col + ")" + alias;
      default: return "AVG(" + col + ")" + alias;
    }
  }

  std::string PickNumericExpr(const std::string& alias) {
    std::string col = PickNumericColumn();
    switch (rng_.Uniform(5)) {
      case 0: return col + " AS " + alias;
      case 1:
        return col + " * " + std::to_string(1 + rng_.Uniform(4)) + " AS " +
               alias;
      // l_discount is 0.00 in about 1/11 of the rows: NULL in both engines.
      case 2: return "l_extendedprice / l_discount AS " + alias;
      // 2^62 - 1 has no exact double, and the product wraps for
      // l_suppkey >= 3: both engines must multiply by the exact literal and
      // wrap, without signed-overflow UB.
      case 3: return "l_suppkey * 4611686018427387903 AS " + alias;
      default: return col + " + " + PickNumericColumn() + " AS " + alias;
    }
  }

  std::string PickComparison() {
    switch (rng_.Uniform(4)) {
      case 0:
        return "l_quantity < " + std::to_string(rng_.Uniform(50));
      case 1:
        return "l_suppkey = " + std::to_string(rng_.Uniform(40));
      case 2: {
        uint64_t lo = rng_.Uniform(30);
        return "l_quantity BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + 1 + rng_.Uniform(20));
      }
      default:
        return std::string("l_returnflag = '") +
               (rng_.Bernoulli(0.5) ? "A" : "R") + "'";
    }
  }

  std::string PickPredicate(bool join) {
    std::string pred = PickComparison();
    if (rng_.Bernoulli(0.4)) pred += " AND " + PickComparison();
    if (join && rng_.Bernoulli(0.3)) pred += " AND o_custkey < 60";
    return pred;
  }

  Random rng_;
};

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 128 * 1024;
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<Catalog>(fs_.get());

    // TPC-H-shaped lineitem: keys cluster (several lines per order),
    // quantities/prices/discounts in TPC-H-ish ranges, skewed flags.
    std::vector<Row> lineitem;
    Random rng(7);
    for (int i = 0; i < 3000; ++i) {
      int64_t orderkey = i / 4;
      const char* flags[] = {"N", "N", "N", "A", "R"};
      lineitem.push_back(
          {Value::Int(orderkey), Value::Int(i % 7 + 1),
           Value::Int(static_cast<int64_t>(rng.Uniform(40))),
           Value::Int(static_cast<int64_t>(1 + rng.Uniform(50))),
           Value::Double(900.0 + static_cast<double>(rng.Uniform(100000)) / 100.0),
           Value::Double(static_cast<double>(rng.Uniform(11)) / 100.0),
           Value::String(flags[rng.Uniform(5)])});
      if (lineitem.back()[5].AsDouble() == 0) ++zero_discount_rows_;
    }
    ASSERT_TRUE(
        datagen::CreateAndLoad(
            catalog_.get(), "lineitem",
            *TypeDescription::Parse(
                "struct<l_orderkey:bigint,l_linenumber:bigint,"
                "l_suppkey:bigint,l_quantity:bigint,"
                "l_extendedprice:double,l_discount:double,"
                "l_returnflag:string>"),
            formats::FormatKind::kOrcFile, codec::CompressionKind::kNone,
            lineitem, 3)
            .ok());

    std::vector<Row> orders;
    const char* priorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
    for (int i = 0; i < 750; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 100),
                        Value::String(priorities[i % 4])});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse(
                        "struct<o_orderkey:bigint,o_custkey:bigint,"
                        "o_priority:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, orders, 2)
                    .ok());

    // Customers 0..89 of the orders' 0..99: some orders find none.
    std::vector<Row> customers;
    const char* nations[] = {"FRANCE", "PERU", "CHINA"};
    for (int i = 0; i < 90; ++i) {
      customers.push_back({Value::Int(i), Value::String(nations[i % 3])});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "customer",
                    *TypeDescription::Parse(
                        "struct<c_custkey:bigint,c_nation:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, customers, 1)
                    .ok());
  }

  void TearDown() override { simd::SetEnabled(true); }

  Result<QueryResult> Execute(const std::string& sql, bool vectorized,
                              uint64_t cache_seed = 0) {
    DriverOptions options;
    options.num_workers = 2;
    options.vectorized_execution = vectorized;
    // Randomize the session cache per (seed, engine): caching is a pure
    // performance layer, so any cache state — off, tiny (constant eviction
    // churn), or default — must leave results untouched.
    Random cache_rng(cache_seed * 2 + (vectorized ? 1 : 0));
    switch (cache_rng.Uniform(3)) {
      case 0:
        options.metadata_cache_bytes = 0;
        break;
      case 1:
        options.metadata_cache_bytes = 4 * 1024;
        break;
      default:
        break;  // Default budget.
    }
    // Late materialization and SIMD dispatch are pure performance layers
    // too: toggle them per (seed, engine) so the sweep covers two-phase vs
    // eager ORC reads and AVX2 vs scalar kernels in every combination.
    // SIMD dispatch is process-wide, so it is set here, once per run.
    options.enable_late_materialization = cache_rng.Uniform(2) == 0;
    simd::SetEnabled(cache_rng.Uniform(2) == 0);
    // Plan shape and map-side aggregation memory must leave results
    // untouched as well: the sweep covers reduce-side joins (where the
    // double-key seeds join through the planner's key coercion), the
    // Correlation Optimizer's merged jobs, and hash flushes down to one
    // entry.
    options.mapjoin_conversion = cache_rng.Uniform(2) == 0;
    options.correlation_optimizer = cache_rng.Uniform(2) == 0;
    const int flush_entries[] = {1, 100, options.map_aggr_flush_entries};
    options.map_aggr_flush_entries = flush_entries[cache_rng.Uniform(3)];
    Driver driver(fs_.get(), catalog_.get(), options);
    return driver.Execute(sql);
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
  int zero_discount_rows_ = 0;
};

/// Orders rows deterministically by Value::Compare so both engines' task
/// interleavings canonicalize identically.
void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
}

/// Exact for ints/strings/nulls; tolerant for doubles (the engines may sum
/// partials in different groupings).
void ExpectRowsEqual(const std::vector<Row>& row_mode,
                     const std::vector<Row>& vec_mode,
                     const std::string& context) {
  ASSERT_EQ(row_mode.size(), vec_mode.size()) << context;
  for (size_t r = 0; r < row_mode.size(); ++r) {
    ASSERT_EQ(row_mode[r].size(), vec_mode[r].size()) << context;
    for (size_t c = 0; c < row_mode[r].size(); ++c) {
      const Value& a = row_mode[r][c];
      const Value& b = vec_mode[r][c];
      if (a.is_double() && b.is_double()) {
        double tolerance =
            1e-9 * std::max(1.0, std::max(std::abs(a.AsDouble()),
                                          std::abs(b.AsDouble())));
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(), tolerance)
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_EQ(a.Compare(b), 0)
            << context << " row " << r << " col " << c << ": "
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

TEST_F(DifferentialTest, RowAndVectorizedAgreeOnRandomQueries) {
  const int kSeeds = 40;
  uint64_t vectorized_map_tasks = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::string sql = QueryGen(seed).Generate();
    const std::string context =
        "seed " + std::to_string(seed) + ": " + sql;

    auto row_result = Execute(sql, /*vectorized=*/false, seed);
    ASSERT_TRUE(row_result.ok())
        << context << "\nrow engine: " << row_result.status().ToString();
    auto vec_result = Execute(sql, /*vectorized=*/true, seed);
    ASSERT_TRUE(vec_result.ok())
        << context << "\nvectorized: " << vec_result.status().ToString();

    SortRows(&row_result->rows);
    SortRows(&vec_result->rows);
    ExpectRowsEqual(row_result->rows, vec_result->rows, context);
    vectorized_map_tasks += vec_result->counters.vectorized_map_tasks;
  }
  // If no map task of the sweep ran on batches (every one fell back to
  // row mode), it compared the row engine with itself.
  EXPECT_GT(vectorized_map_tasks, 0u);
}

TEST_F(DifferentialTest, RandomMutationsAgreeAcrossEnginesAndModel) {
  // DML differential: a random sequence of INSERT INTO (upsert) and DELETE
  // statements against a managed partitioned unique-key table, mirrored
  // into an exact in-memory model. After every mutation the full table is
  // read back on BOTH engines and compared to the model — catching wrong
  // bitmaps, wrong key-index updates, and row/vectorized divergence on
  // merge-on-read state, with the seed printed for replay.
  const int kSeeds = 6;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const std::string table = "mut" + std::to_string(seed);
    ASSERT_TRUE(Execute("CREATE TABLE " + table +
                            " (k INT, grp INT, amount DOUBLE) "
                            "PARTITIONED BY (grp) UNIQUE KEY (k)",
                        false)
                    .ok());
    Random rng(seed * 131 + 17);
    std::map<int64_t, std::pair<int64_t, double>> model;  // k -> (grp, amt).
    for (int step = 0; step < 8; ++step) {
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (model.empty() || rng.Bernoulli(0.7)) {
        const int n = 1 + static_cast<int>(rng.Uniform(15));
        std::string values;
        for (int i = 0; i < n; ++i) {
          const int64_t k = static_cast<int64_t>(rng.Uniform(60));
          const int64_t grp = k % 3;
          const int64_t whole = static_cast<int64_t>(rng.Uniform(1000));
          if (!values.empty()) values += ", ";
          values += "(";
          values += std::to_string(k) + ", " + std::to_string(grp) + ", " +
                    std::to_string(whole) + ".5)";
          model[k] = {grp, static_cast<double>(whole) + 0.5};  // Last wins.
        }
        auto r = Execute("INSERT INTO " + table + " VALUES " + values, false);
        ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      } else {
        std::string predicate;
        if (rng.Bernoulli(0.5)) {
          const int64_t bound = static_cast<int64_t>(rng.Uniform(60));
          predicate = "k < " + std::to_string(bound);
          for (auto it = model.begin(); it != model.end();) {
            it = it->first < bound ? model.erase(it) : std::next(it);
          }
        } else {
          const int64_t grp = static_cast<int64_t>(rng.Uniform(3));
          predicate = "grp = " + std::to_string(grp);
          for (auto it = model.begin(); it != model.end();) {
            it = it->second.first == grp ? model.erase(it) : std::next(it);
          }
        }
        auto r =
            Execute("DELETE FROM " + table + " WHERE " + predicate, false);
        ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      }

      const std::string sql = "SELECT k, grp, amount FROM " + table;
      auto row_result = Execute(sql, /*vectorized=*/false, seed + step);
      ASSERT_TRUE(row_result.ok())
          << context << ": " << row_result.status().ToString();
      auto vec_result = Execute(sql, /*vectorized=*/true, seed + step);
      ASSERT_TRUE(vec_result.ok())
          << context << ": " << vec_result.status().ToString();
      std::vector<Row> expected;
      for (const auto& [k, v] : model) {
        expected.push_back(
            {Value::Int(k), Value::Int(v.first), Value::Double(v.second)});
      }
      SortRows(&row_result->rows);
      SortRows(&vec_result->rows);
      SortRows(&expected);
      ExpectRowsEqual(expected, row_result->rows, context + " (row)");
      ExpectRowsEqual(row_result->rows, vec_result->rows,
                      context + " (row vs vec)");
    }
  }
}

TEST_F(DifferentialTest, HandWrittenSpotChecks) {
  // A few fixed queries with independently computable answers, as anchors
  // for the randomized sweep (a bug symmetric across both engines would
  // pass the differential check).
  auto count = Execute("SELECT COUNT(*) FROM lineitem", true);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].AsInt(), 3000);

  auto join = Execute(
      "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
      true);
  ASSERT_TRUE(join.ok());
  ASSERT_EQ(join->rows.size(), 1u);
  EXPECT_EQ(join->rows[0][0].AsInt(), 3000);  // Every line has its order.

  // Division by zero is NULL, as in the row engine, not a number: column
  // by column, scalar by column, column by scalar, and a constant.
  auto quotients = Execute(
      "SELECT l_extendedprice / l_discount, 1 / l_discount, l_quantity / 0, "
      "1.5 / 0 FROM lineitem",
      true);
  ASSERT_TRUE(quotients.ok()) << quotients.status().ToString();
  ASSERT_EQ(quotients->rows.size(), 3000u);
  std::vector<int> nulls(4, 0);
  for (const Row& row : quotients->rows) {
    for (size_t c = 0; c < nulls.size(); ++c) nulls[c] += row[c].is_null();
  }
  EXPECT_GT(zero_discount_rows_, 0);
  EXPECT_EQ(nulls, (std::vector<int>{zero_discount_rows_, zero_discount_rows_,
                                     3000, 3000}));
}

}  // namespace
}  // namespace minihive::ql
