// Cross-cutting consistency property: for a battery of queries, every
// storage format, execution engine (row vs vectorized), and optimizer
// combination must return exactly the same multiset of rows. This is the
// repository's strongest end-to-end invariant: the paper's advancements are
// performance features and must never change results.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

struct EngineConfig {
  std::string name;
  DriverOptions options;
};

std::vector<EngineConfig> EngineConfigs() {
  std::vector<EngineConfig> configs;
  {
    DriverOptions o;
    o.predicate_pushdown = false;
    o.mapjoin_conversion = false;
    o.merge_maponly_jobs = false;
    o.correlation_optimizer = false;
    o.vectorized_execution = false;
    configs.push_back({"all-off", o});
  }
  {
    DriverOptions o;
    o.predicate_pushdown = true;
    o.mapjoin_conversion = false;
    configs.push_back({"ppd-only", o});
  }
  {
    DriverOptions o;
    o.mapjoin_conversion = true;
    o.merge_maponly_jobs = true;
    configs.push_back({"mapjoin+merge", o});
  }
  {
    DriverOptions o;
    o.mapjoin_conversion = true;
    o.merge_maponly_jobs = true;
    o.correlation_optimizer = true;
    configs.push_back({"correlation", o});
  }
  {
    DriverOptions o;
    o.mapjoin_conversion = true;
    o.merge_maponly_jobs = true;
    o.correlation_optimizer = true;
    o.vectorized_execution = true;
    o.default_reducers = 2;
    o.num_workers = 3;
    configs.push_back({"everything+vectorized", o});
  }
  return configs;
}

class ConsistencyTest
    : public ::testing::TestWithParam<formats::FormatKind> {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    formats::FormatKind format = GetParam();
    codec::CompressionKind codec = format == formats::FormatKind::kTextFile
                                       ? codec::CompressionKind::kNone
                                       : codec::CompressionKind::kFastLz;
    Random rng(31337);
    auto sales_schema = *TypeDescription::Parse(
        "struct<sale_id:bigint,cust:bigint,item:bigint,qty:bigint,"
        "price:double,note:string>");
    std::vector<Row>& sales = sales_;
    for (int i = 0; i < 4000; ++i) {
      sales.push_back(
          {Value::Int(i), Value::Int(rng.Range(0, 49)),
           Value::Int(rng.Range(0, 19)), Value::Int(rng.Range(1, 10)),
           rng.Bernoulli(0.05) ? Value::Null()
                               : Value::Double(rng.Range(100, 9999) / 100.0),
           Value::String("note-" + std::to_string(rng.Uniform(8)))});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(catalog_.get(), "sales", sales_schema,
                                       format, codec, sales, 3)
                    .ok());
    auto items_schema = *TypeDescription::Parse(
        "struct<item_id:bigint,category:string,cost:double>");
    std::vector<Row>& items = items_;
    for (int i = 0; i < 20; ++i) {
      items.push_back({Value::Int(i),
                       Value::String(i % 2 == 0 ? "widget" : "gadget"),
                       Value::Double(i * 1.25)});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(catalog_.get(), "items", items_schema,
                                       format, codec, items)
                    .ok());
    // Customers 0..39 only: sales of customers 40..49 have no match (the
    // anti-join rows). One row has a NULL key and some tiers are NULL.
    static const char* const kRegions[] = {"north", "south", "east", "west"};
    for (int i = 0; i < 40; ++i) {
      custs_.push_back({Value::Int(i), Value::String(kRegions[i % 4]),
                        i % 5 == 0 ? Value::Null() : Value::Int(i % 3)});
    }
    custs_.push_back(
        {Value::Null(), Value::String("north"), Value::Int(1)});
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "custs",
                    *TypeDescription::Parse(
                        "struct<cust_id:bigint,region:string,tier:bigint>"),
                    format, codec, custs_)
                    .ok());
  }

  static std::vector<std::string> Canonical(const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rows) {
      std::string s;
      for (const Value& v : row) {
        if (v.is_double()) {
          char buf[64];
          snprintf(buf, sizeof(buf), "%.6f", v.AsDouble());
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

  void ExpectConsistent(const std::string& sql) {
    std::vector<std::string> reference;
    std::string reference_config;
    for (const EngineConfig& config : EngineConfigs()) {
      Driver driver(fs_.get(), catalog_.get(), config.options);
      auto result = driver.Execute(sql);
      ASSERT_TRUE(result.ok())
          << config.name << ": " << result.status().ToString() << "\n" << sql;
      std::vector<std::string> rows = Canonical(*result);
      if (reference_config.empty()) {
        reference = rows;
        reference_config = config.name;
        EXPECT_FALSE(rows.empty()) << sql;
      } else {
        EXPECT_EQ(rows, reference)
            << sql << "\n  differs between " << reference_config << " and "
            << config.name;
      }
    }
  }

  /// Same rows under every mix of pushdown, map join, vectorized
  /// execution and the Correlation Optimizer.
  void ExpectConsistentAcrossSwitches(const std::string& sql) {
    std::vector<std::string> reference;
    for (int mask = 0; mask < 16; ++mask) {
      DriverOptions o;
      o.predicate_pushdown = (mask & 1) != 0;
      o.mapjoin_conversion = (mask & 2) != 0;
      o.vectorized_execution = (mask & 4) != 0;
      o.correlation_optimizer = (mask & 8) != 0;
      Driver driver(fs_.get(), catalog_.get(), o);
      auto result = driver.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
      std::vector<std::string> rows = Canonical(*result);
      if (mask == 0) {
        reference = std::move(rows);
        EXPECT_FALSE(reference.empty()) << sql;
      } else {
        EXPECT_EQ(rows, reference)
            << sql << "\n  pushdown=" << o.predicate_pushdown
            << " mapjoin=" << o.mapjoin_conversion
            << " vectorized=" << o.vectorized_execution
            << " co=" << o.correlation_optimizer;
      }
    }
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
  std::vector<Row> sales_, items_, custs_;
};

TEST_P(ConsistencyTest, FilterProjection) {
  ExpectConsistent(
      "SELECT sale_id, qty * price AS amount FROM sales "
      "WHERE qty >= 5 AND price BETWEEN 20.0 AND 60.0");
}

TEST_P(ConsistencyTest, NullSensitiveFilter) {
  ExpectConsistent(
      "SELECT sale_id FROM sales WHERE price IS NULL OR price > 95.0");
}

TEST_P(ConsistencyTest, GlobalAggregates) {
  ExpectConsistent(
      "SELECT COUNT(*), COUNT(price), SUM(price), AVG(price), MIN(qty), "
      "MAX(qty) FROM sales");
}

TEST_P(ConsistencyTest, GroupedAggregates) {
  ExpectConsistent(
      "SELECT cust, COUNT(*) AS n, SUM(qty) AS total_qty, AVG(price) AS ap "
      "FROM sales GROUP BY cust");
}

TEST_P(ConsistencyTest, StringGroupKeys) {
  ExpectConsistent(
      "SELECT note, COUNT(*) AS n FROM sales WHERE qty < 8 GROUP BY note");
}

TEST_P(ConsistencyTest, JoinAggregateOrder) {
  ExpectConsistent(
      "SELECT category, SUM(qty * price) AS revenue, COUNT(*) AS n "
      "FROM sales JOIN items ON sales.item = items.item_id "
      "WHERE price IS NOT NULL "
      "GROUP BY category ORDER BY category");
}

TEST_P(ConsistencyTest, SubqueryCorrelationShape) {
  ExpectConsistent(
      "SELECT s.cust, COUNT(*) AS above_avg FROM sales s "
      "JOIN (SELECT s2.cust AS c, AVG(s2.price) AS ap FROM sales s2 "
      "      GROUP BY s2.cust) agg ON s.cust = agg.c "
      "WHERE s.price > agg.ap GROUP BY s.cust");
}

TEST_P(ConsistencyTest, OrderByDescWithLimit) {
  ExpectConsistent(
      "SELECT sale_id, price FROM sales WHERE price IS NOT NULL "
      "ORDER BY price DESC, sale_id ASC LIMIT 25");
}

TEST_P(ConsistencyTest, StarJoinDimensionOnlyWhere) {
  ExpectConsistent(
      "SELECT category, region, SUM(qty) AS q, COUNT(*) AS n FROM sales "
      "JOIN items ON sales.item = items.item_id "
      "JOIN custs ON sales.cust = custs.cust_id "
      "WHERE category = 'widget' AND region = 'north' AND tier = 1 "
      "GROUP BY category, region");
}

TEST_P(ConsistencyTest, CrossSideWhere) {
  ExpectConsistent(
      "SELECT sale_id, cost FROM sales "
      "JOIN items ON sales.item = items.item_id "
      "WHERE price > cost * 4.0 AND qty + item_id > 12");
}

TEST_P(ConsistencyTest, AntiJoinWhereRhsKeyIsNull) {
  ExpectConsistent(
      "SELECT sale_id, cust FROM sales "
      "LEFT JOIN custs ON sales.cust = custs.cust_id "
      "WHERE custs.cust_id IS NULL");
}

TEST_P(ConsistencyTest, LeftJoinPreservedSideWhere) {
  ExpectConsistent(
      "SELECT sale_id, region, tier FROM sales "
      "LEFT JOIN custs ON sales.cust = custs.cust_id "
      "WHERE qty >= 8 AND note = 'note-3' AND tier IS NULL");
}

// Column pruning: the dimensions contribute no value column (items is read
// only by a WHERE conjunct, custs by the GROUP BY), and the fact side ships
// three of its six columns through the joins.
TEST_P(ConsistencyTest, NarrowProjectionStarJoin) {
  ExpectConsistentAcrossSwitches(
      "SELECT region, COUNT(*) AS n, SUM(qty) AS q FROM sales "
      "JOIN items ON sales.item = items.item_id "
      "JOIN custs ON sales.cust = custs.cust_id "
      "WHERE cost > 5.0 GROUP BY region");
}

// The null-supplying side keeps only the column its IS NULL reads, so the
// padding row of an unmatched sale is one NULL wide.
TEST_P(ConsistencyTest, LeftJoinPrunedNullSideReadOnlyInWhere) {
  ExpectConsistentAcrossSwitches(
      "SELECT sale_id, qty FROM sales "
      "LEFT JOIN custs ON sales.cust = custs.cust_id "
      "WHERE custs.tier IS NULL");
}

// A join under a FROM-subquery whose Select list the outer query reads
// only in part (note is dropped).
TEST_P(ConsistencyTest, JoinUnderSubqueryPrunedSelect) {
  ExpectConsistentAcrossSwitches(
      "SELECT j.category, COUNT(*) AS n, MAX(j.amount) AS m FROM "
      "(SELECT items.category AS category, sales.qty * sales.price AS amount, "
      "        sales.note AS note "
      " FROM sales JOIN items ON sales.item = items.item_id) j "
      "WHERE j.amount > 50.0 GROUP BY j.category");
}

// Star-join and anti-join answers computed with plain loops over the
// generated rows (no parser, planner or engine involved), checked across
// pushdown x map-join x vectorized.
TEST_P(ConsistencyTest, JoinPushdownMatchesLoopOracle) {
  auto find = [](const std::vector<Row>& table, const Value& key) {
    for (const Row& row : table) {
      if (!row[0].is_null() && !key.is_null() &&
          row[0].AsInt() == key.AsInt()) {
        return &row;
      }
    }
    return static_cast<const Row*>(nullptr);
  };
  const std::string star_sql =
      "SELECT sale_id, category, region FROM sales "
      "JOIN items ON sales.item = items.item_id "
      "JOIN custs ON sales.cust = custs.cust_id "
      "WHERE category = 'gadget' AND region = 'east' AND qty > 3";
  const std::string anti_sql =
      "SELECT sale_id, qty FROM sales "
      "LEFT JOIN custs ON sales.cust = custs.cust_id "
      "WHERE custs.cust_id IS NULL AND qty >= 5";
  std::vector<std::string> star_expected, anti_expected;
  for (const Row& sale : sales_) {
    const Row* item = find(items_, sale[2]);
    const Row* cust = find(custs_, sale[1]);
    if (item != nullptr && cust != nullptr &&
        (*item)[1].AsString() == "gadget" &&
        (*cust)[1].AsString() == "east" && sale[3].AsInt() > 3) {
      star_expected.push_back(sale[0].ToString() + "|gadget|east|");
    }
    if (cust == nullptr && sale[3].AsInt() >= 5) {
      anti_expected.push_back(sale[0].ToString() + "|" + sale[3].ToString() +
                              "|");
    }
  }
  std::sort(star_expected.begin(), star_expected.end());
  std::sort(anti_expected.begin(), anti_expected.end());
  ASSERT_FALSE(star_expected.empty());
  ASSERT_FALSE(anti_expected.empty());

  for (int mask = 0; mask < 8; ++mask) {
    DriverOptions o;
    o.predicate_pushdown = (mask & 1) != 0;
    o.mapjoin_conversion = (mask & 2) != 0;
    o.vectorized_execution = (mask & 4) != 0;
    Driver driver(fs_.get(), catalog_.get(), o);
    for (const auto& [sql, expected] :
         {std::pair(star_sql, &star_expected),
          std::pair(anti_sql, &anti_expected)}) {
      auto result = driver.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
      EXPECT_EQ(Canonical(*result), *expected)
          << sql << "\n  pushdown=" << o.predicate_pushdown
          << " mapjoin=" << o.mapjoin_conversion
          << " vectorized=" << o.vectorized_execution;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ConsistencyTest,
    ::testing::Values(formats::FormatKind::kTextFile,
                      formats::FormatKind::kSequenceFile,
                      formats::FormatKind::kRcFile,
                      formats::FormatKind::kOrcFile),
    [](const auto& info) {
      return std::string(formats::FormatKindName(info.param));
    });

}  // namespace
}  // namespace minihive::ql
