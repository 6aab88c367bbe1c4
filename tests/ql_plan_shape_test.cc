// Plan-shape tests: what the analyzer + optimizers + task compiler produce,
// verified through Explain (no execution).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "datagen/loader.h"
#include "datagen/tpcds.h"
#include "ql/driver.h"
#include "ql/optimizer.h"
#include "ql/parser.h"
#include "ql/task_compiler.h"

namespace minihive::ql {
namespace {

class PlanShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    auto fact_schema = *TypeDescription::Parse(
        "struct<k:bigint,v:double,s:string>");
    std::vector<Row> fact;
    for (int i = 0; i < 3000; ++i) {
      fact.push_back({Value::Int(i % 100), Value::Double(i * 0.5),
                      Value::String(std::string("s").append(std::to_string(i % 7)))});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(catalog_.get(), "fact", fact_schema,
                                       formats::FormatKind::kTextFile,
                                       codec::CompressionKind::kNone, fact)
                    .ok());
    std::vector<Row> dim;
    for (int i = 0; i < 100; ++i) {
      dim.push_back({Value::Int(i), Value::String(std::string("d").append(std::to_string(i)))});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "dim",
                    *TypeDescription::Parse("struct<k:bigint,name:string>"),
                    formats::FormatKind::kTextFile,
                    codec::CompressionKind::kNone, dim)
                    .ok());
  }

  QueryResult Plan(const std::string& sql, DriverOptions options) {
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Explain(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).ValueOrDie() : QueryResult();
  }

  /// Analyzes `sql` and runs only the scan/predicate pushdown pass, so the
  /// operator DAG can be inspected before map-join conversion.
  PlannedQuery Pushdown(const std::string& sql, bool predicate_pushdown) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto plan = Analyzer(catalog_.get()).Analyze(**ast, "/tmp/shape-result");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    PlannedQuery out = std::move(plan).ValueOrDie();
    EXPECT_TRUE(PushdownIntoScans(&out, predicate_pushdown).ok());
    return out;
  }

  static const exec::OpDesc* ScanOf(const PlannedQuery& plan,
                                    const std::string& table) {
    for (const exec::OpDescPtr& root : plan.roots) {
      if (root->table_name == table) return root.get();
    }
    return nullptr;
  }

  /// The (single) reduce Join below `scan`, following first children.
  static const exec::OpDesc* JoinBelow(const exec::OpDesc* scan) {
    const exec::OpDesc* cur = scan;
    while (cur != nullptr && cur->kind != exec::OpKind::kJoin) {
      cur = cur->children.empty() ? nullptr : cur->children[0].get();
    }
    return cur;
  }

  /// Concatenated predicates of the Filters on the chain from `scan` to its
  /// first non-Filter consumer.
  static std::string ScanChainPredicates(const exec::OpDesc* scan) {
    std::string out;
    const exec::OpDesc* cur = scan;
    while (cur->children.size() == 1 &&
           cur->children[0]->kind == exec::OpKind::kFilter) {
      cur = cur->children[0].get();
      out += cur->predicate->ToString() + ";";
    }
    return out;
  }

  static int ConjunctCount(const exec::Expr& e) {
    return e.kind() == exec::ExprKind::kAnd
               ? ConjunctCount(*e.children()[0]) +
                     ConjunctCount(*e.children()[1])
               : 1;
  }

  /// A Filter's place in the DAG: its id, its parent's and child's ids,
  /// and how many conjuncts its predicate has.
  using FilterPlace = std::array<int, 4>;
  static std::vector<FilterPlace> FilterPlaces(const PlannedQuery& plan) {
    std::vector<FilterPlace> out;
    for (const exec::OpDescPtr& op : exec::CollectOps(plan.roots)) {
      if (op->kind != exec::OpKind::kFilter) continue;
      out.push_back({op->id, op->parents.at(0)->id, op->children.at(0)->id,
                     ConjunctCount(*op->predicate)});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(PlanShapeTest, ScanFilterIsSingleMapOnlyJob) {
  QueryResult plan =
      Plan("SELECT k FROM fact WHERE k < 5", DriverOptions());
  EXPECT_EQ(plan.num_jobs, 1);
  EXPECT_EQ(plan.num_map_only_jobs, 1);
  EXPECT_NE(plan.plan_text.find("TS_"), std::string::npos);
  EXPECT_NE(plan.plan_text.find("FIL_"), std::string::npos);
  EXPECT_EQ(plan.plan_text.find("JOIN"), std::string::npos);
}

TEST_F(PlanShapeTest, GroupByIsOneMapReduceJob) {
  QueryResult plan =
      Plan("SELECT k, SUM(v) FROM fact GROUP BY k", DriverOptions());
  EXPECT_EQ(plan.num_jobs, 1);
  EXPECT_EQ(plan.num_map_only_jobs, 0);
  // Map-side partial then reduce-side merge.
  EXPECT_NE(plan.plan_text.find("mode=hash"), std::string::npos);
  EXPECT_NE(plan.plan_text.find("mode=mergepartial"), std::string::npos);
}

TEST_F(PlanShapeTest, GroupByThenOrderByIsTwoJobs) {
  QueryResult plan = Plan(
      "SELECT k, SUM(v) AS total FROM fact GROUP BY k ORDER BY total DESC",
      DriverOptions());
  EXPECT_EQ(plan.num_jobs, 2);  // Aggregate job + single-reducer sort job.
}

TEST_F(PlanShapeTest, ReduceJoinKeepsBothScansInOneJob) {
  DriverOptions options;
  options.mapjoin_conversion = false;
  QueryResult plan = Plan(
      "SELECT fact.k FROM fact JOIN dim ON fact.k = dim.k", options);
  EXPECT_EQ(plan.num_jobs, 1);
  EXPECT_NE(plan.plan_text.find("JOIN_"), std::string::npos);
  // Two tagged ReduceSinks feed the join.
  EXPECT_NE(plan.plan_text.find("tag=0"), std::string::npos);
  EXPECT_NE(plan.plan_text.find("tag=1"), std::string::npos);
}

TEST_F(PlanShapeTest, MapJoinConversionRemovesReduceJoin) {
  DriverOptions options;
  options.mapjoin_conversion = true;
  options.merge_maponly_jobs = true;
  QueryResult plan = Plan(
      "SELECT fact.k FROM fact JOIN dim ON fact.k = dim.k", options);
  EXPECT_EQ(plan.num_jobs, 1);
  EXPECT_EQ(plan.num_map_only_jobs, 1);
  EXPECT_NE(plan.plan_text.find("MAPJOIN_"), std::string::npos);
  // No *reduce* join remains (the op name is preceded by indentation; a
  // bare "JOIN_" also matches inside "MAPJOIN_").
  EXPECT_EQ(plan.plan_text.find(" JOIN_"), std::string::npos);
}

TEST_F(PlanShapeTest, UnmergedConversionLeavesMapOnlyJob) {
  DriverOptions options;
  options.mapjoin_conversion = true;
  options.merge_maponly_jobs = false;
  QueryResult plan = Plan(
      "SELECT fact.k, SUM(fact.v) FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY fact.k",
      options);
  // Map-only job with the map join + the aggregation MapReduce job.
  EXPECT_EQ(plan.num_jobs, 2);
  EXPECT_EQ(plan.num_map_only_jobs, 1);
}

TEST_F(PlanShapeTest, CorrelationMergesJoinAndAggregation) {
  DriverOptions off;
  off.mapjoin_conversion = false;
  off.correlation_optimizer = false;
  QueryResult baseline = Plan(
      "SELECT fact.k, COUNT(*) FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY fact.k",
      off);
  DriverOptions on = off;
  on.correlation_optimizer = true;
  QueryResult optimized = Plan(
      "SELECT fact.k, COUNT(*) FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY fact.k",
      on);
  EXPECT_EQ(baseline.num_jobs, 2);
  EXPECT_EQ(optimized.num_jobs, 1);
  EXPECT_NE(optimized.plan_text.find("DEMUX_"), std::string::npos);
  EXPECT_NE(optimized.plan_text.find("MUX_"), std::string::npos);
  EXPECT_EQ(baseline.plan_text.find("DEMUX_"), std::string::npos);
}

TEST_F(PlanShapeTest, ConsecutiveShufflesMaterializeIntermediates) {
  DriverOptions options;
  options.mapjoin_conversion = false;
  QueryResult plan = Plan(
      "SELECT s, COUNT(*) FROM (SELECT fact.s AS s FROM fact JOIN dim "
      "ON fact.k = dim.k) j GROUP BY s",
      options);
  // Join job writes an intermediate the aggregation job re-loads — the §2
  // translation behaviour the paper criticizes.
  EXPECT_EQ(plan.num_jobs, 2);
  EXPECT_NE(plan.plan_text.find("inter-"), std::string::npos);
}

TEST_F(PlanShapeTest, AnalyzerErrors) {
  Driver driver(fs_.get(), catalog_.get(), DriverOptions());
  // Ambiguous unqualified column (k exists in both tables).
  EXPECT_FALSE(driver.Explain("SELECT k FROM fact JOIN dim ON fact.k = dim.k")
                   .ok());
  // Non-grouped column in an aggregate query.
  EXPECT_FALSE(driver.Explain("SELECT v, COUNT(*) FROM fact GROUP BY k").ok());
  // Join without an equi-condition.
  EXPECT_FALSE(driver.Explain(
                         "SELECT fact.k FROM fact JOIN dim ON fact.k > dim.k")
                   .ok());
  // ORDER BY expression not in the select list.
  EXPECT_FALSE(driver.Explain("SELECT k FROM fact ORDER BY v").ok());
}

TEST_F(PlanShapeTest, PushdownPrunesScanColumns) {
  DriverOptions options;
  QueryResult plan = Plan("SELECT k FROM fact WHERE v > 10", options);
  EXPECT_EQ(plan.num_jobs, 1);
  // k and v are read; s is not.
  EXPECT_NE(plan.plan_text.find("table=fact proj=[0,1]\n"), std::string::npos)
      << plan.plan_text;
}

TEST_F(PlanShapeTest, DimensionConjunctBecomesMapJoinBuildFilter) {
  QueryResult plan = Plan(
      "SELECT fact.v, dim.name FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE dim.name = 'd5'",
      DriverOptions());
  const std::string& text = plan.plan_text;
  size_t mapjoin = text.find("MAPJOIN_");
  ASSERT_NE(mapjoin, std::string::npos) << text;
  std::string line = text.substr(mapjoin, text.find('\n', mapjoin) - mapjoin);
  // The WHERE conjunct over dim's columns now filters the hash-table build.
  EXPECT_NE(line.find("small=dim build_filter="), std::string::npos) << line;
  EXPECT_NE(line.find("(c1 = d5)"), std::string::npos) << line;
  // Nothing is left to filter above (downstream of) the map join.
  EXPECT_EQ(text.find("FIL_", mapjoin), std::string::npos) << text;
}

TEST_F(PlanShapeTest, FactConjunctLandsOnScanChainAndSarg) {
  PlannedQuery plan = Pushdown(
      "SELECT fact.v, dim.name FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE fact.v > 100.0",
      true);
  const exec::OpDesc* fact = ScanOf(plan, "fact");
  ASSERT_NE(fact, nullptr);
  EXPECT_NE(ScanChainPredicates(fact).find("(c1 > 100"), std::string::npos)
      << plan.DebugString();
  ASSERT_NE(fact->sarg, nullptr);
  bool has_leaf = false;
  for (const orc::LeafPredicate& leaf : fact->sarg->leaves()) {
    if (leaf.column == 1 && leaf.op == orc::PredicateOp::kGreaterThan) {
      has_leaf = true;
    }
  }
  EXPECT_TRUE(has_leaf);
  // The WHERE Filter above the join was emptied and spliced out.
  const exec::OpDesc* join = JoinBelow(fact);
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->children.size(), 1u);
  EXPECT_NE(join->children[0]->kind, exec::OpKind::kFilter)
      << plan.DebugString();
  // The dimension's chain is untouched apart from its NOT NULL key filter.
  EXPECT_EQ(ScanChainPredicates(ScanOf(plan, "dim")), "c0 IS NOT NULL;");
}

TEST_F(PlanShapeTest, AntiJoinIsNullStaysAboveLeftJoin) {
  PlannedQuery plan = Pushdown(
      "SELECT fact.k FROM fact LEFT JOIN dim ON fact.k = dim.k "
      "WHERE dim.name IS NULL AND fact.v > 10.0",
      true);
  const exec::OpDesc* join = JoinBelow(ScanOf(plan, "fact"));
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->children.size(), 1u);
  const exec::OpDesc* above = join->children[0].get();
  ASSERT_EQ(above->kind, exec::OpKind::kFilter) << plan.DebugString();
  // Null-supplying side: stays. Preserved side: moves to the fact scan.
  EXPECT_NE(above->predicate->ToString().find("IS NULL"), std::string::npos);
  EXPECT_EQ(above->predicate->ToString().find(">"), std::string::npos);
  EXPECT_NE(ScanChainPredicates(ScanOf(plan, "fact")).find("(c1 > 10"),
            std::string::npos)
      << plan.DebugString();
}

TEST_F(PlanShapeTest, CrossSideConjunctStaysAboveJoin) {
  PlannedQuery plan = Pushdown(
      "SELECT fact.k FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE fact.v > dim.k",
      true);
  const exec::OpDesc* join = JoinBelow(ScanOf(plan, "fact"));
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->children.size(), 1u);
  EXPECT_EQ(join->children[0]->kind, exec::OpKind::kFilter)
      << plan.DebugString();
  EXPECT_EQ(ScanChainPredicates(ScanOf(plan, "fact")), "c0 IS NOT NULL;");
  EXPECT_EQ(ScanChainPredicates(ScanOf(plan, "dim")), "c0 IS NOT NULL;");
}

TEST_F(PlanShapeTest, PushdownOffLeavesJoinFilterInPlace) {
  const std::string sql =
      "SELECT fact.v FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE dim.name = 'd5' AND fact.v > 100.0";
  auto ast = ParseQuery(sql);
  ASSERT_TRUE(ast.ok());
  auto analyzed = Analyzer(catalog_.get()).Analyze(**ast, "/tmp/shape-result");
  ASSERT_TRUE(analyzed.ok());
  std::vector<FilterPlace> before = FilterPlaces(*analyzed);
  ASSERT_EQ(before.size(), 3u);  // Two NOT NULL key filters and the WHERE.
  ASSERT_TRUE(PushdownIntoScans(&*analyzed, false).ok());
  // Column pruning renumbers the WHERE's columns, but no Filter moves and
  // none gains or loses a conjunct.
  EXPECT_EQ(FilterPlaces(*analyzed), before) << analyzed->DebugString();
  for (const exec::OpDescPtr& root : analyzed->roots) {
    EXPECT_EQ(root->sarg, nullptr);
  }
  const exec::OpDesc* join = JoinBelow(ScanOf(*analyzed, "fact"));
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->children[0]->kind, exec::OpKind::kFilter);
}

TEST_F(PlanShapeTest, MapJoinBuildKeepsTheDimensionSarg) {
  datagen::TpcdsOptions tpcds;
  tpcds.store_sales_rows = 20000;
  ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", tpcds).ok());
  // TPC-DS Q27 (Fig. 11(a)): three conjuncts on customer_demographics.
  const std::string q27 =
      "SELECT i_item_id, AVG(ss_quantity) AS agg1 "
      "FROM tpcds_store_sales "
      "JOIN tpcds_customer_demographics "
      "  ON tpcds_store_sales.ss_cdemo_sk = "
      "     tpcds_customer_demographics.cd_demo_sk "
      "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
      "                       tpcds_date_dim.d_date_sk "
      "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
      "WHERE cd_gender = 'M' AND cd_marital_status = 'S' "
      "  AND cd_education_status = 'College' AND d_year = 2000 "
      "GROUP BY i_item_id";
  for (bool pushdown : {true, false}) {
    SCOPED_TRACE(pushdown);
    PlannedQuery plan = Pushdown(q27, pushdown);
    ASSERT_TRUE(ConvertMapJoins(&plan, catalog_.get(), 1 << 20).ok());
    const exec::OpDesc::MapJoinSmallSide* demographics = nullptr;
    for (const exec::OpDescPtr& op : exec::CollectOps(plan.roots)) {
      for (const auto& side : op->mapjoin_small_sides) {
        if (side.table_name == "tpcds_customer_demographics") {
          demographics = &side;
        }
      }
    }
    ASSERT_NE(demographics, nullptr) << plan.DebugString();
    if (pushdown) {
      // The three WHERE conjuncts (cd_gender, cd_marital_status,
      // cd_education_status), beside the join key's IS NOT NULL.
      ASSERT_NE(demographics->sarg, nullptr);
      std::vector<int> equality_columns;
      for (const orc::LeafPredicate& leaf : demographics->sarg->leaves()) {
        if (leaf.op == orc::PredicateOp::kEquals) {
          equality_columns.push_back(leaf.column);
        } else {
          EXPECT_EQ(leaf.op, orc::PredicateOp::kIsNotNull);
          EXPECT_EQ(leaf.column, 0);
        }
      }
      std::sort(equality_columns.begin(), equality_columns.end());
      EXPECT_EQ(equality_columns, (std::vector<int>{1, 2, 3}));
    } else {
      EXPECT_EQ(demographics->sarg, nullptr);
    }
  }
}

// The tpcds_join benchmark's three query shapes (TPC-DS Q27, Q95, Q3):
// column pruning narrows every scan, ReduceSink and map join to the
// columns the query reads, and each edge carries at most one Filter.
TEST_F(PlanShapeTest, ColumnPruningNarrowsTpcdsJoins) {
  datagen::TpcdsOptions tpcds;
  tpcds.store_sales_rows = 4000;
  ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", tpcds).ok());
  // Dimensions convert to map joins; the fact table does not.
  uint64_t threshold =
      catalog_->TableBytes(**catalog_->GetTable("tpcds_store_sales")) - 1;
  struct Case {
    std::string sql;
    /// Projection of each scan, as "table:[cols]" (empty = every column).
    std::vector<std::string> scans;
    /// Value count of every ReduceSink before map-join conversion.
    std::vector<size_t> rs_values;
    /// Every map join after conversion, as "small:values/big_values".
    std::vector<std::string> mapjoins;
  };
  const Case cases[] = {
      {"SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS "
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
       "GROUP BY i_item_id",
       {"tpcds_customer_demographics:[]", "tpcds_date_dim:[0,1]",
        "tpcds_item:[0,1]", "tpcds_store:[0]",
        "tpcds_store_sales:[0,1,2,3,5,6,7,8]"},
       {0, 0, 0, 1, 4, 5, 6, 7, 8},
       {"tpcds_customer_demographics:0/7", "tpcds_date_dim:0/6",
        "tpcds_item:1/4", "tpcds_store:0/5"}},
      {"SELECT ss.ss_store_sk AS store, COUNT(*) AS cnt, "
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
       {"tpcds_store:[0,2]", "tpcds_store_sales:[3,4,9]",
        "tpcds_store_sales:[4,5]", "tpcds_store_sales:[4,9]"},
       {0, 0, 2, 2, 2, 2, 2, 3},
       {"tpcds_store:0/3"}},
      {"SELECT d_year, i_category, SUM(ss_sales_price) AS sum_agg, "
       "COUNT(*) AS cnt FROM tpcds_store_sales "
       "JOIN tpcds_date_dim ON tpcds_store_sales.ss_sold_date_sk = "
       "  tpcds_date_dim.d_date_sk "
       "JOIN tpcds_item ON tpcds_store_sales.ss_item_sk = tpcds_item.i_item_sk "
       "WHERE d_moy = 11 AND i_current_price > 50 "
       "GROUP BY d_year, i_category ORDER BY d_year, i_category",
       {"tpcds_date_dim:[0,1,2]", "tpcds_item:[0,2,3]",
        "tpcds_store_sales:[0,1,7]"},
       {1, 1, 2, 2, 2, 4},
       {"tpcds_date_dim:1/2", "tpcds_item:1/2"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    PlannedQuery plan = Pushdown(c.sql, true);
    std::vector<std::string> scans;
    std::vector<size_t> rs_values;
    for (const exec::OpDescPtr& op : exec::CollectOps(plan.roots)) {
      if (op->kind == exec::OpKind::kTableScan) {
        std::string proj;
        for (int col : op->scan_projection) {
          if (!proj.empty()) proj += ",";
          proj += std::to_string(col);
        }
        scans.push_back(op->table_name + ":[" + proj + "]");
      }
      if (op->kind == exec::OpKind::kReduceSink) {
        rs_values.push_back(op->sink_values.size());
      }
      // One Filter per edge, without repeated conjuncts.
      if (op->kind == exec::OpKind::kFilter) {
        EXPECT_NE(op->children.at(0)->kind, exec::OpKind::kFilter)
            << plan.DebugString();
        std::vector<std::string> conjuncts;
        for (const exec::Expr* e = op->predicate.get();;) {
          if (e->kind() != exec::ExprKind::kAnd) {
            conjuncts.push_back(e->ToString());
            break;
          }
          conjuncts.push_back(e->children()[1]->ToString());
          e = e->children()[0].get();
        }
        std::sort(conjuncts.begin(), conjuncts.end());
        EXPECT_EQ(std::unique(conjuncts.begin(), conjuncts.end()),
                  conjuncts.end())
            << op->predicate->ToString();
      }
    }
    std::sort(scans.begin(), scans.end());
    std::sort(rs_values.begin(), rs_values.end());
    EXPECT_EQ(scans, c.scans);
    EXPECT_EQ(rs_values, c.rs_values) << plan.DebugString();

    ASSERT_TRUE(ConvertMapJoins(&plan, catalog_.get(), threshold).ok());
    std::vector<std::string> mapjoins;
    for (const exec::OpDescPtr& op : exec::CollectOps(plan.roots)) {
      if (op->kind != exec::OpKind::kMapJoin) continue;
      ASSERT_EQ(op->mapjoin_small_sides.size(), 1u);
      const auto& side = op->mapjoin_small_sides[0];
      mapjoins.push_back(side.table_name + ":" +
                         std::to_string(side.build_values.size()) + "/" +
                         std::to_string(op->mapjoin_big_values.size()));
    }
    std::sort(mapjoins.begin(), mapjoins.end());
    EXPECT_EQ(mapjoins, c.mapjoins) << plan.DebugString();
  }
}

// A merge-partial GroupBy reads each aggregate's partial at its own offset
// of its input row: its aggregates' args name those columns (not the map
// side's pre-aggregation ones), all below the merge's input width.
TEST_F(PlanShapeTest, MergePartialArgsNameTheirOwnPartialColumns) {
  datagen::TpcdsOptions tpcds;
  tpcds.store_sales_rows = 4000;
  ASSERT_TRUE(datagen::LoadTpcds(catalog_.get(), "tpcds", tpcds).ok());
  const char* const queries[] = {
      // Q27: four AVGs, whose (sum, count) partials are two columns each.
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
      "GROUP BY i_item_id",
      // Q95: an inner and an outer aggregation.
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
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    PlannedQuery plan = Pushdown(sql, true);
    int merges = 0;
    for (const exec::OpDescPtr& op : exec::CollectOps(plan.roots)) {
      if (op->kind != exec::OpKind::kGroupBy ||
          op->group_by_mode != exec::GroupByMode::kMergePartial) {
        continue;
      }
      ++merges;
      const int input_width = op->parents.at(0)->output_width;
      int partial = op->partial_offset;
      for (const exec::AggDesc& agg : op->aggs) {
        if (agg.arg != nullptr) {
          std::vector<int> columns;
          agg.arg->CollectColumns(&columns);
          for (int c : columns) EXPECT_LT(c, input_width) << op->id;
          EXPECT_EQ(columns, std::vector<int>{partial}) << op->id;
        }
        partial += agg.PartialArity();
      }
      EXPECT_EQ(partial, input_width) << plan.DebugString();
    }
    EXPECT_GT(merges, 0);
  }
}

// A map-join table is keyed on its build keys' shuffle key bytes and probed
// with the probe keys', and under a floating-point type an int is written
// as a double. So CompileTasks refuses a hand-built MapJoin whose probe and
// build keys are declared in different numeric families (BIGINT 3 would
// miss DOUBLE 3.0); the analyzer's CAST(... AS DOUBLE) never builds one.
TEST(TaskCompilerTest, MapJoinKeysMustShareANumericFamily) {
  using exec::Expr;
  using exec::OpKind;
  auto compile = [](TypeKind probe, TypeKind build) {
    // TS(f) -> MAPJOIN(f.0 = d.0) -> FS.
    exec::OpDescPtr scan = exec::MakeOp(OpKind::kTableScan);
    scan->table_name = "f";
    scan->table_width = 2;
    scan->output_width = 2;
    exec::OpDescPtr mapjoin = exec::MakeOp(OpKind::kMapJoin);
    exec::OpDesc::MapJoinSmallSide side;
    side.table_name = "d";
    side.build_keys = {Expr::Column(0, build)};
    side.build_values = {Expr::Column(1, TypeKind::kString)};
    mapjoin->mapjoin_small_sides.push_back(side);
    mapjoin->mapjoin_probe_keys = {Expr::Column(0, probe)};
    mapjoin->mapjoin_big_values = {Expr::Column(1, TypeKind::kBigInt)};
    mapjoin->mapjoin_big_tag = 1;
    mapjoin->output_width = 3;
    exec::OpDesc::Connect(scan, mapjoin);
    exec::OpDescPtr sink = exec::MakeOp(OpKind::kFileSink);
    sink->sink_path_prefix = "/tmp/q/out";
    sink->output_width = 3;
    exec::OpDesc::Connect(mapjoin, sink);
    PlannedQuery plan;
    plan.roots = {scan};
    plan.sink = sink;
    return CompileTasks(&plan, "/tmp/q", CompileTasksOptions()).status();
  };
  EXPECT_TRUE(compile(TypeKind::kBigInt, TypeKind::kInt).ok());
  EXPECT_TRUE(compile(TypeKind::kDouble, TypeKind::kDouble).ok());
  EXPECT_TRUE(compile(TypeKind::kString, TypeKind::kString).ok());
  for (const auto& [probe, build] :
       {std::pair{TypeKind::kBigInt, TypeKind::kDouble},
        std::pair{TypeKind::kDouble, TypeKind::kInt}}) {
    const Status s = compile(probe, build);
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
    EXPECT_NE(s.ToString().find("map-join key 0"), std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace minihive::ql
