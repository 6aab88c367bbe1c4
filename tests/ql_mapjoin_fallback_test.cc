/// Map-join memory guard and the reduce-join backup plan (paper §5.1's
/// backup-task protocol). A map-join hash build that exceeds the session's
/// memory budget fails with a typed ResourceExhausted; the driver must then
/// transparently re-execute the query on the pre-conversion reduce-join
/// plan and produce byte-identical results, surfacing the event as a
/// nonzero mapjoin_fallbacks counter (and in EXPLAIN PROFILE).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault.h"
#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class MapJoinFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());

    std::vector<Row> orders;
    for (int i = 0; i < 2000; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 64),
                        Value::Double((i % 53) * 1.5)});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse("struct<o_id:bigint,"
                                            "o_custkey:bigint,"
                                            "o_amount:double>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, orders)
                    .ok());

    std::vector<Row> customers;
    for (int i = 0; i < 64; ++i) {
      customers.push_back({Value::Int(i),
                           Value::String("cust-" + std::to_string(i)),
                           Value::String(i % 4 == 0 ? "gold" : "basic")});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "customers",
                    *TypeDescription::Parse("struct<c_id:bigint,"
                                            "c_name:string,"
                                            "c_segment:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, customers)
                    .ok());
  }

  void TearDown() override { fs_->set_fault_injector(nullptr); }

  static constexpr const char* kJoinSql =
      "SELECT c_segment, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders JOIN customers ON o_custkey = c_id "
      "GROUP BY c_segment";

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(MapJoinFallbackTest, BudgetExceededFallsBackToReduceJoin) {
  // Golden answer: the reduce join, forced by disabling conversion.
  DriverOptions reduce_options;
  reduce_options.mapjoin_conversion = false;
  Driver reduce_driver(fs_.get(), catalog_.get(), reduce_options);
  auto want = reduce_driver.Execute(kJoinSql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_FALSE(want->rows.empty());
  EXPECT_EQ(want->counters.mapjoin_fallbacks.load(), 0u);

  // The primary plan converts the join; sanity-check that it really would
  // run as a map join.
  DriverOptions options;
  options.mapjoin_memory_budget_bytes = 64;  // Far below the build size.
  Driver driver(fs_.get(), catalog_.get(), options);
  auto explain = driver.Explain(kJoinSql);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->plan_text.find("MAPJOIN"), std::string::npos)
      << explain->plan_text;

  // Execution blows the budget, falls back, and still answers correctly.
  auto got = driver.Execute(kJoinSql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Canonicalize(got->rows), Canonicalize(want->rows));
  EXPECT_EQ(got->counters.mapjoin_fallbacks.load(), 1u);
  EXPECT_TRUE(fs_->List("/tmp/").empty())
      << "fallback left temp files from the abandoned map-join run";

  // The fallback is visible in EXPLAIN PROFILE's rendered span tree.
  auto profiled = driver.Execute(std::string("EXPLAIN PROFILE ") + kJoinSql);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_NE(profiled->plan_text.find("mapjoin_fallbacks=1"),
            std::string::npos)
      << profiled->plan_text;
}

TEST_F(MapJoinFallbackTest, GenerousBudgetDoesNotFallBack) {
  DriverOptions options;
  options.mapjoin_memory_budget_bytes = 64ULL * 1024 * 1024;
  Driver driver(fs_.get(), catalog_.get(), options);
  auto got = driver.Execute(kJoinSql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->counters.mapjoin_fallbacks.load(), 0u);
  EXPECT_FALSE(got->rows.empty());
}

TEST_F(MapJoinFallbackTest, LocalTaskRetriesAreCounted) {
  // Read errors targeted at the small table make the map-join local task
  // (hash build) fail and retry; those attempts and their wall time must be
  // visible in the query's counters, separately from engine task failures.
  bool saw_recovered_local_failure = false;
  for (int seed = 0; seed < 20 && !saw_recovered_local_failure; ++seed) {
    FaultConfig faults;
    faults.seed = 100 + seed;
    faults.read_error_probability = 0.10;
    faults.path_filter = "/warehouse/customers";
    FaultInjector injector(faults);
    fs_->set_fault_injector(&injector);

    Driver driver(fs_.get(), catalog_.get(), DriverOptions());
    auto got = driver.Execute(kJoinSql);
    fs_->set_fault_injector(nullptr);
    if (!got.ok()) continue;  // Retries exhausted: acceptable, try next seed.

    if (got->counters.local_task_failures.load() > 0) {
      saw_recovered_local_failure = true;
      EXPECT_GT(got->counters.local_task_millis(), 0.0);
    }
  }
  EXPECT_TRUE(saw_recovered_local_failure)
      << "no seed exercised a recovered local-task retry";
}

}  // namespace
}  // namespace minihive::ql
