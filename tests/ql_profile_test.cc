// End-to-end tests for query profiling: EXPLAIN PROFILE parsing, the span
// tree a profiled query produces (driver -> jobs -> operators), and the
// consistency of the per-operator row counts it reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/loader.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<dfs::FileSystem>();
    catalog_ = std::make_unique<Catalog>(fs_.get());
    std::vector<Row> orders;
    Random rng(7);
    for (int i = 0; i < 3000; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 100),
                        Value::Double((i % 50) * 1.5)});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse("struct<o_id:bigint,"
                                            "o_custkey:bigint,"
                                            "o_amount:double>"),
                    formats::FormatKind::kTextFile,
                    codec::CompressionKind::kNone, orders, 3)
                    .ok());
  }

  QueryResult MustExecute(Driver* driver, const std::string& sql) {
    auto result = driver->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    if (!result.ok()) return QueryResult();
    return std::move(result).ValueOrDie();
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

// A GROUP BY + ORDER BY query compiles to at least two MapReduce jobs; the
// profile must cover the driver phases, every job and every operator.
TEST_F(ProfileTest, ExplainProfileCoversJobsAndOperators) {
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT o_custkey, SUM(o_amount) AS total FROM orders "
      "GROUP BY o_custkey ORDER BY o_custkey");
  ASSERT_GE(result.num_jobs, 2);
  ASSERT_EQ(result.rows.size(), 100u);

  // The rendered tree is returned as the plan text.
  EXPECT_NE(result.plan_text.find("query:"), std::string::npos);
  EXPECT_NE(result.plan_text.find("execute"), std::string::npos);
  EXPECT_NE(result.plan_text.find("job:"), std::string::npos);
  EXPECT_NE(result.plan_text.find("op:"), std::string::npos);

  ASSERT_NE(result.profile, nullptr);
  EXPECT_EQ(driver.LastProfile(), result.profile);

  // Driver phases are children of the query root.
  EXPECT_NE(result.profile->FindDescendant("plan"), nullptr);
  EXPECT_NE(result.profile->FindDescendant("fetch"), nullptr);
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  ASSERT_NE(execute, nullptr);

  // One job span per compiled job, each carrying operator spans whose
  // rows_in is nonzero (data flowed through every operator).
  int job_spans = 0;
  for (const telemetry::Span* job : execute->children()) {
    if (job->name().rfind("job:", 0) != 0) continue;
    ++job_spans;
    int op_spans = 0;
    for (const telemetry::Span* op : job->children()) {
      if (op->name().rfind("op:", 0) != 0) continue;
      ++op_spans;
      json::Writer w;
      op->WriteJson(&w, /*include_timing=*/false);
      EXPECT_EQ(w.str().find("\"rows_in\": 0"), std::string::npos)
          << "operator saw no rows: " << w.str();
    }
    EXPECT_GT(op_spans, 0) << "job span without operator spans: "
                           << job->name();
    // The engine folded the job counters into the span.
    json::Writer w;
    job->WriteJson(&w, /*include_timing=*/false);
    EXPECT_NE(w.str().find("map_input_records"), std::string::npos);
  }
  EXPECT_EQ(job_spans, result.num_jobs);
}

// The scan of the first job must have read every table row, and the final
// job's sink rows must match the returned result rows.
TEST_F(ProfileTest, OperatorRowCountsAreConsistent) {
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT o_custkey, COUNT(*) AS cnt FROM orders "
      "GROUP BY o_custkey");
  ASSERT_GE(result.num_jobs, 1);
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  ASSERT_NE(execute, nullptr);
  std::vector<const telemetry::Span*> jobs;
  for (const telemetry::Span* child : execute->children()) {
    if (child->name().rfind("job:", 0) == 0) jobs.push_back(child);
  }
  ASSERT_FALSE(jobs.empty());
  json::Writer first;
  jobs.front()->WriteJson(&first, /*include_timing=*/false);
  // 3000 table rows entered the first job's map phase.
  EXPECT_NE(first.str().find("\"map_input_records\": 3000"),
            std::string::npos)
      << first.str();
}

TEST_F(ProfileTest, ExplainProfileIsCaseInsensitive) {
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver, "explain   profile select o_id from orders where o_id < 3");
  EXPECT_EQ(result.rows.size(), 3u);
  EXPECT_NE(result.profile, nullptr);
  EXPECT_NE(result.plan_text.find("query:"), std::string::npos);
}

TEST_F(ProfileTest, PlainExplainProducesNoProfile) {
  Driver driver(fs_.get(), catalog_.get());
  auto result = driver.Explain("SELECT o_id FROM orders");
  ASSERT_TRUE(result.ok());
  // Plain EXPLAIN does not execute and produces no profile.
  EXPECT_EQ(result->rows.size(), 0u);
  EXPECT_EQ(result->profile, nullptr);
}

TEST_F(ProfileTest, ProfilingOffByDefault) {
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver, "SELECT o_id FROM orders WHERE o_id < 3");
  EXPECT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.profile, nullptr);
  EXPECT_EQ(driver.LastProfile(), nullptr);
}

TEST_F(ProfileTest, EnableProfilingOptionWithoutExplain) {
  DriverOptions options;
  options.enable_profiling = true;
  Driver driver(fs_.get(), catalog_.get(), options);
  QueryResult result = MustExecute(
      &driver, "SELECT o_custkey, COUNT(*) AS cnt FROM orders "
               "GROUP BY o_custkey");
  EXPECT_EQ(result.rows.size(), 100u);
  // Profile captured, but the plan text is the normal plan (no render).
  ASSERT_NE(result.profile, nullptr);
  EXPECT_EQ(result.plan_text.find("query:"), std::string::npos);
  EXPECT_NE(result.profile->FindDescendant("execute"), nullptr);
  EXPECT_EQ(driver.LastProfile(), result.profile);
}


// Vectorized stages time themselves once per batch: EXPLAIN PROFILE of a
// vectorized Q1-shaped query reports nonzero scan, filter and group-by time.
TEST_F(ProfileTest, VectorizedStagesAreTimed) {
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(i % 500), Value::String(i % 3 ? "A" : "N"),
                    Value::Double(i * 0.25)});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "items",
                  *TypeDescription::Parse(
                      "struct<i_day:bigint,i_flag:string,i_price:double>"),
                  formats::FormatKind::kOrcFile,
                  codec::CompressionKind::kNone, rows, 2)
                  .ok());
  DriverOptions options;
  options.vectorized_execution = true;
  Driver driver(fs_.get(), catalog_.get(), options);
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT i_flag, SUM(i_price) AS s, COUNT(*) AS c "
      "FROM items WHERE i_day <= 400 GROUP BY i_flag");
  ASSERT_EQ(result.rows.size(), 2u);
  ASSERT_NE(result.profile, nullptr);
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  ASSERT_NE(execute, nullptr);
  const telemetry::Span* map_job = nullptr;
  for (const telemetry::Span* job : execute->children()) {
    if (job->name().rfind("job:", 0) == 0) {
      map_job = job;
      break;
    }
  }
  ASSERT_NE(map_job, nullptr);
  std::map<std::string, int64_t> nanos;  // First span of each kind.
  for (const telemetry::Span* op : map_job->children()) {
    if (op->name().rfind("op:", 0) != 0) continue;
    std::string kind = op->name().substr(3, op->name().find('#') - 3);
    nanos.emplace(kind, op->duration_nanos());
    if (kind == "TS") {
      // Only vectorized pipelines count batches: no row-mode fallback.
      json::Writer w;
      op->WriteJson(&w, /*include_timing=*/false);
      EXPECT_NE(w.str().find("\"batches\""), std::string::npos) << w.str();
    }
  }
  for (const char* kind : {"TS", "FIL", "GBY"}) {
    ASSERT_TRUE(nanos.count(kind)) << kind << " span missing";
    EXPECT_GT(nanos[kind], 0) << kind << " reported no time";
  }
}

/// Every operator span of a profiled query's jobs, in job then id order.
std::vector<const telemetry::Span*> OperatorSpans(const QueryResult& result) {
  std::vector<const telemetry::Span*> ops;
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  if (execute == nullptr) return ops;
  for (const telemetry::Span* job : execute->children()) {
    for (const telemetry::Span* op : job->children()) {
      if (op->name().rfind("op:", 0) == 0) ops.push_back(op);
    }
  }
  return ops;
}

uint64_t Rows(const telemetry::Span* op, const char* attr) {
  std::optional<telemetry::AttrValue> v = op->FindAttr(attr);
  return v.has_value() ? v->u : 0;
}

/// No operator's (sampled, weighted) self time exceeds the summed wall of
/// its job's task attempts: a one-off cost in a timed unit, such as a
/// FileSink opening its writer on its first row, must count once.
void ExpectOperatorsWithinAttemptWall(const QueryResult& result) {
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  ASSERT_NE(execute, nullptr);
  for (const telemetry::Span* job : execute->children()) {
    int64_t attempts_wall = 0;
    for (const telemetry::Span* child : job->children()) {
      if (child->name().rfind("map[", 0) == 0 ||
          child->name().rfind("reduce[", 0) == 0) {
        attempts_wall += child->duration_nanos();
      }
    }
    for (const telemetry::Span* op : job->children()) {
      if (op->name().rfind("op:", 0) != 0) continue;
      EXPECT_LE(op->duration_nanos(), attempts_wall)
          << op->name() << " in " << job->name() << "\n"
          << result.plan_text;
    }
  }
}

// A reduce-side join times its own work, EndGroup's emission included, and
// not its children's; the rows it emits are exactly the rows its child
// takes in. No operator's self time is negative, and none exceeds the
// summed wall of its job's task attempts (one-off first-row work, such as
// a FileSink opening its writer, is counted once, not scaled up).
TEST_F(ProfileTest, ReduceJoinReportsSelfTimeAndExactRows) {
  std::vector<Row> customers;
  for (int i = 0; i < 100; ++i) {
    customers.push_back(
        {Value::Int(i), Value::String(std::string("c").append(
                            std::to_string(i)))});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "customers",
                  *TypeDescription::Parse("struct<c_id:bigint,c_name:string>"),
                  formats::FormatKind::kTextFile,
                  codec::CompressionKind::kNone, customers)
                  .ok());
  DriverOptions options;
  options.mapjoin_conversion = false;
  Driver driver(fs_.get(), catalog_.get(), options);
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT o_id, c_name FROM orders JOIN customers "
      "ON o_custkey = c_id");
  ASSERT_EQ(result.rows.size(), 3000u);
  ASSERT_NE(result.profile, nullptr);
  std::vector<const telemetry::Span*> ops = OperatorSpans(result);
  auto join = std::find_if(ops.begin(), ops.end(), [](const auto* op) {
    return op->name().rfind("op:JOIN#", 0) == 0;
  });
  ASSERT_NE(join, ops.end()) << result.plan_text;
  EXPECT_GT((*join)->duration_nanos(), 0) << result.plan_text;
  EXPECT_EQ(Rows(*join, "rows_in"), 3100u);
  EXPECT_EQ(Rows(*join, "rows_out"), 3000u);
  // The join's child is the next operator of its reduce pipeline.
  ASSERT_NE(join + 1, ops.end()) << result.plan_text;
  EXPECT_EQ(Rows(*(join + 1), "rows_in"), Rows(*join, "rows_out"))
      << result.plan_text;
  for (const telemetry::Span* op : ops) {
    EXPECT_GE(op->duration_nanos(), 0) << op->name();
  }
  ExpectOperatorsWithinAttemptWall(result);
}

// The clock samples one unit in 16 but always times the first (at weight
// 1), so a query over fewer than 16 rows still shows time for every
// row-mode operator.
TEST_F(ProfileTest, TinyInputStillTimesEveryOperator) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int(i % 3)});
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "tiny",
                  *TypeDescription::Parse("struct<t_k:bigint>"),
                  formats::FormatKind::kTextFile,
                  codec::CompressionKind::kNone, rows)
                  .ok());
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT t_k, COUNT(*) AS c FROM tiny WHERE t_k >= 0 "
      "GROUP BY t_k");
  ASSERT_EQ(result.rows.size(), 3u);
  std::vector<const telemetry::Span*> ops = OperatorSpans(result);
  ASSERT_GE(ops.size(), 5u) << result.plan_text;
  for (const telemetry::Span* op : ops) {
    EXPECT_GT(op->duration_nanos(), 0) << op->name() << "\n"
                                       << result.plan_text;
  }
  ExpectOperatorsWithinAttemptWall(result);
}

// A Driver without a session runs its queries in one on a private
// SessionManager: the profile carries the admission and scheduler
// attributes, and the scheduler ran exactly the query's engine tasks.
TEST_F(ProfileTest, StandaloneDriverReportsAdmissionAndSchedulerWork) {
  Driver driver(fs_.get(), catalog_.get());
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT o_custkey, SUM(o_amount) AS total FROM orders "
      "GROUP BY o_custkey ORDER BY o_custkey");
  ASSERT_GE(result.num_jobs, 2);
  ASSERT_NE(result.profile, nullptr);
  EXPECT_TRUE(result.profile->FindAttr("admitted_bytes").has_value());
  EXPECT_TRUE(
      result.profile->FindAttr("admission_queue_wait_millis").has_value());
  EXPECT_TRUE(result.profile->FindAttr("query_budget_peak_bytes").has_value());
  EXPECT_TRUE(result.profile->FindAttr("sched_queue_wait_millis").has_value());
  std::optional<telemetry::AttrValue> tasks_run =
      result.profile->FindAttr("sched_tasks_run");
  ASSERT_TRUE(tasks_run.has_value());
  EXPECT_EQ(tasks_run->u,
            static_cast<uint64_t>(result.counters.map_tasks +
                                  result.counters.reduce_tasks));
}

// num_workers is the private manager's task-slot count: its scheduler has
// num_workers - 1 workers and the query thread fills the last slot, so no
// more than num_workers task attempts ever run at once.
TEST_F(ProfileTest, StandaloneDriverRunsAtMostNumWorkersTasksAtOnce) {
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value::Int(i % 40), Value::Int(i)});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "events",
                  *TypeDescription::Parse("struct<e_kind:bigint,e_id:bigint>"),
                  formats::FormatKind::kTextFile,
                  codec::CompressionKind::kNone, rows, 8)
                  .ok());
  DriverOptions options;
  options.num_workers = 2;
  Driver driver(fs_.get(), catalog_.get(), options);
  QueryResult result = MustExecute(
      &driver,
      "EXPLAIN PROFILE SELECT e_kind, COUNT(*) AS cnt FROM events "
      "GROUP BY e_kind");
  ASSERT_EQ(result.rows.size(), 40u);
  ASSERT_GE(result.counters.map_tasks, 4);
  const telemetry::Span* execute = result.profile->FindDescendant("execute");
  ASSERT_NE(execute, nullptr);
  // +1 at each attempt's start, -1 at its end; an end sorts before a start
  // at the same instant.
  std::vector<std::pair<int64_t, int>> events;
  for (const telemetry::Span* job : execute->children()) {
    for (const telemetry::Span* attempt : job->children()) {
      const std::string& name = attempt->name();
      if (name.rfind("map[", 0) != 0 && name.rfind("reduce[", 0) != 0) {
        continue;
      }
      ASSERT_TRUE(attempt->ended()) << name;
      events.push_back({attempt->start_nanos(), +1});
      events.push_back({attempt->end_nanos(), -1});
    }
  }
  ASSERT_GE(events.size(), 2u * result.counters.map_tasks);
  std::sort(events.begin(), events.end());
  int running = 0;
  int peak = 0;
  for (const auto& [nanos, delta] : events) {
    running += delta;
    peak = std::max(peak, running);
  }
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, 2);
}

// A map-join build reads its ORC dimension through the dimension scan's
// SARG: phase 1 drops the rows the dimension filter rejects before a Row is
// built, and the query's profile counts them.
TEST_F(ProfileTest, MapJoinBuildSkipsRowsTheDimensionFilterRejects) {
  std::vector<Row> stores;
  for (int i = 0; i < 4000; ++i) {
    stores.push_back({Value::Int(i), Value::Int(i * 7919 % 50),
                      Value::String("store-" + std::to_string(i))});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "stores",
                  *TypeDescription::Parse("struct<st_id:bigint,st_cat:bigint,"
                                          "st_name:string>"),
                  formats::FormatKind::kOrcFile,
                  codec::CompressionKind::kNone, stores)
                  .ok());
  std::vector<Row> sales;
  for (int i = 0; i < 20000; ++i) {
    sales.push_back({Value::Int(i * 13 % 4000), Value::Double(i * 0.5),
                     Value::String("sale-" + std::to_string(i))});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "sales",
                  *TypeDescription::Parse("struct<sa_store:bigint,"
                                          "sa_amount:double,sa_note:string>"),
                  formats::FormatKind::kTextFile,
                  codec::CompressionKind::kNone, sales)
                  .ok());
  const std::string sql =
      "SELECT st_name, SUM(sa_amount) AS total FROM sales "
      "JOIN stores ON sales.sa_store = stores.st_id WHERE st_cat = 3 "
      "GROUP BY st_name ORDER BY st_name";

  Driver driver(fs_.get(), catalog_.get());
  QueryResult profiled = MustExecute(&driver, "EXPLAIN PROFILE " + sql);
  ASSERT_NE(profiled.profile, nullptr);
  // The ORC dimension is read only by the map-join build.
  EXPECT_GT(profiled.counters.local_task_nanos.load(), 0);
  std::optional<telemetry::AttrValue> skipped =
      profiled.profile->FindAttr("rows_late_skipped");
  ASSERT_TRUE(skipped.has_value());
  EXPECT_GT(skipped->u, 0u);

  DriverOptions no_ppd;
  no_ppd.predicate_pushdown = false;
  Driver reference(fs_.get(), catalog_.get(), no_ppd);
  QueryResult want = MustExecute(&reference, sql);
  EXPECT_EQ(want.counters.rows_late_skipped.load(), 0u);
  ASSERT_EQ(profiled.rows.size(), want.rows.size());
  ASSERT_FALSE(want.rows.empty());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_EQ(profiled.rows[r][c].Compare(want.rows[r][c]), 0) << r;
    }
  }
}

}  // namespace
}  // namespace minihive::ql
