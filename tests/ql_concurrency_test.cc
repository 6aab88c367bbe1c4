/// Concurrent multi-query execution through one SessionManager: N threads
/// running distinct queries over the shared worker pool must produce
/// byte-identical results to serial runs, cancellation/deadline of one
/// query must never perturb another, and admission rejection must be typed
/// and leak-free (no stray scratch or attempt files).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/query_context.h"
#include "common/session.h"
#include "datagen/loader.h"
#include "ql/driver.h"
#include "vec/simd.h"

namespace minihive::ql {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 64 * 1024;  // Several blocks => several splits.
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<Catalog>(fs_.get());

    std::vector<Row> orders;
    for (int i = 0; i < 4000; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 128),
                        Value::Double((i % 97) * 2.25),
                        Value::String(i % 3 == 0 ? "open" : "done")});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse("struct<o_id:bigint,"
                                            "o_custkey:bigint,o_amount:double,"
                                            "o_status:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, orders, 3)
                    .ok());
    std::vector<Row> customers;
    for (int i = 0; i < 128; ++i) {
      customers.push_back(
          {Value::Int(i), Value::String("cust-" + std::to_string(i))});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "customers",
                    *TypeDescription::Parse("struct<c_id:bigint,"
                                            "c_name:string>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, customers, 1)
                    .ok());
  }

  void TearDown() override { fs_->set_fault_injector(nullptr); }

  std::vector<std::string> LeakedTempFiles() { return fs_->List("/tmp/"); }

  /// The per-thread workload: distinct queries with distinct shapes
  /// (group-by, filter, join) so concurrent queries exercise different
  /// plans against the same shared infrastructure.
  static std::string QueryForThread(int t) {
    switch (t % 4) {
      case 0:
        return "SELECT o_custkey, COUNT(*), SUM(o_amount) FROM orders "
               "GROUP BY o_custkey";
      case 1:
        return "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status";
      case 2:
        return "SELECT o_id, o_amount FROM orders "
               "WHERE o_amount > 100.0 AND o_status = 'open'";
      default:
        return "SELECT c_name, COUNT(*) FROM orders JOIN customers "
               "ON o_custkey = c_id GROUP BY c_name";
    }
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

/// Rows as one comparable byte string, order-preserving.
std::string Canonical(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '\x01';
    }
    out += '\x02';
  }
  return out;
}

TEST_F(ConcurrencyTest, ConcurrentQueriesMatchSerialByteForByte) {
  constexpr int kThreads = 8;
  // Serial reference runs, standalone driver (no session).
  std::vector<std::string> want(kThreads);
  {
    Driver driver(fs_.get(), catalog_.get(), DriverOptions());
    for (int t = 0; t < kThreads; ++t) {
      auto result = driver.Execute(QueryForThread(t));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      want[t] = Canonical(result->rows);
    }
  }

  SessionManagerOptions session_options;
  session_options.num_workers = 4;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");
  std::vector<std::string> got(kThreads);
  std::vector<Status> statuses(kThreads);
  // SIMD dispatch is process-wide: flip it from a background thread while
  // the queries run. The arms are byte-identical by construction, so
  // switching kernels mid-query must not change any result.
  std::atomic<bool> done{false};
  std::thread toggler([&done] {
    for (bool on = false; !done.load(); on = !on) {
      simd::SetEnabled(on);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    simd::SetEnabled(true);
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DriverOptions options;
      options.session = session.get();
      // Half the drivers run vectorized, half row-mode.
      options.vectorized_execution = t % 2 == 0;
      Driver driver(fs_.get(), catalog_.get(), options);
      auto result = driver.Execute(QueryForThread(t));
      statuses[t] = result.status();
      if (result.ok()) got[t] = Canonical(result->rows);
    });
  }
  for (std::thread& t : threads) t.join();
  done = true;
  toggler.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": "
                                  << statuses[t].ToString();
    EXPECT_EQ(got[t], want[t]) << "thread " << t << " diverged from serial";
  }
  EXPECT_TRUE(LeakedTempFiles().empty());
  // Every query went through admission and was released again.
  EXPECT_EQ(manager.root_budget()->used(),
            session_options.metadata_cache_bytes);
}

/// One attr of the profile's root (query) span, from its JSON: the text
/// before the first "children" key holds only the root's own attrs.
uint64_t QueryAttr(const telemetry::Span& profile, const std::string& key) {
  json::Writer writer;
  profile.WriteJson(&writer, /*include_timing=*/false);
  const std::string text = writer.str();
  const std::string root = text.substr(0, text.find("\"children\""));
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = root.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << root;
  if (pos == std::string::npos) return 0;
  return std::strtoull(root.c_str() + pos + needle.size(), nullptr, 10);
}

TEST_F(ConcurrencyTest, ProfileCountsOnlyTheQuerysOwnScanWork) {
  // Big enough that scans, not planning, fill each query's wall time, so
  // the crowded run's reads overlap other queries' reads.
  std::vector<Row> rows;
  for (int i = 0; i < 40000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 128),
                    Value::Double((i % 97) * 2.25),
                    Value::String(i % 3 == 0 ? "open" : "done")});
  }
  ASSERT_TRUE(datagen::CreateAndLoad(
                  catalog_.get(), "big_orders",
                  *TypeDescription::Parse("struct<o_id:bigint,"
                                          "o_custkey:bigint,o_amount:double,"
                                          "o_status:string>"),
                  formats::FormatKind::kOrcFile,
                  codec::CompressionKind::kNone, rows, 4)
                  .ok());
  SessionManagerOptions session_options;
  session_options.num_workers = 4;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");
  DriverOptions options;
  options.session = session.get();
  options.vectorized_execution = true;
  Driver driver(fs_.get(), catalog_.get(), options);
  const std::string sql =
      "EXPLAIN PROFILE SELECT o_id, o_amount FROM big_orders "
      "WHERE o_amount > 200.0";
  ASSERT_TRUE(driver.Execute(sql).ok());  // Warm the metadata cache.
  auto alone = driver.Execute(sql);
  ASSERT_TRUE(alone.ok()) << alone.status().ToString();

  // The same query again, while 8 other queries scan the same files on the
  // same session without pause.
  constexpr int kOthers = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<Status> statuses(kOthers);
  std::vector<std::thread> others;
  for (int t = 0; t < kOthers; ++t) {
    others.emplace_back([&, t] {
      DriverOptions other_options;
      other_options.session = session.get();
      other_options.vectorized_execution = t % 2 == 0;
      Driver other(fs_.get(), catalog_.get(), other_options);
      const std::string other_sql =
          t % 3 == 0
              ? "SELECT o_custkey, COUNT(*), SUM(o_amount) FROM big_orders "
                "GROUP BY o_custkey"
              : "SELECT o_id, o_amount FROM big_orders "
                "WHERE o_amount > 100.0 AND o_status = 'open'";
      started.fetch_add(1);
      do {
        auto result = other.Execute(other_sql);
        if (!result.ok()) statuses[t] = result.status();
      } while (!stop.load());
    });
  }
  while (started.load() < kOthers) std::this_thread::yield();
  auto crowded = driver.Execute(sql);
  stop = true;
  for (std::thread& t : others) t.join();
  ASSERT_TRUE(crowded.ok()) << crowded.status().ToString();
  for (int t = 0; t < kOthers; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "query " << t << ": "
                                  << statuses[t].ToString();
  }

  ASSERT_NE(alone->profile, nullptr);
  ASSERT_NE(crowded->profile, nullptr);
  for (const char* attr :
       {"rows_late_skipped", "lazy_decodes_avoided", "bytes_read",
        "stripes_read", "groups_read", "metadata_cache_hits",
        "metadata_cache_misses"}) {
    EXPECT_EQ(QueryAttr(*crowded->profile, attr),
              QueryAttr(*alone->profile, attr))
        << attr << " soaked up other queries' work";
  }
  // Not vacuous: the query scans, skips rows late and hits the cache.
  EXPECT_GT(QueryAttr(*alone->profile, "bytes_read"), 0u);
  EXPECT_GT(QueryAttr(*alone->profile, "stripes_read"), 0u);
  EXPECT_GT(QueryAttr(*alone->profile, "rows_late_skipped"), 0u);
  EXPECT_GT(QueryAttr(*alone->profile, "metadata_cache_hits"), 0u);
  EXPECT_EQ(Canonical(crowded->rows), Canonical(alone->rows));
}

TEST_F(ConcurrencyTest, CancellingOneQueryNeverPerturbsOthers) {
  SessionManagerOptions session_options;
  session_options.num_workers = 4;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");

  // The victim's reads stall on the orders table; the survivor queries the
  // customers table only, so the fault injection cannot touch it.
  FaultConfig faults;
  faults.read_delay_probability = 1.0;
  faults.delay_millis = 20;
  faults.path_filter = "/warehouse/orders";
  FaultInjector injector(faults);
  fs_->set_fault_injector(&injector);

  auto token = std::make_shared<CancellationToken>();
  Status victim_status, survivor_status;
  size_t survivor_rows = 0;
  std::thread victim([&] {
    DriverOptions options;
    options.session = session.get();
    Driver driver(fs_.get(), catalog_.get(), options);
    driver.set_cancellation_token(token);
    auto result = driver.Execute(
        "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
    victim_status = result.status();
  });
  std::thread survivor([&] {
    DriverOptions options;
    options.session = session.get();
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result =
        driver.Execute("SELECT c_id, c_name FROM customers");
    survivor_status = result.status();
    if (result.ok()) survivor_rows = result->rows.size();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  token->Cancel();
  victim.join();
  survivor.join();
  fs_->set_fault_injector(nullptr);

  EXPECT_TRUE(victim_status.IsCancelled()) << victim_status.ToString();
  ASSERT_TRUE(survivor_status.ok()) << survivor_status.ToString();
  EXPECT_EQ(survivor_rows, 128u);
  EXPECT_TRUE(LeakedTempFiles().empty())
      << "cancelled query leaked temp/attempt files";
}

TEST_F(ConcurrencyTest, DeadlineOfOneQueryIsInvisibleToOthers) {
  SessionManagerOptions session_options;
  session_options.num_workers = 4;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");

  FaultConfig faults;
  faults.read_delay_probability = 1.0;
  faults.delay_millis = 20;
  faults.path_filter = "/warehouse/orders";
  FaultInjector injector(faults);
  fs_->set_fault_injector(&injector);

  Status doomed_status, healthy_status;
  std::thread doomed([&] {
    DriverOptions options;
    options.session = session.get();
    options.query_timeout_millis = 100;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(
        "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
    doomed_status = result.status();
  });
  std::thread healthy([&] {
    DriverOptions options;
    options.session = session.get();
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute("SELECT COUNT(*) FROM customers");
    healthy_status = result.status();
  });
  doomed.join();
  healthy.join();
  fs_->set_fault_injector(nullptr);

  EXPECT_TRUE(doomed_status.IsDeadlineExceeded()) << doomed_status.ToString();
  EXPECT_TRUE(healthy_status.ok()) << healthy_status.ToString();
  EXPECT_TRUE(LeakedTempFiles().empty());
}

TEST_F(ConcurrencyTest, AdmissionRejectionIsTypedLeakFreeAndIsolated) {
  SessionManagerOptions session_options;
  session_options.num_workers = 2;
  // The cache + exactly one 64 MiB query slice fit; a second query cannot
  // be admitted, and queueing is disabled so it rejects immediately.
  session_options.metadata_cache_bytes = 4ull << 20;
  session_options.per_query_memory_budget_bytes = 64ull << 20;
  session_options.global_memory_budget_bytes = (4ull + 64) << 20;
  session_options.max_queued_queries = 0;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");

  // Hold the only query slot while a second query asks for admission.
  auto holder = manager.Admit("holder");
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();

  DriverOptions options;
  options.session = session.get();
  Driver driver(fs_.get(), catalog_.get(), options);
  auto rejected = driver.Execute("SELECT COUNT(*) FROM customers");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_TRUE(LeakedTempFiles().empty())
      << "rejected query left scratch files";

  // Releasing the slot makes the same driver usable again — rejection
  // poisoned nothing.
  holder = Status::Internal("drop");
  auto retried = driver.Execute("SELECT COUNT(*) FROM customers");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST_F(ConcurrencyTest, QueuedQueryRunsAfterBudgetFrees) {
  SessionManagerOptions session_options;
  session_options.num_workers = 2;
  session_options.metadata_cache_bytes = 4ull << 20;
  session_options.per_query_memory_budget_bytes = 64ull << 20;
  session_options.global_memory_budget_bytes = (4ull + 64) << 20;
  session_options.max_queued_queries = 8;
  session_options.admission_queue_timeout_millis = 10000;
  SessionManager manager(session_options);
  std::unique_ptr<Session> session = manager.NewSession("test");

  auto holder = manager.Admit("holder");
  ASSERT_TRUE(holder.ok());
  std::atomic<bool> query_done{false};
  std::thread queued([&] {
    DriverOptions options;
    options.session = session.get();
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute("SELECT COUNT(*) FROM customers");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    query_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(query_done.load());  // still waiting in the admission queue
  holder = Status::Internal("drop");
  queued.join();
  EXPECT_TRUE(query_done.load());
}

}  // namespace
}  // namespace minihive::ql
