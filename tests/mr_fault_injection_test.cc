/// Deterministic fault-injection sweep over the whole stack: DFS read
/// errors and silent byte flips under real queries (GROUP BY, join). The
/// contract under test is the paper's durability story end-to-end — every
/// run must either produce byte-identical results to the fault-free run
/// (task retries absorbed the faults) or fail with a typed error
/// (IoError / Corruption). A silently wrong answer is the only outcome
/// that fails this test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "datagen/loader.h"
#include "mr/transport.h"
#include "ql/driver.h"

namespace minihive::ql {
namespace {

/// Canonical form of a result set: one string per row, sorted, so runs
/// with different task interleavings compare equal.
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

class FaultSweepTest : public ::testing::Test {
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

  void TearDown() override { fs_->set_fault_injector(nullptr); }

  Result<QueryResult> Execute(const std::string& sql) {
    DriverOptions options;
    options.num_workers = 2;
    Driver driver(fs_.get(), catalog_.get(), options);
    return driver.Execute(sql);
  }

  /// Runs `sql` once fault-free (the golden answer), then once per seed
  /// under injection, and enforces identical-or-typed-error per run.
  void Sweep(const std::string& sql, int num_seeds, FaultConfig base) {
    auto golden = Execute(sql);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    std::vector<std::string> want = Canonicalize(golden->rows);
    ASSERT_FALSE(want.empty());

    int successes = 0;
    int typed_failures = 0;
    uint64_t injected = 0;
    uint64_t recovered_failures = 0;
    for (int seed = 0; seed < num_seeds; ++seed) {
      FaultConfig config = base;
      config.seed = static_cast<uint64_t>(seed) * 7919 + 1;
      FaultInjector injector(config);
      fs_->set_fault_injector(&injector);
      auto result = Execute(sql);
      fs_->set_fault_injector(nullptr);
      injected += injector.stats().total();

      if (!result.ok()) {
        // Acceptable only as a *typed* infrastructure error.
        EXPECT_TRUE(result.status().IsIoError() ||
                    result.status().IsCorruption())
            << "seed " << seed << ": untyped failure "
            << result.status().ToString();
        ++typed_failures;
        continue;
      }
      ++successes;
      recovered_failures += result->counters.map_task_failures.load() +
                            result->counters.reduce_task_failures.load();
      EXPECT_EQ(Canonicalize(result->rows), want)
          << "seed " << seed << ": run succeeded with WRONG rows";
      // Only winning attempts count: failed attempts' scan work never
      // reaches the query's counters.
      for (auto field : {&mr::JobCounters::map_input_records,
                         &mr::JobCounters::stripes_read,
                         &mr::JobCounters::groups_read}) {
        EXPECT_EQ((result->counters.*field).load(),
                  (golden->counters.*field).load())
            << "seed " << seed << ": failed attempts were counted";
      }
    }

    // The sweep is only meaningful if faults actually fired and retries
    // actually recovered some of them.
    EXPECT_GT(injected, 0u) << "injector never fired; sweep is vacuous";
    EXPECT_GT(successes, 0) << "every seed failed; retries are not working";
    EXPECT_GT(recovered_failures, 0u)
        << "no run recovered from a failed attempt; probabilities too low "
           "to exercise the retry path";
    SCOPED_TRACE("sweep: " + std::to_string(successes) + " ok, " +
                 std::to_string(typed_failures) + " typed failures, " +
                 std::to_string(injected) + " faults injected");
  }

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(FaultSweepTest, GroupByUnderReadErrorsAndByteFlips) {
  FaultConfig config;
  config.read_error_probability = 0.01;
  config.read_flip_probability = 0.005;
  Sweep(
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey",
      25, config);
}

TEST_F(FaultSweepTest, JoinGroupByUnderReadErrorsAndByteFlips) {
  FaultConfig config;
  config.read_error_probability = 0.01;
  config.read_flip_probability = 0.005;
  Sweep(
      "SELECT c_segment, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders JOIN customers ON o_custkey = c_id "
      "GROUP BY c_segment",
      25, config);
}

TEST_F(FaultSweepTest, HighFaultRateNeverProducesWrongRows) {
  // Well past the retry budget's recovery point: most runs will die, which
  // is fine — the assertion that matters is identical-or-typed-error.
  const std::string sql =
      "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status";
  auto golden = Execute(sql);
  ASSERT_TRUE(golden.ok());
  std::vector<std::string> want = Canonicalize(golden->rows);

  for (int seed = 0; seed < 10; ++seed) {
    FaultConfig config;
    config.seed = 1000 + seed;
    config.read_error_probability = 0.25;
    config.read_flip_probability = 0.10;
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    auto result = Execute(sql);
    fs_->set_fault_injector(nullptr);
    if (result.ok()) {
      EXPECT_EQ(Canonicalize(result->rows), want) << "seed " << seed;
    } else {
      EXPECT_TRUE(result.status().IsIoError() ||
                  result.status().IsCorruption())
          << "seed " << seed << ": " << result.status().ToString();
    }
  }
}

TEST_F(FaultSweepTest, DelayedReadsTimeOutAndRetryToSuccess) {
  // Straggler injection: a stalled read makes its task attempt blow the
  // per-attempt deadline; the engine must kill it (DeadlineExceeded), count
  // it in tasks_timed_out, and retry it to success. The sweep contract is
  // the usual one — identical rows or a typed error — plus evidence that
  // the timeout→retry→success path actually ran.
  const std::string sql =
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey";
  auto golden = Execute(sql);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::vector<std::string> want = Canonicalize(golden->rows);

  auto run_with_timeout = [&](uint64_t seed) {
    FaultConfig config;
    config.seed = seed;
    // Rare but decisive: one stalled read (1 s) pushes an attempt far past
    // the 400 ms deadline; the retry redraws fresh delay decisions, so
    // back-to-back stalls of the same task are unlikely. The deadline is
    // generous enough that an undelayed attempt never trips it, even under
    // sanitizer slowdown.
    config.read_delay_probability = 0.04;
    config.delay_millis = 1000;
    config.path_filter = "/warehouse/orders";
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    DriverOptions options;
    options.num_workers = 2;
    options.task_timeout_millis = 400;
    Driver driver(fs_.get(), catalog_.get(), options);
    auto result = driver.Execute(sql);
    fs_->set_fault_injector(nullptr);
    return std::make_pair(std::move(result),
                          injector.stats().read_delays.load());
  };

  int successes = 0;
  uint64_t delays_injected = 0;
  uint64_t recovered_timeouts = 0;
  for (int seed = 0; seed < 12; ++seed) {
    auto [result, delays] = run_with_timeout(9000 + seed);
    delays_injected += delays;
    if (!result.ok()) {
      // A task whose every attempt stalled dies with the timeout's typed
      // error after max_task_attempts — acceptable, like any typed failure.
      EXPECT_TRUE(result.status().IsDeadlineExceeded() ||
                  result.status().IsIoError())
          << "seed " << seed << ": " << result.status().ToString();
      continue;
    }
    ++successes;
    recovered_timeouts += result->counters.tasks_timed_out.load();
    EXPECT_EQ(Canonicalize(result->rows), want)
        << "seed " << seed << ": run succeeded with WRONG rows";
    // Straggler kills are failures the job recovered from, so they must
    // also show up in the generic failure counters.
    EXPECT_GE(result->counters.map_task_failures.load() +
                  result->counters.reduce_task_failures.load(),
              result->counters.tasks_timed_out.load());
  }
  EXPECT_GT(delays_injected, 0u) << "no delay ever fired; sweep is vacuous";
  EXPECT_GT(successes, 0) << "every seed failed; timeout retries not working";
  EXPECT_GT(recovered_timeouts, 0u)
      << "no successful run recovered from a timed-out attempt";
}

TEST_F(FaultSweepTest, DispatchedWorkerLossSweep) {
  // The distributed dispatch layer under combined transport faults: worker
  // crashes (before and after output commit), request drops and duplicates,
  // response drops, heartbeat loss (killing workers mid-query) and
  // straggler delivery delays — all at once, swept over seeds. The contract
  // is the same end-to-end durability story as the DFS sweeps: every run
  // produces byte-identical rows or a typed infrastructure error, never a
  // silently wrong answer, never a hang, and never a leaked temp file.
  const std::string sql =
      "SELECT c_segment, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders JOIN customers ON o_custkey = c_id "
      "GROUP BY c_segment";
  auto golden = Execute(sql);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::vector<std::string> want = Canonicalize(golden->rows);
  ASSERT_FALSE(want.empty());

  int successes = 0;
  int typed_failures = 0;
  uint64_t transport_faults = 0;
  uint64_t crashes = 0;
  uint64_t dispatches = 0;
  uint64_t retries_or_fallbacks = 0;
  for (int seed = 0; seed < 22; ++seed) {
    FaultConfig config;
    config.seed = static_cast<uint64_t>(seed) * 104729 + 13;
    config.send_drop_probability = 0.03;
    config.send_duplicate_probability = 0.03;
    config.response_drop_probability = 0.02;
    config.worker_crash_before_commit_probability = 0.01;
    config.worker_crash_after_commit_probability = 0.01;
    config.heartbeat_drop_probability = 0.20;
    config.send_delay_probability = 0.05;
    config.delay_millis = 120;
    FaultInjector injector(config);

    DriverOptions options;
    options.num_workers = 2;
    options.workers.num_workers = 3;
    options.workers.rpc_timeout_millis = 400;
    options.workers.heartbeat_millis = 15;
    options.workers.missed_heartbeats_dead = 2;
    options.workers.worker_blacklist_failures = 2;
    options.workers.retry_backoff.max_millis = 50;
    options.workers.seed = config.seed;
    Driver driver(fs_.get(), catalog_.get(), options);
    mr::SimulatedRemoteTransport* transport = driver.transport();
    transport->set_fault_injector(&injector);
    auto result = driver.Execute(sql);
    transport->set_fault_injector(nullptr);
    transport_faults += injector.stats().transport_total();
    for (int w = 0; w < 3; ++w) crashes += transport->WorkerCrashed(w);

    // A failed or crashed-out run must never leak attempt/temp files into
    // the shared /tmp namespace (the next query lists it).
    EXPECT_TRUE(fs_->List("/tmp/").empty())
        << "seed " << seed << " leaked temp files";

    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsIoError() ||
                  result.status().IsCorruption() ||
                  result.status().IsDeadlineExceeded())
          << "seed " << seed << ": untyped failure "
          << result.status().ToString();
      ++typed_failures;
      continue;
    }
    ++successes;
    dispatches += result->counters.transport_dispatches.load();
    retries_or_fallbacks += result->counters.transport_retries.load() +
                            result->counters.transport_fallbacks.load();
    EXPECT_EQ(Canonicalize(result->rows), want)
        << "seed " << seed << ": run succeeded with WRONG rows";
  }

  EXPECT_GT(transport_faults, 0u)
      << "no transport fault ever fired; sweep is vacuous";
  EXPECT_GT(crashes, 0u) << "no worker ever crashed; sweep is vacuous";
  EXPECT_GT(successes, 0) << "every seed failed; dispatch retries not working";
  EXPECT_GT(dispatches, 0u) << "tasks never routed through the transport";
  EXPECT_GT(retries_or_fallbacks, 0u)
      << "no run recovered via retry or fallback; probabilities too low";
  SCOPED_TRACE("dispatch sweep: " + std::to_string(successes) + " ok, " +
               std::to_string(typed_failures) + " typed failures, " +
               std::to_string(transport_faults) + " transport faults");
}

TEST_F(FaultSweepTest, ResultFetchRetriesReadErrors) {
  // Read errors only on committed result files: the jobs run clean and only
  // the driver's result fetch sees faults. Its attempt loop must absorb them
  // or fail with a typed error, and only the winning attempt of each file
  // may count, so a recovered run reports the fault-free bytes_read. One
  // worker keeps the metadata-cache hits, and so bytes_read, deterministic.
  const std::string sql =
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey";
  DriverOptions options;
  options.num_workers = 1;
  auto execute = [&] {
    Driver driver(fs_.get(), catalog_.get(), options);
    return driver.Execute(sql);
  };
  auto golden = execute();
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::vector<std::string> want = Canonicalize(golden->rows);

  int recovered = 0;
  uint64_t read_errors = 0;
  for (int seed = 0; seed < 20; ++seed) {
    FaultConfig config;
    config.seed = 7000 + seed;
    config.read_error_probability = 0.3;
    config.path_filter = "/result/part-";
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    auto result = execute();
    fs_->set_fault_injector(nullptr);
    const uint64_t seed_errors = injector.stats().read_errors.load();
    read_errors += seed_errors;
    EXPECT_TRUE(fs_->List("/tmp/").empty())
        << "seed " << seed << " leaked temp files";
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsIoError())
          << "seed " << seed << ": " << result.status().ToString();
      continue;
    }
    if (seed_errors > 0) ++recovered;
    EXPECT_EQ(Canonicalize(result->rows), want)
        << "seed " << seed << ": run succeeded with WRONG rows";
    EXPECT_EQ(result->counters.bytes_read.load(),
              golden->counters.bytes_read.load())
        << "seed " << seed << ": failed fetch attempts were counted";
  }
  EXPECT_GT(read_errors, 0u) << "no fetch read ever failed; test is vacuous";
  EXPECT_GT(recovered, 0) << "no run recovered from a failed fetch attempt";
}

TEST_F(FaultSweepTest, WriteFaultsAreRetriedOrTyped) {
  // Append/close failures hit the shuffle spill and sink writers; a failed
  // write attempt must be retried from scratch, never half-committed.
  const std::string sql =
      "SELECT o_custkey, MIN(o_id), MAX(o_id) FROM orders "
      "GROUP BY o_custkey";
  auto golden = Execute(sql);
  ASSERT_TRUE(golden.ok());
  std::vector<std::string> want = Canonicalize(golden->rows);

  int successes = 0;
  for (int seed = 0; seed < 15; ++seed) {
    FaultConfig config;
    config.seed = 5000 + seed;
    config.append_error_probability = 0.002;
    config.close_error_probability = 0.01;
    FaultInjector injector(config);
    fs_->set_fault_injector(&injector);
    auto result = Execute(sql);
    fs_->set_fault_injector(nullptr);
    if (result.ok()) {
      ++successes;
      EXPECT_EQ(Canonicalize(result->rows), want) << "seed " << seed;
    } else {
      EXPECT_TRUE(result.status().IsIoError() ||
                  result.status().IsCorruption())
          << "seed " << seed << ": " << result.status().ToString();
    }
  }
  EXPECT_GT(successes, 0);
}

}  // namespace
}  // namespace minihive::ql
