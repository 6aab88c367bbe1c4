/// The distributed dispatch seam: wire protocol integrity (round trip,
/// CRC rejection), worker health tracking (heartbeats, blacklisting,
/// probation), retry backoff, speculative re-execution, exactly-once
/// output under duplicate deliveries, and graceful local fallback when the
/// whole pool is out.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/fault.h"
#include "common/worker_manager.h"
#include "datagen/loader.h"
#include "mr/transport.h"
#include "ql/driver.h"

namespace minihive::mr {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

TEST(TransportWireTest, RequestRoundTrip) {
  TaskRequest request;
  request.request_id = 77;
  request.job_id = 12;
  request.job_name = "job:groupby-1";
  request.kind = TaskKind::kMap;
  request.task_index = 3;
  request.attempt = 2;
  request.split.path = "/warehouse/orders/part-0";
  request.split.offset = 65536;
  request.split.length = 4096;
  request.split.locality_host = -1;
  request.split.source_tag = 1;

  std::string frame = EncodeTaskRequest(request);
  TaskRequest decoded;
  ASSERT_TRUE(DecodeTaskRequest(frame, &decoded).ok());
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.job_id, request.job_id);
  EXPECT_EQ(decoded.job_name, request.job_name);
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.task_index, request.task_index);
  EXPECT_EQ(decoded.attempt, request.attempt);
  EXPECT_EQ(decoded.split.path, request.split.path);
  EXPECT_EQ(decoded.split.offset, request.split.offset);
  EXPECT_EQ(decoded.split.length, request.split.length);
  EXPECT_EQ(decoded.split.locality_host, request.split.locality_host);
  EXPECT_EQ(decoded.split.source_tag, request.split.source_tag);
}

TEST(TransportWireTest, ResponseRoundTrip) {
  TaskResponse response;
  response.request_id = 99;
  response.job_id = 12;
  response.kind = TaskKind::kReduce;
  response.task_index = 1;
  response.attempt = 4;
  response.code = StatusCode::kIoError;
  response.message = "injected read fault on /warehouse/orders (call 7)";

  std::string frame = EncodeTaskResponse(response);
  TaskResponse decoded;
  ASSERT_TRUE(DecodeTaskResponse(frame, &decoded).ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_EQ(decoded.job_id, response.job_id);
  EXPECT_EQ(decoded.kind, response.kind);
  EXPECT_EQ(decoded.task_index, response.task_index);
  EXPECT_EQ(decoded.attempt, response.attempt);
  EXPECT_EQ(decoded.code, response.code);
  EXPECT_EQ(decoded.message, response.message);
}

TEST(TransportWireTest, EveryFlippedByteIsRejected) {
  TaskRequest request;
  request.request_id = 5;
  request.job_id = 1;
  request.job_name = "j";
  request.split.path = "/p";
  std::string frame = EncodeTaskRequest(request);

  // Flip each byte of the frame in turn: header corruption must fail the
  // magic/version/kind checks, payload corruption must fail the CRC, and
  // CRC corruption must mismatch the payload. No flip may decode cleanly
  // into the original request.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    TaskRequest decoded;
    Status status = DecodeTaskRequest(bad, &decoded);
    EXPECT_FALSE(status.ok()) << "flip at byte " << i << " decoded cleanly";
    if (!status.ok()) {
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    }
  }
}

TEST(TransportWireTest, TruncationAndGarbageAreRejected) {
  TaskResponse response;
  response.request_id = 8;
  std::string frame = EncodeTaskResponse(response);
  TaskResponse decoded;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_TRUE(DecodeTaskResponse(std::string_view(frame).substr(0, len),
                                   &decoded)
                    .IsCorruption())
        << "truncation to " << len << " bytes decoded cleanly";
  }
  EXPECT_TRUE(DecodeTaskResponse("not a frame at all", &decoded)
                  .IsCorruption());
  // Trailing junk after a valid frame is corruption, not silently ignored.
  EXPECT_TRUE(DecodeTaskResponse(frame + "x", &decoded).IsCorruption());
  // A request frame is not a response frame.
  TaskRequest request;
  EXPECT_TRUE(
      DecodeTaskResponse(EncodeTaskRequest(request), &decoded).IsCorruption());
  EXPECT_TRUE(
      DecodeTaskRequest(frame, &request).IsCorruption());
}

// ---------------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------------

TEST(BackoffTest, DeterministicCappedExponentialWithJitter) {
  BackoffPolicy policy;
  policy.base_millis = 10;
  policy.max_millis = 100;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  for (int attempt = 0; attempt < 8; ++attempt) {
    int64_t a = BackoffDelayMillis(policy, attempt, /*seed=*/42);
    int64_t b = BackoffDelayMillis(policy, attempt, /*seed=*/42);
    EXPECT_EQ(a, b) << "same (policy, attempt, seed) must be deterministic";
    // Jitter scales the exponential delay within [1-jitter, 1] of its
    // nominal value, and the cap bounds everything.
    int64_t nominal = std::min<int64_t>(
        policy.max_millis,
        static_cast<int64_t>(10 * std::pow(2.0, attempt)));
    EXPECT_LE(a, nominal);
    EXPECT_GE(a, nominal / 2);
  }
  // Different seeds decorrelate the jitter (not all equal across attempts).
  bool any_differs = false;
  for (int attempt = 0; attempt < 8 && !any_differs; ++attempt) {
    any_differs = BackoffDelayMillis(policy, attempt, 1) !=
                  BackoffDelayMillis(policy, attempt, 2);
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------------
// WorkerManager: liveness, blacklist, speculation arming.
// ---------------------------------------------------------------------------

WorkerPoolOptions SmallPool() {
  WorkerPoolOptions options;
  options.num_workers = 3;
  options.heartbeat_millis = 0;  // No monitor thread; tests drive probes.
  options.missed_heartbeats_dead = 2;
  options.worker_blacklist_failures = 2;
  options.blacklist_probation_millis = 60;
  options.min_duration_samples = 4;
  options.speculative_threshold = 2.0;
  options.speculative_min_millis = 10;
  return options;
}

TEST(WorkerManagerTest, HeartbeatMissesKillAndRevive) {
  WorkerManager manager(SmallPool());
  EXPECT_TRUE(manager.IsAlive(1));
  manager.ReportHeartbeat(1, false);
  EXPECT_TRUE(manager.IsAlive(1)) << "one miss must not kill";
  manager.ReportHeartbeat(1, false);
  EXPECT_FALSE(manager.IsAlive(1)) << "missed_heartbeats_dead misses kill";
  EXPECT_FALSE(manager.IsUsable(1));
  EXPECT_EQ(manager.stats().deaths, 1u);
  EXPECT_EQ(manager.stats().heartbeats_missed, 2u);
  manager.ReportHeartbeat(1, true);
  EXPECT_TRUE(manager.IsAlive(1)) << "a successful probe revives";
}

TEST(WorkerManagerTest, DispatchFailuresBlacklistThenProbation) {
  WorkerManager manager(SmallPool());
  manager.ReportDispatch(0, false);
  EXPECT_FALSE(manager.IsBlacklisted(0));
  manager.ReportDispatch(0, false);
  EXPECT_TRUE(manager.IsBlacklisted(0))
      << "worker_blacklist_failures consecutive failures blacklist";
  EXPECT_FALSE(manager.IsUsable(0));
  EXPECT_EQ(manager.stats().blacklists, 1u);

  // Probation: after the sit-out the worker becomes usable again...
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(manager.IsBlacklisted(0));
  EXPECT_TRUE(manager.IsUsable(0));
  // ...but one failure on probation re-blacklists immediately.
  manager.ReportDispatch(0, false);
  EXPECT_TRUE(manager.IsBlacklisted(0));
  EXPECT_EQ(manager.stats().blacklists, 2u);

  // A success on probation fully re-admits (failure streak cleared).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  manager.ReportDispatch(0, true);
  EXPECT_EQ(manager.stats().probation_readmissions, 1u);
  manager.ReportDispatch(0, false);
  EXPECT_FALSE(manager.IsBlacklisted(0))
      << "re-admission must reset the failure streak";
}

TEST(WorkerManagerTest, SuccessResetsFailureStreak) {
  WorkerManager manager(SmallPool());
  manager.ReportDispatch(2, false);
  manager.ReportDispatch(2, true);
  manager.ReportDispatch(2, false);
  EXPECT_FALSE(manager.IsBlacklisted(2))
      << "only consecutive failures count toward the blacklist";
}

TEST(WorkerManagerTest, PickWorkerSkipsUnusableAndHonoursExclude) {
  WorkerManager manager(SmallPool());
  manager.ReportHeartbeat(0, false);
  manager.ReportHeartbeat(0, false);  // 0 dead.
  manager.ReportDispatch(2, false);
  manager.ReportDispatch(2, false);  // 2 blacklisted.
  for (uint64_t salt = 0; salt < 16; ++salt) {
    auto pick = manager.PickWorker(salt);
    ASSERT_TRUE(pick.ok());
    EXPECT_EQ(*pick, 1);
  }
  // Excluding the only usable worker still returns it (one-worker pools
  // speculate on the same worker rather than not at all).
  auto pick = manager.PickWorker(7, /*exclude=*/1);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1);

  manager.ReportHeartbeat(1, false);
  manager.ReportHeartbeat(1, false);  // 1 dead too: nobody usable.
  auto none = manager.PickWorker(7);
  ASSERT_FALSE(none.ok());
  EXPECT_TRUE(none.status().IsResourceExhausted());
}

TEST(WorkerManagerTest, SpeculationArmsAfterEnoughSamples) {
  WorkerManager manager(SmallPool());
  EXPECT_EQ(manager.SpeculativeDelayMillis(), -1)
      << "no samples: speculation disarmed";
  for (int i = 0; i < 4; ++i) manager.RecordTaskDurationMillis(20);
  // p99 of the all-20 window is 20; threshold 2.0 => 40ms, above the floor.
  EXPECT_EQ(manager.SpeculativeDelayMillis(), 40);

  WorkerPoolOptions off = SmallPool();
  off.speculative_threshold = 0;
  WorkerManager disabled(off);
  for (int i = 0; i < 8; ++i) disabled.RecordTaskDurationMillis(20);
  EXPECT_EQ(disabled.SpeculativeDelayMillis(), -1);
}

// ---------------------------------------------------------------------------
// Dispatch coordination against the simulated remote transport.
// ---------------------------------------------------------------------------

class DispatchTest : public ::testing::Test {
 protected:
  static WorkerPoolOptions Pool(int workers) {
    WorkerPoolOptions options = SmallPool();
    options.num_workers = workers;
    options.rpc_timeout_millis = 400;
    options.retry_backoff.base_millis = 1;
    options.retry_backoff.max_millis = 10;
    return options;
  }

  DispatchOutcome RunOne(DispatchCoordinator* coordinator, uint64_t job_id,
                         int max_attempts = 4) {
    InputSplit split;
    split.path = "/warehouse/t/part-0";
    return coordinator->RunTask(job_id, "job:test", TaskKind::kMap,
                                /*task_index=*/0, split, max_attempts,
                                /*query_ctx=*/nullptr);
  }
};

TEST_F(DispatchTest, SimpleDispatchSucceeds) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerManager manager(Pool(2));
  DispatchCoordinator coordinator(&transport, &manager);

  std::atomic<int> runs{0};
  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest& request,
                                const CancellationToken*) {
    EXPECT_EQ(request.job_id, job);
    EXPECT_EQ(request.task_index, 0);
    runs.fetch_add(1);
    return Status::OK();
  });
  DispatchOutcome outcome = RunOne(&coordinator, job);
  coordinator.EndJob(job);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(outcome.dispatches, 1);
  EXPECT_EQ(outcome.winning_attempt, 0);
  EXPECT_FALSE(outcome.ran_local_fallback);
}

TEST_F(DispatchTest, LongTaskIsNotAnRpcTimeout) {
  // The rpc timeout bounds the messages, not the work: a task running three
  // timeouts long, with no fault injected, succeeds on its first launch.
  WorkerPoolOptions pool = Pool(2);
  pool.rpc_timeout_millis = 100;
  SimulatedRemoteTransport transport(pool);
  WorkerManager manager(pool);
  DispatchCoordinator coordinator(&transport, &manager);

  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest&, const CancellationToken*) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(3 * pool.rpc_timeout_millis));
    return Status::OK();
  });
  DispatchOutcome outcome = RunOne(&coordinator, job);
  coordinator.EndJob(job);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.dispatches, 1);
  EXPECT_EQ(outcome.failures, 0);
}

TEST_F(DispatchTest, FailingExecutorRetriesWithBackoffThenSucceeds) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerManager manager(Pool(2));
  DispatchCoordinator coordinator(&transport, &manager);

  std::atomic<int> runs{0};
  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest&, const CancellationToken*) {
    return runs.fetch_add(1) < 2 ? Status::IoError("transient") : Status::OK();
  });
  DispatchOutcome outcome = RunOne(&coordinator, job);
  coordinator.EndJob(job);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(outcome.failures, 2);
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_GT(outcome.retried_nanos, 0);
}

TEST_F(DispatchTest, DeterministicFailureSurfacesAfterMaxAttempts) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerManager manager(Pool(2));
  DispatchCoordinator coordinator(&transport, &manager);

  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest&, const CancellationToken*) {
    return Status::InvalidArgument("bad row");
  });
  DispatchOutcome outcome = RunOne(&coordinator, job, /*max_attempts=*/3);
  coordinator.EndJob(job);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsInvalidArgument()) << outcome.status.ToString();
  EXPECT_EQ(outcome.failures, 3);
  EXPECT_EQ(outcome.winning_attempt, -1);
}

TEST_F(DispatchTest, SpeculativeDuplicateBeatsStraggler) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerPoolOptions pool = Pool(2);
  pool.speculative_threshold = 1.0;
  pool.speculative_min_millis = 20;
  pool.min_duration_samples = 1;
  WorkerManager manager(pool);
  // Pre-arm the straggler detector: typical tasks take ~5ms.
  for (int i = 0; i < 4; ++i) manager.RecordTaskDurationMillis(5);
  DispatchCoordinator coordinator(&transport, &manager);

  // The first physical attempt straggles (cooperatively, polling its kill
  // switch); every later attempt is instant. The speculative duplicate must
  // win and the straggler must be cancelled, not joined-on for its full nap.
  std::atomic<int> calls{0};
  std::atomic<bool> straggler_cancelled{false};
  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(
      job, [&](const TaskRequest&, const CancellationToken* cancel) {
        if (calls.fetch_add(1) == 0) {
          for (int i = 0; i < 400; ++i) {
            if (cancel != nullptr && cancel->cancelled()) {
              straggler_cancelled.store(true);
              return Status::Cancelled("straggler killed");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }
        return Status::OK();
      });
  DispatchOutcome outcome = RunOne(&coordinator, job);
  coordinator.EndJob(job);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.speculative_launches, 1);
  EXPECT_TRUE(outcome.speculative_won);
  EXPECT_EQ(outcome.winning_attempt, 1) << "the duplicate's attempt id wins";
  EXPECT_TRUE(straggler_cancelled.load());
  EXPECT_EQ(outcome.failures, 0) << "a cancelled loser is not a failure";
}

TEST_F(DispatchTest, AllWorkersOutFallsBackToLocalRun) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerManager manager(Pool(2));
  DispatchCoordinator coordinator(&transport, &manager);
  // Kill both workers via missed heartbeats.
  for (int w = 0; w < 2; ++w) {
    manager.ReportHeartbeat(w, false);
    manager.ReportHeartbeat(w, false);
  }

  std::atomic<int> runs{0};
  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest&, const CancellationToken*) {
    runs.fetch_add(1);
    return Status::OK();
  });
  DispatchOutcome outcome = RunOne(&coordinator, job);
  coordinator.EndJob(job);
  EXPECT_TRUE(outcome.status.ok())
      << "degradation must not fail the query: " << outcome.status.ToString();
  EXPECT_TRUE(outcome.ran_local_fallback);
  EXPECT_EQ(runs.load(), 1);
}

TEST_F(DispatchTest, CrashedWorkerFastFailsAndWorkRoutesAround) {
  SimulatedRemoteTransport transport(Pool(2));
  WorkerManager manager(Pool(2));
  DispatchCoordinator coordinator(&transport, &manager);

  // Crash worker 0 deterministically on its first delivery.
  FaultConfig config;
  config.worker_crash_before_commit_probability = 1.0;
  config.path_filter = "worker-0/";
  FaultInjector injector(config);
  transport.set_fault_injector(&injector);

  std::atomic<int> runs{0};
  uint64_t job = coordinator.NewJobId();
  coordinator.StartJob(job, [&](const TaskRequest&, const CancellationToken*) {
    runs.fetch_add(1);
    return Status::OK();
  });
  // Enough tasks that at least one is placed on worker 0 first.
  int crashes_seen = 0;
  for (int task = 0; task < 8; ++task) {
    InputSplit split;
    split.path = "/warehouse/t/part-" + std::to_string(task);
    DispatchOutcome outcome =
        coordinator.RunTask(job, "job:test", TaskKind::kMap, task, split,
                            /*max_attempts=*/4, nullptr);
    EXPECT_TRUE(outcome.status.ok())
        << "task " << task << ": " << outcome.status.ToString();
    crashes_seen += outcome.failures;
  }
  coordinator.EndJob(job);
  transport.set_fault_injector(nullptr);
  EXPECT_TRUE(transport.WorkerCrashed(0)) << "the injected crash never fired";
  EXPECT_GT(crashes_seen, 0)
      << "no task ever hit the crashed worker; sweep is vacuous";
  EXPECT_EQ(runs.load(), 8) << "every task must still run exactly once";
}

// ---------------------------------------------------------------------------
// End-to-end queries through the dispatch layer.
// ---------------------------------------------------------------------------

class DispatchQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs::FileSystemOptions fs_options;
    fs_options.block_size = 64 * 1024;
    fs_ = std::make_unique<dfs::FileSystem>(fs_options);
    catalog_ = std::make_unique<ql::Catalog>(fs_.get());
    std::vector<Row> orders;
    for (int i = 0; i < 3000; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 64),
                        Value::Double((i % 53) * 1.5)});
    }
    ASSERT_TRUE(datagen::CreateAndLoad(
                    catalog_.get(), "orders",
                    *TypeDescription::Parse(
                        "struct<o_id:bigint,o_custkey:bigint,"
                        "o_amount:double>"),
                    formats::FormatKind::kOrcFile,
                    codec::CompressionKind::kNone, orders, 3)
                    .ok());
  }

  static std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const std::string kSql =
      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_amount) AS total "
      "FROM orders GROUP BY o_custkey";

  std::unique_ptr<dfs::FileSystem> fs_;
  std::unique_ptr<ql::Catalog> catalog_;
};

TEST_F(DispatchQueryTest, RemoteTransportMatchesPlainEngine) {
  ql::DriverOptions plain;
  plain.num_workers = 2;
  ql::Driver baseline(fs_.get(), catalog_.get(), plain);
  auto golden = baseline.Execute(kSql);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  auto want = Canonicalize(golden->rows);
  ASSERT_FALSE(want.empty());

  ql::DriverOptions options;
  options.num_workers = 2;
  options.workers.num_workers = 3;
  ql::Driver driver(fs_.get(), catalog_.get(), options);
  ASSERT_NE(driver.transport(), nullptr);
  auto result = driver.Execute(kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonicalize(result->rows), want);
  EXPECT_GT(result->counters.transport_dispatches.load(), 0u)
      << "tasks did not actually route through the dispatch layer";
  EXPECT_EQ(result->counters.transport_fallbacks.load(), 0u);

  // Both paths run the same attempt bodies, so they count the same work.
  const JobCounters& local = golden->counters;
  const JobCounters& remote = result->counters;
  for (auto field : {&JobCounters::map_input_records,
                     &JobCounters::map_output_records,
                     &JobCounters::reduce_input_records,
                     &JobCounters::shuffled_bytes,
                     &JobCounters::combine_input_records,
                     &JobCounters::combine_output_records}) {
    EXPECT_EQ((remote.*field).load(), (local.*field).load());
  }
  EXPECT_GT(local.map_input_records.load(), 0u);
  EXPECT_EQ(remote.map_tasks, local.map_tasks);
  EXPECT_EQ(remote.reduce_tasks, local.reduce_tasks);
}

TEST_F(DispatchQueryTest, DuplicateDeliveriesCommitExactlyOnce) {
  ql::DriverOptions plain;
  plain.num_workers = 2;
  ql::Driver baseline(fs_.get(), catalog_.get(), plain);
  auto golden = baseline.Execute(kSql);
  ASSERT_TRUE(golden.ok());
  auto want = Canonicalize(golden->rows);

  // Duplicate EVERY request delivery: each task attempt executes (and
  // commits its attempt files) twice. The engine must still consume exactly
  // one attempt's output — identical rows, not doubled counts.
  FaultConfig config;
  config.send_duplicate_probability = 1.0;
  FaultInjector injector(config);

  ql::DriverOptions options;
  options.num_workers = 2;
  options.workers.num_workers = 2;
  ql::Driver driver(fs_.get(), catalog_.get(), options);
  SimulatedRemoteTransport* transport = driver.transport();
  transport->set_fault_injector(&injector);
  auto result = driver.Execute(kSql);
  transport->set_fault_injector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonicalize(result->rows), want)
      << "duplicate deliveries changed the result";
  EXPECT_GT(injector.stats().sends_duplicated.load(), 0u)
      << "no duplication ever fired; test is vacuous";
}

TEST_F(DispatchQueryTest, TotalResponseLossFailsTypedNotHung) {
  FaultConfig config;
  config.response_drop_probability = 1.0;
  FaultInjector injector(config);

  ql::DriverOptions options;
  options.num_workers = 2;
  options.max_task_attempts = 2;
  options.workers.num_workers = 2;
  options.workers.rpc_timeout_millis = 150;
  options.workers.retry_backoff.max_millis = 20;
  ql::Driver driver(fs_.get(), catalog_.get(), options);
  driver.transport()->set_fault_injector(&injector);
  auto result = driver.Execute(kSql);
  ASSERT_FALSE(result.ok()) << "every response dropped, yet the query passed";
  EXPECT_TRUE(result.status().IsDeadlineExceeded() ||
              result.status().IsIoError())
      << result.status().ToString();
  EXPECT_GT(injector.stats().responses_dropped.load(), 0u);
}

TEST_F(DispatchQueryTest, HeartbeatLossDegradesToLocalFallback) {
  // Every heartbeat dropped: the monitor declares all workers dead, and
  // every subsequent dispatch falls back to the local pool. The query MUST
  // still succeed — full-blacklist degradation is not an error.
  FaultConfig config;
  config.heartbeat_drop_probability = 1.0;
  FaultInjector injector(config);

  ql::DriverOptions plain;
  plain.num_workers = 2;
  ql::Driver baseline(fs_.get(), catalog_.get(), plain);
  auto golden = baseline.Execute(kSql);
  ASSERT_TRUE(golden.ok());
  auto want = Canonicalize(golden->rows);

  ql::DriverOptions options;
  options.num_workers = 2;
  options.workers.num_workers = 2;
  options.workers.heartbeat_millis = 10;
  options.workers.missed_heartbeats_dead = 2;
  ql::Driver driver(fs_.get(), catalog_.get(), options);
  driver.transport()->set_fault_injector(&injector);
  // Let the monitor run enough probe rounds to kill both workers.
  for (int i = 0; i < 100 && (driver.worker_manager()->IsAlive(0) ||
                              driver.worker_manager()->IsAlive(1));
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(driver.worker_manager()->IsAlive(0));
  ASSERT_FALSE(driver.worker_manager()->IsAlive(1));

  auto result = driver.Execute(kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonicalize(result->rows), want);
  EXPECT_GT(result->counters.transport_fallbacks.load(), 0u)
      << "the fallback path never ran";
  EXPECT_GT(injector.stats().heartbeats_dropped.load(), 0u);
  EXPECT_GT(driver.worker_manager()->stats().deaths, 0u);
}

TEST_F(DispatchQueryTest, ExplainProfileSurfacesTransportDeltas) {
  ql::DriverOptions options;
  options.num_workers = 2;
  options.workers.num_workers = 2;
  ql::Driver driver(fs_.get(), catalog_.get(), options);
  auto result = driver.Execute("EXPLAIN PROFILE " + kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan_text.find("transport_dispatches"),
            std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("dispatch_transport"), std::string::npos);
}

}  // namespace
}  // namespace minihive::mr
