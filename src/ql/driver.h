#ifndef MINIHIVE_QL_DRIVER_H_
#define MINIHIVE_QL_DRIVER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cache.h"
#include "common/session.h"
#include "common/worker_manager.h"
#include "mr/engine.h"
#include "mr/transport.h"
#include "ql/catalog.h"
#include "ql/runtime.h"

namespace minihive::ql {

/// Session-level switches — each maps to one of the paper's advancements so
/// the benchmarks can toggle them independently.
struct DriverOptions {
  /// Predicate pushdown (ORC PPD, §4.2, hive.optimize.ppd): WHERE
  /// conjuncts move below joins onto the input they reference, and scan
  /// chains' filters become SARGs. Off leaves the WHERE Filter above the
  /// last join and scans without SARGs; column pruning runs either way.
  bool predicate_pushdown = true;
  /// Reduce-Join -> Map-Join conversion with its per-join Map-only job.
  bool mapjoin_conversion = true;
  uint64_t mapjoin_threshold_bytes = 256ULL * 1024 * 1024;
  /// §5.1: merge Map-only jobs into their children.
  bool merge_maponly_jobs = true;
  /// §5.2: the Correlation Optimizer.
  bool correlation_optimizer = false;
  /// §6: vectorized execution for eligible map pipelines.
  bool vectorized_execution = false;
  /// Two-phase (PREWHERE-style) late materialization in vectorized ORC
  /// scans: row-evaluable pushed-down predicates run first on just the
  /// columns they reference; remaining projected columns decode only for
  /// groups with surviving rows. Needs predicate_pushdown + vectorized
  /// execution to have any effect.
  bool enable_late_materialization = true;
  /// §4.2: answer simple aggregations over unfiltered ORC tables directly
  /// from file statistics (no scan, no MapReduce job).
  bool stats_aggregation = true;
  /// Map-side combiner over sorted shuffle runs for GROUP BY jobs with
  /// decomposable aggregates (COUNT/SUM/MIN/MAX). Cuts shuffled_bytes
  /// whenever a map task emits several partials for one key (bounded-memory
  /// hash flushes, multiple input splits of the same keys).
  bool shuffle_combiner = true;
  /// Entry cap for map-side hash aggregation before a partial flush
  /// (0 = unbounded), like hive.map.aggr.hash.percentmemory. The combiner
  /// re-merges the duplicate partials flushing creates.
  int map_aggr_flush_entries = 64 * 1024;
  int default_reducers = 4;
  uint64_t split_size = 0;  // 0 = DFS block size.
  int num_workers = 2;
  /// Simulated per-job startup latency (Hadoop scheduling/JVM costs).
  int job_startup_ms = 0;
  /// Attempts per task (and per local task / result fetch) before giving up
  /// with the last attempt's error. Transient DFS faults are retried; a
  /// deterministic failure still surfaces after this many tries.
  int max_task_attempts = 4;
  /// Wall-clock deadline for the whole query (parse through fetch). The
  /// query fails with DeadlineExceeded at the next cancellation point after
  /// the deadline passes. 0 disables.
  int64_t query_timeout_millis = 0;
  /// Per-task-attempt deadline (straggler kill): an attempt running past it
  /// is cooperatively killed and retried under max_task_attempts, counted
  /// in tasks_timed_out. 0 disables.
  int task_timeout_millis = 0;
  /// Byte cap on each map-join operator's hash tables (like
  /// hive.mapjoin.localtask.max.memory.usage). A build that exceeds it
  /// fails with ResourceExhausted and the driver transparently re-executes
  /// the query with map-join conversion disabled (the reduce-join backup
  /// plan), counted in mapjoin_fallbacks. 0 = unlimited.
  uint64_t mapjoin_memory_budget_bytes = 0;
  /// Session ORC metadata cache: parsed file tails, stripe footers and
  /// stripe indexes, keyed by (path, generation). Strict budget in bytes;
  /// 0 disables. Metadata is small but expensive to re-parse and re-verify.
  uint64_t metadata_cache_bytes = 16ULL * 1024 * 1024;
  /// Collect a trace-span profile (driver phases, per-job spans and task
  /// attempts, per-operator row counts) for every query. EXPLAIN PROFILE
  /// turns this on for its one query regardless of the setting.
  bool enable_profiling = false;
  /// Multi-query mode: attach this driver to a SessionManager session. The
  /// driver then (a) uses the manager's shared cache instead of creating
  /// its own (metadata_cache_bytes is ignored), (b) runs its engine
  /// task fan-outs on the manager's shared worker pool through a per-query
  /// fair-share queue at the session's priority, and (c) passes every query
  /// through admission control first — a query is queued or rejected with a
  /// typed ResourceExhausted when the global memory budget is committed.
  /// The Session (and its SessionManager) must outlive the driver and any
  /// filesystem reads that may hit the shared cache. Null = standalone
  /// single-query mode, exactly as before.
  Session* session = nullptr;
  /// Session mode only: bytes to request from admission for each query
  /// (0 = the manager's per-query default). Requests above the per-query
  /// cap are rejected up front.
  uint64_t query_memory_bytes = 0;
  /// Distributed dispatch: when `workers.num_workers > 0` the driver builds
  /// a SimulatedRemoteTransport (worker threads, real wire encoding, fault
  /// hooks), tracks worker health
  /// (heartbeats, blacklists, straggler stats) and routes every engine task
  /// attempt through the dispatch coordinator — retries with capped
  /// exponential backoff, speculative duplicates for stragglers, and local
  /// fallback when every worker is out. 0 (default) keeps the engine's
  /// plain in-process pool: zero new threads, identical behaviour to
  /// before. In session mode the SessionManager's shared WorkerManager is
  /// used when its pool size matches, so blacklists persist across the
  /// session's drivers.
  WorkerPoolOptions workers;
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  /// DML statements (INSERT/DELETE): rows inserted or deleted. 0 for
  /// queries and DDL.
  uint64_t rows_affected = 0;
  mr::JobCounters counters;
  std::vector<JobReport> jobs;
  int num_jobs = 0;
  int num_map_only_jobs = 0;
  double elapsed_millis = 0;
  /// The compiled plan (after optimization), for explain-style inspection.
  std::string plan_text;
  /// Root of the query's trace-span tree; null unless profiling was on.
  std::shared_ptr<telemetry::Span> profile;
};

/// The session facade: parse -> analyze -> optimize -> compile -> execute ->
/// fetch, mirroring Hive's Driver (paper §2).
class Driver {
 public:
  Driver(dfs::FileSystem* fs, Catalog* catalog,
         DriverOptions options = DriverOptions());
  ~Driver();

  /// Executes `sql`. An "EXPLAIN PROFILE <query>" statement executes the
  /// inner query with profiling forced on and returns the rendered span
  /// tree as `plan_text` (plus the query's normal rows).
  Result<QueryResult> Execute(std::string_view sql);

  /// Plans without executing; returns the plan's debug text and job count.
  Result<QueryResult> Explain(std::string_view sql);

  /// Span tree of the most recent profiled query; null if none ran yet.
  std::shared_ptr<telemetry::Span> LastProfile() const {
    return last_profile_;
  }

  Catalog* catalog() { return catalog_; }
  DriverOptions& options() { return options_; }

  /// The dispatch transport, when workers are configured (null otherwise).
  /// Tests install fault injectors on it.
  mr::SimulatedRemoteTransport* transport() { return transport_.get(); }
  /// The worker health tracker backing dispatch (session-shared or owned);
  /// null when workers are not configured.
  WorkerManager* worker_manager() { return worker_manager_; }

  /// Installs the token every subsequent query checks at its cancellation
  /// points. Cancel() from any thread makes the running query fail with a
  /// typed Cancelled status within one row batch / index group. The session
  /// stays usable: install a fresh token (or nullptr) before the next query.
  void set_cancellation_token(std::shared_ptr<CancellationToken> token) {
    token_ = std::move(token);
  }

 private:
  Result<QueryResult> Run(std::string_view sql, bool execute);
  /// One planning+execution pass. `disable_mapjoin` forces the reduce-join
  /// backup plan (the fallback run); `mapjoin_fallbacks` is how many backup
  /// runs preceded this one (recorded in counters and the profile).
  Result<QueryResult> RunOnce(std::string_view sql, bool execute,
                              bool explain_profile,
                              const QueryContext& query_ctx,
                              bool disable_mapjoin, int mapjoin_fallbacks);
  /// Best-effort removal of a query's scratch and temp-dir files. Runs on
  /// error paths too: a cancelled query must not leak attempt files.
  void CleanupTemps(const std::string& scratch,
                    const std::vector<std::string>& temp_dirs);

  dfs::FileSystem* fs_;
  Catalog* catalog_;
  DriverOptions options_;
  /// Session ORC metadata cache, installed on fs_ for this
  /// driver's lifetime. Installation is last-wins like the fault injector:
  /// with several Drivers on one filesystem the most recent construction's
  /// caches serve everyone, and the destructor only uninstalls itself.
  std::shared_ptr<cache::CacheManager> caches_;
  /// Dispatch layer (workers.num_workers > 0 only). Destruction order
  /// matters: the coordinator references manager and transport, and the
  /// monitor probe references the transport — ~Driver stops the monitor
  /// (when this driver started it) before any of these die.
  std::unique_ptr<mr::SimulatedRemoteTransport> transport_;
  std::unique_ptr<WorkerManager> own_worker_manager_;
  WorkerManager* worker_manager_ = nullptr;
  std::unique_ptr<mr::DispatchCoordinator> dispatcher_;
  bool started_monitor_ = false;
  int query_counter_ = 0;
  std::shared_ptr<telemetry::Span> last_profile_;
  std::shared_ptr<CancellationToken> token_;
  /// Session mode, set for the duration of one Run(): the admission ticket
  /// (budget slice + queue wait) and the query's scheduler queue. A Driver
  /// runs one query at a time; concurrent queries use separate Drivers
  /// sharing one Session/SessionManager.
  QueryAdmission* active_admission_ = nullptr;
  TaskScheduler::Queue* active_queue_ = nullptr;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_DRIVER_H_
