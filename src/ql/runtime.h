#ifndef MINIHIVE_QL_RUNTIME_H_
#define MINIHIVE_QL_RUNTIME_H_

#include <string>
#include <vector>

#include "common/session.h"
#include "common/worker_manager.h"
#include "exec/operators.h"
#include "mr/engine.h"
#include "ql/catalog.h"
#include "ql/task_compiler.h"

namespace minihive::ql {

/// Session-level switches — each maps to one of the paper's advancements so
/// the benchmarks can toggle them independently. Declared beside the
/// PlanExecutor, which reads them directly; ql/driver.h includes this.
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

/// Executes a compiled plan job-by-job (respecting dependencies) on the
/// MapReduce engine: builds map-join hash tables (the "local task"),
/// computes splits, and instantiates operator pipelines per task. Settings
/// come from `options`; the other arguments are the query's own handles:
/// its lifecycle context, the span per-job spans hang off (null = no
/// profiling), its fair-share queue on the session's worker pool (null =
/// engine-private threads) and the dispatch layer (null = in-process
/// attempts). All of them must outlive the executor.
class PlanExecutor {
 public:
  PlanExecutor(dfs::FileSystem* fs, const Catalog* catalog,
               const DriverOptions& options, const QueryContext& query_ctx,
               telemetry::Span* execute_span,
               TaskScheduler::Queue* scheduler_queue,
               mr::DispatchCoordinator* dispatcher);

  /// Runs every job, merging each successful job's counters into `totals`.
  Status Run(const CompiledPlan& plan, mr::JobCounters* totals);

 private:
  Status RunJob(const MapRedJob& job, mr::JobCounters* counters,
                exec::PipelineProfile* profile);

  dfs::FileSystem* fs_;
  const Catalog* catalog_;
  const DriverOptions& options_;
  const QueryContext& query_ctx_;
  telemetry::Span* execute_span_;
  mr::Engine engine_;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_RUNTIME_H_
