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
///
/// Every query runs through a SessionManager. Without `session` the Driver
/// builds a private one at construction from `num_workers`,
/// `metadata_cache_bytes`, `mapjoin_memory_budget_bytes` and `workers`;
/// those four are read only then, and only for that private manager (with
/// `session` set, the manager's own options govern instead).
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
  /// Two-phase (PREWHERE-style) late materialization in every ORC scan
  /// (row-mode, vectorized and map-join builds): row-evaluable pushed-down
  /// predicates run first on just the columns they reference; remaining
  /// projected columns decode only for groups with surviving rows, and
  /// rejected rows are never built. Needs predicate_pushdown to have any
  /// effect.
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
  /// Concurrent task slots of the private manager: its scheduler gets
  /// num_workers - 1 workers, and the query's own thread fills the last
  /// slot (it works its own batches).
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
  /// The private manager's per-query MemoryBudget slice, the one cap on a
  /// job's live map-join hash tables together (like
  /// hive.mapjoin.localtask.max.memory.usage for the whole local task). A
  /// build that does not fit fails with ResourceExhausted and the driver
  /// transparently re-executes the query with map-join conversion disabled
  /// (the reduce-join backup plan), counted in mapjoin_fallbacks.
  /// 0 = unlimited.
  uint64_t mapjoin_memory_budget_bytes = 0;
  /// The private manager's ORC metadata cache: parsed file tails, stripe
  /// footers and stripe indexes, keyed by (path, generation). Strict budget
  /// in bytes; 0 disables it and installs no cache on the filesystem.
  /// Metadata is small but expensive to re-parse and re-verify.
  uint64_t metadata_cache_bytes = 16ULL * 1024 * 1024;
  /// Collect a trace-span profile (driver phases, per-job spans and task
  /// attempts, per-operator row counts) for every query. EXPLAIN PROFILE
  /// turns this on for its one query regardless of the setting.
  bool enable_profiling = false;
  /// The session every query of this driver runs in; null = a private
  /// SessionManager and Session built at construction (see above). Either
  /// way each executed query (a) passes admission control first — queued or
  /// rejected with a typed ResourceExhausted when the global memory budget
  /// is committed (a private manager has no global budget, so it never
  /// queues) — and charges its map-join builds to its admitted slice,
  /// (b) runs its engine task fan-outs on the manager's worker pool through
  /// a per-query fair-share queue at the session's priority, and (c) reads
  /// through the manager's metadata cache. A given Session (and its
  /// SessionManager) must outlive the driver and any filesystem reads that
  /// may hit the shared cache.
  Session* session = nullptr;
  /// The private manager's dispatch worker pool. When the manager's
  /// `workers.num_workers > 0` the driver builds a SimulatedRemoteTransport
  /// of that size (worker threads, real wire encoding, fault hooks) over the
  /// manager's WorkerManager (heartbeats, blacklists, straggler stats) and
  /// routes every engine task attempt through the dispatch coordinator —
  /// retries with capped exponential backoff, speculative duplicates for
  /// stragglers, and local fallback when every worker is out. 0 (default)
  /// runs attempts in process on the scheduler's threads.
  WorkerPoolOptions workers;
};

/// Executes a compiled plan job-by-job (respecting dependencies) on the
/// MapReduce engine: builds map-join hash tables (the "local task"),
/// computes splits, and instantiates operator pipelines per task. Settings
/// come from `options`; the other arguments are the query's own handles:
/// its lifecycle context, the span per-job spans hang off (null = no
/// profiling), the session's scheduler and the query's fair-share queue on
/// it (both required) and the dispatch layer (null = in-process attempts).
/// All of them must outlive the executor.
class PlanExecutor {
 public:
  PlanExecutor(dfs::FileSystem* fs, const Catalog* catalog,
               const DriverOptions& options, const QueryContext& query_ctx,
               telemetry::Span* execute_span, TaskScheduler* scheduler,
               TaskScheduler::Queue* scheduler_queue,
               mr::DispatchCoordinator* dispatcher);

  /// Runs every job, merging each successful job's counters into `totals`.
  Status Run(const CompiledPlan& plan, mr::JobCounters* totals);

 private:
  Status RunJob(const MapRedJob& job, mr::JobCounters* counters);

  dfs::FileSystem* fs_;
  const Catalog* catalog_;
  const DriverOptions& options_;
  const QueryContext& query_ctx_;
  telemetry::Span* execute_span_;
  mr::Engine engine_;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_RUNTIME_H_
