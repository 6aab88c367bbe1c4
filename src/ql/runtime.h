#ifndef MINIHIVE_QL_RUNTIME_H_
#define MINIHIVE_QL_RUNTIME_H_

#include <string>
#include <vector>

#include "exec/operators.h"
#include "mr/engine.h"
#include "ql/catalog.h"
#include "ql/task_compiler.h"

namespace minihive::ql {

struct ExecutionOptions {
  /// Reducers per job when the plan does not demand a specific count.
  int default_reducers = 4;
  /// Input split size; 0 = the DFS block size.
  uint64_t split_size = 0;
  /// Concurrent task slots in the engine.
  int num_workers = 2;
  /// Simulated per-job startup latency (see mr::EngineOptions).
  int job_startup_ms = 0;
  /// Use the vectorized execution engine for eligible map pipelines
  /// (paper §6); ineligible pipelines fall back to row mode.
  bool vectorized = false;
  /// Run the combiner pipelines the task compiler attached to eligible
  /// GROUP BY jobs (map-side pre-aggregation over sorted shuffle runs).
  bool use_combiner = true;
  /// Maximum attempts per task (and per map-join local task) before the job
  /// fails with the last attempt's error.
  int max_task_attempts = 4;
  /// Collect per-operator statistics and per-job/per-task trace spans.
  /// Off by default: the per-row cost when off is one branch.
  bool profile = false;
  /// Parent span for per-job spans ("job:<name>" children). Only consulted
  /// when `profile` is set; may be null even then.
  telemetry::Span* query_span = nullptr;
  /// Query lifecycle: cancellation token + wall-clock deadline, threaded
  /// into every job, task attempt and reader. Null = ungoverned.
  const QueryContext* query_ctx = nullptr;
  /// Per-task-attempt deadline (straggler kill + retry). 0 disables.
  int task_timeout_millis = 0;
  /// Byte cap on each map-join operator's hash tables. Exceeding it fails
  /// the local task with ResourceExhausted (never retried — a determinate
  /// failure), which the driver turns into a reduce-join fallback.
  /// 0 = unlimited.
  uint64_t mapjoin_memory_budget_bytes = 0;
  /// Two-phase late-materialized vectorized ORC scans.
  bool enable_late_materialization = true;
  /// When both set, engine task fan-outs run on this shared scheduler
  /// queue (the session's worker pool) instead of per-query threads.
  TaskScheduler* scheduler = nullptr;
  TaskScheduler::Queue* scheduler_queue = nullptr;
  /// When set, every task attempt is routed through the dispatch layer
  /// (worker transport + heartbeats + backoff retries + blacklisting +
  /// speculative re-execution). Must outlive the executor's jobs.
  mr::DispatchCoordinator* dispatcher = nullptr;
};

/// Per-job timing, for the benches that report per-plan behaviour.
struct JobReport {
  std::string name;
  double elapsed_millis = 0;
  int map_tasks = 0;
  int reduce_tasks = 0;
  /// Failed attempts the job recovered from (or died of) and the wall time
  /// those attempts burnt.
  uint64_t map_task_failures = 0;
  uint64_t reduce_task_failures = 0;
  double retried_task_millis = 0;
  /// Attempts cooperatively killed for exceeding task_timeout_millis.
  uint64_t tasks_timed_out = 0;
  /// Map-join local task: failed build attempts and total build wall time
  /// (all attempts, including the successful one).
  uint64_t local_task_failures = 0;
  double local_task_millis = 0;
};

/// Executes a compiled plan job-by-job (respecting dependencies) on the
/// MapReduce engine: builds map-join hash tables (the "local task"),
/// computes splits, and instantiates operator pipelines per task.
class PlanExecutor {
 public:
  PlanExecutor(dfs::FileSystem* fs, const Catalog* catalog,
               ExecutionOptions options);

  Status Run(const CompiledPlan& plan, mr::JobCounters* totals,
             std::vector<JobReport>* reports);

 private:
  Status RunJob(const MapRedJob& job, mr::JobCounters* counters,
                exec::PipelineProfile* profile);

  dfs::FileSystem* fs_;
  const Catalog* catalog_;
  ExecutionOptions options_;
  mr::Engine engine_;
};

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_RUNTIME_H_
