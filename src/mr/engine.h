#ifndef MINIHIVE_MR_ENGINE_H_
#define MINIHIVE_MR_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/value.h"
#include "dfs/file_system.h"

namespace minihive::mr {

class DispatchCoordinator;  // mr/transport.h

/// One unit of map input: a byte range of one file, with a locality hint
/// (the datanode holding its first block) and the tag of the logical input
/// it came from (which table / which ReduceSink source).
struct InputSplit {
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
  int locality_host = -1;
  /// Identifies the logical source so a multi-input map task knows which
  /// operator pipeline to run (Hive tags map inputs the same way).
  int source_tag = 0;
};

/// One plan operator's stats (EXPLAIN PROFILE): in a task attempt's
/// ledger, filled by that attempt's thread alone; in a job's, summed over
/// its winning attempts. Plain integers: nothing is shared while rows flow.
struct OperatorStats {
  const char* kind = "";  // OpKindName; the span label is "<kind>#<id>".
  uint64_t rows_in = 0;   // Exact.
  uint64_t rows_out = 0;  // Exact.
  uint64_t batches = 0;   // Vectorized stages only.
  /// Self time (children's excluded), sampled: see exec::Operator::Process.
  int64_t nanos = 0;
};

/// A ledger's per-operator stats, keyed by plan operator id. Operators
/// count into an attempt's table only when it is enabled: the engine
/// enables it when the job is traced, and hangs the job's merged table off
/// the job span.
struct OperatorTable {
  /// Adds every operator's stats into `total`'s under one process-wide
  /// lock: how a winning attempt's stats reach its job, once per attempt.
  void MergeInto(OperatorTable* total) const;
  /// Appends one "op:<kind>#<id>" child span per operator to `parent`, in
  /// id order: the stats as attributes, the nanos as the span's duration.
  void AttachToSpan(telemetry::Span* parent) const;

  bool enabled = false;
  std::map<int, OperatorStats> stats;
};

/// Aggregate job counters, mirroring the metrics the paper reports:
/// elapsed time per phase and cumulative task CPU time (Figure 12b).
///
/// Every field but the two unwritten combine_* ones is registered exactly
/// once in the field tables below (atomic_u64_fields / atomic_i64_fields /
/// int_fields / double_fields); copying, accumulation and span/JSON export
/// all iterate those tables, so a new field cannot silently miss operator=
/// or the telemetry fold. A static_assert on sizeof catches a field added
/// without a table entry.
struct JobCounters {
  std::atomic<uint64_t> map_input_records{0};
  std::atomic<uint64_t> map_output_records{0};
  std::atomic<uint64_t> reduce_input_records{0};
  /// Key and value bytes of the map tasks' sorted runs.
  std::atomic<uint64_t> shuffled_bytes{0};
  // Sole reader: perfbench/src/util.cc. Never written: there is no
  // combiner. Goes with the next change to perfbench.
  std::atomic<uint64_t> combine_input_records{0};
  // Sole reader: perfbench/src/util.cc. Never written: there is no
  // combiner. Goes with the next change to perfbench.
  std::atomic<uint64_t> combine_output_records{0};
  /// Thread CPU of the winning attempt of each task (failed attempts'
  /// time is in retried_task_nanos).
  std::atomic<int64_t> cpu_nanos{0};
  /// Wall time spent sorting runs inside map tasks, summed over tasks;
  /// runs in parallel, so it can exceed map_phase_millis.
  std::atomic<int64_t> shuffle_sort_nanos{0};
  /// Failed task attempts (each retried attempt counts once). A job that
  /// succeeds with nonzero failures recovered via retries.
  std::atomic<uint64_t> map_task_failures{0};
  std::atomic<uint64_t> reduce_task_failures{0};
  /// Straggler kills: attempts that exceeded task_timeout_millis and were
  /// cooperatively killed then retried (a subset of the failure counters).
  std::atomic<uint64_t> tasks_timed_out{0};
  /// Jobs aborted because the query was cancelled or its deadline passed
  /// (at most 1 per job; query-level aggregation sums them).
  std::atomic<uint64_t> queries_cancelled{0};
  /// Failed attempts of the map-join local task (hash-table build) and the
  /// wall time all its attempts burnt — retries there are otherwise
  /// invisible to telemetry (the build runs outside the engine's task loop).
  std::atomic<uint64_t> local_task_failures{0};
  /// Map-join builds that blew the memory budget and were re-run through
  /// the backup reduce-join plan (Hive's backup-task protocol).
  std::atomic<uint64_t> mapjoin_fallbacks{0};
  /// Distributed dispatch (zero without a dispatcher): physical task
  /// launches shipped to the SimulatedRemoteTransport, launches after a
  /// task's first (retries), speculative straggler duplicates, logical
  /// tasks whose speculative duplicate beat the original, and logical
  /// tasks that degraded to the local pool because every worker was dead
  /// or blacklisted.
  std::atomic<uint64_t> transport_dispatches{0};
  std::atomic<uint64_t> transport_retries{0};
  std::atomic<uint64_t> speculative_launches{0};
  std::atomic<uint64_t> speculative_wins{0};
  std::atomic<uint64_t> transport_fallbacks{0};
  /// Speculative duplicates that lost to another launch of their task.
  std::atomic<uint64_t> speculative_losses{0};
  /// Scan work, counted where it happens: every DFS byte a reader of this
  /// attempt read (ORC data, index and tail alike, plus row-format files),
  /// and each ORC reader's stripe/index-group selection, late-
  /// materialization skips and metadata-cache lookups, folded in once when
  /// the reader closes.
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> stripes_read{0};
  std::atomic<uint64_t> stripes_skipped{0};
  std::atomic<uint64_t> groups_read{0};
  std::atomic<uint64_t> groups_skipped{0};
  std::atomic<uint64_t> rows_late_skipped{0};
  std::atomic<uint64_t> lazy_decodes_avoided{0};
  std::atomic<uint64_t> metadata_cache_hits{0};
  std::atomic<uint64_t> metadata_cache_misses{0};
  /// Managed-table files the scans' SARGs ruled out from their partition
  /// values alone, before split planning (never opened).
  std::atomic<uint64_t> partition_files_pruned{0};
  /// Map tasks whose whole pipeline ran on batches (paper §6); the rest of
  /// map_tasks ran row by row.
  std::atomic<uint64_t> vectorized_map_tasks{0};
  /// Wall time burnt in failed attempts (the retry tax), summed over tasks.
  std::atomic<int64_t> retried_task_nanos{0};
  /// Wall time of the map-join local task (all attempts).
  std::atomic<int64_t> local_task_nanos{0};
  int map_tasks = 0;
  int reduce_tasks = 0;
  double map_phase_millis = 0;
  double reduce_phase_millis = 0;
  /// Per-operator stats of the winning attempts, when enabled. Not a
  /// scalar, so no field table lists it: operator= copies it and
  /// AccumulateTaskLocalInto merges it by name.
  OperatorTable operators;

  // ---- Field tables: the single source of truth for "all fields". ----
  template <typename T>
  struct NamedField {
    const char* name;
    T JobCounters::*member;
  };

  static constexpr std::array<NamedField<std::atomic<uint64_t>>, 27>
  atomic_u64_fields() {
    return {{{"map_input_records", &JobCounters::map_input_records},
             {"map_output_records", &JobCounters::map_output_records},
             {"reduce_input_records", &JobCounters::reduce_input_records},
             {"shuffled_bytes", &JobCounters::shuffled_bytes},
             {"map_task_failures", &JobCounters::map_task_failures},
             {"reduce_task_failures", &JobCounters::reduce_task_failures},
             {"tasks_timed_out", &JobCounters::tasks_timed_out},
             {"queries_cancelled", &JobCounters::queries_cancelled},
             {"local_task_failures", &JobCounters::local_task_failures},
             {"mapjoin_fallbacks", &JobCounters::mapjoin_fallbacks},
             {"transport_dispatches", &JobCounters::transport_dispatches},
             {"transport_retries", &JobCounters::transport_retries},
             {"speculative_launches", &JobCounters::speculative_launches},
             {"speculative_wins", &JobCounters::speculative_wins},
             {"transport_fallbacks", &JobCounters::transport_fallbacks},
             {"speculative_losses", &JobCounters::speculative_losses},
             {"bytes_read", &JobCounters::bytes_read},
             {"stripes_read", &JobCounters::stripes_read},
             {"stripes_skipped", &JobCounters::stripes_skipped},
             {"groups_read", &JobCounters::groups_read},
             {"groups_skipped", &JobCounters::groups_skipped},
             {"rows_late_skipped", &JobCounters::rows_late_skipped},
             {"lazy_decodes_avoided", &JobCounters::lazy_decodes_avoided},
             {"metadata_cache_hits", &JobCounters::metadata_cache_hits},
             {"metadata_cache_misses", &JobCounters::metadata_cache_misses},
             {"partition_files_pruned",
              &JobCounters::partition_files_pruned},
             {"vectorized_map_tasks", &JobCounters::vectorized_map_tasks}}};
  }

  static constexpr std::array<NamedField<std::atomic<int64_t>>, 4>
  atomic_i64_fields() {
    return {{{"cpu_nanos", &JobCounters::cpu_nanos},
             {"shuffle_sort_nanos", &JobCounters::shuffle_sort_nanos},
             {"retried_task_nanos", &JobCounters::retried_task_nanos},
             {"local_task_nanos", &JobCounters::local_task_nanos}}};
  }

  static constexpr std::array<NamedField<int>, 2> int_fields() {
    return {{{"map_tasks", &JobCounters::map_tasks},
             {"reduce_tasks", &JobCounters::reduce_tasks}}};
  }

  static constexpr std::array<NamedField<double>, 2> double_fields() {
    return {{{"map_phase_millis", &JobCounters::map_phase_millis},
             {"reduce_phase_millis", &JobCounters::reduce_phase_millis}}};
  }

  JobCounters() = default;
  // Copyable despite the atomics (snapshot semantics) so results structs
  // can carry counters by value.
  JobCounters(const JobCounters& other) { *this = other; }
  JobCounters& operator=(const JobCounters& other) {
    for (const auto& f : atomic_u64_fields()) {
      this->*f.member = (other.*f.member).load();
    }
    for (const auto& f : atomic_i64_fields()) {
      this->*f.member = (other.*f.member).load();
    }
    for (const auto& f : int_fields()) this->*f.member = other.*f.member;
    for (const auto& f : double_fields()) this->*f.member = other.*f.member;
    operators = other.operators;
    return *this;
  }

  double cpu_millis() const { return cpu_nanos.load() / 1e6; }
  double shuffle_sort_millis() const { return shuffle_sort_nanos.load() / 1e6; }
  double local_task_millis() const { return local_task_nanos.load() / 1e6; }

  /// Merges the record/byte/time counters (all atomic) and the operator
  /// stats into `total`. Thread-safe: this is how a successful task
  /// attempt publishes its attempt-local counters from a worker thread.
  void AccumulateTaskLocalInto(JobCounters* total) const {
    for (const auto& f : atomic_u64_fields()) {
      total->*f.member += (this->*f.member).load();
    }
    for (const auto& f : atomic_i64_fields()) {
      total->*f.member += (this->*f.member).load();
    }
    operators.MergeInto(&total->operators);
  }

  /// Full merge including the coordinator-owned scalar fields (task counts,
  /// phase times). NOT thread-safe; single-threaded aggregation only.
  void AccumulateInto(JobCounters* total) const {
    AccumulateTaskLocalInto(total);
    for (const auto& f : int_fields()) total->*f.member += this->*f.member;
    for (const auto& f : double_fields()) {
      total->*f.member += this->*f.member;
    }
  }

  /// Folds every counter into `span` as span attributes — the job span
  /// carries the full counter set instead of a parallel bespoke report.
  void ExportToSpan(telemetry::Span* span) const {
    if (span == nullptr) return;
    for (const auto& f : atomic_u64_fields()) {
      span->SetAttr(f.name, (this->*f.member).load());
    }
    for (const auto& f : atomic_i64_fields()) {
      span->SetAttr(f.name, (this->*f.member).load());
    }
    for (const auto& f : int_fields()) {
      span->SetAttr(f.name, static_cast<int64_t>(this->*f.member));
    }
    for (const auto& f : double_fields()) {
      span->SetAttr(f.name, this->*f.member);
    }
  }

};

// Trips when a field is added to JobCounters without a field-table entry
// (the tables drive operator=, accumulation and telemetry export). Update
// the matching *_fields() table above, then adjust the expected size.
static_assert(sizeof(void*) != 8 ||
                  sizeof(JobCounters) ==
                      8 * (27 + 4) +  // atomic u64/i64 fields
                          8 * 2 +  // combine_* (untabled, never written)
                          2 * sizeof(int) + 2 * sizeof(double) +
                          sizeof(OperatorTable),
              "JobCounters changed: update the field tables in engine.h");

/// Map tasks emit (key, value, tag) records into the shuffle: `key` is
/// order-preserving key bytes and `value` packed value bytes, both written
/// with the encoders of mr/shuffle_record.h. The engine copies them; it
/// sorts, groups and partitions on the key bytes alone.
class ShuffleEmitter {
 public:
  virtual ~ShuffleEmitter() = default;
  virtual Status Emit(std::string_view key, std::string_view value,
                      int tag) = 0;
};

/// User map logic: reads its split (through whatever reader the query layer
/// wires up) and either emits shuffle records or writes final output
/// (map-only jobs).
class MapTask {
 public:
  virtual ~MapTask() = default;
  /// `task_index` is the map task number (used e.g. for output file names);
  /// `attempt` is the 0-based retry attempt. Any output a task writes must
  /// be attempt-scoped: the engine promotes it (via JobConfig::commit_task)
  /// only when the attempt succeeds.
  virtual Status Run(const InputSplit& split, int task_index, int attempt,
                     ShuffleEmitter* emitter) = 0;

  /// The engine points this at the attempt-local counters before Run. The
  /// task reads its own split, so input records can only be counted here;
  /// the engine folds them into the job totals on success (a retried
  /// attempt never double-counts). Null outside the engine (direct test
  /// invocations) — CountInputRecords is a no-op then.
  void set_attempt_counters(JobCounters* counters) {
    attempt_counters_ = counters;
  }

  /// The engine points this at the attempt's governor before Run. A
  /// cooperative task polls it at row/batch boundaries and returns the
  /// error; a task that never polls is still caught by the engine's
  /// post-Run deadline check, just later. Null outside the engine.
  void set_governor(const TaskGovernor* governor) { governor_ = governor; }

  /// Why Run processed its split row by row although batch execution was
  /// asked for; empty otherwise. The engine shows it on the attempt's span.
  const std::string& row_mode_reason() const { return row_mode_reason_; }

 protected:
  void set_row_mode_reason(std::string reason) {
    row_mode_reason_ = std::move(reason);
  }
  void CountInputRecords(uint64_t n) {
    if (attempt_counters_ != nullptr) {
      attempt_counters_->map_input_records += n;
    }
  }
  JobCounters* attempt_counters() { return attempt_counters_; }
  const TaskGovernor* governor() const { return governor_; }

 private:
  JobCounters* attempt_counters_ = nullptr;
  const TaskGovernor* governor_ = nullptr;
  std::string row_mode_reason_;
};

/// User reduce logic, driven push-style by the engine's Reducer Driver:
/// records arrive key-group by key-group, exactly as Hive's push model
/// delivers them (paper §5.2.2 "Operator Coordination" relies on these
/// signals). A group is a run of records with equal key bytes. The bytes
/// are the emitted ones (decode them with mr/shuffle_record.h); a group's
/// key stays valid until its EndGroup, a value only during its Reduce.
class ReduceTask {
 public:
  virtual ~ReduceTask() = default;
  virtual Status StartGroup(std::string_view key) = 0;
  virtual Status Reduce(std::string_view key, std::string_view value,
                        int tag) = 0;
  virtual Status EndGroup() = 0;
  /// Called once after the last group (flush output).
  virtual Status Finish() = 0;

  /// The engine points this at the reduce attempt's own counters before
  /// the first group. Null outside the engine.
  void set_attempt_counters(JobCounters* counters) {
    attempt_counters_ = counters;
  }

 protected:
  JobCounters* attempt_counters() { return attempt_counters_; }

 private:
  JobCounters* attempt_counters_ = nullptr;
};

using MapTaskFactory = std::function<std::unique_ptr<MapTask>()>;
/// Invoked once per reduce task attempt with the partition index and the
/// 0-based attempt number.
using ReduceTaskFactory =
    std::function<std::unique_ptr<ReduceTask>(int partition, int attempt)>;

enum class TaskKind { kMap, kReduce };

/// Promotes a successful attempt's output to its final location (rename
/// attempt-scoped files). A commit failure fails the attempt, which may
/// then be retried.
using TaskCommitFn = std::function<Status(TaskKind, int task_index,
                                          int attempt)>;
/// Discards a failed attempt's partial output. Best-effort: errors are
/// swallowed (a later attempt writes under a different attempt id anyway).
using TaskAbortFn = std::function<void(TaskKind, int task_index, int attempt)>;

struct JobConfig {
  std::string name;
  std::vector<InputSplit> splits;
  /// 0 = map-only job.
  int num_reducers = 0;
  MapTaskFactory map_factory;
  ReduceTaskFactory reduce_factory;  // Required when num_reducers > 0.
  /// Maximum attempts per task (Hadoop's mapred.map.max.attempts). The job
  /// fails with the last attempt's error once a task exhausts its attempts.
  int max_task_attempts = 4;
  /// Output promotion hooks (both optional).
  TaskCommitFn commit_task;
  TaskAbortFn abort_task;
  /// When set, the engine opens a "job:<name>" trace span under this parent,
  /// a child span per task attempt, and folds the job's counters into the
  /// job span as attributes, with a child span per operator from the
  /// winning attempts' operator stats. Null = no tracing (zero overhead).
  telemetry::Span* parent_span = nullptr;
  /// Query-level lifecycle: cancellation + wall-clock deadline. Checked at
  /// job/phase boundaries and polled cooperatively inside tasks. A dead
  /// query fails the job with Cancelled/DeadlineExceeded without retrying.
  /// Null = ungoverned (standalone engine tests).
  const QueryContext* query_ctx = nullptr;
  /// Per-task-attempt deadline (straggler kill). An attempt past it is
  /// cooperatively killed and retried under max_task_attempts, counted in
  /// `tasks_timed_out`. 0 disables.
  int task_timeout_millis = 0;
};

struct EngineOptions {
  /// Simulated per-job startup latency (Hadoop job scheduling + JVM launch;
  /// tens of seconds on the paper's cluster). 0 disables it; benches that
  /// compare job counts set a scaled-down value.
  int job_startup_ms = 0;
  /// Required: every map/reduce task fan-out runs on this scheduler through
  /// this queue, the query's fair-share lane. The engine spawns no threads:
  /// a phase runs on the scheduler's workers plus the calling thread, which
  /// works its own batch, so a scheduler of N - 1 workers gives N task
  /// slots. Both pointers must outlive the engine's jobs.
  TaskScheduler* scheduler = nullptr;
  TaskScheduler::Queue* scheduler_queue = nullptr;
  /// When set, every task attempt routes through the dispatch layer
  /// (mr/transport.h): worker selection, retries with backoff,
  /// blacklisting, speculative re-execution, and local fallback when no
  /// worker is usable. The fan-out above still bounds how many logical
  /// tasks dispatch concurrently. Must outlive the engine's jobs.
  DispatchCoordinator* dispatcher = nullptr;
};

/// An in-process MapReduce engine with a sort-merge shuffle: map tasks hash
/// partition their records by key bytes into flat runs (one byte buffer
/// plus one ref per record), sort each run by (key bytes, tag) *inside the
/// map task*, and reduce tasks k-way merge the per-map sorted runs —
/// O(N log M) instead of re-sorting the whole partition — driving reduce
/// logic push-style with group signals. There is no combiner: as in Hive,
/// map-side pre-aggregation is the query's hash GroupBy, and the reducer
/// merges whatever duplicates it leaves. The reduce phase starts only after
/// the whole map phase finishes (matching the paper's Hadoop config).
class Engine {
 public:
  explicit Engine(dfs::FileSystem* fs, EngineOptions options = EngineOptions());

  Status RunJob(const JobConfig& job, JobCounters* counters);

  dfs::FileSystem* fs() { return fs_; }

 private:
  /// RunJob's body inside the job span: the map phase, then the shuffle +
  /// reduce phase. Each logical task runs its attempts through RunAttempts,
  /// or through `options_.dispatcher` when one is set; both paths share the
  /// same map and reduce attempt bodies.
  Status RunPhases(const JobConfig& job, JobCounters* counters,
                   telemetry::Span* job_span);

  dfs::FileSystem* fs_;
  EngineOptions options_;
};

/// The one bounded attempt loop for work that runs outside the dispatch
/// layer: engine tasks without a dispatcher, the map-join local task and
/// the driver's result fetch. Runs `body(attempt, local)` until an attempt
/// succeeds:
/// - the query (`query_ctx`, may be null) must be alive before each attempt;
/// - each attempt fills fresh counters `local`, merged into `counters` only
///   when it succeeds, so a retry never double-counts;
/// - a dead query or a ResourceExhausted failure (determinate: a retry
///   repeats it) ends the loop at once with that status, unwrapped;
/// - any other failure calls `on_failure` (may be empty) with the attempt's
///   wall time and retries. After `max_attempts` failures the last error
///   comes back, code kept, as "<unit> failed after N attempts: <msg>".
/// The caller does its own failure accounting in `on_failure`.
Status RunAttempts(
    std::string_view unit, int max_attempts, const QueryContext* query_ctx,
    JobCounters* counters,
    const std::function<Status(int attempt, JobCounters* local)>& body,
    const std::function<void(int64_t attempt_nanos)>& on_failure = {});

/// Computes input splits for a set of files: one split per `split_size`
/// bytes, with locality set to the first block's first replica. Fails if
/// any listed file cannot be stat'ed (missing or unreadable inputs must
/// fail the job, not silently shrink it).
Result<std::vector<InputSplit>> ComputeSplits(
    dfs::FileSystem* fs, const std::vector<std::string>& paths,
    uint64_t split_size, int source_tag);

/// Rough serialized size of a row (map-join hash table sizing).
uint64_t EstimateRowBytes(const Row& row);

}  // namespace minihive::mr

#endif  // MINIHIVE_MR_ENGINE_H_
