#include "mr/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "mr/shuffle_record.h"
#include "mr/transport.h"

namespace minihive::mr {

namespace {

/// One record of a run: where its bytes sit, plus the first 8 key bytes
/// as a big-endian number, so most comparisons never touch the buffer.
struct RecordRef {
  uint64_t prefix;
  uint32_t offset;  // Key start in ShuffleRun::bytes; the value follows.
  uint32_t key_size;
  uint32_t value_size;
  int32_t tag;
};

/// One map task's records for one reduce partition: every record's key and
/// value bytes back to back in one buffer, and one ref per record. Sorting
/// moves refs only; freeing the run frees two vectors.
struct ShuffleRun {
  std::string bytes;
  std::vector<RecordRef> refs;

  Status Add(std::string_view key, std::string_view value, int tag) {
    if (bytes.size() + key.size() + value.size() > UINT32_MAX) {
      return Status::ResourceExhausted("shuffle run exceeds 4 GiB");
    }
    unsigned char head[8] = {};
    std::memcpy(head, key.data(), std::min<size_t>(key.size(), 8));
    uint64_t prefix = 0;
    for (unsigned char b : head) prefix = (prefix << 8) | b;
    refs.push_back({prefix, static_cast<uint32_t>(bytes.size()),
                    static_cast<uint32_t>(key.size()),
                    static_cast<uint32_t>(value.size()), tag});
    bytes.append(key);
    bytes.append(value);
    return Status::OK();
  }
  std::string_view Key(const RecordRef& r) const {
    return std::string_view(bytes.data() + r.offset, r.key_size);
  }
  std::string_view Value(const RecordRef& r) const {
    return std::string_view(bytes.data() + r.offset + r.key_size,
                            r.value_size);
  }
};

/// memcmp order of the two records' key bytes.
int CompareKeys(const ShuffleRun& run_a, const RecordRef& a,
                const ShuffleRun& run_b, const RecordRef& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
  return run_a.Key(a).compare(run_b.Key(b));
}

/// The shuffle order: key bytes, then tag, so a reduce group sees its
/// sources in tag order (as Hive's shuffle does).
bool RecordLess(const ShuffleRun& run_a, const RecordRef& a,
                const ShuffleRun& run_b, const RecordRef& b) {
  int c = CompareKeys(run_a, a, run_b, b);
  return c != 0 ? c < 0 : a.tag < b.tag;
}

/// Collects one map task's shuffle output, hash-partitioned by key bytes.
/// After the map task finishes, each partition's records are sorted in
/// place so the reduce side only has to merge.
class PartitionedEmitter : public ShuffleEmitter {
 public:
  PartitionedEmitter(int num_partitions, JobCounters* counters)
      : partitions_(num_partitions), counters_(counters) {}

  Status Emit(std::string_view key, std::string_view value,
              int tag) override {
    counters_->map_output_records += 1;
    return partitions_[KeyPartition(key, static_cast<int>(partitions_.size()))]
        .Add(key, value, tag);
  }

  std::vector<ShuffleRun>& partitions() { return partitions_; }

 private:
  std::vector<ShuffleRun> partitions_;
  JobCounters* counters_;
};

/// Map-side run formation: sorts every partition run of one map task's
/// output and counts the run bytes as the task's shuffled bytes.
Status SortRuns(PartitionedEmitter* emitter, JobCounters* counters,
                const TaskGovernor& governor) {
  Stopwatch sort_watch;
  for (ShuffleRun& run : emitter->partitions()) {
    MINIHIVE_RETURN_IF_ERROR(governor.CheckAlive());
    if (run.refs.empty()) continue;
    std::sort(run.refs.begin(), run.refs.end(),
              [&run](const RecordRef& a, const RecordRef& b) {
                return RecordLess(run, a, run, b);
              });
    counters->shuffled_bytes += run.bytes.size();
  }
  counters->shuffle_sort_nanos += static_cast<int64_t>(
      sort_watch.ElapsedMillis() * 1e6);
  return Status::OK();
}

/// Cancelled/DeadlineExceeded once the job's query has died.
Status QueryAlive(const JobConfig& job) {
  return job.query_ctx != nullptr ? job.query_ctx->CheckAlive()
                                  : Status::OK();
}

/// One map task's sorted runs; null until an attempt wins.
using MapRuns = std::unique_ptr<PartitionedEmitter>;

/// The governor one task attempt polls: the query's lifecycle, the job's
/// straggler deadline and, for a dispatched launch, its kill switch.
TaskGovernor AttemptGovernor(const JobConfig& job,
                             const CancellationToken* cancel) {
  TaskGovernor governor(job.query_ctx);
  governor.set_attempt_timeout_millis(job.task_timeout_millis);
  governor.set_attempt_cancel(cancel);
  return governor;
}

/// Opens the span of one task attempt ("map[3]", "reduce[0]"); null when
/// the job is not traced.
telemetry::Span* StartAttemptSpan(telemetry::Span* job_span, const char* kind,
                                  int index, int attempt) {
  if (job_span == nullptr) return nullptr;
  telemetry::Span* span = job_span->StartChild(
      std::string(kind) + "[" + std::to_string(index) + "]");
  span->SetAttr("attempt", static_cast<int64_t>(attempt));
  return span;
}

/// Closes one attempt of either kind: ends its span and aborts a failed
/// attempt's output.
Status EndAttempt(const JobConfig& job, TaskKind kind, int index, int attempt,
                  Status s, telemetry::Span* span) {
  if (span != nullptr) {
    if (!s.ok()) span->SetAttr("error", s.ToString());
    span->End();
  }
  if (!s.ok() && job.abort_task) job.abort_task(kind, index, attempt);
  return s;
}

/// One map task attempt: runs the task into fresh partition runs, then
/// forms this task's sorted runs while still on the task's
/// thread — the expensive sort work happens where it is cheap and parallel
/// — and commits. Fills the attempt-local `local`; on success `*runs`
/// holds the runs.
Status RunMapAttempt(const JobConfig& job, telemetry::Span* job_span,
                     int index, int attempt, const TaskGovernor& governor,
                     JobCounters* local, MapRuns* runs) {
  telemetry::Span* span = StartAttemptSpan(job_span, "map", index, attempt);
  local->operators.enabled = job_span != nullptr;
  auto emitter = std::make_unique<PartitionedEmitter>(
      std::max(job.num_reducers, 1), local);
  std::unique_ptr<MapTask> task = job.map_factory();
  task->set_attempt_counters(local);
  task->set_governor(&governor);
  Status s = task->Run(job.splits[index], index, attempt, emitter.get());
  // A task that never polls its governor is still caught here: a late
  // kill, but deterministic — the attempt can't commit past its deadline.
  if (s.ok()) s = governor.CheckAlive();
  if (s.ok() && job.num_reducers > 0) {
    s = SortRuns(emitter.get(), local, governor);
  }
  if (s.ok() && job.commit_task) {
    s = job.commit_task(TaskKind::kMap, index, attempt);
  }
  if (s.ok()) *runs = std::move(emitter);
  if (span != nullptr) {
    span->SetAttr("split", job.splits[index].path);
    span->SetAttr("records_in", local->map_input_records.load());
    span->SetAttr("records_out", local->map_output_records.load());
    if (!task->row_mode_reason().empty()) {
      span->SetAttr("row_mode", task->row_mode_reason());
    }
  }
  return EndAttempt(job, TaskKind::kMap, index, attempt, std::move(s), span);
}

/// One reduce task attempt: k-way merges `partition` of every map task's
/// sorted runs with a binary heap — O(N log M) for M runs, reading the runs
/// in place (no second copy of the partition) — pushes the merged stream
/// into the reduce task with group boundary signals where the key bytes
/// change, and commits. Fills the attempt-local `local`.
Status RunReduceAttempt(const JobConfig& job, telemetry::Span* job_span,
                        const std::vector<MapRuns>& map_runs, int partition,
                        int attempt, const TaskGovernor& governor,
                        JobCounters* local) {
  telemetry::Span* span =
      StartAttemptSpan(job_span, "reduce", partition, attempt);
  local->operators.enabled = job_span != nullptr;
  struct RunCursor {
    const ShuffleRun* run;
    size_t pos;
    int run_index;  // Map task index: the tie-break, for determinism.
    const RecordRef& ref() const { return run->refs[pos]; }
  };
  // `after(a, b)` == "a merges after b": a min-heap via the inverted
  // comparator of std::make_heap/push_heap (which build max-heaps).
  auto after = [](const RunCursor& a, const RunCursor& b) {
    int c = CompareKeys(*a.run, a.ref(), *b.run, b.ref());
    if (c != 0) return c > 0;
    if (a.ref().tag != b.ref().tag) return a.ref().tag > b.ref().tag;
    return b.run_index < a.run_index;
  };
  std::vector<RunCursor> heap;
  heap.reserve(map_runs.size());
  size_t total = 0;
  for (size_t m = 0; m < map_runs.size(); ++m) {
    if (!map_runs[m]) continue;
    const ShuffleRun& run = map_runs[m]->partitions()[partition];
    if (run.refs.empty()) continue;
    total += run.refs.size();
    heap.push_back({&run, 0, static_cast<int>(m)});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  local->reduce_input_records += total;

  std::unique_ptr<ReduceTask> task = job.reduce_factory(partition, attempt);
  task->set_attempt_counters(local);
  auto drive = [&]() -> Status {
    bool group_open = false;
    std::string_view current_key;
    uint64_t records_seen = 0;
    while (!heap.empty()) {
      // Cancellation point: cheap enough to keep per-record cost
      // negligible, frequent enough that a dead query stops within one
      // batch of records.
      if ((++records_seen & 511u) == 0) {
        MINIHIVE_RETURN_IF_ERROR(governor.CheckAlive());
      }
      std::pop_heap(heap.begin(), heap.end(), after);
      RunCursor& cursor = heap.back();
      const RecordRef& ref = cursor.ref();
      // The runs outlive the drive, so these views stay valid.
      const std::string_view key = cursor.run->Key(ref);
      const std::string_view value = cursor.run->Value(ref);
      const int tag = ref.tag;
      if (++cursor.pos < cursor.run->refs.size()) {
        std::push_heap(heap.begin(), heap.end(), after);
      } else {
        heap.pop_back();
      }
      if (!group_open || key != current_key) {
        if (group_open) MINIHIVE_RETURN_IF_ERROR(task->EndGroup());
        MINIHIVE_RETURN_IF_ERROR(task->StartGroup(key));
        group_open = true;
        current_key = key;
      }
      MINIHIVE_RETURN_IF_ERROR(task->Reduce(key, value, tag));
    }
    if (group_open) MINIHIVE_RETURN_IF_ERROR(task->EndGroup());
    return task->Finish();
  };
  Status s = drive();
  if (s.ok()) s = governor.CheckAlive();
  if (s.ok() && job.commit_task) {
    s = job.commit_task(TaskKind::kReduce, partition, attempt);
  }
  if (span != nullptr) {
    span->SetAttr("records_in", local->reduce_input_records.load());
  }
  return EndAttempt(job, TaskKind::kReduce, partition, attempt, std::move(s),
                    span);
}

/// The error of a unit of work that used up its attempts, keeping the last
/// attempt's code.
Status FailedAfterAttempts(std::string_view unit, int attempts,
                           const Status& last) {
  return Status(last.code(), std::string(unit) + " failed after " +
                                 std::to_string(attempts) +
                                 " attempts: " + last.message());
}

/// "map task 3", "reduce task 0": how errors name a logical task.
std::string TaskName(TaskKind kind, int index) {
  return std::string(kind == TaskKind::kMap ? "map" : "reduce") + " task " +
         std::to_string(index);
}

/// The plain path: runs the attempts of one task on the calling thread
/// through RunAttempts, counting each failed attempt as a map or reduce
/// task failure (plus a straggler kill when its deadline fired) and its
/// wall time as retried_task_nanos.
Status RetryTask(const JobConfig& job, telemetry::Span* job_span,
                 TaskKind kind, int index, std::vector<MapRuns>* map_runs,
                 JobCounters* counters) {
  bool timed_out = false;  // Whether the latest attempt hit its deadline.
  Status status = RunAttempts(
      TaskName(kind, index), job.max_task_attempts, job.query_ctx, counters,
      [&](int attempt, JobCounters* local) {
        TaskGovernor governor = AttemptGovernor(job, /*cancel=*/nullptr);
        ThreadCpuTimer cpu;
        Status s = kind == TaskKind::kMap
                       ? RunMapAttempt(job, job_span, index, attempt, governor,
                                       local, &(*map_runs)[index])
                       : RunReduceAttempt(job, job_span, *map_runs, index,
                                          attempt, governor, local);
        timed_out = governor.AttemptTimedOut();
        // Only a winning attempt's CPU counts; a failed attempt's time goes
        // to retried_task_nanos.
        if (s.ok()) local->cpu_nanos += cpu.ElapsedNanos();
        return s;
      },
      [&](int64_t attempt_nanos) {
        (kind == TaskKind::kMap ? counters->map_task_failures
                                : counters->reduce_task_failures) += 1;
        if (timed_out) counters->tasks_timed_out += 1;
        counters->retried_task_nanos += attempt_nanos;
      });
  if (status.ok() && kind == TaskKind::kReduce) {
    // Release this partition's runs only after a successful attempt (a
    // retry merges them again); the job may hold many partitions.
    for (MapRuns& runs : *map_runs) {
      if (runs) runs->partitions()[index] = ShuffleRun();
    }
  }
  return status;
}

/// The dispatched path's half of a job: registers the attempt executor with
/// the coordinator for the job's lifetime and runs each logical task through
/// DispatchCoordinator::RunTask. Duplicate executions of a task (message
/// duplication, committed-but-lost responses, speculative duplicates) each
/// park their product under their own attempt id; only the winning
/// attempt's is consumed, so records and counters merge exactly once per
/// logical task no matter how many attempts actually ran.
///
/// Unlike the plain path, partition runs are not freed after a reduce task
/// wins: an abandoned duplicate execution may still be merging them on a
/// worker thread. They go when the job's frame unwinds, after the
/// destructor has drained every in-flight execution.
class DispatchedJob {
 public:
  DispatchedJob(DispatchCoordinator* dispatcher, const JobConfig& job,
                telemetry::Span* job_span, std::vector<MapRuns>* map_runs)
      : dispatcher_(dispatcher),
        job_(job),
        job_span_(job_span),
        map_runs_(map_runs),
        job_id_(dispatcher->NewJobId()) {
    dispatcher_->StartJob(job_id_, [this](const TaskRequest& request,
                                          const CancellationToken* cancel) {
      return Execute(request, cancel);
    });
  }
  ~DispatchedJob() { dispatcher_->EndJob(job_id_); }

  DispatchedJob(const DispatchedJob&) = delete;
  DispatchedJob& operator=(const DispatchedJob&) = delete;

  /// Dispatches one logical task, folds the dispatch bookkeeping into
  /// `counters`, and merges the winning attempt's product.
  Status RunTask(TaskKind kind, int index, JobCounters* counters) {
    DispatchOutcome outcome = dispatcher_->RunTask(
        job_id_, job_.name, kind, index,
        kind == TaskKind::kMap ? job_.splits[index] : InputSplit(),
        std::max(1, job_.max_task_attempts), job_.query_ctx);
    counters->transport_dispatches += outcome.dispatches;
    counters->transport_retries += outcome.retries;
    counters->speculative_launches += outcome.speculative_launches;
    counters->speculative_losses += outcome.speculative_losses;
    if (outcome.speculative_won) counters->speculative_wins += 1;
    if (outcome.ran_local_fallback) counters->transport_fallbacks += 1;
    (kind == TaskKind::kMap ? counters->map_task_failures
                            : counters->reduce_task_failures) +=
        outcome.failures;
    counters->tasks_timed_out += outcome.timeouts;
    counters->retried_task_nanos += outcome.retried_nanos;
    if (!outcome.status.ok()) {
      MINIHIVE_RETURN_IF_ERROR(QueryAlive(job_));
      return FailedAfterAttempts(TaskName(kind, index), outcome.failures,
                                 outcome.status);
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto it = products_.find({kind, index, outcome.winning_attempt});
    if (it == products_.end()) {
      return Status::Internal("winning attempt " +
                              std::to_string(outcome.winning_attempt) +
                              " left no result");
    }
    it->second.counters.AccumulateTaskLocalInto(counters);
    if (kind == TaskKind::kMap) {
      (*map_runs_)[index] = std::move(it->second.runs);
    }
    products_.erase(it);
    return Status::OK();
  }

 private:
  struct Product {
    MapRuns runs;  // Map attempts only.
    JobCounters counters;
  };

  /// The worker-side attempt body: one decoded request in, one complete
  /// attempt out. Runs on transport worker threads, and on launch threads
  /// for the coordinator's local fallback.
  Status Execute(const TaskRequest& request, const CancellationToken* cancel) {
    const bool is_map = request.kind == TaskKind::kMap;
    const int index = request.task_index;
    if (index < 0 || index >= (is_map ? static_cast<int>(job_.splits.size())
                                      : job_.num_reducers)) {
      return Status::InvalidArgument("task index out of range: " +
                                     std::to_string(index));
    }
    TaskGovernor governor = AttemptGovernor(job_, cancel);
    Product product;
    ThreadCpuTimer cpu;
    MINIHIVE_RETURN_IF_ERROR(
        is_map ? RunMapAttempt(job_, job_span_, index, request.attempt,
                               governor, &product.counters, &product.runs)
               : RunReduceAttempt(job_, job_span_, *map_runs_, index,
                                  request.attempt, governor,
                                  &product.counters));
    product.counters.cpu_nanos += cpu.ElapsedNanos();
    std::lock_guard<std::mutex> lock(mu_);
    products_[{request.kind, index, request.attempt}] = std::move(product);
    return Status::OK();
  }

  DispatchCoordinator* dispatcher_;
  const JobConfig& job_;
  telemetry::Span* job_span_;
  std::vector<MapRuns>* map_runs_;  // Read-only while reduces run.
  const uint64_t job_id_;
  std::mutex mu_;
  // Successful attempts' products, keyed (kind, task index, attempt).
  std::map<std::tuple<TaskKind, int, int>, Product> products_;
};

}  // namespace

void OperatorTable::MergeInto(OperatorTable* total) const {
  if (stats.empty()) return;
  static std::mutex merge_mu;
  std::lock_guard<std::mutex> lock(merge_mu);
  for (const auto& [id, from] : stats) {
    OperatorStats& to = total->stats[id];
    to.kind = from.kind;
    to.rows_in += from.rows_in;
    to.rows_out += from.rows_out;
    to.batches += from.batches;
    to.nanos += from.nanos;
  }
}

void OperatorTable::AttachToSpan(telemetry::Span* parent) const {
  if (parent == nullptr) return;
  for (const auto& [id, op] : stats) {
    telemetry::Span* span = parent->StartChild(
        std::string("op:") + op.kind + "#" + std::to_string(id));
    span->SetAttr("rows_in", op.rows_in);
    span->SetAttr("rows_out", op.rows_out);
    if (op.batches > 0) span->SetAttr("batches", op.batches);
    span->set_duration_nanos(op.nanos);
  }
}

Engine::Engine(dfs::FileSystem* fs, EngineOptions options)
    : fs_(fs), options_(options) {}

Status Engine::RunJob(const JobConfig& job, JobCounters* counters) {
  // Tracing: one span per job, one per task attempt. Spans are opened from
  // worker threads (StartChild is thread-safe); the job's counters fold
  // into the job span as attributes once the phases complete.
  telemetry::Span* job_span =
      job.parent_span != nullptr
          ? job.parent_span->StartChild("job:" + job.name)
          : nullptr;
  if (options_.job_startup_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.job_startup_ms));
  }
  counters->map_tasks = static_cast<int>(job.splits.size());
  counters->reduce_tasks = job.num_reducers;
  Status status = RunPhases(job, counters, job_span);
  if (job_span != nullptr) {
    counters->ExportToSpan(job_span);
    counters->operators.AttachToSpan(job_span);
    if (!status.ok()) job_span->SetAttr("error", status.ToString());
    job_span->End();
  }
  return status;
}

Status Engine::RunPhases(const JobConfig& job, JobCounters* counters,
                         telemetry::Span* job_span) {
  // Dead-query check at phase boundaries. Counted once per job: tasks that
  // die of the same cause inside a phase do not re-bump the counter.
  auto count_if_dead = [&](Status s) -> Status {
    if (!s.ok() && !QueryAlive(job).ok()) counters->queries_cancelled += 1;
    return s;
  };
  MINIHIVE_RETURN_IF_ERROR(count_if_dead(QueryAlive(job)));
  if (job.num_reducers > 0 && !job.reduce_factory) {
    return Status::InvalidArgument("job has reducers but no reduce factory");
  }
  if (options_.scheduler == nullptr || options_.scheduler_queue == nullptr) {
    return Status::InvalidArgument("engine has no scheduler queue");
  }

  std::vector<MapRuns> map_runs(job.splits.size());
  // Distributed mode: every task attempt routes through the dispatch layer.
  // Declared after map_runs so its destructor drains in-flight executions
  // before the runs they read are freed.
  std::optional<DispatchedJob> dispatched;
  if (options_.dispatcher != nullptr) {
    dispatched.emplace(options_.dispatcher, job, job_span, &map_runs);
  }

  auto run_task = [&](TaskKind kind, int index) -> Status {
    return dispatched.has_value()
               ? dispatched->RunTask(kind, index, counters)
               : RetryTask(job, job_span, kind, index, &map_runs, counters);
  };
  auto run_phase = [&](TaskKind kind, int count, double* millis) -> Status {
    Stopwatch watch;
    MINIHIVE_RETURN_IF_ERROR(count_if_dead(options_.scheduler->RunParallel(
        options_.scheduler_queue, count,
        [&](int index) { return run_task(kind, index); })));
    *millis = watch.ElapsedMillis();
    return Status::OK();
  };

  MINIHIVE_RETURN_IF_ERROR(run_phase(TaskKind::kMap,
                                     static_cast<int>(job.splits.size()),
                                     &counters->map_phase_millis));
  if (job.num_reducers == 0) return Status::OK();
  MINIHIVE_RETURN_IF_ERROR(count_if_dead(QueryAlive(job)));
  // Shuffle + reduce phase: starts after the whole map phase.
  return run_phase(TaskKind::kReduce, job.num_reducers,
                   &counters->reduce_phase_millis);
}

Status RunAttempts(
    std::string_view unit, int max_attempts, const QueryContext* query_ctx,
    JobCounters* counters,
    const std::function<Status(int attempt, JobCounters* local)>& body,
    const std::function<void(int64_t attempt_nanos)>& on_failure) {
  auto alive = [query_ctx] {
    return query_ctx != nullptr ? query_ctx->CheckAlive() : Status::OK();
  };
  max_attempts = std::max(1, max_attempts);
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    MINIHIVE_RETURN_IF_ERROR(alive());
    Stopwatch watch;
    JobCounters local;
    last = body(attempt, &local);
    if (last.ok()) {
      local.AccumulateTaskLocalInto(counters);
      return last;
    }
    // A dead query is not the unit's failure; an exhausted budget would
    // only be exhausted again.
    MINIHIVE_RETURN_IF_ERROR(alive());
    if (last.IsResourceExhausted()) return last;
    if (on_failure) {
      on_failure(static_cast<int64_t>(watch.ElapsedMillis() * 1e6));
    }
  }
  return FailedAfterAttempts(unit, max_attempts, last);
}

Result<std::vector<InputSplit>> ComputeSplits(
    dfs::FileSystem* fs, const std::vector<std::string>& paths,
    uint64_t split_size, int source_tag) {
  std::vector<InputSplit> splits;
  for (const std::string& path : paths) {
    MINIHIVE_ASSIGN_OR_RETURN(uint64_t size, fs->FileSize(path));
    if (size == 0) continue;
    auto file_result = fs->Open(path);
    for (uint64_t offset = 0; offset < size; offset += split_size) {
      InputSplit split;
      split.path = path;
      split.offset = offset;
      split.length = std::min(split_size, size - offset);
      split.source_tag = source_tag;
      if (file_result.ok()) {
        auto locations = (*file_result)->GetBlockLocations(offset, 1);
        if (!locations.empty() && !locations[0].hosts.empty()) {
          split.locality_host = locations[0].hosts[0];
        }
      }
      splits.push_back(std::move(split));
    }
  }
  return splits;
}

uint64_t EstimateRowBytes(const Row& row) {
  uint64_t total = 0;
  for (const Value& v : row) {
    if (v.is_null()) {
      total += 1;
    } else if (v.is_int() || v.is_double()) {
      total += 8;
    } else if (v.is_string()) {
      total += 4 + v.AsString().size();
    } else {
      total += 16;  // Complex values: coarse estimate.
    }
  }
  return total;
}

}  // namespace minihive::mr
