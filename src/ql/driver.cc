#include "ql/driver.h"

#include <algorithm>
#include <atomic>
#include <cctype>

#include "common/stopwatch.h"
#include "ql/analyzer.h"
#include "ql/optimizer.h"
#include "ql/parser.h"
#include "ql/table_ops.h"
#include "ql/task_compiler.h"
#include "vec/simd.h"

namespace minihive::ql {

namespace {

/// If `sql` starts with the keywords EXPLAIN PROFILE (any case, any
/// whitespace), strips them and returns true.
bool StripExplainProfile(std::string_view* sql) {
  std::string_view s = *sql;
  auto skip_spaces = [&s] {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
      s.remove_prefix(1);
    }
  };
  auto take_word = [&s](std::string_view word) {
    if (s.size() < word.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(s[i])) != word[i]) {
        return false;
      }
    }
    // The keyword must end at a word boundary.
    if (s.size() > word.size() &&
        !std::isspace(static_cast<unsigned char>(s[word.size()]))) {
      return false;
    }
    s.remove_prefix(word.size());
    return true;
  };
  skip_spaces();
  if (!take_word("EXPLAIN")) return false;
  skip_spaces();
  if (!take_word("PROFILE")) return false;
  skip_spaces();
  *sql = s;
  return true;
}

/// True when `sql` starts with one of the table-mutation keywords
/// (CREATE/DROP/INSERT/DELETE) — routed to TableOps, not the query planner.
bool IsTableStatement(std::string_view sql) {
  while (!sql.empty() &&
         std::isspace(static_cast<unsigned char>(sql.front()))) {
    sql.remove_prefix(1);
  }
  size_t end = 0;
  while (end < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[end]))) {
    ++end;
  }
  std::string word;
  for (size_t i = 0; i < end; ++i) {
    word += static_cast<char>(std::toupper(static_cast<unsigned char>(sql[i])));
  }
  return word == "CREATE" || word == "DROP" || word == "INSERT" ||
         word == "DELETE";
}

}  // namespace

Driver::Driver(dfs::FileSystem* fs, Catalog* catalog, DriverOptions options)
    : fs_(fs),
      catalog_(catalog),
      options_(options),
      session_(options.session) {
  if (session_ == nullptr) {
    // Standalone: a private manager from the driver's own settings. The
    // query thread works its own task batches, so num_workers - 1 scheduler
    // workers give exactly num_workers task slots; without a global budget
    // admission never queues, and the per-query slice caps map-join builds.
    SessionManagerOptions manager_options;
    manager_options.num_workers = std::max(0, options_.num_workers - 1);
    manager_options.metadata_cache_bytes = options_.metadata_cache_bytes;
    manager_options.global_memory_budget_bytes = 0;
    manager_options.per_query_memory_budget_bytes =
        options_.mapjoin_memory_budget_bytes;
    manager_options.workers = options_.workers;
    own_manager_ = std::make_unique<SessionManager>(manager_options);
    own_session_ = own_manager_->NewSession("driver");
    session_ = own_session_.get();
  }
  SessionManager* manager = session_->manager();
  // Every driver on a manager shares its CacheManager; installing the same
  // handle again is idempotent. Installation is last-wins like the fault
  // injector: with several managers on one filesystem the most recent
  // driver's cache serves everyone. A manager without a metadata cache
  // installs nothing.
  if (manager->options().metadata_cache_bytes > 0) {
    fs_->set_cache_manager(manager->cache_manager());
  }
  if (WorkerManager* worker_manager = manager->worker_manager()) {
    // The manager's health tracker is shared, so a worker blacklisted by
    // one driver stays blacklisted for the session's others.
    transport_ = std::make_unique<mr::SimulatedRemoteTransport>(
        manager->options().workers);
    dispatcher_ = std::make_unique<mr::DispatchCoordinator>(transport_.get(),
                                                            worker_manager);
    started_monitor_ = worker_manager->StartMonitor(
        [t = transport_.get()](int worker) { return t->Heartbeat(worker); });
  }
}

Driver::~Driver() {
  // The monitor's probe captures our transport; stop it before the
  // transport dies. Only the driver whose StartMonitor call actually
  // started the thread stops it (a session-shared manager may be serving
  // other drivers, but their probes would dangle — safety first; dispatch
  // results still update liveness for them).
  if (started_monitor_) worker_manager()->StopMonitor();
  // A private manager's cache is uninstalled only if still the installed
  // one — a later Driver on the same filesystem may have replaced it
  // (last-wins). Concurrent users that captured the handle keep it alive
  // past us: the installation is shared_ptr-based precisely so this
  // destructor cannot pull the cache out from under an open ORC reader. A
  // shared manager's cache stays installed for the manager's lifetime.
  if (own_manager_ != nullptr &&
      fs_->cache_manager() == own_manager_->cache_manager()) {
    fs_->set_cache_manager(nullptr);
  }
}

Result<QueryResult> Driver::Execute(std::string_view sql) {
  return Run(sql, /*execute=*/true);
}

Result<QueryResult> Driver::Explain(std::string_view sql) {
  return Run(sql, /*execute=*/false);
}

Result<QueryResult> Driver::Run(std::string_view sql, bool execute) {
  // DDL/DML goes to the table-mutation path: no planning, no MapReduce
  // jobs — parse, then run the commit protocol against the catalog.
  if (IsTableStatement(sql)) {
    Stopwatch watch;
    MINIHIVE_ASSIGN_OR_RETURN(AstStatementPtr statement, ParseStatement(sql));
    QueryResult result;
    if (!execute) {
      result.plan_text = "table statement (no MapReduce plan)\n";
      return result;
    }
    TableOps ops(fs_, catalog_);
    MINIHIVE_ASSIGN_OR_RETURN(result.rows_affected, ops.Execute(*statement));
    result.elapsed_millis = watch.ElapsedMillis();
    return result;
  }

  // EXPLAIN PROFILE <query>: run the inner query with profiling forced on
  // and return the rendered span tree as the plan text.
  bool explain_profile = StripExplainProfile(&sql);
  if (explain_profile) execute = true;

  // The lifecycle context is shared by the primary run and any fallback
  // run: the deadline spans the whole statement, not each attempt.
  QueryContext query_ctx;
  query_ctx.set_token(token_);
  query_ctx.set_timeout_millis(options_.query_timeout_millis);

  // An executed query passes admission control first, then opens its
  // fair-share scheduler queue. Admission failure is pre-plan, so it can
  // never be mistaken for a map-join budget failure (no fallback run) and
  // never perturbs queries already executing.
  std::unique_ptr<QueryAdmission> admission;
  SessionManager* manager = session_->manager();
  if (execute) {
    std::string query_name =
        session_->name() + "#" + std::to_string(query_counter_ + 1);
    auto admitted = manager->Admit(query_name, &query_ctx);
    if (!admitted.ok()) return admitted.status();
    admission = std::move(admitted).ValueOrDie();
    query_ctx.set_memory_budget(admission->budget());
    active_admission_ = admission.get();
    active_queue_ = manager->scheduler()->RegisterQueue(session_->priority());
  }

  Result<QueryResult> result = RunOnce(sql, execute, explain_profile,
                                       query_ctx, /*disable_mapjoin=*/false,
                                       /*mapjoin_fallbacks=*/0);
  if (!result.ok() && result.status().IsResourceExhausted() && execute &&
      options_.mapjoin_conversion) {
    // Backup-task protocol (paper §5.1): a map-join build that blew its
    // memory budget is a determinate failure of the optimistic plan, not of
    // the query. Re-plan from the SQL with map-join conversion disabled —
    // the pre-conversion reduce joins — and re-execute transparently.
    result = RunOnce(sql, execute, explain_profile, query_ctx,
                     /*disable_mapjoin=*/true, /*mapjoin_fallbacks=*/1);
  }
  if (active_queue_ != nullptr) {
    manager->scheduler()->UnregisterQueue(active_queue_);
    active_queue_ = nullptr;
  }
  active_admission_ = nullptr;  // `admission` releases the budget slice now
  return result;
}

void Driver::CleanupTemps(const std::string& scratch,
                          const std::vector<std::string>& temp_dirs) {
  // Best-effort: on the error paths some files were already aborted away.
  for (const std::string& path : fs_->List(scratch + "/")) {
    fs_->Delete(path).ok();
  }
  for (const std::string& dir : temp_dirs) {
    for (const std::string& path : fs_->List(dir + "/")) {
      fs_->Delete(path).ok();
    }
  }
}

Result<QueryResult> Driver::RunOnce(std::string_view sql, bool execute,
                                    bool explain_profile,
                                    const QueryContext& query_ctx,
                                    bool disable_mapjoin,
                                    int mapjoin_fallbacks) {
  Stopwatch watch;
  bool profiling = explain_profile || options_.enable_profiling;
  MINIHIVE_RETURN_IF_ERROR(query_ctx.CheckAlive());
  // Process-wide id: several Driver instances may share one DFS.
  static std::atomic<int> global_query_counter{0};
  int query_id = global_query_counter.fetch_add(1);
  query_counter_ = query_id;
  std::string scratch = "/tmp/query-" + std::to_string(query_id);
  std::string result_path = scratch + "/result";

  std::shared_ptr<telemetry::Span> query_span;
  telemetry::Span* plan_span = nullptr;
  if (profiling) {
    query_span = std::make_shared<telemetry::Span>(
        "query:" + std::to_string(query_id));
    plan_span = query_span->StartChild("plan");
  }
  // Every per-query count in the profile comes from result->counters: the
  // winning task attempts' own counters, so concurrent queries never see
  // each other's work.
  auto finish = [&](QueryResult* result) {
    if (query_span == nullptr) return;
    query_span->SetAttr("num_jobs", static_cast<int64_t>(result->num_jobs));
    query_span->SetAttr("result_rows",
                        static_cast<uint64_t>(result->rows.size()));
    result->counters.ExportToSpan(query_span.get());
    if (active_admission_ != nullptr) {
      query_span->SetAttr(
          "admission_queue_wait_millis",
          static_cast<int64_t>(active_admission_->queue_wait_millis()));
      query_span->SetAttr("admitted_bytes",
                          active_admission_->admitted_bytes());
      query_span->SetAttr("query_budget_peak_bytes",
                          active_admission_->budget()->peak_used());
    }
    if (active_queue_ != nullptr) {
      // The queue is registered per statement, so its stats are this
      // statement's own.
      TaskScheduler::QueueStats stats =
          session_->manager()->scheduler()->GetQueueStats(active_queue_);
      query_span->SetAttr("sched_tasks_run", stats.tasks_run);
      query_span->SetAttr("sched_queue_wait_millis",
                          stats.queue_wait_nanos / 1000000);
    }
    if (dispatcher_ != nullptr) {
      query_span->SetAttr("dispatch_transport",
                          std::string_view(dispatcher_->transport()->name()));
    }
    query_span->SetAttr("simd_dispatch", std::string_view(simd::DispatchName()));
    query_span->End();
    result->profile = query_span;
    last_profile_ = query_span;
    if (explain_profile) result->plan_text = query_span->Render();
  };

  MINIHIVE_ASSIGN_OR_RETURN(AstQueryPtr ast, ParseQuery(sql));
  Analyzer analyzer(catalog_);
  MINIHIVE_ASSIGN_OR_RETURN(PlannedQuery plan,
                            analyzer.Analyze(*ast, result_path));

  MINIHIVE_RETURN_IF_ERROR(
      PushdownIntoScans(&plan, options_.predicate_pushdown));
  if (execute && options_.stats_aggregation) {
    // §4.2: file-level statistics can answer simple aggregation queries
    // outright.
    bool answered = false;
    QueryResult stats_result;
    MINIHIVE_RETURN_IF_ERROR(TryAnswerFromStatistics(
        plan, catalog_, &answered, &stats_result.rows,
        &stats_result.counters));
    if (answered) {
      stats_result.column_names = plan.result_names;
      stats_result.num_jobs = 0;
      stats_result.plan_text = "answered from ORC file statistics\n";
      if (plan_span != nullptr) {
        plan_span->SetAttr("answered_from", "orc-statistics");
        plan_span->End();
      }
      finish(&stats_result);
      stats_result.elapsed_millis = watch.ElapsedMillis();
      return stats_result;
    }
  }
  if (options_.mapjoin_conversion && !disable_mapjoin) {
    MINIHIVE_RETURN_IF_ERROR(ConvertMapJoins(
        &plan, catalog_, options_.mapjoin_threshold_bytes));
  }
  if (options_.merge_maponly_jobs) {
    MINIHIVE_RETURN_IF_ERROR(
        MergeMapOnlyJobs(&plan, options_.mapjoin_threshold_bytes));
  }
  if (options_.correlation_optimizer) {
    MINIHIVE_RETURN_IF_ERROR(ApplyCorrelationOptimizer(&plan));
  }

  CompileTasksOptions compile_options;
  compile_options.default_reducers = options_.default_reducers;
  compile_options.map_aggr_flush_entries = options_.map_aggr_flush_entries;
  MINIHIVE_ASSIGN_OR_RETURN(CompiledPlan compiled,
                            CompileTasks(&plan, scratch, compile_options));

  QueryResult result;
  result.column_names = plan.result_names;
  result.num_jobs = static_cast<int>(compiled.jobs.size());
  for (const MapRedJob& job : compiled.jobs) {
    if (job.num_reducers == 0) ++result.num_map_only_jobs;
  }
  result.plan_text = compiled.DebugString();
  if (plan_span != nullptr) {
    plan_span->SetAttr("num_jobs", static_cast<int64_t>(result.num_jobs));
    plan_span->SetAttr("num_map_only_jobs",
                       static_cast<int64_t>(result.num_map_only_jobs));
    plan_span->End();
  }
  if (!execute) {
    finish(&result);
    result.elapsed_millis = watch.ElapsedMillis();
    return result;
  }

  telemetry::Span* exec_span =
      query_span != nullptr ? query_span->StartChild("execute") : nullptr;
  PlanExecutor executor(fs_, catalog_, options_, query_ctx, exec_span,
                        session_->manager()->scheduler(), active_queue_,
                        dispatcher_.get());
  Status exec_status = executor.Run(compiled, &result.counters);
  if (exec_span != nullptr) exec_span->End();
  if (!exec_status.ok()) {
    // A failed (or cancelled) query must not leak its scratch or attempt
    // files: later queries on the session scan the same /tmp namespace.
    CleanupTemps(scratch, plan.temp_dirs);
    return exec_status;
  }
  result.counters.mapjoin_fallbacks += mapjoin_fallbacks;

  // Fetch: read the result files back (variant-coded SequenceFile rows).
  // Only committed task outputs ("part-*") are fetched — a straggler's
  // attempt file must never leak into the result. Each file goes through
  // the shared attempt loop, so a transient read fault doesn't fail the
  // whole query after its jobs already succeeded.
  const formats::FileFormat* format =
      formats::GetFileFormat(formats::FormatKind::kSequenceFile);
  telemetry::Span* fetch_span =
      query_span != nullptr ? query_span->StartChild("fetch") : nullptr;
  for (const std::string& path : fs_->List(result_path + "/part-")) {
    std::vector<Row> file_rows;
    Status fetched = mr::RunAttempts(
        "result fetch of " + path, options_.max_task_attempts, &query_ctx,
        &result.counters, [&](int, mr::JobCounters* local) -> Status {
          file_rows.clear();
          formats::ReadOptions read_options;
          read_options.counters = local;
          MINIHIVE_ASSIGN_OR_RETURN(
              std::unique_ptr<formats::RowReader> reader,
              format->OpenReader(fs_, path, nullptr, read_options));
          Row row;
          while (true) {
            MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
            if (!more) return Status::OK();
            file_rows.push_back(row);
          }
        });
    if (!fetched.ok()) {
      CleanupTemps(scratch, plan.temp_dirs);
      return fetched;
    }
    for (Row& r : file_rows) {
      result.rows.push_back(std::move(r));
      if (plan.limit >= 0 && !plan.order_ascending.empty() &&
          static_cast<int64_t>(result.rows.size()) >= plan.limit) {
        break;
      }
    }
  }
  // LIMIT without a global sort is enforced per task; trim the union.
  if (plan.limit >= 0 &&
      static_cast<int64_t>(result.rows.size()) > plan.limit) {
    result.rows.resize(plan.limit);
  }
  if (fetch_span != nullptr) {
    fetch_span->SetAttr("rows", static_cast<uint64_t>(result.rows.size()));
    fetch_span->End();
  }

  CleanupTemps(scratch, plan.temp_dirs);
  finish(&result);
  result.elapsed_millis = watch.ElapsedMillis();
  return result;
}

}  // namespace minihive::ql
