#include "ql/runtime.h"

#include <set>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "orc/sarg.h"
#include "orc/statistics.h"
#include "vec/vectorized_pipeline.h"

namespace minihive::ql {

namespace {

using exec::OpDesc;
using exec::OpDescPtr;
using exec::OpKind;

/// Resolved input of one map source.
struct SourceRuntime {
  OpDescPtr root;
  formats::FormatKind format = formats::FormatKind::kSequenceFile;
  TypePtr schema;  // Null for temp (variant) inputs.
  std::vector<std::string> paths;
  /// Managed tables: per-path merge-on-read delete bitmaps captured with
  /// the snapshot. The shared_ptrs keep the bitmaps alive for the job.
  DeleteBitmapMap delete_bitmaps;
};

/// Directory-level partition pruning for managed tables: evaluates the
/// scan's pushed-down leaves on a file's partition values, modeled as
/// synthetic min==max column statistics. Any definite-NO leaf drops the
/// file from the scan without reading a byte of it. Only leaves on
/// partition columns participate; everything else stays kMaybe.
bool PartitionPrunes(const std::vector<int>& part_idx, const TableFile& file,
                     const orc::SearchArgument* sarg) {
  if (sarg == nullptr || part_idx.empty()) return false;
  for (const orc::LeafPredicate& leaf : sarg->leaves()) {
    for (size_t i = 0; i < part_idx.size(); ++i) {
      if (leaf.column != part_idx[i] || i >= file.partition_values.size()) {
        continue;
      }
      const Value& v = file.partition_values[i];
      orc::ColumnStatistics stats;
      if (v.is_null()) {
        stats.MarkNull();
      } else if (v.is_int()) {
        stats.UpdateInt(v.AsInt());
      } else if (v.is_double()) {
        stats.UpdateDouble(v.AsDouble());
      } else if (v.is_string()) {
        stats.UpdateString(v.AsString());
      } else {
        continue;
      }
      if (orc::SearchArgument::EvaluateLeaf(leaf, stats) ==
          orc::TruthValue::kNo) {
        return true;
      }
    }
  }
  return false;
}

/// Collects the MapJoin descriptors of a map region (TS .. RS/FS).
void CollectMapJoins(const OpDescPtr& root, std::vector<const OpDesc*>* out) {
  std::vector<const OpDesc*> stack = {root.get()};
  std::set<const OpDesc*> seen;
  while (!stack.empty()) {
    const OpDesc* cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    if (cur->kind == OpKind::kMapJoin) out->push_back(cur);
    if (cur->kind == OpKind::kReduceSink) continue;
    for (const OpDescPtr& child : cur->children) stack.push_back(child.get());
  }
}

/// Collects the FileSink path prefixes of a pipeline (for attempt-output
/// promotion).
void CollectFileSinks(const OpDesc* root, std::vector<std::string>* out) {
  std::vector<const OpDesc*> stack = {root};
  std::set<const OpDesc*> seen;
  while (!stack.empty()) {
    const OpDesc* cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    if (cur->kind == OpKind::kFileSink) out->push_back(cur->sink_path_prefix);
    for (const OpDescPtr& child : cur->children) stack.push_back(child.get());
  }
}

class RowMapTask : public mr::MapTask {
 public:
  RowMapTask(dfs::FileSystem* fs, const std::vector<SourceRuntime>* sources,
             const std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>*
                 mapjoin_tables,
             bool vectorized, bool enable_late_materialization,
             exec::PipelineProfile* profile)
      : fs_(fs),
        sources_(sources),
        mapjoin_tables_(mapjoin_tables),
        vectorized_(vectorized),
        enable_late_materialization_(enable_late_materialization),
        profile_(profile) {}

  Status Run(const mr::InputSplit& split, int task_index, int attempt,
             mr::ShuffleEmitter* emitter) override {
    if (split.source_tag < 0 ||
        static_cast<size_t>(split.source_tag) >= sources_->size()) {
      return Status::Internal("split source tag out of range");
    }
    const SourceRuntime& source = (*sources_)[split.source_tag];

    exec::TaskContext ctx;
    ctx.fs = fs_;
    ctx.task_suffix = "m-" + std::to_string(task_index);
    ctx.attempt = attempt;
    ctx.emitter = emitter;
    ctx.mapjoin_tables = mapjoin_tables_;
    ctx.reader_host = split.locality_host;
    ctx.profile = profile_;
    ctx.counters = attempt_counters();
    ctx.governor = governor();
    ctx.enable_late_materialization = enable_late_materialization_;
    ctx.delete_bitmaps = &source.delete_bitmaps;

    // The vectorized path handles eligible pipelines entirely (paper §6);
    // it reports NotImplemented when the pipeline does not qualify, in
    // which case we run the row-mode pipeline below.
    if (vectorized_) {
      Status vstatus = vec::RunVectorizedMapPipeline(source.root.get(),
                                                     source.schema,
                                                     source.format, split,
                                                     &ctx);
      if (!vstatus.IsNotImplemented()) return vstatus;
    }

    exec::OperatorArena arena;
    MINIHIVE_ASSIGN_OR_RETURN(exec::Operator * root,
                              exec::BuildOperatorTree(source.root.get(),
                                                      &arena));
    MINIHIVE_RETURN_IF_ERROR(root->Init(&ctx));

    const formats::FileFormat* format = formats::GetFileFormat(source.format);
    formats::ReadOptions read_options;
    read_options.projected_columns = source.root->scan_projection;
    read_options.sarg = source.root->sarg.get();
    read_options.split_offset = split.offset;
    read_options.split_length = split.length;
    read_options.reader_host = split.locality_host;
    read_options.governor = governor();
    read_options.counters = attempt_counters();
    read_options.delete_bitmap =
        FindDeleteBitmap(&source.delete_bitmaps, split.path);
    MINIHIVE_ASSIGN_OR_RETURN(
        std::unique_ptr<formats::RowReader> reader,
        format->OpenReader(fs_, split.path, source.schema, read_options));
    Row row;
    uint64_t records_in = 0;
    while (true) {
      // Row-batch-boundary cancellation point (the governed reader also
      // checks per index group; this covers non-ORC formats).
      if (governor() != nullptr && (records_in & 63u) == 0) {
        MINIHIVE_RETURN_IF_ERROR(governor()->CheckAlive());
      }
      MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
      if (!more) break;
      ++records_in;
      MINIHIVE_RETURN_IF_ERROR(root->Process(row, 0));
    }
    CountInputRecords(records_in);
    return root->Finish();
  }

 private:
  dfs::FileSystem* fs_;
  const std::vector<SourceRuntime>* sources_;
  const std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>*
      mapjoin_tables_;
  bool vectorized_;
  bool enable_late_materialization_;
  exec::PipelineProfile* profile_;
};

/// Drives a reduce-entry operator pipeline with the engine's push-style
/// ReduceTask protocol. Doubles as the combiner driver: a combiner is the
/// same protocol run over one map task's sorted run, with `emitter`
/// capturing the pipeline's ReduceSink output.
class RowReduceTask : public mr::ReduceTask {
 public:
  RowReduceTask(dfs::FileSystem* fs, const OpDesc* reduce_root,
                const std::unordered_map<
                    int, std::shared_ptr<exec::MapJoinTables>>* mapjoin_tables,
                int partition, int attempt = 0,
                mr::ShuffleEmitter* emitter = nullptr,
                exec::PipelineProfile* profile = nullptr)
      : fs_(fs),
        reduce_root_(reduce_root),
        mapjoin_tables_(mapjoin_tables),
        partition_(partition),
        attempt_(attempt),
        emitter_(emitter),
        profile_(profile) {}

  Status StartGroup(const Row& key) override {
    (void)key;
    MINIHIVE_RETURN_IF_ERROR(EnsureInit());
    return root_->StartGroup();
  }

  Status Reduce(const Row& key, const Row& value, int tag) override {
    // The reduce entry sees the concatenated (key ++ value) layout, like
    // Hive's reduce-side row reconstruction.
    Row row;
    row.reserve(key.size() + value.size());
    row.insert(row.end(), key.begin(), key.end());
    row.insert(row.end(), value.begin(), value.end());
    return root_->Process(row, tag);
  }

  Status EndGroup() override { return root_->EndGroup(); }

  Status Finish() override {
    MINIHIVE_RETURN_IF_ERROR(EnsureInit());
    return root_->Finish();
  }

 private:
  Status EnsureInit() {
    if (root_ != nullptr) return Status::OK();
    ctx_.fs = fs_;
    ctx_.task_suffix = (emitter_ != nullptr ? "c-" : "r-") +
                       std::to_string(partition_);
    ctx_.attempt = attempt_;
    ctx_.mapjoin_tables = mapjoin_tables_;
    ctx_.emitter = emitter_;
    ctx_.profile = profile_;
    MINIHIVE_ASSIGN_OR_RETURN(root_,
                              exec::BuildOperatorTree(reduce_root_, &arena_));
    return root_->Init(&ctx_);
  }

  dfs::FileSystem* fs_;
  const OpDesc* reduce_root_;
  const std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>*
      mapjoin_tables_;
  int partition_;
  int attempt_;
  mr::ShuffleEmitter* emitter_;
  exec::PipelineProfile* profile_;
  exec::TaskContext ctx_;
  exec::OperatorArena arena_;
  exec::Operator* root_ = nullptr;
};

}  // namespace

PlanExecutor::PlanExecutor(dfs::FileSystem* fs, const Catalog* catalog,
                           ExecutionOptions options)
    : fs_(fs),
      catalog_(catalog),
      options_(options),
      engine_(fs, mr::EngineOptions{options.num_workers,
                                     options.job_startup_ms,
                                     options.scheduler,
                                     options.scheduler_queue,
                                     options.dispatcher}) {}

Status PlanExecutor::Run(const CompiledPlan& plan, mr::JobCounters* totals,
                         std::vector<JobReport>* reports) {
  for (const MapRedJob& job : plan.jobs) {
    if (options_.query_ctx != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(options_.query_ctx->CheckAlive());
    }
    Stopwatch watch;
    mr::JobCounters counters;
    std::unique_ptr<exec::PipelineProfile> profile;
    if (options_.profile) profile = std::make_unique<exec::PipelineProfile>();
    Status job_status = RunJob(job, &counters, profile.get());
    // Jobs run sequentially, so the last child of the query span is this
    // job's span (the engine added it); hang the operator stats off it.
    if (profile != nullptr && options_.query_span != nullptr) {
      if (telemetry::Span* job_span = options_.query_span->LastChild()) {
        profile->AttachToSpan(job_span);
      }
    }
    MINIHIVE_RETURN_IF_ERROR(job_status);
    counters.AccumulateInto(totals);
    if (reports != nullptr) {
      JobReport report;
      report.name = job.name;
      report.elapsed_millis = watch.ElapsedMillis();
      report.map_tasks = counters.map_tasks;
      report.reduce_tasks = counters.reduce_tasks;
      report.map_task_failures = counters.map_task_failures.load();
      report.reduce_task_failures = counters.reduce_task_failures.load();
      report.retried_task_millis = counters.retried_task_millis();
      report.tasks_timed_out = counters.tasks_timed_out.load();
      report.local_task_failures = counters.local_task_failures.load();
      report.local_task_millis = counters.local_task_millis();
      reports->push_back(report);
    }
  }
  return Status::OK();
}

Status PlanExecutor::RunJob(const MapRedJob& job, mr::JobCounters* counters,
                            exec::PipelineProfile* profile) {
  // Resolve the sources.
  auto sources = std::make_shared<std::vector<SourceRuntime>>();
  for (const MapRedJob::MapSource& map_source : job.sources) {
    SourceRuntime source;
    source.root = map_source.root;
    if (!map_source.root->scan_temp_prefix.empty()) {
      source.format = formats::FormatKind::kSequenceFile;
      source.schema = nullptr;
      // Only committed task output ("part-*"): attempt-scoped files from a
      // concurrent or aborted attempt must never become job input.
      source.paths = fs_->List(map_source.root->scan_temp_prefix + "/part-");
    } else {
      MINIHIVE_ASSIGN_OR_RETURN(
          const TableDesc* table,
          catalog_->GetTable(map_source.root->table_name));
      source.format = table->format;
      source.schema = table->schema;
      if (table->managed()) {
        // Snapshot isolation: capture the manifest (files + bitmaps) once;
        // concurrent INSERT/DELETE/compaction commits cannot perturb this
        // job's input set. Partition-pruned files never reach the splitter.
        std::shared_ptr<const TableSnapshot> snapshot =
            catalog_->Snapshot(*table);
        const std::vector<int> part_idx = table->PartitionIndexes();
        uint64_t pruned = 0;
        for (const TableFile& file : snapshot->files) {
          if (PartitionPrunes(part_idx, file, map_source.root->sarg.get())) {
            ++pruned;
            continue;
          }
          source.paths.push_back(file.path);
          if (file.delete_bitmap != nullptr && !file.delete_bitmap->empty()) {
            source.delete_bitmaps[file.path] = file.delete_bitmap;
          }
        }
        if (pruned > 0) {
          telemetry::MetricsRegistry::Global()
              .GetCounter("ql.partition_files_pruned")
              ->Add(pruned);
        }
      } else {
        source.paths = catalog_->TableFiles(*table);
      }
    }
    sources->push_back(std::move(source));
  }

  // Local task: build all map-join hash tables once per job.
  auto mapjoin_tables = std::make_shared<
      std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>>();
  exec::TableResolver resolver =
      [this](const std::string& name) -> Result<exec::SmallTableSource> {
    MINIHIVE_ASSIGN_OR_RETURN(const TableDesc* table,
                              catalog_->GetTable(name));
    exec::SmallTableSource source;
    source.format = table->format;
    source.schema = table->schema;
    if (table->managed()) {
      std::shared_ptr<const TableSnapshot> snapshot =
          catalog_->Snapshot(*table);
      for (const TableFile& file : snapshot->files) {
        source.paths.push_back(file.path);
        if (file.delete_bitmap != nullptr && !file.delete_bitmap->empty()) {
          source.delete_bitmaps[file.path] = file.delete_bitmap;
        }
      }
    } else {
      source.paths = catalog_->TableFiles(*table);
    }
    return source;
  };
  std::vector<const OpDesc*> mapjoins;
  for (const auto& source : *sources) {
    CollectMapJoins(source.root, &mapjoins);
  }
  if (job.reduce_root != nullptr) {
    // Map joins can also sit in a reduce pipeline (a converted join whose
    // streamed side is another join's output).
    CollectMapJoins(job.reduce_root, &mapjoins);
  }
  // The local task reads the small tables outside the engine's task retry
  // loop, so it gets its own bounded retries against transient read faults.
  // Its attempts and wall time are accounted separately from engine tasks
  // (local_task_failures / local_task_nanos); like an engine task, only
  // the winning attempt's scan counts reach the job.
  const int max_attempts = std::max(1, options_.max_task_attempts);
  for (const OpDesc* mj : mapjoins) {
    Stopwatch local_watch;
    Status last;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (options_.query_ctx != nullptr) {
        Status alive = options_.query_ctx->CheckAlive();
        if (!alive.ok()) {
          counters->queries_cancelled += 1;
          last = alive;
          break;
        }
      }
      mr::JobCounters local;
      auto tables = exec::BuildMapJoinTables(
          fs_, *mj, resolver, options_.query_ctx,
          options_.mapjoin_memory_budget_bytes, &local);
      if (tables.ok()) {
        local.AccumulateTaskLocalInto(counters);
        (*mapjoin_tables)[mj->id] = std::move(*tables);
        last = Status::OK();
        break;
      }
      last = tables.status();
      // A blown memory budget is determinate: retrying rebuilds the same
      // oversized table. Fail straight through so the driver can fall back
      // to the reduce-join backup plan. Same for a dead query.
      if (last.IsResourceExhausted() || last.IsCancelled() ||
          last.IsDeadlineExceeded()) {
        break;
      }
      counters->local_task_failures += 1;
    }
    counters->local_task_nanos +=
        static_cast<int64_t>(local_watch.ElapsedMillis() * 1e6);
    if (!last.ok()) {
      if (last.IsResourceExhausted() || last.IsCancelled() ||
          last.IsDeadlineExceeded()) {
        return last;
      }
      return Status(last.code(), "map-join local task failed after " +
                                     std::to_string(max_attempts) +
                                     " attempts: " + last.message());
    }
  }

  // Splits.
  mr::JobConfig config;
  config.name = job.name;
  uint64_t split_size =
      options_.split_size > 0 ? options_.split_size : fs_->block_size();
  for (size_t i = 0; i < sources->size(); ++i) {
    MINIHIVE_ASSIGN_OR_RETURN(
        std::vector<mr::InputSplit> splits,
        mr::ComputeSplits(fs_, (*sources)[i].paths, split_size,
                          static_cast<int>(i)));
    config.splits.insert(config.splits.end(), splits.begin(), splits.end());
  }
  config.num_reducers = job.num_reducers;
  config.sort_ascending = job.sort_ascending;
  config.max_task_attempts = options_.max_task_attempts;
  config.query_ctx = options_.query_ctx;
  config.task_timeout_millis = options_.task_timeout_millis;

  if (options_.profile) config.parent_span = options_.query_span;

  bool vectorized = options_.vectorized;
  bool late_materialization = options_.enable_late_materialization;
  dfs::FileSystem* fs = fs_;
  config.map_factory = [fs, sources, mapjoin_tables, vectorized,
                        late_materialization, profile]() {
    return std::make_unique<RowMapTask>(fs, sources.get(),
                                        mapjoin_tables.get(), vectorized,
                                        late_materialization, profile);
  };
  if (job.num_reducers > 0) {
    const OpDesc* reduce_root = job.reduce_root.get();
    config.reduce_factory = [fs, reduce_root, mapjoin_tables,
                             profile](int partition, int attempt) {
      return std::make_unique<RowReduceTask>(fs, reduce_root,
                                             mapjoin_tables.get(), partition,
                                             attempt, nullptr, profile);
    };
    if (options_.use_combiner && job.combine_root != nullptr) {
      const OpDesc* combine_root = job.combine_root.get();
      config.combiner_factory =
          [fs, combine_root, mapjoin_tables,
           profile](mr::ShuffleEmitter* out) {
            return std::make_unique<RowReduceTask>(fs, combine_root,
                                                   mapjoin_tables.get(),
                                                   /*partition=*/0,
                                                   /*attempt=*/0, out, profile);
          };
    }
  }

  // Attempt-output promotion: a successful attempt's sink files are renamed
  // into place; a failed attempt's are deleted. Sinks live in the map
  // pipelines for map-only jobs and in the reduce pipeline otherwise.
  auto map_sinks = std::make_shared<std::vector<std::string>>();
  for (const auto& source : *sources) {
    CollectFileSinks(source.root.get(), map_sinks.get());
  }
  auto reduce_sinks = std::make_shared<std::vector<std::string>>();
  if (job.reduce_root != nullptr) {
    CollectFileSinks(job.reduce_root.get(), reduce_sinks.get());
  }
  config.commit_task = [fs, map_sinks, reduce_sinks](
                           mr::TaskKind kind, int index,
                           int attempt) -> Status {
    const std::vector<std::string>& prefixes =
        kind == mr::TaskKind::kMap ? *map_sinks : *reduce_sinks;
    std::string suffix = (kind == mr::TaskKind::kMap ? "m-" : "r-") +
                         std::to_string(index);
    for (const std::string& prefix : prefixes) {
      std::string from = exec::AttemptPartName(prefix, suffix, attempt);
      if (!fs->Exists(from)) continue;  // Task emitted no rows to this sink.
      MINIHIVE_RETURN_IF_ERROR(
          fs->Rename(from, exec::FinalPartName(prefix, suffix)));
    }
    return Status::OK();
  };
  config.abort_task = [fs, map_sinks, reduce_sinks](mr::TaskKind kind,
                                                    int index, int attempt) {
    const std::vector<std::string>& prefixes =
        kind == mr::TaskKind::kMap ? *map_sinks : *reduce_sinks;
    std::string suffix = (kind == mr::TaskKind::kMap ? "m-" : "r-") +
                         std::to_string(index);
    for (const std::string& prefix : prefixes) {
      // Best-effort: a retry writes under a different attempt id anyway.
      fs->Delete(exec::AttemptPartName(prefix, suffix, attempt)).ok();
    }
  };
  return engine_.RunJob(config, counters);
}

}  // namespace minihive::ql
