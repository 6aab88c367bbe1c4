#include "ql/runtime.h"

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "mr/shuffle_record.h"
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

/// The files a job reads from `table`, with their delete bitmaps. A managed
/// table is read at one snapshot: its manifest (files + bitmaps) is
/// captured once, so concurrent INSERT/DELETE/compaction commits cannot
/// perturb the job's input set. With a `sarg` (may be null), files whose
/// partition values it rules out never reach the splitter; they are counted
/// in `counters` (may be null when there is no `sarg`).
void CollectTableFiles(const Catalog& catalog, const TableDesc& table,
                       const orc::SearchArgument* sarg,
                       std::vector<std::string>* paths,
                       DeleteBitmapMap* delete_bitmaps,
                       mr::JobCounters* counters) {
  if (!table.managed()) {
    *paths = catalog.TableFiles(table);
    return;
  }
  std::shared_ptr<const TableSnapshot> snapshot = catalog.Snapshot(table);
  const std::vector<int> part_idx = table.PartitionIndexes();
  for (const TableFile& file : snapshot->files) {
    if (PartitionPrunes(part_idx, file, sarg)) {
      counters->partition_files_pruned += 1;
      continue;
    }
    paths->push_back(file.path);
    if (file.delete_bitmap != nullptr && !file.delete_bitmap->empty()) {
      (*delete_bitmaps)[file.path] = file.delete_bitmap;
    }
  }
}

class RowMapTask : public mr::MapTask {
 public:
  RowMapTask(dfs::FileSystem* fs, const std::vector<SourceRuntime>* sources,
             const std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>*
                 mapjoin_tables,
             bool vectorized, bool enable_late_materialization)
      : fs_(fs),
        sources_(sources),
        mapjoin_tables_(mapjoin_tables),
        vectorized_(vectorized),
        enable_late_materialization_(enable_late_materialization) {}

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
    ctx.counters = attempt_counters();
    ctx.governor = governor();

    // The one read request for this split, whichever engine runs it.
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
    read_options.enable_late_materialization = enable_late_materialization_;

    // The vectorized path handles eligible pipelines entirely (paper §6);
    // it reports NotImplemented, naming the reason, when the pipeline does
    // not qualify, in which case we run the row-mode pipeline below.
    if (vectorized_) {
      Status vstatus = vec::RunVectorizedMapPipeline(
          source.root.get(), source.schema, source.format, split.path,
          read_options, &ctx);
      if (!vstatus.IsNotImplemented()) return vstatus;
      set_row_mode_reason(vstatus.message());
    }

    exec::OperatorArena arena;
    MINIHIVE_ASSIGN_OR_RETURN(exec::Operator * root,
                              exec::BuildOperatorTree(source.root.get(),
                                                      &arena));
    MINIHIVE_RETURN_IF_ERROR(root->Init(&ctx));

    const formats::FileFormat* format = formats::GetFileFormat(source.format);
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
      ctx.clock.BeginUnit();
      MINIHIVE_RETURN_IF_ERROR(root->Process(row, 0));
    }
    CountInputRecords(records_in);
    ctx.clock.TimeAll();
    return root->Finish();
  }

 private:
  dfs::FileSystem* fs_;
  const std::vector<SourceRuntime>* sources_;
  const std::unordered_map<int, std::shared_ptr<exec::MapJoinTables>>*
      mapjoin_tables_;
  bool vectorized_;
  bool enable_late_materialization_;
};

/// Drives a reduce-entry operator pipeline with the engine's push-style
/// ReduceTask protocol.
class RowReduceTask : public mr::ReduceTask {
 public:
  RowReduceTask(dfs::FileSystem* fs, const OpDesc* reduce_root,
                const std::unordered_map<
                    int, std::shared_ptr<exec::MapJoinTables>>* mapjoin_tables,
                int partition, int attempt)
      : fs_(fs),
        reduce_root_(reduce_root),
        mapjoin_tables_(mapjoin_tables),
        partition_(partition),
        attempt_(attempt) {}

  /// Decodes the group's key once; every record of the group reuses it.
  /// A key group is one unit of the operator clock.
  Status StartGroup(std::string_view key) override {
    MINIHIVE_RETURN_IF_ERROR(EnsureInit());
    row_.clear();
    MINIHIVE_RETURN_IF_ERROR(mr::DecodeKey(key, &row_));
    key_width_ = row_.size();
    ctx_.clock.BeginUnit();
    return root_->StartGroup();
  }

  Status Reduce(std::string_view key, std::string_view value,
                int tag) override {
    (void)key;
    // The reduce entry sees the concatenated (key ++ value) layout, like
    // Hive's reduce-side row reconstruction, in one reused Row.
    row_.resize(key_width_);
    MINIHIVE_RETURN_IF_ERROR(mr::DecodeValues(value, &row_));
    return root_->Process(row_, tag);
  }

  Status EndGroup() override { return root_->EndGroup(); }

  Status Finish() override {
    MINIHIVE_RETURN_IF_ERROR(EnsureInit());
    ctx_.clock.TimeAll();
    return root_->Finish();
  }

 private:
  Status EnsureInit() {
    if (root_ != nullptr) return Status::OK();
    ctx_.fs = fs_;
    ctx_.task_suffix = "r-" + std::to_string(partition_);
    ctx_.attempt = attempt_;
    ctx_.mapjoin_tables = mapjoin_tables_;
    ctx_.counters = attempt_counters();
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
  exec::TaskContext ctx_;
  exec::OperatorArena arena_;
  exec::Operator* root_ = nullptr;
  Row row_;  // The current group's key, then the current record's values.
  size_t key_width_ = 0;
};

}  // namespace

PlanExecutor::PlanExecutor(dfs::FileSystem* fs, const Catalog* catalog,
                           const DriverOptions& options,
                           const QueryContext& query_ctx,
                           telemetry::Span* execute_span,
                           TaskScheduler* scheduler,
                           TaskScheduler::Queue* scheduler_queue,
                           mr::DispatchCoordinator* dispatcher)
    : fs_(fs),
      catalog_(catalog),
      options_(options),
      query_ctx_(query_ctx),
      execute_span_(execute_span),
      engine_(fs, mr::EngineOptions{options.job_startup_ms, scheduler,
                                    scheduler_queue, dispatcher}) {}

Status PlanExecutor::Run(const CompiledPlan& plan, mr::JobCounters* totals) {
  for (const MapRedJob& job : plan.jobs) {
    MINIHIVE_RETURN_IF_ERROR(query_ctx_.CheckAlive());
    mr::JobCounters counters;
    MINIHIVE_RETURN_IF_ERROR(RunJob(job, &counters));
    counters.AccumulateInto(totals);
  }
  return Status::OK();
}

Status PlanExecutor::RunJob(const MapRedJob& job,
                            mr::JobCounters* counters) {
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
      CollectTableFiles(*catalog_, *table, map_source.root->sarg.get(),
                        &source.paths, &source.delete_bitmaps, counters);
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
    CollectTableFiles(*catalog_, *table, /*sarg=*/nullptr, &source.paths,
                      &source.delete_bitmaps, /*counters=*/nullptr);
    return source;
  };
  // The pipelines' entries. Map joins sit in the map pipelines, and can
  // also sit in the reduce pipeline (a converted join whose streamed side
  // is another join's output).
  std::vector<OpDescPtr> map_roots;
  for (const auto& source : *sources) map_roots.push_back(source.root);
  std::vector<OpDescPtr> reduce_roots;
  if (job.reduce_root != nullptr) reduce_roots.push_back(job.reduce_root);
  std::vector<const OpDesc*> mapjoins;
  auto collect_mapjoin = [&mapjoins](const OpDescPtr& op) {
    if (op->kind == OpKind::kMapJoin) mapjoins.push_back(op.get());
  };
  exec::WalkOps(map_roots, /*stop_at_reduce_sink=*/true, collect_mapjoin);
  exec::WalkOps(reduce_roots, /*stop_at_reduce_sink=*/true, collect_mapjoin);
  // The local task reads the small tables outside the engine, so it runs
  // through the shared attempt loop on its own. Its failed attempts and wall
  // time are counted apart from engine tasks (local_task_failures /
  // local_task_nanos); only the winning attempt's scan counts reach the job.
  for (const OpDesc* mj : mapjoins) {
    Stopwatch local_watch;
    Status built = mr::RunAttempts(
        "map-join local task", options_.max_task_attempts, &query_ctx_,
        counters,
        [&](int, mr::JobCounters* local) -> Status {
          MINIHIVE_ASSIGN_OR_RETURN(
              (*mapjoin_tables)[mj->id],
              exec::BuildMapJoinTables(
                  fs_, *mj, resolver, options_.enable_late_materialization,
                  &query_ctx_, local));
          return Status::OK();
        },
        [&](int64_t) { counters->local_task_failures += 1; });
    counters->local_task_nanos +=
        static_cast<int64_t>(local_watch.ElapsedMillis() * 1e6);
    MINIHIVE_RETURN_IF_ERROR(built);
  }

  // Splits.
  mr::JobConfig config;
  config.name = job.name;
  for (size_t i = 0; i < sources->size(); ++i) {
    MINIHIVE_ASSIGN_OR_RETURN(
        std::vector<mr::InputSplit> splits,
        mr::ComputeSplits(fs_, (*sources)[i].paths, fs_->block_size(),
                          static_cast<int>(i)));
    config.splits.insert(config.splits.end(), splits.begin(), splits.end());
  }
  config.num_reducers = job.num_reducers;
  config.max_task_attempts = options_.max_task_attempts;
  config.query_ctx = &query_ctx_;
  config.task_timeout_millis = options_.task_timeout_millis;
  config.parent_span = execute_span_;

  bool vectorized = options_.vectorized_execution;
  bool late_materialization = options_.enable_late_materialization;
  dfs::FileSystem* fs = fs_;
  config.map_factory = [fs, sources, mapjoin_tables, vectorized,
                        late_materialization]() {
    return std::make_unique<RowMapTask>(fs, sources.get(),
                                        mapjoin_tables.get(), vectorized,
                                        late_materialization);
  };
  if (job.num_reducers > 0) {
    const OpDesc* reduce_root = job.reduce_root.get();
    config.reduce_factory = [fs, reduce_root, mapjoin_tables](int partition,
                                                              int attempt) {
      return std::make_unique<RowReduceTask>(fs, reduce_root,
                                             mapjoin_tables.get(), partition,
                                             attempt);
    };
  }

  // Attempt-output promotion: a successful attempt's sink files are renamed
  // into place; a failed attempt's are deleted. Sinks live in the map
  // pipelines for map-only jobs and in the reduce pipeline otherwise.
  auto sink_prefixes = [](const std::vector<OpDescPtr>& roots) {
    auto prefixes = std::make_shared<std::vector<std::string>>();
    exec::WalkOps(roots, /*stop_at_reduce_sink=*/false,
                  [&prefixes](const OpDescPtr& op) {
                    if (op->kind == OpKind::kFileSink) {
                      prefixes->push_back(op->sink_path_prefix);
                    }
                  });
    return prefixes;
  };
  auto map_sinks = sink_prefixes(map_roots);
  auto reduce_sinks = sink_prefixes(reduce_roots);
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
