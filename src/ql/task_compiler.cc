#include "ql/task_compiler.h"

#include <algorithm>
#include <map>
#include <set>

namespace minihive::ql {

namespace {

using exec::ExprPtr;
using exec::MakeOp;
using exec::OpDesc;
using exec::OpDescPtr;
using exec::OpKind;

/// Marks every op that executes in some reduce phase: children of RS ops
/// and their downstream closure, stopping at (but including) nested RS ops.
void MarkReduceResident(const std::vector<OpDescPtr>& ops,
                        std::set<const OpDesc*>* resident) {
  std::vector<OpDescPtr> entries;
  for (const OpDescPtr& op : ops) {
    if (op->kind != OpKind::kReduceSink) continue;
    entries.insert(entries.end(), op->children.begin(), op->children.end());
  }
  exec::WalkOps(entries, /*stop_at_reduce_sink=*/true,
                [resident](const OpDescPtr& op) { resident->insert(op.get()); });
}

/// Follows single-parent chains up to the TableScan feeding a pipeline.
Result<OpDescPtr> FindScanRoot(OpDesc* op,
                               const std::vector<OpDescPtr>& all_ops) {
  OpDesc* cur = op;
  while (cur->kind != OpKind::kTableScan) {
    if (cur->parents.size() != 1) {
      return Status::Internal(
          std::string("map pipeline operator has unexpected fan-in: ") +
          exec::OpKindName(cur->kind));
    }
    cur = cur->parents[0];
  }
  for (const OpDescPtr& op_ptr : all_ops) {
    if (op_ptr.get() == cur) return op_ptr;
  }
  return Status::Internal("scan root not found among plan ops");
}

/// True when every aggregate's partial form re-aggregates with the same
/// merge function (COUNT partials re-aggregate as SUM, SUM as SUM, MIN/MAX
/// as themselves) — the condition for a combiner to be a pure
/// intermediate-data reduction. AVG is excluded: its final division is not
/// re-applicable, and although its (sum, count) pair is mergeable, the
/// plan's reduce side expects untouched partial pairs.
bool AggsAreDecomposable(const std::vector<exec::AggDesc>& aggs) {
  for (const exec::AggDesc& agg : aggs) {
    switch (agg.kind) {
      case exec::AggKind::kCount:
      case exec::AggKind::kCountStar:
      case exec::AggKind::kSum:
      case exec::AggKind::kMin:
      case exec::AggKind::kMax:
        break;
      default:
        return false;
    }
  }
  return true;
}

/// Key bytes (mr::AppendKeyValue) depend on a key column's declared type:
/// under a floating-point type an int is written as a double. So two
/// writers of keys that must meet declare each key column in one numeric
/// family, or 3 and 3.0 would differ. The planner coerces join keys to make
/// it so (and the Correlation Optimizer merges only sinks whose keys are the
/// same columns); this is the check that it did, for every ReduceSink
/// feeding one job and for every MapJoin's probe keys against each small
/// side's build keys (a map-join table is keyed on the build keys' bytes).
Status CheckKeyFamilies(const std::vector<ExprPtr>& a,
                        const std::vector<ExprPtr>& b, const char* what) {
  for (size_t k = 0; k < a.size() && k < b.size(); ++k) {
    const TypeKind x = a[k]->result_type();
    const TypeKind y = b[k]->result_type();
    if ((IsIntegerFamily(x) && IsFloatingFamily(y)) ||
        (IsFloatingFamily(x) && IsIntegerFamily(y))) {
      return Status::Internal(std::string(what) + " key " +
                              std::to_string(k) + " is declared " +
                              TypeKindName(x) + " on one side and " +
                              TypeKindName(y) + " on the other");
    }
  }
  return Status::OK();
}

Status CheckKeyEncodingsAgree(const std::vector<OpDescPtr>& rs_list) {
  for (const OpDescPtr& rs : rs_list) {
    MINIHIVE_RETURN_IF_ERROR(CheckKeyFamilies(rs_list[0]->sink_keys,
                                              rs->sink_keys, "shuffle"));
  }
  return Status::OK();
}

Status CheckMapJoinKeysAgree(const std::vector<OpDescPtr>& ops) {
  for (const OpDescPtr& op : ops) {
    if (op->kind != OpKind::kMapJoin) continue;
    for (const auto& side : op->mapjoin_small_sides) {
      MINIHIVE_RETURN_IF_ERROR(CheckKeyFamilies(
          op->mapjoin_probe_keys, side.build_keys, "map-join"));
    }
  }
  return Status::OK();
}

/// Attaches a combiner pipeline (GroupBy merge -> ReduceSink) to a GROUP BY
/// job when its aggregates are decomposable. The combiner reuses the reduce
/// side's merge semantics: it folds each sorted run's (key ++ partials)
/// records group by group and re-emits one (key, merged partials) record —
/// for decomposable aggregates the merged "final" representation is
/// byte-identical to a partial, so the reduce merge consumes it unchanged.
void MaybeAttachCombiner(MapRedJob* job,
                         const std::vector<OpDescPtr>& rs_list) {
  if (job->reduce_root == nullptr ||
      job->reduce_root->kind != OpKind::kGroupBy ||
      job->reduce_root->group_by_mode != exec::GroupByMode::kMergePartial) {
    return;
  }
  if (rs_list.size() != 1) return;  // Multi-input reduces are joins/demux.
  const OpDesc& rs = *rs_list[0];
  const std::vector<exec::AggDesc>& aggs = job->reduce_root->aggs;
  if (!AggsAreDecomposable(aggs)) return;
  int num_keys = static_cast<int>(rs.sink_keys.size());
  if (job->reduce_root->partial_offset != num_keys) return;
  // Decomposable partials are all single-column, so the shuffled value row
  // must be exactly one column per aggregate.
  if (rs.sink_values.size() != aggs.size()) return;

  OpDescPtr gby = MakeOp(OpKind::kGroupBy);
  gby->aggs = aggs;
  gby->group_by_mode = exec::GroupByMode::kMergePartial;
  gby->partial_offset = num_keys;
  gby->output_width = num_keys + static_cast<int>(aggs.size());
  OpDescPtr out = MakeOp(OpKind::kReduceSink);
  for (int k = 0; k < num_keys; ++k) {
    out->sink_keys.push_back(
        exec::Expr::Column(k, rs.sink_keys[k]->result_type()));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    out->sink_values.push_back(exec::Expr::Column(
        num_keys + static_cast<int>(a), aggs[a].ResultType()));
  }
  out->sink_ascending = rs.sink_ascending;
  out->sink_tag = rs.sink_tag;
  out->output_width = gby->output_width;
  OpDesc::Connect(gby, out);
  job->combine_root = gby;
}

}  // namespace

Result<CompiledPlan> CompileTasks(PlannedQuery* plan,
                                  const std::string& tmp_prefix,
                                  const CompileTasksOptions& options) {
  int default_reducers = options.default_reducers;
  CompiledPlan compiled;

  // ---- Step 1: surgery — materialize between consecutive shuffles.
  {
    std::vector<OpDescPtr> ops = exec::CollectOps(plan->roots);
    std::set<const OpDesc*> resident;
    MarkReduceResident(ops, &resident);
    int tmp_index = 0;
    for (const OpDescPtr& op : ops) {
      if (op->kind != OpKind::kReduceSink || resident.count(op.get()) == 0) {
        continue;
      }
      if (op->parents.size() != 1) {
        return Status::Internal("ReduceSink with fan-in");
      }
      OpDesc* parent = op->parents[0];
      std::string tmp =
          tmp_prefix + "/inter-" + std::to_string(tmp_index++);
      OpDescPtr fs = MakeOp(OpKind::kFileSink);
      fs->sink_path_prefix = tmp;
      fs->sink_format = formats::FormatKind::kSequenceFile;
      fs->sink_schema = nullptr;  // Variant-coded intermediate rows.
      fs->output_width = parent->output_width;
      OpDescPtr ts = MakeOp(OpKind::kTableScan);
      ts->scan_temp_prefix = tmp;
      ts->table_width = parent->output_width;
      ts->output_width = parent->output_width;
      // Splice: parent -> FS ; TS -> RS.
      for (OpDescPtr& child : parent->children) {
        if (child.get() == op.get()) {
          child = fs;
          fs->parents.push_back(parent);
          break;
        }
      }
      op->parents[0] = ts.get();
      ts->children.push_back(op);
      plan->roots.push_back(ts);
      compiled.temp_dirs.push_back(tmp);
    }
  }

  // ---- Step 2: group RS boundaries into jobs by their reduce entry.
  std::vector<OpDescPtr> ops = exec::CollectOps(plan->roots);
  MINIHIVE_RETURN_IF_ERROR(CheckMapJoinKeysAgree(ops));

  // Bound map-side hash aggregation memory. Flush-per-group GroupBys (the
  // Correlation Optimizer's) already bound their footprint to one group.
  if (options.map_aggr_flush_entries > 0) {
    for (const OpDescPtr& op : ops) {
      if (op->kind == OpKind::kGroupBy &&
          op->group_by_mode == exec::GroupByMode::kHash &&
          !op->gby_flush_on_end_group) {
        op->gby_max_hash_entries = options.map_aggr_flush_entries;
      }
    }
  }

  std::map<const OpDesc*, std::vector<OpDescPtr>> reduce_groups;
  for (const OpDescPtr& op : ops) {
    if (op->kind != OpKind::kReduceSink) continue;
    if (op->children.size() != 1) {
      return Status::Internal("ReduceSink must have exactly one child");
    }
    reduce_groups[op->children[0].get()].push_back(op);
  }

  std::vector<MapRedJob> jobs;
  // FS path prefix -> job index producing it (filled as jobs are created).
  std::map<std::string, int> producer_of;

  auto record_sinks = [&](const OpDescPtr& start, int job_index) {
    // Record every FileSink reachable from `start` without crossing an RS.
    exec::WalkOps({start}, /*stop_at_reduce_sink=*/true,
                  [&](const OpDescPtr& op) {
                    if (op->kind == OpKind::kFileSink) {
                      producer_of[op->sink_path_prefix] = job_index;
                    }
                  });
  };

  for (auto& [entry, rs_list] : reduce_groups) {
    std::sort(rs_list.begin(), rs_list.end(),
              [](const OpDescPtr& a, const OpDescPtr& b) {
                return a->sink_tag < b->sink_tag;
              });
    MapRedJob job;
    job.name = "job-" + std::to_string(jobs.size());
    int explicit_reducers = 0;
    for (const OpDescPtr& rs : rs_list) {
      MINIHIVE_ASSIGN_OR_RETURN(OpDescPtr root, FindScanRoot(rs.get(), ops));
      job.sources.push_back({root});
      if (rs->sink_num_reducers > 0) {
        explicit_reducers = rs->sink_num_reducers;
      }
    }
    MINIHIVE_RETURN_IF_ERROR(CheckKeyEncodingsAgree(rs_list));
    job.num_reducers =
        explicit_reducers > 0 ? explicit_reducers : default_reducers;
    // The reduce entry descriptor (shared child of all the job's RS ops).
    for (const OpDescPtr& op : ops) {
      if (op.get() == entry) {
        job.reduce_root = op;
        break;
      }
    }
    if (job.reduce_root == nullptr) {
      return Status::Internal("reduce entry not found");
    }
    MaybeAttachCombiner(&job, rs_list);
    int job_index = static_cast<int>(jobs.size());
    record_sinks(job.reduce_root, job_index);
    jobs.push_back(std::move(job));
  }

  // Map-only jobs: TableScan roots whose downstream region reaches FileSinks
  // without any ReduceSink.
  for (const OpDescPtr& root : plan->roots) {
    if (root->kind != OpKind::kTableScan) continue;
    bool has_rs = false;
    exec::WalkOps({root}, /*stop_at_reduce_sink=*/true,
                  [&has_rs](const OpDescPtr& op) {
                    if (op->kind == OpKind::kReduceSink) has_rs = true;
                  });
    if (has_rs) continue;
    MapRedJob job;
    job.name = "job-" + std::to_string(jobs.size()) + "-maponly";
    job.sources.push_back({root});
    job.num_reducers = 0;
    int job_index = static_cast<int>(jobs.size());
    record_sinks(root, job_index);
    jobs.push_back(std::move(job));
  }

  // ---- Step 3: dependencies via temporary directories.
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (const MapRedJob::MapSource& source : jobs[j].sources) {
      if (source.root->scan_temp_prefix.empty()) continue;
      auto it = producer_of.find(source.root->scan_temp_prefix);
      if (it == producer_of.end()) {
        return Status::Internal("no producer for temp dir " +
                                source.root->scan_temp_prefix);
      }
      if (it->second != static_cast<int>(j)) {
        jobs[j].deps.push_back(it->second);
      }
    }
  }

  // ---- Step 4: topological order (Kahn).
  size_t n = jobs.size();
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<int>> dependents(n);
  for (size_t j = 0; j < n; ++j) {
    for (int dep : jobs[j].deps) {
      ++indegree[j];
      dependents[dep].push_back(static_cast<int>(j));
    }
  }
  std::vector<int> order;
  std::vector<int> queue;
  for (size_t j = 0; j < n; ++j) {
    if (indegree[j] == 0) queue.push_back(static_cast<int>(j));
  }
  while (!queue.empty()) {
    int j = queue.back();
    queue.pop_back();
    order.push_back(j);
    for (int dependent : dependents[j]) {
      if (--indegree[dependent] == 0) queue.push_back(dependent);
    }
  }
  if (order.size() != n) {
    return Status::Internal("cyclic job dependencies");
  }
  std::vector<int> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = static_cast<int>(i);
  compiled.jobs.resize(n);
  for (size_t j = 0; j < n; ++j) {
    MapRedJob job = std::move(jobs[j]);
    for (int& dep : job.deps) dep = position[dep];
    compiled.jobs[position[j]] = std::move(job);
  }
  return compiled;
}

std::string CompiledPlan::DebugString() const {
  std::string s;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const MapRedJob& job = jobs[j];
    s += "=== " + job.name + (job.num_reducers == 0 ? " (map-only)" : "") +
         " reducers=" + std::to_string(job.num_reducers) + "\n";
    for (const auto& source : job.sources) {
      s += source.root->DebugString(1);
    }
    if (job.combine_root != nullptr) {
      s += "  --- combine ---\n";
      s += job.combine_root->DebugString(1);
    }
    if (job.reduce_root != nullptr) {
      s += "  --- reduce ---\n";
      s += job.reduce_root->DebugString(1);
    }
  }
  return s;
}

}  // namespace minihive::ql
