#ifndef MINIHIVE_QL_TASK_COMPILER_H_
#define MINIHIVE_QL_TASK_COMPILER_H_

#include <string>
#include <vector>

#include "exec/plan.h"
#include "ql/analyzer.h"
#include "ql/catalog.h"

namespace minihive::ql {

/// One MapReduce job produced from the operator DAG: map pipelines (one per
/// logical input source) plus an optional reduce pipeline rooted at the
/// operator downstream of the job's ReduceSink boundary.
struct MapRedJob {
  std::string name;
  struct MapSource {
    exec::OpDescPtr root;  // TableScan descriptor.
  };
  std::vector<MapSource> sources;
  /// Reduce entry operator (Join / GroupBy / Select / Demux); null for a
  /// map-only job.
  exec::OpDescPtr reduce_root;
  int num_reducers = 0;
  /// Indexes of jobs that must complete before this one (they produce
  /// temporary files this job scans).
  std::vector<int> deps;
};

struct CompiledPlan {
  std::vector<MapRedJob> jobs;  // Topologically ordered.
  /// Temporary directories created by inter-job FileSinks (for cleanup).
  std::vector<std::string> temp_dirs;

  std::string DebugString() const;
};

struct CompileTasksOptions {
  /// Reducers per job when the plan does not demand a specific count.
  int default_reducers = 4;
  /// Entry cap applied to map-side hash GroupBys before a partial flush
  /// (0 = unbounded). See OpDesc::gby_max_hash_entries.
  int map_aggr_flush_entries = 0;
};

/// Breaks the operator DAG into MapReduce jobs. Performs the "job surgery"
/// the paper's §2 translation implies: whenever a ReduceSink would consume
/// the output of a reduce-side operator, an intermediate FileSink/TableScan
/// pair is inserted so the next job re-loads the data from the DFS — this
/// is precisely the materialization the §5 optimizations then remove.
/// `tmp_prefix` names the DFS directory for intermediates.
Result<CompiledPlan> CompileTasks(PlannedQuery* plan,
                                  const std::string& tmp_prefix,
                                  const CompileTasksOptions& options);

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_TASK_COMPILER_H_
