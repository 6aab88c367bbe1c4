#ifndef MINIHIVE_QL_OPTIMIZER_H_
#define MINIHIVE_QL_OPTIMIZER_H_

#include "ql/analyzer.h"
#include "ql/catalog.h"

namespace minihive::ql {

/// Predicate pushdown + column pruning (paper §4.2, §5).
///  1. Conjuncts of the Filters directly above a two-input Join move to a
///     Filter just above the ReduceSink of the input whose value columns
///     they reference (either side of an inner join; only the preserved
///     tag-0 side of a LEFT OUTER join), repeated until nothing moves.
///     Cross-side and constant conjuncts stay; emptied Filters are removed;
///     nothing moves through Select, GroupBy or Limit. A dimension's
///     conjuncts thus reach its TS <- Filter chain, which ConvertMapJoins
///     folds into the map join's build_filter.
///  2. One Filter per edge: adjacent Filters fold into one and repeated
///     conjuncts (same text) go.
///  3. Column pruning (Hive's ColumnPruner): one walk from the FileSinks to
///     the scans records the columns each edge needs; one walk back
///     narrows scan projections, Select lists, ReduceSink values and Join
///     value widths to them and remaps every downstream expression. Map
///     joins converted later inherit the narrowed values.
///  4. SARG-able conjuncts (col op literal) of each scan's Filter become a
///     SearchArgument the ORC reader evaluates against its statistics.
/// `attach_sargs` (DriverOptions::predicate_pushdown) gates steps 1 and 4;
/// steps 2 and 3 always run (column pruning is baseline Hive behaviour,
/// not one of the paper's advancements).
Status PushdownIntoScans(PlannedQuery* plan, bool attach_sargs);

/// Converts eligible Reduce Joins into Map Joins (paper §5.1): a join side
/// whose pipeline is a plain scan(+filters) of a table smaller than
/// `threshold_bytes` becomes a hash table built in the "local task", probed
/// by the big side's map pipeline. Faithful to Hive's mechanics, conversion
/// happens "after job assembly": each converted join initially lands in its
/// own Map-only job (an explicit intermediate FileSink/TableScan break),
/// which MergeMapOnlyJobs then removes.
Status ConvertMapJoins(PlannedQuery* plan, const Catalog* catalog,
                       uint64_t threshold_bytes);

/// §5.1: merges a Map-only job into its child job when the total size of
/// the hash tables in the merged job stays under `threshold_bytes`,
/// eliminating the unnecessary Map phase that merely reloads intermediate
/// output from the DFS.
Status MergeMapOnlyJobs(PlannedQuery* plan, uint64_t threshold_bytes);

/// §4.2: answers a simple aggregation query (COUNT/MIN/MAX/SUM/AVG over an
/// unfiltered ORC table) directly from the files' statistics, without
/// scanning any data. On success fills *rows and sets *answered; leaves the
/// plan untouched otherwise. The tail reads count into `counters` when set.
Status TryAnswerFromStatistics(const PlannedQuery& plan,
                               const Catalog* catalog, bool* answered,
                               std::vector<Row>* rows,
                               mr::JobCounters* counters = nullptr);

/// §5.2: the Correlation Optimizer (YSmart-based). Detects input
/// correlations and job-flow correlations among ReduceSinkOperators,
/// removes unnecessary shuffles, and rewires the merged reduce phase with
/// Demux/Mux operators for coordinated push-based execution.
Status ApplyCorrelationOptimizer(PlannedQuery* plan);

}  // namespace minihive::ql

#endif  // MINIHIVE_QL_OPTIMIZER_H_
