#ifndef MINIHIVE_EXEC_PLAN_H_
#define MINIHIVE_EXEC_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "exec/expr.h"
#include "formats/format.h"
#include "orc/sarg.h"

namespace minihive::exec {

enum class OpKind {
  kTableScan,
  kFilter,
  kSelect,
  kGroupBy,
  kJoin,      // Reduce (common) join.
  kMapJoin,
  kReduceSink,
  kFileSink,
  kLimit,
  kDemux,
  kMux,
};

const char* OpKindName(OpKind kind);

enum class GroupByMode {
  kHash,          // Map-side partial aggregation (hash table, flush at end).
  kMergePartial,  // Reduce side: merge partials within key-group boundaries.
  kComplete,      // Reduce side: full aggregation from raw rows.
};

enum class JoinSideKind { kInner, kLeftOuter };

struct OpDesc;
using OpDescPtr = std::shared_ptr<OpDesc>;

/// A node of the operator tree, in descriptor (data-only) form. The planner
/// builds and transforms these; the task runtime instantiates runtime
/// operators from them per task. Data flows from parents to children, as in
/// Hive's operator DAG (an arrow in the paper's Figure 4 points
/// parent -> child).
///
/// One struct holds the payloads of every kind; only the group of fields
/// matching `kind` is meaningful.
struct OpDesc {
  OpKind kind = OpKind::kSelect;
  int id = 0;
  std::vector<OpDescPtr> children;  // Downstream operators.
  std::vector<OpDesc*> parents;     // Upstream (non-owning).

  /// Width (column count) of the rows this operator produces; maintained by
  /// the planner so downstream expressions can be validated.
  int output_width = 0;

  // ---- TableScan ----
  std::string table_name;
  /// Non-empty for scans of intermediate job output (schema-less
  /// SequenceFile rows under this DFS prefix); table_name is empty then.
  std::string scan_temp_prefix;
  std::vector<int> scan_projection;  // Top-level column indexes; empty=all.
  /// Width of the full table row (before projection mapping; scans emit
  /// full-width rows with non-projected columns NULL).
  int table_width = 0;
  /// Predicate pushed to the reader (ORC only). Owned by the plan.
  std::shared_ptr<orc::SearchArgument> sarg;

  // ---- Filter ----
  ExprPtr predicate;

  // ---- Select ----
  std::vector<ExprPtr> projections;

  // ---- GroupBy ----
  std::vector<ExprPtr> group_keys;
  std::vector<AggDesc> aggs;
  GroupByMode group_by_mode = GroupByMode::kHash;
  /// kMergePartial: offset of the first partial-agg column in input rows
  /// (the group keys occupy [0, offset)).
  int partial_offset = 0;
  /// Set by the Correlation Optimizer on hash GroupBys that were pulled
  /// into a merged reduce phase: the hash table flushes at every key-group
  /// end instead of at task end (the Mux coordination of §5.2.2).
  bool gby_flush_on_end_group = false;
  /// kHash mode: flush partials downstream whenever the table reaches this
  /// many entries (0 = unbounded). Bounds map-side aggregation memory, as
  /// hive.map.aggr.hash.percentmemory does; the shuffle combiner re-merges
  /// the duplicate partials the flushes create.
  int gby_max_hash_entries = 0;

  // ---- ReduceSink ----
  std::vector<ExprPtr> sink_keys;
  std::vector<ExprPtr> sink_values;
  int sink_tag = 0;           // Source tag at the downstream reduce.
  int sink_num_reducers = 1;  // Parallelism demanded by this boundary.
  /// Per-key sort direction (empty = all ascending). Only the ORDER BY
  /// boundary sets this.
  std::vector<bool> sink_ascending;
  bool SinkAscending(size_t key) const {
    return key >= sink_ascending.size() || sink_ascending[key];
  }

  // ---- Join (reduce side) ----
  int join_num_inputs = 2;
  /// Value-row width per input tag (for padding in outer joins).
  std::vector<int> join_value_widths;
  std::vector<JoinSideKind> join_sides;  // join_sides[0] is kInner.
  /// Number of key columns prepended to the join output row.
  int join_key_width = 0;
  /// Optional residual predicate applied to joined rows.
  ExprPtr join_residual;

  // ---- MapJoin ----
  struct MapJoinSmallSide {
    std::string table_name;
    std::vector<int> projection;    // Columns of the small table to load.
    ExprPtr build_filter;           // Optional pre-filter (full-width row).
    /// The small-side scan's SARG (null without predicate pushdown): the
    /// build reader skips stripes, groups and rows with it; build_filter
    /// stays the arbiter.
    std::shared_ptr<orc::SearchArgument> sarg;
    std::vector<ExprPtr> build_keys;  // Over the full-width small row.
    std::vector<ExprPtr> build_values;  // Columns appended to output.
    JoinSideKind side = JoinSideKind::kInner;
  };
  std::vector<MapJoinSmallSide> mapjoin_small_sides;
  std::vector<ExprPtr> mapjoin_probe_keys;  // Over the big-side input row.
  /// Big-side value columns (over the big-side input row) and the tag slot
  /// the big side occupied in the original reduce join, so the map-join
  /// output layout matches the join it replaced:
  ///   keys ++ values(tag 0) ++ values(tag 1) ++ ...
  std::vector<ExprPtr> mapjoin_big_values;
  int mapjoin_big_tag = 0;
  /// Estimated bytes of all small-side hash tables (for the merge
  /// threshold in the unnecessary-Map-phase optimization, §5.1).
  uint64_t mapjoin_hash_table_bytes = 0;

  // ---- FileSink ----
  std::string sink_path_prefix;
  formats::FormatKind sink_format = formats::FormatKind::kSequenceFile;
  codec::CompressionKind sink_compression = codec::CompressionKind::kNone;
  TypePtr sink_schema;

  // ---- Limit ----
  int64_t limit = -1;

  // ---- Demux ----
  /// For each *new* tag (index) arriving from the shuffle: the original
  /// tag(s) to restore and which child(ren) receive the rows (paper
  /// Figure 5). One new tag can fan out to several destinations when an
  /// input correlation merged two scans of the same table.
  struct DemuxRoute {
    int old_tag = 0;
    int child_index = 0;
  };
  std::vector<std::vector<DemuxRoute>> demux_routes;

  // ---- Mux ----
  /// Tag assigned to rows arriving from each parent (position in parents).
  /// Used when the child is a Join; -1 keeps the incoming tag.
  std::vector<int> mux_parent_tags;

  /// Convenience: appends `child` downstream and records the back edge.
  static void Connect(const OpDescPtr& parent, const OpDescPtr& child) {
    parent->children.push_back(child);
    child->parents.push_back(parent.get());
  }
  /// Splices `op` into `child`'s single input edge: parent -> op -> child.
  static void InsertAbove(OpDesc* child, const OpDescPtr& op);

  std::string DebugString(int indent = 0) const;
};

/// Creates a node with the next id.
OpDescPtr MakeOp(OpKind kind);

/// Visits every descriptor reachable from `roots` along child edges, each
/// exactly once, depth first. With `stop_at_reduce_sink`, a ReduceSink is
/// visited but the walk does not continue below it, so it stays inside the
/// map or reduce region it started in.
void WalkOps(const std::vector<OpDescPtr>& roots, bool stop_at_reduce_sink,
             const std::function<void(const OpDescPtr&)>& visit);

/// Every descriptor reachable from `roots`, in WalkOps order.
std::vector<OpDescPtr> CollectOps(const std::vector<OpDescPtr>& roots);

}  // namespace minihive::exec

#endif  // MINIHIVE_EXEC_PLAN_H_
