#ifndef MINIHIVE_EXEC_OPERATORS_H_
#define MINIHIVE_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "common/delete_bitmap.h"
#include "common/telemetry.h"
#include "dfs/file_system.h"
#include "exec/plan.h"
#include "mr/engine.h"

namespace minihive::exec {

/// The operator clock times one unit of work in 16. A timed frame reads the
/// clock twice (~40 ns each, clock_gettime on a 4-vCPU VM), as much as a
/// cheap operator spends on a row; one unit in 16 leaves the clock a few
/// percent, and a task's hundreds of units a stable estimate.
inline constexpr int64_t kTimedUnitEvery = 16;

/// One task's operator clock. A unit is a map input row in row mode, or a
/// key group in a reduce task or a combiner; the driver opens each with
/// BeginUnit, which times the first unit at weight 1 (so its one-off work,
/// such as a FileSink opening its writer, counts once, and a tiny input
/// still shows time) and then units kTimedUnitEvery, 2 * kTimedUnitEvery,
/// ... at weight kTimedUnitEvery, so the sum stands for the untimed units
/// too. Finish and vectorized batches are always timed, at weight 1
/// (TimeAll).
struct OperatorClock {
  void BeginUnit() {
    const uint64_t unit = units++;
    weight = unit == 0                      ? 1
             : unit % kTimedUnitEvery == 0 ? kTimedUnitEvery
                                            : 0;
  }
  void TimeAll() { weight = 1; }

  int64_t weight = 0;  // The open unit's; 0 = not timed.
  /// Time of the timed frames that closed inside the open one (its
  /// children's), or, outside any frame, since the driver last took it.
  int64_t child_nanos = 0;
  uint64_t units = 0;
};

/// One build-value column of a map-join table, stored the way a column
/// vector stores it: the integer family (booleans and timestamps too) as
/// int64, floats as doubles, strings as one string per build row. A column
/// of a complex type keeps its values boxed.
struct MapJoinColumn {
  enum class Storage { kLong, kDouble, kBytes, kBoxed };

  explicit MapJoinColumn(TypeKind type);
  /// Appends the next build row's value (Internal when its shape is not
  /// the column type's).
  Status Append(const Value& v);
  Value Get(uint32_t row) const;

  Storage storage = Storage::kBoxed;
  std::vector<int64_t> longs;
  std::vector<double> doubles;
  std::vector<std::string> bytes;  // "" in NULL rows.
  std::vector<Value> boxed;
  std::vector<uint8_t> not_null;
};

/// A built map-join table in flat form: the join key, as the ascending
/// shuffle key bytes of the build keys' declared types (mr::AppendKeyValue),
/// indexes build-row numbers, and the build values live in typed columns.
/// A probe writes its key the same way, so it matches exactly the build
/// rows the reduce join would group it with (the planner puts both sides of
/// a key in one numeric family). The row MapJoinOperator boxes a match's
/// values out of the columns; the vectorized probe gathers them straight
/// into batch columns.
struct MapJoinHashTable {
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Appends one build row under `key` (its values in build-value order).
  Status Add(std::string key, const Row& values);
  /// First build row with `key`, or kNoRow.
  uint32_t Find(std::string_view key) const {
    auto it = index.find(key);
    return it == index.end() ? kNoRow : it->second.first;
  }

  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>()(key);
    }
  };
  /// The build rows of one key: a chain through next_row, in build order.
  struct Chain {
    uint32_t first = kNoRow;
    uint32_t last = kNoRow;
  };
  std::unordered_map<std::string, Chain, KeyHash, std::equal_to<>> index;
  /// Next build row with the same key (kNoRow ends the chain).
  std::vector<uint32_t> next_row;
  std::vector<MapJoinColumn> columns;  // One per build value.
  /// No key has more than one build row (so a probe never expands a row).
  bool unique_keys = true;
  uint64_t approx_bytes = 0;
  /// Charge against the query's node of the memory accounting tree. Held
  /// for the table's lifetime; released when the table dies.
  BudgetReservation reservation;
};

/// All small-side tables of one MapJoin operator, in small-side order.
using MapJoinTables = std::vector<std::shared_ptr<MapJoinHashTable>>;

/// Names a task's committed sink output under a sink path prefix.
std::string FinalPartName(const std::string& prefix,
                          const std::string& task_suffix);
/// Names the attempt-scoped file a task attempt writes. The engine's commit
/// hook renames it to FinalPartName on success; its abort hook deletes it on
/// failure, so partial output from a failed attempt is never visible.
std::string AttemptPartName(const std::string& prefix,
                            const std::string& task_suffix, int attempt);

/// Per-task runtime context handed to every operator at Init.
struct TaskContext {
  dfs::FileSystem* fs = nullptr;
  /// Unique suffix for output files ("m-3", "r-0", ...).
  std::string task_suffix;
  /// 0-based task attempt; sink outputs are scoped by it.
  int attempt = 0;
  /// Shuffle emitter (map tasks of jobs with reducers).
  mr::ShuffleEmitter* emitter = nullptr;
  /// Pre-built map-join tables, keyed by MapJoin OpDesc id. Built once per
  /// job (Hive's "local task") and shared read-only across tasks.
  const std::unordered_map<int, std::shared_ptr<MapJoinTables>>*
      mapjoin_tables = nullptr;
  /// Attempt-local job counters; the pipeline that reads the split reports
  /// input records here (the engine cannot see them otherwise), its
  /// readers count their bytes and scan work here, and its operators their
  /// stats when the ledger's operator table is enabled.
  mr::JobCounters* counters = nullptr;
  /// Lifecycle governor for this task attempt (cancellation + deadlines).
  /// The pipeline driver polls it at row/batch boundaries; readers check it
  /// per index group. Null = ungoverned.
  const TaskGovernor* governor = nullptr;
  OperatorClock clock;

  /// Where `desc`'s operator counts in this attempt, made on first use; null
  /// when the attempt collects no operator stats (profiling off).
  mr::OperatorStats* StatsFor(const OpDesc* desc) const {
    if (counters == nullptr || !counters->operators.enabled) return nullptr;
    mr::OperatorStats* stats = &counters->operators.stats[desc->id];
    stats->kind = OpKindName(desc->kind);
    return stats;
  }
};

/// Base runtime operator. The push-based model from Hive: parents call
/// Process on children; group-boundary signals propagate the same way
/// (paper §5.2.2).
///
/// Process, StartGroup, EndGroup and Finish are non-virtual wrappers, so
/// profiling instruments every operator alike; subclasses implement the
/// Do... methods. With profiling off a wrapper is one null check. With it
/// on, Process counts rows_in and ForwardRow rows_out, exactly, into the
/// attempt's ledger, and each call in a timed unit (see OperatorClock) is a
/// frame: two clock reads, and the frame's time minus its children's frames
/// added to the operator's nanos at the unit's weight. So nanos is self
/// time, and a Join's emission from EndGroup is the Join's.
class Operator {
 public:
  explicit Operator(const OpDesc* desc) : desc_(desc) {}
  virtual ~Operator() = default;

  const OpDesc* desc() const { return desc_; }
  void AddChild(Operator* child) { children_.push_back(child); }

  /// Called once per task before any rows.
  virtual Status Init(TaskContext* ctx);

  Status Process(const Row& row, int tag) {
    if (stats_ == nullptr) return DoProcess(row, tag);
    stats_->rows_in += 1;
    return Timed([&] { return DoProcess(row, tag); });
  }
  Status StartGroup() { return Timed([this] { return DoStartGroup(); }); }
  Status EndGroup() { return Timed([this] { return DoEndGroup(); }); }
  /// End of task: flush state, then propagate.
  Status Finish() { return Timed([this] { return DoFinish(); }); }

 protected:
  virtual Status DoProcess(const Row& row, int tag) = 0;
  /// The defaults propagate the signal to the children.
  virtual Status DoStartGroup();
  virtual Status DoEndGroup();
  virtual Status DoFinish();

  Status ForwardRow(const Row& row, int tag = 0) {
    if (stats_ != nullptr) stats_->rows_out += 1;
    for (Operator* child : children_) {
      MINIHIVE_RETURN_IF_ERROR(child->Process(row, tag));
    }
    return Status::OK();
  }

  const OpDesc* desc_;
  std::vector<Operator*> children_;
  TaskContext* ctx_ = nullptr;
  mr::OperatorStats* stats_ = nullptr;  // Null when profiling is off.
  bool init_done_ = false;

 private:
  template <typename Body>
  Status Timed(Body&& body) {
    if (stats_ == nullptr || ctx_->clock.weight == 0) return body();
    OperatorClock& clock = ctx_->clock;
    const int64_t outer_children = clock.child_nanos;
    clock.child_nanos = 0;
    const int64_t start = telemetry::MonotonicNanos();
    Status s = body();
    const int64_t elapsed = telemetry::MonotonicNanos() - start;
    stats_->nanos += (elapsed - clock.child_nanos) * clock.weight;
    clock.child_nanos = outer_children + elapsed;
    return s;
  }
};

/// Owns the runtime operators of one task's pipeline.
class OperatorArena {
 public:
  Operator* Add(std::unique_ptr<Operator> op) {
    operators_.push_back(std::move(op));
    return operators_.back().get();
  }

 private:
  std::vector<std::unique_ptr<Operator>> operators_;
};

/// Instantiates the runtime tree for the plan subtree rooted at `desc`.
/// Shared descriptors (DAG joins like Mux) become one runtime instance.
/// Returns the runtime root. When `built` is non-null, every descriptor's
/// runtime instance is recorded there (testing/debug hook; Mux descriptors
/// map to the shared core, not the per-edge proxies).
Result<Operator*> BuildOperatorTree(
    const OpDesc* desc, OperatorArena* arena,
    std::unordered_map<const OpDesc*, Operator*>* built = nullptr);

/// Builds the hash tables for one MapJoin descriptor by scanning its small
/// tables (Hive's local task). `resolve` maps a table name to its storage
/// (paths / format / schema); supplied by the query layer.
struct SmallTableSource {
  std::vector<std::string> paths;
  formats::FormatKind format = formats::FormatKind::kTextFile;
  TypePtr schema;
  /// Delete bitmaps by file path (mutable tables): deleted rows must not
  /// enter a map-join build side any more than a scan.
  DeleteBitmapMap delete_bitmaps;
};
using TableResolver =
    std::function<Result<SmallTableSource>(const std::string&)>;

/// Each table charges its approximate size to the query's MemoryBudget
/// slice while it grows (when `query` carries one), so the slice bounds all
/// of a job's live builds together: a build that does not fit fails with a
/// typed ResourceExhausted, the signal the driver uses to fall back to the
/// reduce-join backup plan instead of retrying. `query` (may be null) is
/// also polled while scanning so a cancelled query stops the build. The
/// small-table readers apply each side's SARG (with late materialization
/// when `late_materialization`) and count their work into `counters` (the
/// local task attempt's; may be null).
Result<std::shared_ptr<MapJoinTables>> BuildMapJoinTables(
    dfs::FileSystem* fs, const OpDesc& desc, const TableResolver& resolve,
    bool late_materialization, const QueryContext* query = nullptr,
    mr::JobCounters* counters = nullptr);

}  // namespace minihive::exec

#endif  // MINIHIVE_EXEC_OPERATORS_H_
