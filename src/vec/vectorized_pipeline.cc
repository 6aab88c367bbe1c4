#include "vec/vectorized_pipeline.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/telemetry.h"
#include "common/wrap_arith.h"
#include "exec/plan.h"
#include "formats/orcfile_adapter.h"
#include "mr/engine.h"
#include "vec/vector_expressions.h"

namespace minihive::vec {

namespace {

using exec::AggDesc;
using exec::AggKind;
using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;
using exec::OpDesc;
using exec::OpKind;

/// Turns slot (column, row) of a batch into a boxed Value.
Value BoxValue(const VectorizedRowBatch& batch, int column, int row,
               TypeKind type) {
  const ColumnVector* col = batch.columns[column].get();
  if (col->is_repeating) row = 0;  // Slot 0 holds the whole column (§6.2).
  if (!col->no_nulls && !col->not_null[row]) return Value::Null();
  switch (col->kind()) {
    case VectorKind::kLong: {
      int64_t v = static_cast<const LongColumnVector*>(col)->vector[row];
      return type == TypeKind::kBoolean ? Value::Bool(v != 0) : Value::Int(v);
    }
    case VectorKind::kDouble:
      return Value::Double(
          static_cast<const DoubleColumnVector*>(col)->vector[row]);
    case VectorKind::kBytes:
      return Value::String(std::string(
          static_cast<const BytesColumnVector*>(col)->GetView(row)));
  }
  return Value::Null();
}

/// Vectorized hash aggregation (map-side partial), one column at a time.
/// Each batch first gets a group id per selected row: every key column maps
/// its values to dense per-column ids (byte columns through their ORC
/// dictionary code, other columns through a value -> id map), and the id
/// tuple picks the group in one flat open-addressing table of fixed-width
/// keys. Then one tight loop per aggregate folds (gid, value) pairs into a
/// flat state array indexed gid * n_aggs + a, with the aggregate-kind switch
/// hoisted out of the loop. Rows fold into each group in input order, so
/// double sums are bit-identical to the row engine's.
class VectorHashAggregator {
 public:
  struct AggSpec {
    AggKind kind = AggKind::kCountStar;
    int arg_column = -1;  // Batch column; -1 for COUNT(*).
    TypeKind arg_type = TypeKind::kBigInt;
    bool sums_double = false;  // Matches AggBuffer's partial typing.
  };

  VectorHashAggregator(std::vector<int> key_columns,
                       std::vector<TypeKind> key_types,
                       std::vector<AggSpec> aggs)
      : key_columns_(std::move(key_columns)), aggs_(std::move(aggs)) {
    for (TypeKind type : key_types) {
      domains_.emplace_back();
      domains_.back().type = type;
    }
    col_ids_.resize(key_columns_.size());
    key_scratch_.resize(key_columns_.size());
    for (const AggSpec& spec : aggs_) {
      bytes_extreme_ |= (spec.kind == AggKind::kMin ||
                         spec.kind == AggKind::kMax) &&
                        spec.arg_type == TypeKind::kString;
    }
    // A keyless aggregate is one group from the start: it emits a zero
    // partial even on empty input and never probes a table.
    if (key_columns_.empty()) AddGroup();
  }

  void Update(const VectorizedRowBatch& batch) {
    n_ = batch.SelectedCount();
    if (n_ == 0) return;
    while (static_cast<int>(identity_.size()) < batch.size) {
      identity_.push_back(static_cast<int>(identity_.size()));
    }
    rows_ = batch.selected_in_use ? batch.selected.data() : identity_.data();
    if (!key_columns_.empty()) ComputeGroupIds(batch);
    for (size_t a = 0; a < aggs_.size(); ++a) UpdateAgg(batch, a);
  }

  /// Emits the partial rows ([keys][partials]) through `consume`, in
  /// first-seen group order; layout matches the row-mode GroupByOperator's
  /// hash flush exactly.
  Status Emit(const std::function<Status(const Row&)>& consume) {
    const size_t n_keys = key_columns_.size();
    Row out;
    for (uint32_t gid = 0; gid < num_groups_; ++gid) {
      out.clear();
      for (size_t k = 0; k < n_keys; ++k) {
        out.push_back(domains_[k].values[group_keys_[gid * n_keys + k]]);
      }
      EmitStates(gid, &out);
      MINIHIVE_RETURN_IF_ERROR(consume(out));
    }
    return Status::OK();
  }

 private:
  struct AggState {
    int64_t count = 0;
    int64_t i = 0;    // Integer SUM; long MIN/MAX.
    double d = 0;     // Double SUM/AVG; double MIN/MAX.
    bool has_value = false;
  };

  /// Dense ids for one key column's values, in first-seen order.
  struct KeyDomain {
    TypeKind type = TypeKind::kBigInt;
    std::vector<Value> values;  // id -> emitted key value.
    int32_t null_id = -1;
    /// Long values and double bit patterns (the old byte-key semantics:
    /// -0.0 and 0.0 are distinct groups).
    std::unordered_map<int64_t, int32_t> long_ids;
    struct BytesHash {
      using is_transparent = void;
      size_t operator()(std::string_view v) const {
        return std::hash<std::string_view>()(v);
      }
    };
    std::unordered_map<std::string, int32_t, BytesHash, std::equal_to<>>
        bytes_ids;
    /// Code -> id for the dictionary named by `dict_version` (-1 = unseen).
    uint64_t dict_version = 0;
    std::vector<int32_t> code_ids;
  };

  uint32_t AddGroup() {
    states_.resize(states_.size() + aggs_.size());
    if (bytes_extreme_) extremes_.resize(states_.size());
    return num_groups_++;
  }

  // ---- Group ids.

  int32_t NullId(KeyDomain* d) {
    if (d->null_id < 0) {
      d->null_id = static_cast<int32_t>(d->values.size());
      d->values.push_back(Value::Null());
    }
    return d->null_id;
  }

  int32_t LongId(KeyDomain* d, int64_t bits, const Value& boxed) {
    auto [it, inserted] =
        d->long_ids.try_emplace(bits, static_cast<int32_t>(d->values.size()));
    if (inserted) d->values.push_back(boxed);
    return it->second;
  }

  int32_t BytesId(KeyDomain* d, std::string_view v) {
    auto it = d->bytes_ids.find(v);
    if (it != d->bytes_ids.end()) return it->second;
    int32_t id = static_cast<int32_t>(d->values.size());
    d->bytes_ids.emplace(std::string(v), id);
    d->values.push_back(Value::String(std::string(v)));
    return id;
  }

  /// Id of a dictionary code (current dictionary of `d`): one array load,
  /// and a string lookup only on the code's first sighting.
  int32_t CodeId(KeyDomain* d, const BytesColumnVector* bytes, int32_t code) {
    int32_t& id = d->code_ids[code];
    if (id < 0) id = BytesId(d, (*bytes->dictionary)[code]);
    return id;
  }

  /// Id of `col`'s value at `slot` (already resolved for is_repeating).
  int32_t SlotId(const ColumnVector* col, KeyDomain* d, int slot) {
    if (!col->no_nulls && !col->not_null[slot]) return NullId(d);
    switch (col->kind()) {
      case VectorKind::kLong: {
        int64_t v = static_cast<const LongColumnVector*>(col)->vector[slot];
        return LongId(d, v,
                      d->type == TypeKind::kBoolean ? Value::Bool(v != 0)
                                                    : Value::Int(v));
      }
      case VectorKind::kDouble: {
        double v = static_cast<const DoubleColumnVector*>(col)->vector[slot];
        int64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        return LongId(d, bits, Value::Double(v));
      }
      case VectorKind::kBytes: {
        auto* bytes = static_cast<const BytesColumnVector*>(col);
        return bytes->dictionary != nullptr
                   ? CodeId(d, bytes, bytes->codes[slot])
                   : BytesId(d, bytes->GetView(slot));
      }
    }
    return NullId(d);
  }

  /// Fills ids[j] for every selected row j of key column k.
  void ComputeColumnIds(const VectorizedRowBatch& batch, size_t k,
                        uint32_t* ids) {
    const ColumnVector* col = batch.columns[key_columns_[k]].get();
    KeyDomain* d = &domains_[k];
    if (col->kind() == VectorKind::kBytes) {
      auto* bytes = static_cast<const BytesColumnVector*>(col);
      if (bytes->dictionary != nullptr &&
          bytes->dictionary_version != d->dict_version) {
        // Dictionaries are stripe-scoped: re-key codes for the new one.
        d->dict_version = bytes->dictionary_version;
        d->code_ids.assign(bytes->dictionary->size(), -1);
      }
    }
    if (col->is_repeating) {
      std::fill(ids, ids + n_, static_cast<uint32_t>(SlotId(col, d, 0)));
      return;
    }
    if (col->kind() == VectorKind::kBytes && col->no_nulls &&
        static_cast<const BytesColumnVector*>(col)->dictionary != nullptr) {
      // The hot case (e.g. TPC-H Q1's flag columns).
      auto* bytes = static_cast<const BytesColumnVector*>(col);
      const int32_t* codes = bytes->codes.data();
      for (int j = 0; j < n_; ++j) {
        ids[j] = static_cast<uint32_t>(CodeId(d, bytes, codes[rows_[j]]));
      }
      return;
    }
    for (int j = 0; j < n_; ++j) {
      ids[j] = static_cast<uint32_t>(SlotId(col, d, rows_[j]));
    }
  }

  void ComputeGroupIds(const VectorizedRowBatch& batch) {
    const size_t n_keys = key_columns_.size();
    gids_.resize(n_);
    for (size_t k = 0; k < n_keys; ++k) {
      col_ids_[k].resize(n_);
      ComputeColumnIds(batch, k, col_ids_[k].data());
    }
    uint32_t* key = key_scratch_.data();
    for (int j = 0; j < n_; ++j) {
      for (size_t k = 0; k < n_keys; ++k) key[k] = col_ids_[k][j];
      gids_[j] = FindOrAddGroup(key);
    }
  }

  static uint64_t HashIds(const uint32_t* key, size_t n_keys) {
    uint64_t h = 0;
    for (size_t k = 0; k < n_keys; ++k) {
      h = (h ^ key[k]) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return h;
  }

  uint32_t FindOrAddGroup(const uint32_t* key) {
    const size_t n_keys = key_columns_.size();
    if (slots_.empty()) Rehash(64);
    size_t mask = slots_.size() - 1;
    for (size_t slot = HashIds(key, n_keys) & mask;; slot = (slot + 1) & mask) {
      int32_t gid = slots_[slot];
      if (gid < 0) {
        gid = static_cast<int32_t>(AddGroup());
        group_keys_.insert(group_keys_.end(), key, key + n_keys);
        slots_[slot] = gid;
        if (num_groups_ * 2 > slots_.size()) Rehash(slots_.size() * 2);
        return static_cast<uint32_t>(gid);
      }
      if (std::equal(key, key + n_keys,
                     group_keys_.begin() + static_cast<size_t>(gid) * n_keys)) {
        return static_cast<uint32_t>(gid);
      }
    }
  }

  /// Rebuilds the slot array at `capacity` (a power of two) from the
  /// group-ordered key tuples.
  void Rehash(size_t capacity) {
    const size_t n_keys = key_columns_.size();
    slots_.assign(capacity, -1);
    size_t mask = capacity - 1;
    for (uint32_t gid = 0; gid < num_groups_; ++gid) {
      const uint32_t* key = group_keys_.data() + gid * n_keys;
      size_t slot = HashIds(key, n_keys) & mask;
      while (slots_[slot] >= 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<int32_t>(gid);
    }
  }

  // ---- Aggregates.

  /// Calls body(state, index, slot) for every selected row whose argument
  /// is not NULL, in row order; `index` is the state's position in states_
  /// (and extremes_). `col` null means COUNT(*). A keyless aggregate folds
  /// into a local copy of its one state so the loop keeps it in registers.
  template <typename Body>
  void Fold(const ColumnVector* col, size_t a, Body body) {
    const size_t n_aggs = aggs_.size();
    const bool keyless = key_columns_.empty();
    const int* rows = rows_;
    if (col != nullptr && col->is_repeating) {
      if (!col->no_nulls && !col->not_null[0]) return;
      rows = nullptr;  // Every row reads slot 0.
    }
    const bool check_nulls =
        col != nullptr && !col->no_nulls && rows != nullptr;
    const uint8_t* not_null = col != nullptr ? col->not_null.data() : nullptr;
    if (keyless) {
      AggState local = states_[a];
      for (int j = 0; j < n_; ++j) {
        int slot = rows != nullptr ? rows[j] : 0;
        if (check_nulls && !not_null[slot]) continue;
        body(local, a, slot);
      }
      states_[a] = local;
      return;
    }
    AggState* states = states_.data();
    const uint32_t* gids = gids_.data();
    for (int j = 0; j < n_; ++j) {
      int slot = rows != nullptr ? rows[j] : 0;
      if (check_nulls && !not_null[slot]) continue;
      size_t index = gids[j] * n_aggs + a;
      body(states[index], index, slot);
    }
  }

  void UpdateAgg(const VectorizedRowBatch& batch, size_t a) {
    const AggSpec& spec = aggs_[a];
    if (spec.kind == AggKind::kCountStar) {
      Fold(nullptr, a, [](AggState& s, size_t, int) { ++s.count; });
      return;
    }
    const ColumnVector* col = batch.columns[spec.arg_column].get();
    const bool is_long = col->kind() == VectorKind::kLong;
    const int64_t* longs =
        is_long ? static_cast<const LongColumnVector*>(col)->vector.data()
                : nullptr;
    const double* doubles =
        col->kind() == VectorKind::kDouble
            ? static_cast<const DoubleColumnVector*>(col)->vector.data()
            : nullptr;
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        Fold(col, a, [](AggState& s, size_t, int) { ++s.count; });
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (!spec.sums_double) {
          Fold(col, a, [longs](AggState& s, size_t, int slot) {
            s.i = WrapAdd(s.i, longs[slot]);
            ++s.count;
            s.has_value = true;
          });
        } else if (is_long) {
          Fold(col, a, [longs](AggState& s, size_t, int slot) {
            s.d += static_cast<double>(longs[slot]);
            ++s.count;
            s.has_value = true;
          });
        } else {
          Fold(col, a, [doubles](AggState& s, size_t, int slot) {
            s.d += doubles[slot];
            ++s.count;
            s.has_value = true;
          });
        }
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        UpdateExtreme(col, a, spec.kind == AggKind::kMin, longs, doubles);
        return;
    }
  }

  /// MIN/MAX with Value::Compare's order: a value replaces the extreme only
  /// when strictly smaller (larger), so ties keep the first one seen, and
  /// -0.0 == 0.0 and NaN compares equal to everything, as CompareDoubles has
  /// it.
  void UpdateExtreme(const ColumnVector* col, size_t a, bool is_min,
                     const int64_t* longs, const double* doubles) {
    auto pick = [is_min](auto& extreme, auto v, bool& has_value) {
      if (!has_value || (is_min ? v < extreme : v > extreme)) {
        extreme = v;
        has_value = true;
      }
    };
    if (longs != nullptr) {
      Fold(col, a, [&](AggState& s, size_t, int slot) {
        pick(s.i, longs[slot], s.has_value);
      });
    } else if (doubles != nullptr) {
      Fold(col, a, [&](AggState& s, size_t, int slot) {
        pick(s.d, doubles[slot], s.has_value);
      });
    } else {
      // Byte strings: the one case that keeps a per-group heap value.
      auto* bytes = static_cast<const BytesColumnVector*>(col);
      Fold(col, a, [&](AggState& s, size_t index, int slot) {
        std::string& extreme = extremes_[index];
        std::string_view v = bytes->GetView(slot);
        if (!s.has_value || (is_min ? v < std::string_view(extreme)
                                    : v > std::string_view(extreme))) {
          extreme.assign(v);
          s.has_value = true;
        }
      });
    }
  }

  void EmitStates(uint32_t gid, Row* out) const {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      const size_t index = gid * aggs_.size() + a;
      const AggState& state = states_[index];
      switch (spec.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          out->push_back(Value::Int(state.count));
          break;
        case AggKind::kSum:
          if (!state.has_value) {
            out->push_back(Value::Null());
          } else if (spec.sums_double) {
            out->push_back(Value::Double(state.d));
          } else {
            out->push_back(Value::Int(state.i));
          }
          break;
        case AggKind::kAvg:
          out->push_back(state.has_value ? Value::Double(state.d)
                                         : Value::Null());
          out->push_back(Value::Int(state.count));
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (!state.has_value) {
            out->push_back(Value::Null());
          } else if (spec.arg_type == TypeKind::kString) {
            out->push_back(Value::String(extremes_[index]));
          } else if (IsFloatingFamily(spec.arg_type)) {
            out->push_back(Value::Double(state.d));
          } else if (spec.arg_type == TypeKind::kBoolean) {
            out->push_back(Value::Bool(state.i != 0));
          } else {
            out->push_back(Value::Int(state.i));
          }
          break;
      }
    }
  }

  std::vector<int> key_columns_;
  std::vector<AggSpec> aggs_;
  std::vector<KeyDomain> domains_;
  /// Flat table: slot -> gid (-1 empty); gid -> key tuple in group_keys_.
  std::vector<int32_t> slots_;
  std::vector<uint32_t> group_keys_;
  uint32_t num_groups_ = 0;
  std::vector<AggState> states_;     // gid * n_aggs + a.
  std::vector<std::string> extremes_;  // Byte MIN/MAX values, same index.
  bool bytes_extreme_ = false;         // Any byte-string MIN/MAX?
  // Per-batch scratch.
  int n_ = 0;
  const int* rows_ = nullptr;  // Selected row indexes (or identity_).
  std::vector<int> identity_;  // 0, 1, 2, ... for dense batches.
  std::vector<uint32_t> gids_;
  std::vector<std::vector<uint32_t>> col_ids_;
  std::vector<uint32_t> key_scratch_;
};

/// The validated pipeline shape: scan -> filters* -> [select | groupby] ->
/// (ReduceSink | FileSink).
struct PipelineShape {
  std::vector<const OpDesc*> filters;
  const OpDesc* select = nullptr;
  const OpDesc* gby = nullptr;
  const OpDesc* terminal = nullptr;
};

Status ValidateShape(const OpDesc* scan_root, PipelineShape* shape) {
  const OpDesc* cur = scan_root;
  while (true) {
    if (cur->children.size() != 1) {
      return Status::NotImplemented("vectorization: pipeline fan-out");
    }
    const OpDesc* next = cur->children[0].get();
    switch (next->kind) {
      case OpKind::kFilter:
        if (shape->select != nullptr || shape->gby != nullptr) {
          return Status::NotImplemented("vectorization: late filter");
        }
        shape->filters.push_back(next);
        break;
      case OpKind::kSelect:
        if (shape->select != nullptr || shape->gby != nullptr) {
          return Status::NotImplemented("vectorization: multiple selects");
        }
        shape->select = next;
        break;
      case OpKind::kGroupBy:
        if (next->group_by_mode != exec::GroupByMode::kHash ||
            shape->gby != nullptr || shape->select != nullptr) {
          return Status::NotImplemented("vectorization: group-by shape");
        }
        shape->gby = next;
        break;
      case OpKind::kReduceSink:
      case OpKind::kFileSink:
        shape->terminal = next;
        return Status::OK();
      default:
        return Status::NotImplemented(
            std::string("vectorization: unsupported operator ") +
            exec::OpKindName(next->kind));
    }
    cur = next;
  }
}

}  // namespace

Status RunVectorizedMapPipeline(const exec::OpDesc* scan_root,
                                const TypePtr& schema,
                                formats::FormatKind format,
                                const std::string& path,
                                const formats::ReadOptions& read,
                                exec::TaskContext* ctx) {
  // ---- Validation (the §6.4 vectorization-optimizer check).
  if (format != formats::FormatKind::kOrcFile || schema == nullptr) {
    return Status::NotImplemented("vectorization requires ORC input");
  }
  PipelineShape shape;
  MINIHIVE_RETURN_IF_ERROR(ValidateShape(scan_root, &shape));
  if (shape.gby != nullptr && shape.terminal->kind != OpKind::kReduceSink) {
    return Status::NotImplemented("vectorized group-by must feed a shuffle");
  }

  // Projected fields and the full-width -> batch position mapping.
  std::vector<int> projected = read.projected_columns;
  if (projected.empty()) {
    for (int i = 0; i < scan_root->table_width; ++i) projected.push_back(i);
  }
  const auto& fields = schema->children();
  std::vector<TypeKind> batch_types;
  std::vector<int> mapping(fields.size(), -1);
  for (size_t p = 0; p < projected.size(); ++p) {
    int field = projected[p];
    if (field < 0 || field >= static_cast<int>(fields.size()) ||
        !IsPrimitive(fields[field]->kind())) {
      return Status::NotImplemented("vectorization: non-primitive column");
    }
    mapping[field] = static_cast<int>(p);
    batch_types.push_back(fields[field]->kind());
  }

  // ---- Compile filters, projections, aggregation.
  BatchCompiler compiler(batch_types);
  // Compiled filters stay grouped per Filter descriptor so profiling can
  // attribute selectivity to the plan operator they came from.
  struct CompiledFilterGroup {
    exec::OperatorStats* stats = nullptr;
    std::vector<std::unique_ptr<VectorFilter>> filters;
  };
  std::vector<CompiledFilterGroup> filter_groups;
  for (const OpDesc* f : shape.filters) {
    MINIHIVE_ASSIGN_OR_RETURN(
        auto compiled,
        compiler.CompileFilter(f->predicate->RemapColumns(mapping)));
    CompiledFilterGroup group;
    if (ctx->profile != nullptr) group.stats = ctx->profile->ForOp(f);
    for (auto& filter : compiled) group.filters.push_back(std::move(filter));
    filter_groups.push_back(std::move(group));
  }
  std::vector<std::unique_ptr<VectorExpression>> expressions;
  std::vector<int> select_columns;  // Batch columns of select outputs.
  std::vector<TypeKind> select_types;
  std::unique_ptr<VectorHashAggregator> aggregator;
  if (shape.select != nullptr) {
    for (const ExprPtr& e : shape.select->projections) {
      int out;
      MINIHIVE_ASSIGN_OR_RETURN(
          auto compiled,
          compiler.CompileProjection(*e->RemapColumns(mapping), &out));
      expressions.push_back(std::move(compiled));
      select_columns.push_back(out);
      select_types.push_back(e->result_type());
    }
  }
  if (shape.gby != nullptr) {
    std::vector<int> key_columns;
    std::vector<TypeKind> key_types;
    for (const ExprPtr& e : shape.gby->group_keys) {
      int out;
      MINIHIVE_ASSIGN_OR_RETURN(
          auto compiled,
          compiler.CompileProjection(*e->RemapColumns(mapping), &out));
      expressions.push_back(std::move(compiled));
      key_columns.push_back(out);
      key_types.push_back(e->result_type());
    }
    std::vector<VectorHashAggregator::AggSpec> specs;
    for (const AggDesc& agg : shape.gby->aggs) {
      VectorHashAggregator::AggSpec spec;
      spec.kind = agg.kind;
      if (agg.arg != nullptr) {
        int out;
        MINIHIVE_ASSIGN_OR_RETURN(
            auto compiled,
            compiler.CompileProjection(*agg.arg->RemapColumns(mapping), &out));
        expressions.push_back(std::move(compiled));
        spec.arg_column = out;
        spec.arg_type = agg.arg->result_type();
        spec.sums_double = IsFloatingFamily(agg.arg->result_type()) ||
                           agg.kind == AggKind::kAvg;
      } else if (agg.kind != AggKind::kCountStar) {
        return Status::NotImplemented("aggregate without argument");
      }
      specs.push_back(spec);
    }
    aggregator = std::make_unique<VectorHashAggregator>(
        std::move(key_columns), std::move(key_types), std::move(specs));
  }

  // ---- Terminal: reuse the row-mode operator (ReduceSink / FileSink).
  exec::OperatorArena arena;
  MINIHIVE_ASSIGN_OR_RETURN(exec::Operator * terminal,
                            exec::BuildOperatorTree(shape.terminal, &arena));
  MINIHIVE_RETURN_IF_ERROR(terminal->Init(ctx));

  // ---- Read batches through the vectorized ORC reader (§6.5).
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcReader> reader,
      orc::OrcReader::Open(ctx->fs, path, formats::ToOrcReadOptions(read)));
  std::unique_ptr<VectorizedRowBatch> batch =
      MakeBatchFor(compiler.column_types(), kDefaultBatchSize);

  // Per-operator profiling slots (EnableProfiling); null when off.
  exec::OperatorStats* scan_stats = nullptr;
  exec::OperatorStats* select_stats = nullptr;
  exec::OperatorStats* gby_stats = nullptr;
  if (ctx->profile != nullptr) {
    scan_stats = ctx->profile->ForOp(scan_root);
    if (shape.select != nullptr) select_stats = ctx->profile->ForOp(shape.select);
    if (shape.gby != nullptr) gby_stats = ctx->profile->ForOp(shape.gby);
  }
  constexpr auto kRelaxed = std::memory_order_relaxed;

  // Stage timing, once per batch and only when profiling: each stage's
  // nanos is the time since the previous stage ended. Select and group-by
  // time include handing rows to the terminal operator (the row engine's
  // times are inclusive of children too); group-by time includes Emit.
  const bool profiling = ctx->profile != nullptr;
  int64_t mark = 0;
  auto lap = [&](exec::OperatorStats* stats) {
    int64_t now = telemetry::MonotonicNanos();
    if (stats != nullptr) stats->nanos.fetch_add(now - mark, kRelaxed);
    mark = now;
  };
  exec::OperatorStats* project_stats =
      aggregator != nullptr ? gby_stats : select_stats;

  Row row;
  while (true) {
    // Batch-boundary cancellation point (the reader also checks per index
    // group, but filtering/aggregation below runs outside the reader).
    if (ctx->governor != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(ctx->governor->CheckAlive());
    }
    if (profiling) mark = telemetry::MonotonicNanos();
    MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextBatch(batch.get()));
    if (profiling) lap(scan_stats);
    if (!more) break;
    if (ctx->counters != nullptr) {
      ctx->counters->map_input_records += batch->size;
    }
    if (scan_stats != nullptr) {
      scan_stats->batches.fetch_add(1, kRelaxed);
      scan_stats->rows_in.fetch_add(batch->size, kRelaxed);
      scan_stats->rows_out.fetch_add(batch->size, kRelaxed);
    }
    for (auto& group : filter_groups) {
      if (group.stats != nullptr) {
        group.stats->batches.fetch_add(1, kRelaxed);
        group.stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      for (auto& filter : group.filters) {
        filter->Filter(batch.get());
        if (batch->selected_in_use && batch->selected_size == 0) break;
      }
      if (group.stats != nullptr) {
        group.stats->rows_out.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      if (profiling) lap(group.stats);
      if (batch->selected_in_use && batch->selected_size == 0) break;
    }
    if (batch->selected_in_use && batch->selected_size == 0) continue;
    for (auto& expression : expressions) expression->Evaluate(batch.get());
    if (select_stats != nullptr) {
      select_stats->batches.fetch_add(1, kRelaxed);
      select_stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      select_stats->rows_out.fetch_add(batch->SelectedCount(), kRelaxed);
    }
    if (aggregator != nullptr) {
      if (gby_stats != nullptr) {
        gby_stats->batches.fetch_add(1, kRelaxed);
        gby_stats->rows_in.fetch_add(batch->SelectedCount(), kRelaxed);
      }
      aggregator->Update(*batch);
      if (profiling) lap(gby_stats);
      continue;
    }
    // Materialize surviving rows for the terminal operator.
    int n = batch->SelectedCount();
    for (int j = 0; j < n; ++j) {
      int i = batch->selected_in_use ? batch->selected[j] : j;
      row.clear();
      if (shape.select != nullptr) {
        for (size_t c = 0; c < select_columns.size(); ++c) {
          row.push_back(
              BoxValue(*batch, select_columns[c], i, select_types[c]));
        }
      } else {
        // Full-width row: non-projected fields are NULL.
        row.assign(fields.size(), Value::Null());
        for (size_t p = 0; p < projected.size(); ++p) {
          row[projected[p]] =
              BoxValue(*batch, static_cast<int>(p), i, batch_types[p]);
        }
      }
      MINIHIVE_RETURN_IF_ERROR(terminal->Process(row, 0));
    }
    if (profiling) lap(project_stats);
  }
  if (aggregator != nullptr) {
    if (profiling) mark = telemetry::MonotonicNanos();
    MINIHIVE_RETURN_IF_ERROR(aggregator->Emit([&](const Row& partial) {
      if (gby_stats != nullptr) gby_stats->rows_out.fetch_add(1, kRelaxed);
      return terminal->Process(partial, 0);
    }));
    if (profiling) lap(gby_stats);
  }
  return terminal->Finish();
}

}  // namespace minihive::vec
