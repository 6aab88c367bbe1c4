#include "vec/vectorized_pipeline.h"

#include <unordered_map>

#include "exec/plan.h"
#include "orc/reader.h"
#include "vec/simd.h"
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

/// Vectorized hash aggregation (map-side partial): key columns and agg
/// argument columns are evaluated batch-at-a-time; the per-row work is one
/// hash probe plus accumulator updates with no virtual calls.
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
      : key_columns_(std::move(key_columns)),
        key_types_(std::move(key_types)),
        aggs_(std::move(aggs)) {}

  void Update(const VectorizedRowBatch& batch) {
    int n = batch.SelectedCount();
    for (int j = 0; j < n; ++j) {
      int i = batch.selected_in_use ? batch.selected[j] : j;
      UpdateRow(batch, i);
    }
  }

  /// Emits the partial rows ([keys][partials]) through `consume`; layout
  /// matches the row-mode GroupByOperator's hash flush exactly.
  Status Emit(const std::function<Status(const Row&)>& consume) {
    if (table_.empty() && key_columns_.empty()) {
      // Global aggregates emit a zero partial even on empty input.
      Entry empty;
      empty.states.resize(aggs_.size());
      Row out;
      EmitEntry(empty, &out);
      return consume(out);
    }
    for (auto& [bytes, entry] : table_) {
      Row out = entry.keys;
      EmitEntry(entry, &out);
      MINIHIVE_RETURN_IF_ERROR(consume(out));
    }
    return Status::OK();
  }

 private:
  struct AggState {
    int64_t count = 0;
    int64_t int_sum = 0;
    double double_sum = 0;
    bool has_value = false;
    Value extreme;
  };
  struct Entry {
    Row keys;
    std::vector<AggState> states;
  };

  void UpdateRow(const VectorizedRowBatch& batch, int i) {
    key_scratch_.clear();
    AppendKeyBytes(batch, i, &key_scratch_);
    auto it = table_.find(key_scratch_);
    if (it == table_.end()) {
      Entry entry;
      for (size_t k = 0; k < key_columns_.size(); ++k) {
        entry.keys.push_back(
            BoxValue(batch, key_columns_[k], i, key_types_[k]));
      }
      entry.states.resize(aggs_.size());
      it = table_.emplace(key_scratch_, std::move(entry)).first;
    }
    std::vector<AggState>& states = it->second.states;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      AggState& state = states[a];
      if (spec.kind == AggKind::kCountStar) {
        ++state.count;
        continue;
      }
      const ColumnVector* col = batch.columns[spec.arg_column].get();
      int slot = col->is_repeating ? 0 : i;
      if (!col->no_nulls && !col->not_null[slot]) continue;
      switch (spec.kind) {
        case AggKind::kCount:
          ++state.count;
          break;
        case AggKind::kSum:
        case AggKind::kAvg: {
          if (spec.sums_double) {
            double v = col->kind() == VectorKind::kLong
                           ? static_cast<double>(
                                 static_cast<const LongColumnVector*>(col)
                                     ->vector[slot])
                           : static_cast<const DoubleColumnVector*>(col)
                                 ->vector[slot];
            state.double_sum += v;
          } else {
            state.int_sum +=
                static_cast<const LongColumnVector*>(col)->vector[slot];
          }
          ++state.count;
          state.has_value = true;
          break;
        }
        case AggKind::kMin:
        case AggKind::kMax: {
          Value v = BoxValue(batch, spec.arg_column, i, spec.arg_type);
          if (!state.has_value ||
              (spec.kind == AggKind::kMin ? v.Compare(state.extreme) < 0
                                          : v.Compare(state.extreme) > 0)) {
            state.extreme = v;
            state.has_value = true;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  void EmitEntry(const Entry& entry, Row* out) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& spec = aggs_[a];
      const AggState& state = entry.states[a];
      switch (spec.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          out->push_back(Value::Int(state.count));
          break;
        case AggKind::kSum:
          if (!state.has_value) {
            out->push_back(Value::Null());
          } else if (spec.sums_double) {
            out->push_back(Value::Double(state.double_sum));
          } else {
            out->push_back(Value::Int(state.int_sum));
          }
          break;
        case AggKind::kAvg:
          out->push_back(state.has_value ? Value::Double(state.double_sum)
                                         : Value::Null());
          out->push_back(Value::Int(state.count));
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          out->push_back(state.has_value ? state.extreme : Value::Null());
          break;
      }
    }
  }

  void AppendKeyBytes(const VectorizedRowBatch& batch, int i,
                      std::string* out) {
    for (int column : key_columns_) {
      const ColumnVector* col = batch.columns[column].get();
      int slot = col->is_repeating ? 0 : i;
      if (!col->no_nulls && !col->not_null[slot]) {
        out->push_back(0);
        continue;
      }
      switch (col->kind()) {
        case VectorKind::kLong: {
          out->push_back(1);
          int64_t v = static_cast<const LongColumnVector*>(col)->vector[slot];
          out->append(reinterpret_cast<const char*>(&v), sizeof(v));
          break;
        }
        case VectorKind::kDouble: {
          out->push_back(2);
          double v =
              static_cast<const DoubleColumnVector*>(col)->vector[slot];
          out->append(reinterpret_cast<const char*>(&v), sizeof(v));
          break;
        }
        case VectorKind::kBytes: {
          out->push_back(3);
          std::string_view v =
              static_cast<const BytesColumnVector*>(col)->GetView(slot);
          uint32_t len = static_cast<uint32_t>(v.size());
          out->append(reinterpret_cast<const char*>(&len), sizeof(len));
          out->append(v.data(), v.size());
          break;
        }
      }
    }
  }

  /// Group-by keys hash through the SIMD layer's 4-lane mixing, which beats
  /// std::hash's byte-at-a-time loop on multi-column keys. The hash only
  /// places entries in buckets, so it never changes aggregation results.
  struct KeyHash {
    size_t operator()(const std::string& key) const {
      return static_cast<size_t>(
          simd::HashBytes(reinterpret_cast<const uint8_t*>(key.data()),
                          key.size()));
    }
  };

  std::vector<int> key_columns_;
  std::vector<TypeKind> key_types_;
  std::vector<AggSpec> aggs_;
  std::unordered_map<std::string, Entry, KeyHash> table_;
  std::string key_scratch_;
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
                                const mr::InputSplit& split,
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
  std::vector<int> projected = scan_root->scan_projection;
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
  orc::OrcReadOptions read_options;
  read_options.projected_fields = projected;
  read_options.sarg = scan_root->sarg.get();
  read_options.use_index = scan_root->sarg != nullptr;
  read_options.split_offset = split.offset;
  read_options.split_length = split.length;
  read_options.reader_host = split.locality_host;
  read_options.governor = ctx->governor;
  read_options.use_metadata_cache = ctx->use_metadata_cache;
  read_options.enable_late_materialization = ctx->enable_late_materialization;
  read_options.delete_bitmap =
      FindDeleteBitmap(ctx->delete_bitmaps, split.path);
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcReader> reader,
      orc::OrcReader::Open(ctx->fs, split.path, read_options));
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

  Row row;
  while (true) {
    // Batch-boundary cancellation point (the reader also checks per index
    // group, but filtering/aggregation below runs outside the reader).
    if (ctx->governor != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(ctx->governor->CheckAlive());
    }
    MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->NextBatch(batch.get()));
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
  }
  if (aggregator != nullptr) {
    MINIHIVE_RETURN_IF_ERROR(aggregator->Emit([&](const Row& partial) {
      if (gby_stats != nullptr) gby_stats->rows_out.fetch_add(1, kRelaxed);
      return terminal->Process(partial, 0);
    }));
  }
  return terminal->Finish();
}

}  // namespace minihive::vec
