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
#include "mr/shuffle_record.h"
#include "serde/serde.h"
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

  /// `max_entries` is the flush bound (OpDesc::gby_max_hash_entries, 0 =
  /// unbounded).
  VectorHashAggregator(std::vector<int> key_columns,
                       std::vector<TypeKind> key_types,
                       std::vector<AggSpec> aggs, int max_entries)
      : key_columns_(std::move(key_columns)),
        key_types_(std::move(key_types)),
        aggs_(std::move(aggs)),
        max_entries_(max_entries) {
    for (TypeKind type : key_types_) {
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

  /// Whether the table reached its flush bound, checked after each batch
  /// as the row engine checks after each row. A keyless aggregate has one
  /// group and never flushes.
  bool Full() const {
    return max_entries_ > 0 && !key_columns_.empty() &&
           num_groups_ >= static_cast<uint32_t>(max_entries_);
  }

  /// Empties the table, per-column id maps included, after a flush.
  void Clear() {
    num_groups_ = 0;
    slots_.clear();
    group_keys_.clear();
    states_.clear();
    extremes_.clear();
    for (size_t k = 0; k < domains_.size(); ++k) {
      domains_[k] = KeyDomain();
      domains_[k].type = key_types_[k];
    }
    if (key_columns_.empty()) AddGroup();
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
  std::vector<TypeKind> key_types_;
  std::vector<AggSpec> aggs_;
  int max_entries_;
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

/// Where a stage's output row lives in the batch: output column i is batch
/// column columns[i], boxed as types[i]; -1 is always NULL (a table column
/// the scan does not read).
struct ColumnMapping {
  std::vector<int> columns;
  std::vector<TypeKind> types;
};

/// One batch stage of a vectorized map pipeline: it fills batch columns for
/// the batch's selected rows and may narrow selected[].
class BatchStage {
 public:
  virtual ~BatchStage() = default;
  virtual void Run(VectorizedRowBatch* batch) = 0;

  mr::OperatorStats* stats = nullptr;  // Null when profiling is off.
};

/// A Filter's conjuncts, applied in order (paper §6.2).
class FilterStage : public BatchStage {
 public:
  void Run(VectorizedRowBatch* batch) override {
    for (auto& filter : filters) {
      filter->Filter(batch);
      if (batch->SelectedCount() == 0) return;
    }
  }

  std::vector<std::unique_ptr<VectorFilter>> filters;
};

/// A Select's projections (and a GroupBy's keys and arguments).
class ProjectStage : public BatchStage {
 public:
  void Run(VectorizedRowBatch* batch) override {
    for (auto& expression : expressions) expression->Evaluate(batch);
  }

  std::vector<std::unique_ptr<VectorExpression>> expressions;
};

/// A batch column that a stage writes shuffle bytes from, with the type its
/// expression declares.
struct BatchField {
  int column = -1;  // Batch column; -1 is always NULL.
  TypeKind type = TypeKind::kBigInt;
  bool ascending = true;  // Keys only.
};

/// Appends field `f` of the n selected rows to out[0..n), one column at a
/// time, with the writer for the column's kind (put_null for NULLs).
template <typename PutLong, typename PutDouble, typename PutBytes,
          typename PutNull>
void AppendColumn(const VectorizedRowBatch& batch, const BatchField& f, int n,
                  std::vector<std::string>* out, PutLong put_long,
                  PutDouble put_double, PutBytes put_bytes, PutNull put_null) {
  if (f.column < 0) {
    for (int j = 0; j < n; ++j) put_null(&(*out)[j]);
    return;
  }
  const ColumnVector* col = batch.columns[f.column].get();
  const int* sel = batch.selected_in_use ? batch.selected.data() : nullptr;
  auto each = [&](auto put) {
    for (int j = 0; j < n; ++j) {
      const int slot = col->is_repeating ? 0 : (sel != nullptr ? sel[j] : j);
      if (!col->no_nulls && !col->not_null[slot]) {
        put_null(&(*out)[j]);
      } else {
        put(&(*out)[j], slot);
      }
    }
  };
  switch (col->kind()) {
    case VectorKind::kLong: {
      const int64_t* v =
          static_cast<const LongColumnVector*>(col)->vector.data();
      each([&](std::string* o, int i) { put_long(o, v[i]); });
      return;
    }
    case VectorKind::kDouble: {
      const double* v =
          static_cast<const DoubleColumnVector*>(col)->vector.data();
      each([&](std::string* o, int i) { put_double(o, v[i]); });
      return;
    }
    case VectorKind::kBytes: {
      auto* bytes = static_cast<const BytesColumnVector*>(col);
      each([&](std::string* o, int i) { put_bytes(o, bytes->GetView(i)); });
      return;
    }
  }
}

/// Writes the shuffle key bytes of the n selected rows to keys[0..n), one
/// column at a time, each column by its declared type as mr::AppendKeyValue
/// writes the boxed value: an int under a floating type is written as a
/// double, a boolean as 0 or 1. The ReduceSink on batches and the map-join
/// probe both write their keys here, so a probe's bytes are the build
/// table's and the shuffle's.
void WriteKeys(const VectorizedRowBatch& batch,
               const std::vector<BatchField>& fields, int n,
               std::vector<std::string>* keys) {
  if (static_cast<int>(keys->size()) < n) keys->resize(n);
  for (int j = 0; j < n; ++j) (*keys)[j].clear();
  for (const BatchField& f : fields) {
    const bool asc = f.ascending;
    const bool widen = IsFloatingFamily(f.type);
    const bool boolean = f.type == TypeKind::kBoolean;
    AppendColumn(
        batch, f, n, keys,
        [&](std::string* out, int64_t v) {
          if (widen) {
            mr::AppendKeyDouble(out, static_cast<double>(v), asc);
          } else {
            mr::AppendKeyInt(out, boolean ? v != 0 : v, asc);
          }
        },
        [&](std::string* out, double v) { mr::AppendKeyDouble(out, v, asc); },
        [&](std::string* out, std::string_view v) {
          mr::AppendKeyString(out, v, asc);
        },
        [&](std::string* out) { mr::AppendKeyNull(out, asc); });
  }
}

/// An inner MapJoin over unique-key build sides. Per batch it evaluates the
/// probe keys once, writes every selected row's key bytes with WriteKeys
/// (the bytes the tables were built with), narrows selected[] to the rows
/// every side matched, and only then evaluates the big side's values and
/// gathers the build values of the survivors into batch columns. String
/// build values are handed over as a dictionary (the table's column) plus
/// one code per row, so no bytes are copied.
class MapJoinStage : public BatchStage {
 public:
  struct Gather {
    const exec::MapJoinColumn* source = nullptr;
    int column = -1;  // Batch column written.
    uint64_t dictionary_version = 0;  // Bytes columns.
  };
  struct Side {
    const exec::MapJoinHashTable* table = nullptr;
    std::vector<Gather> values;
    std::vector<uint32_t> matches;  // Build row of the j-th survivor.
  };

  void Run(VectorizedRowBatch* batch) override {
    for (auto& expression : key_expressions) expression->Evaluate(batch);
    Probe(batch);
    if (batch->selected_size == 0) return;
    for (auto& expression : value_expressions) expression->Evaluate(batch);
    for (const Side& side : sides) {
      for (const Gather& gather : side.values) {
        GatherColumn(gather, side.matches, batch);
      }
    }
  }

  std::vector<std::unique_ptr<VectorExpression>> key_expressions;
  std::vector<BatchField> key_fields;
  std::vector<std::unique_ptr<VectorExpression>> value_expressions;
  std::vector<Side> sides;

 private:
  /// Records every side's build row for row `i`, whose key is keys_[j], as
  /// survivor `out`; false when a key column is NULL there (a NULL key never
  /// matches) or a side has no row for it.
  bool Lookup(const VectorizedRowBatch& batch, int i, int j, int out) {
    for (const BatchField& f : key_fields) {
      const ColumnVector* col = batch.columns[f.column].get();
      if (!col->no_nulls && !col->not_null[col->is_repeating ? 0 : i]) {
        return false;
      }
    }
    for (Side& side : sides) {
      const uint32_t row = side.table->Find(keys_[j]);
      if (row == exec::MapJoinHashTable::kNoRow) return false;
      side.matches[out] = row;
    }
    return true;
  }

  void Probe(VectorizedRowBatch* batch) {
    const int n = batch->SelectedCount();
    int* sel = batch->selected.data();
    const bool dense = !batch->selected_in_use;
    bool repeating = true;
    for (const BatchField& f : key_fields) {
      repeating = repeating && batch->columns[f.column]->is_repeating;
    }
    // One key for the whole batch: one lookup keeps or drops every row.
    WriteKeys(*batch, key_fields, repeating ? std::min(n, 1) : n, &keys_);
    int out = 0;
    if (repeating) {
      if (n > 0 && Lookup(*batch, 0, 0, 0)) {
        for (Side& side : sides) {
          std::fill(side.matches.begin(), side.matches.begin() + n,
                    side.matches[0]);
        }
        if (dense) {
          for (int j = 0; j < n; ++j) sel[j] = j;
        }
        out = n;
      }
    } else {
      // Survivors compact in place: out <= j, so sel[j] is read first.
      for (int j = 0; j < n; ++j) {
        const int i = dense ? j : sel[j];
        if (Lookup(*batch, i, j, out)) sel[out++] = i;
      }
    }
    batch->selected_in_use = true;
    batch->selected_size = out;
  }

  static void GatherColumn(const Gather& gather,
                           const std::vector<uint32_t>& matches,
                           VectorizedRowBatch* batch) {
    const exec::MapJoinColumn& src = *gather.source;
    ColumnVector* col = batch->columns[gather.column].get();
    const int n = batch->selected_size;
    const int* sel = batch->selected.data();
    const uint32_t* rows = matches.data();
    col->is_repeating = false;
    bool no_nulls = true;
    auto copy = [&](auto assign) {
      for (int j = 0; j < n; ++j) {
        const int i = sel[j];
        const uint32_t r = rows[j];
        const bool valid = src.not_null[r] != 0;
        col->not_null[i] = valid;
        no_nulls = no_nulls && valid;
        assign(i, r, valid);
      }
    };
    switch (src.storage) {
      case exec::MapJoinColumn::Storage::kLong: {
        int64_t* out = static_cast<LongColumnVector*>(col)->vector.data();
        copy([&](int i, uint32_t r, bool) { out[i] = src.longs[r]; });
        break;
      }
      case exec::MapJoinColumn::Storage::kDouble: {
        double* out = static_cast<DoubleColumnVector*>(col)->vector.data();
        copy([&](int i, uint32_t r, bool) { out[i] = src.doubles[r]; });
        break;
      }
      case exec::MapJoinColumn::Storage::kBytes: {
        auto* bytes = static_cast<BytesColumnVector*>(col);
        bytes->dictionary = &src.bytes;
        bytes->dictionary_version = gather.dictionary_version;
        int32_t* codes = bytes->codes.data();
        copy([&](int i, uint32_t r, bool valid) {
          codes[i] = valid ? static_cast<int32_t>(r) : -1;
        });
        break;
      }
      case exec::MapJoinColumn::Storage::kBoxed:
        break;  // Rejected at compile time.
    }
    col->no_nulls = no_nulls;
  }

  std::vector<std::string> keys_;  // Per selected row (reused).
};

/// A ReduceSink terminal on batches: evaluates the sink's key and value
/// expressions as kernels, then writes every selected row's shuffle key and
/// value bytes with the shuffle encoders, one column at a time, and emits
/// them. Nothing is boxed.
class ShuffleSinkStage {
 public:
  Status Sink(VectorizedRowBatch* batch, mr::ShuffleEmitter* emitter) {
    for (auto& expression : expressions) expression->Evaluate(batch);
    const int n = batch->SelectedCount();
    WriteKeys(*batch, key_fields, n, &keys_);
    if (static_cast<int>(values_.size()) < n) values_.resize(n);
    for (int j = 0; j < n; ++j) values_[j].clear();
    for (const BatchField& f : value_fields) {
      const bool boolean = f.type == TypeKind::kBoolean;
      AppendColumn(
          *batch, f, n, &values_,
          [&](std::string* out, int64_t v) {
            serde::VariantEncodeInt(boolean ? v != 0 : v, out);
          },
          [](std::string* out, double v) { serde::VariantEncodeDouble(v, out); },
          [](std::string* out, std::string_view v) {
            serde::VariantEncodeString(v, out);
          },
          [](std::string* out) { serde::VariantEncodeNull(out); });
    }
    for (int j = 0; j < n; ++j) {
      MINIHIVE_RETURN_IF_ERROR(emitter->Emit(keys_[j], values_[j], tag));
    }
    return Status::OK();
  }

  std::vector<std::unique_ptr<VectorExpression>> expressions;
  std::vector<BatchField> key_fields;
  std::vector<BatchField> value_fields;
  int tag = 0;

 private:
  // Per selected row: its key and value bytes (reused across batches).
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

/// A map task's compiled pipeline: batch stages in plan order, then one
/// of: a hash GroupBy whose partials go to the (row-mode) terminal, a
/// ReduceSink on batches, or the FileSink terminal fed rows boxed through
/// `out`.
struct CompiledPipeline {
  std::vector<std::unique_ptr<BatchStage>> stages;
  /// Hash GroupBy: key and argument expressions, then the aggregator.
  std::unique_ptr<ProjectStage> gby_inputs;
  std::unique_ptr<VectorHashAggregator> aggregator;
  std::unique_ptr<ShuffleSinkStage> shuffle_sink;
  ColumnMapping out;
  const OpDesc* terminal = nullptr;
};

using Stats = mr::OperatorStats;

/// Compiles `exprs` against `in`, appending the kernels to `expressions`
/// and the result columns to `columns`.
Status CompileProjections(
    const std::vector<ExprPtr>& exprs, const ColumnMapping& in,
    BatchCompiler* compiler,
    std::vector<std::unique_ptr<VectorExpression>>* expressions,
    std::vector<int>* columns) {
  for (const ExprPtr& e : exprs) {
    int out;
    MINIHIVE_ASSIGN_OR_RETURN(
        auto compiled,
        compiler->CompileProjection(*e->RemapColumns(in.columns), &out));
    expressions->push_back(std::move(compiled));
    columns->push_back(out);
  }
  return Status::OK();
}

Result<std::unique_ptr<BatchStage>> CompileMapJoin(const OpDesc* op,
                                                   exec::TaskContext* ctx,
                                                   BatchCompiler* compiler,
                                                   ColumnMapping* mapping) {
  for (const auto& side : op->mapjoin_small_sides) {
    if (side.side != exec::JoinSideKind::kInner) {
      return Status::NotImplemented(
          "vectorized map join: LEFT OUTER side " + side.table_name);
    }
  }
  const exec::MapJoinTables* tables = nullptr;
  if (ctx->mapjoin_tables != nullptr) {
    auto it = ctx->mapjoin_tables->find(op->id);
    if (it != ctx->mapjoin_tables->end()) tables = it->second.get();
  }
  if (tables == nullptr ||
      tables->size() != op->mapjoin_small_sides.size()) {
    return Status::Internal("map join tables missing for op " +
                            std::to_string(op->id));
  }
  auto stage = std::make_unique<MapJoinStage>();
  ColumnMapping out;
  MINIHIVE_RETURN_IF_ERROR(
      CompileProjections(op->mapjoin_probe_keys, *mapping, compiler,
                         &stage->key_expressions, &out.columns));
  for (size_t k = 0; k < op->mapjoin_probe_keys.size(); ++k) {
    out.types.push_back(op->mapjoin_probe_keys[k]->result_type());
    stage->key_fields.push_back({out.columns[k], out.types[k]});
  }
  std::vector<int> big_columns;
  MINIHIVE_RETURN_IF_ERROR(
      CompileProjections(op->mapjoin_big_values, *mapping, compiler,
                         &stage->value_expressions, &big_columns));
  const int total_tags = static_cast<int>(tables->size()) + 1;
  size_t s = 0;
  for (int tag = 0; tag < total_tags; ++tag) {
    if (tag == op->mapjoin_big_tag) {
      for (size_t v = 0; v < big_columns.size(); ++v) {
        out.columns.push_back(big_columns[v]);
        out.types.push_back(op->mapjoin_big_values[v]->result_type());
      }
      continue;
    }
    const auto& desc = op->mapjoin_small_sides[s];
    const exec::MapJoinHashTable& table = *(*tables)[s++];
    if (!table.unique_keys) {
      return Status::NotImplemented(
          "vectorized map join: duplicate build keys in " + desc.table_name +
          " need row expansion");
    }
    MapJoinStage::Side side;
    side.table = &table;
    side.matches.resize(kDefaultBatchSize);
    for (size_t v = 0; v < table.columns.size(); ++v) {
      const exec::MapJoinColumn& source = table.columns[v];
      if (source.storage == exec::MapJoinColumn::Storage::kBoxed) {
        return Status::NotImplemented(
            "vectorized map join: non-primitive build value in " +
            desc.table_name);
      }
      const TypeKind type = desc.build_values[v]->result_type();
      MapJoinStage::Gather gather;
      gather.source = &source;
      gather.column = compiler->AddScratch(type);
      gather.dictionary_version = NextDictionaryVersion();
      side.values.push_back(gather);
      out.columns.push_back(gather.column);
      out.types.push_back(type);
    }
    stage->sides.push_back(std::move(side));
  }
  *mapping = std::move(out);
  return std::unique_ptr<BatchStage>(std::move(stage));
}

Result<std::unique_ptr<VectorHashAggregator>> CompileGroupBy(
    const OpDesc* op, const ColumnMapping& mapping, BatchCompiler* compiler,
    ProjectStage* inputs) {
  std::vector<int> key_columns;
  std::vector<TypeKind> key_types;
  MINIHIVE_RETURN_IF_ERROR(CompileProjections(
      op->group_keys, mapping, compiler, &inputs->expressions, &key_columns));
  for (const ExprPtr& e : op->group_keys) key_types.push_back(e->result_type());
  std::vector<VectorHashAggregator::AggSpec> specs;
  for (const AggDesc& agg : op->aggs) {
    VectorHashAggregator::AggSpec spec;
    spec.kind = agg.kind;
    if (agg.arg != nullptr) {
      std::vector<int> arg_column;
      MINIHIVE_RETURN_IF_ERROR(CompileProjections(
          {agg.arg}, mapping, compiler, &inputs->expressions, &arg_column));
      spec.arg_column = arg_column[0];
      spec.arg_type = agg.arg->result_type();
      spec.sums_double = IsFloatingFamily(agg.arg->result_type()) ||
                         agg.kind == AggKind::kAvg;
    } else if (agg.kind != AggKind::kCountStar) {
      return Status::NotImplemented("aggregate without argument");
    }
    specs.push_back(spec);
  }
  return std::make_unique<VectorHashAggregator>(
      std::move(key_columns), std::move(key_types), std::move(specs),
      op->gby_max_hash_entries);
}

/// One sink expression as a field: a column reference reads its batch
/// column directly (-1, an unread column, is NULL); anything else is
/// compiled into a kernel.
Status CompileSinkField(const ExprPtr& e, const ColumnMapping& mapping,
                        BatchCompiler* compiler, ShuffleSinkStage* sink,
                        BatchField* field) {
  field->type = e->result_type();
  if (e->kind() == ExprKind::kColumn) {
    const int index = e->column_index();
    if (index < 0 || index >= static_cast<int>(mapping.columns.size())) {
      return Status::NotImplemented("sink column out of range");
    }
    field->column = mapping.columns[index];
    return Status::OK();
  }
  std::vector<int> column;
  MINIHIVE_RETURN_IF_ERROR(
      CompileProjections({e}, mapping, compiler, &sink->expressions, &column));
  field->column = column[0];
  return Status::OK();
}

Result<std::unique_ptr<ShuffleSinkStage>> CompileShuffleSink(
    const OpDesc* rs, const ColumnMapping& mapping, BatchCompiler* compiler) {
  auto sink = std::make_unique<ShuffleSinkStage>();
  sink->tag = rs->sink_tag;
  for (size_t k = 0; k < rs->sink_keys.size(); ++k) {
    BatchField field;
    field.ascending = rs->SinkAscending(k);
    MINIHIVE_RETURN_IF_ERROR(CompileSinkField(rs->sink_keys[k], mapping,
                                              compiler, sink.get(), &field));
    sink->key_fields.push_back(field);
  }
  for (const ExprPtr& e : rs->sink_values) {
    BatchField field;
    MINIHIVE_RETURN_IF_ERROR(
        CompileSinkField(e, mapping, compiler, sink.get(), &field));
    sink->value_fields.push_back(field);
  }
  return sink;
}

/// The §6.4 validation and compilation in one walk: every operator between
/// the scan and the terminal (ReduceSink or FileSink) becomes a batch
/// stage compiled against the column mapping of the stage before it.
/// Anything that cannot run on batches returns NotImplemented, whose
/// message names the reason for the row-mode fallback.
Status CompilePipeline(const OpDesc* scan_root, ColumnMapping mapping,
                       exec::TaskContext* ctx, BatchCompiler* compiler,
                       CompiledPipeline* pipeline) {
  const OpDesc* cur = scan_root;
  while (pipeline->terminal == nullptr) {
    if (cur->children.size() != 1) {
      return Status::NotImplemented("vectorization: pipeline fan-out");
    }
    const OpDesc* next = cur->children[0].get();
    switch (next->kind) {
      case OpKind::kFilter: {
        auto stage = std::make_unique<FilterStage>();
        MINIHIVE_ASSIGN_OR_RETURN(
            stage->filters,
            compiler->CompileFilter(
                next->predicate->RemapColumns(mapping.columns)));
        stage->stats = ctx->StatsFor(next);
        pipeline->stages.push_back(std::move(stage));
        break;
      }
      case OpKind::kSelect: {
        auto stage = std::make_unique<ProjectStage>();
        ColumnMapping out;
        MINIHIVE_RETURN_IF_ERROR(
            CompileProjections(next->projections, mapping, compiler,
                               &stage->expressions, &out.columns));
        for (const ExprPtr& e : next->projections) {
          out.types.push_back(e->result_type());
        }
        mapping = std::move(out);
        stage->stats = ctx->StatsFor(next);
        pipeline->stages.push_back(std::move(stage));
        break;
      }
      case OpKind::kMapJoin: {
        MINIHIVE_ASSIGN_OR_RETURN(auto stage,
                                  CompileMapJoin(next, ctx, compiler, &mapping));
        stage->stats = ctx->StatsFor(next);
        pipeline->stages.push_back(std::move(stage));
        break;
      }
      case OpKind::kGroupBy: {
        if (next->group_by_mode != exec::GroupByMode::kHash ||
            next->children.size() != 1 ||
            next->children[0]->kind != OpKind::kReduceSink) {
          return Status::NotImplemented(
              "vectorized group-by must be a hash group-by feeding a "
              "shuffle");
        }
        pipeline->gby_inputs = std::make_unique<ProjectStage>();
        pipeline->gby_inputs->stats = ctx->StatsFor(next);
        MINIHIVE_ASSIGN_OR_RETURN(
            pipeline->aggregator,
            CompileGroupBy(next, mapping, compiler,
                           pipeline->gby_inputs.get()));
        pipeline->terminal = next->children[0].get();
        break;
      }
      case OpKind::kReduceSink: {
        MINIHIVE_ASSIGN_OR_RETURN(pipeline->shuffle_sink,
                                  CompileShuffleSink(next, mapping, compiler));
        pipeline->terminal = next;
        break;
      }
      case OpKind::kFileSink:
        pipeline->terminal = next;
        break;
      default:
        return Status::NotImplemented(
            std::string("vectorization: unsupported operator ") +
            exec::OpKindName(next->kind));
    }
    cur = next;
  }
  pipeline->out = std::move(mapping);
  return Status::OK();
}

}  // namespace

Status RunVectorizedMapPipeline(const exec::OpDesc* scan_root,
                                const TypePtr& schema,
                                formats::FormatKind format,
                                const std::string& path,
                                const formats::ReadOptions& read,
                                exec::TaskContext* ctx) {
  // ---- Validation and compilation (the §6.4 vectorization-optimizer
  // check).
  if (format != formats::FormatKind::kOrcFile || schema == nullptr) {
    return Status::NotImplemented("vectorization requires ORC input");
  }
  // The scan's mapping: full-width table row -> batch position of each
  // projected field; unread fields are NULL.
  std::vector<int> projected = read.projected_columns;
  if (projected.empty()) {
    for (int i = 0; i < scan_root->table_width; ++i) projected.push_back(i);
  }
  const auto& fields = schema->children();
  std::vector<TypeKind> batch_types;
  ColumnMapping scan_mapping;
  scan_mapping.columns.assign(fields.size(), -1);
  for (const TypePtr& field : fields) {
    scan_mapping.types.push_back(field->kind());
  }
  for (size_t p = 0; p < projected.size(); ++p) {
    int field = projected[p];
    if (field < 0 || field >= static_cast<int>(fields.size()) ||
        !IsPrimitive(fields[field]->kind())) {
      return Status::NotImplemented("vectorization: non-primitive column");
    }
    scan_mapping.columns[field] = static_cast<int>(p);
    batch_types.push_back(fields[field]->kind());
  }
  BatchCompiler compiler(batch_types);
  CompiledPipeline pipeline;
  MINIHIVE_RETURN_IF_ERROR(CompilePipeline(scan_root, std::move(scan_mapping),
                                           ctx, &compiler, &pipeline));

  // ---- Terminal: a ReduceSink fed by batches runs on them; the GroupBy's
  // partials and a FileSink's rows go through the row-mode operator.
  exec::OperatorArena arena;
  exec::Operator* terminal = nullptr;
  if (pipeline.shuffle_sink == nullptr) {
    MINIHIVE_ASSIGN_OR_RETURN(
        terminal, exec::BuildOperatorTree(pipeline.terminal, &arena));
    MINIHIVE_RETURN_IF_ERROR(terminal->Init(ctx));
  } else if (ctx->emitter == nullptr) {
    return Status::Internal("ReduceSink without a shuffle emitter");
  }
  if (ctx->counters != nullptr) ctx->counters->vectorized_map_tasks += 1;

  // ---- Read batches through the vectorized ORC reader (§6.5).
  MINIHIVE_ASSIGN_OR_RETURN(
      std::unique_ptr<orc::OrcReader> reader,
      orc::OrcReader::Open(ctx->fs, path, formats::ToOrcReadOptions(read)));
  std::unique_ptr<VectorizedRowBatch> batch =
      MakeBatchFor(compiler.column_types(), kDefaultBatchSize);

  Stats* scan_stats = ctx->StatsFor(scan_root);
  Stats* gby_stats =
      pipeline.gby_inputs != nullptr ? pipeline.gby_inputs->stats : nullptr;
  Stats* terminal_stats = ctx->StatsFor(pipeline.terminal);

  // Stage timing, once per batch and only when profiling: each stage's
  // nanos is the time since the previous stage ended, less the row
  // terminal's own timed frames inside it (so group-by time covers Emit
  // but not the ReduceSink it feeds). Every batch is a timed unit, and so
  // is Finish: the row terminal's frames are timed at weight 1.
  const bool profiling = scan_stats != nullptr;
  exec::OperatorClock& clock = ctx->clock;
  clock.TimeAll();
  int64_t mark = 0;
  auto lap = [&](Stats* stats) {
    int64_t now = telemetry::MonotonicNanos();
    if (stats != nullptr) stats->nanos += now - mark - clock.child_nanos;
    clock.child_nanos = 0;
    mark = now;
  };
  auto count = [&](Stats* stats, int rows_in, bool rows_out) {
    if (stats == nullptr) return;
    stats->batches += 1;
    stats->rows_in += rows_in;
    if (rows_out) stats->rows_out += batch->SelectedCount();
  };

  const ColumnMapping& out = pipeline.out;
  Row row;
  auto emit_partials = [&] {
    return pipeline.aggregator->Emit([&](const Row& partial) {
      if (gby_stats != nullptr) gby_stats->rows_out += 1;
      return terminal->Process(partial, 0);
    });
  };
  while (true) {
    // Batch-boundary cancellation point (the reader also checks per index
    // group, but the stages below run outside the reader).
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
      scan_stats->batches += 1;
      scan_stats->rows_in += batch->size;
      scan_stats->rows_out += batch->size;
    }
    bool empty = false;
    for (auto& stage : pipeline.stages) {
      const int rows_in = batch->SelectedCount();
      stage->Run(batch.get());
      count(stage->stats, rows_in, /*rows_out=*/true);
      if (profiling) lap(stage->stats);
      if (batch->SelectedCount() == 0) {
        empty = true;
        break;
      }
    }
    if (empty) continue;
    if (pipeline.aggregator != nullptr) {
      count(gby_stats, batch->SelectedCount(), /*rows_out=*/false);
      pipeline.gby_inputs->Run(batch.get());
      pipeline.aggregator->Update(*batch);
      if (pipeline.aggregator->Full()) {
        // Memory-bounded partial aggregation, as in the row engine: the
        // combiner and the reduce merge re-aggregate the duplicates.
        MINIHIVE_RETURN_IF_ERROR(emit_partials());
        pipeline.aggregator->Clear();
      }
      if (profiling) lap(gby_stats);
      continue;
    }
    if (pipeline.shuffle_sink != nullptr) {
      count(terminal_stats, batch->SelectedCount(), /*rows_out=*/false);
      MINIHIVE_RETURN_IF_ERROR(
          pipeline.shuffle_sink->Sink(batch.get(), ctx->emitter));
      if (profiling) lap(terminal_stats);
      continue;
    }
    // Box the surviving rows for the FileSink: its Process frames time
    // themselves, and the boxing around them is its time too.
    const int n = batch->SelectedCount();
    for (int j = 0; j < n; ++j) {
      const int i = batch->selected_in_use ? batch->selected[j] : j;
      row.clear();
      for (size_t c = 0; c < out.columns.size(); ++c) {
        row.push_back(out.columns[c] < 0
                          ? Value::Null()
                          : BoxValue(*batch, out.columns[c], i, out.types[c]));
      }
      MINIHIVE_RETURN_IF_ERROR(terminal->Process(row, 0));
    }
    if (profiling) lap(terminal_stats);
  }
  if (pipeline.shuffle_sink != nullptr) return Status::OK();
  if (pipeline.aggregator != nullptr) {
    if (profiling) mark = telemetry::MonotonicNanos();
    MINIHIVE_RETURN_IF_ERROR(emit_partials());
    if (profiling) lap(gby_stats);
  }
  return terminal->Finish();
}

}  // namespace minihive::vec
