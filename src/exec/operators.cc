#include "exec/operators.h"

#include <algorithm>
#include <map>

#include "mr/shuffle_record.h"
#include "serde/serde.h"

namespace minihive::exec {

std::string FinalPartName(const std::string& prefix,
                          const std::string& task_suffix) {
  return prefix + "/part-" + task_suffix;
}

std::string AttemptPartName(const std::string& prefix,
                            const std::string& task_suffix, int attempt) {
  // The "_attempt" prefix sorts before "part-" and is deleted on abort, so
  // consumers listing `prefix + "/part-"` only ever see committed output.
  return prefix + "/_attempt-" + std::to_string(attempt) + "-" + task_suffix;
}

MapJoinColumn::MapJoinColumn(TypeKind type) {
  if (IsIntegerFamily(type)) {
    storage = Storage::kLong;
  } else if (IsFloatingFamily(type)) {
    storage = Storage::kDouble;
  } else if (type == TypeKind::kString) {
    storage = Storage::kBytes;
  }
}

Status MapJoinColumn::Append(const Value& v) {
  const bool fits = v.is_null() || storage == Storage::kBoxed ||
                    (storage == Storage::kLong && v.is_int()) ||
                    (storage == Storage::kDouble && v.is_double()) ||
                    (storage == Storage::kBytes && v.is_string());
  if (!fits) {
    return Status::Internal("map-join build value " + v.ToString() +
                            " does not match its column type");
  }
  not_null.push_back(!v.is_null());
  switch (storage) {
    case Storage::kLong:
      longs.push_back(v.is_null() ? 0 : v.AsInt());
      break;
    case Storage::kDouble:
      doubles.push_back(v.is_null() ? 0 : v.AsDouble());
      break;
    case Storage::kBytes:
      bytes.push_back(v.is_null() ? std::string() : v.AsString());
      break;
    case Storage::kBoxed:
      boxed.push_back(v);
      break;
  }
  return Status::OK();
}

Value MapJoinColumn::Get(uint32_t row) const {
  if (!not_null[row]) return Value::Null();
  switch (storage) {
    case Storage::kLong:
      return Value::Int(longs[row]);
    case Storage::kDouble:
      return Value::Double(doubles[row]);
    case Storage::kBytes:
      return Value::String(bytes[row]);
    case Storage::kBoxed:
      break;
  }
  return boxed[row];
}

Status MapJoinHashTable::Add(std::string key, const Row& values) {
  for (size_t c = 0; c < columns.size(); ++c) {
    MINIHIVE_RETURN_IF_ERROR(columns[c].Append(values[c]));
  }
  const uint32_t row = static_cast<uint32_t>(next_row.size());
  next_row.push_back(kNoRow);
  auto [it, inserted] = index.try_emplace(std::move(key), Chain{row, row});
  if (!inserted) {
    next_row[it->second.last] = row;
    it->second.last = row;
    unique_keys = false;
  }
  return Status::OK();
}

Status Operator::Init(TaskContext* ctx) {
  // Shared nodes (below a Mux) are reached from several parents; Init once.
  if (init_done_) return Status::OK();
  init_done_ = true;
  ctx_ = ctx;
  stats_ = ctx->StatsFor(desc_);
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->Init(ctx));
  }
  return Status::OK();
}

Status Operator::DoStartGroup() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->StartGroup());
  }
  return Status::OK();
}

Status Operator::DoEndGroup() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->EndGroup());
  }
  return Status::OK();
}

Status Operator::DoFinish() {
  for (Operator* child : children_) {
    MINIHIVE_RETURN_IF_ERROR(child->Finish());
  }
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------- TableScan

/// Pass-through pipeline root; the task runtime reads the split and pushes
/// rows into it.
class TableScanOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    return ForwardRow(row, tag);
  }
};

// ---------------------------------------------------------------- Filter

class FilterOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    Value v = desc_->predicate->Eval(row);
    if (!v.is_null() && v.AsBool()) {
      return ForwardRow(row, tag);
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------- Select

class SelectOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    Row out;
    out.reserve(desc_->projections.size());
    for (const ExprPtr& e : desc_->projections) {
      out.push_back(e->Eval(row));
    }
    return ForwardRow(out, tag);
  }
};

// ---------------------------------------------------------------- Limit

class LimitOperator : public Operator {
 public:
  using Operator::Operator;
  Status DoProcess(const Row& row, int tag) override {
    if (desc_->limit >= 0 && seen_ >= desc_->limit) return Status::OK();
    ++seen_;
    return ForwardRow(row, tag);
  }

 private:
  int64_t seen_ = 0;
};

// ---------------------------------------------------------------- GroupBy

class GroupByOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    group_buffers_.reserve(desc_->aggs.size());
    for (const AggDesc& agg : desc_->aggs) {
      group_buffers_.emplace_back(&agg);
    }
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    if (desc_->group_by_mode == GroupByMode::kHash) {
      Row key;
      key.reserve(desc_->group_keys.size());
      key_bytes_.clear();
      for (const ExprPtr& e : desc_->group_keys) {
        key.push_back(e->Eval(row));
        mr::AppendKeyValue(&key_bytes_, key.back(), e->result_type(),
                           /*ascending=*/true);
      }
      auto it = hash_.find(key_bytes_);
      if (it == hash_.end()) {
        HashEntry entry;
        entry.key = std::move(key);
        for (const AggDesc& agg : desc_->aggs) {
          entry.buffers.emplace_back(&agg);
        }
        it = hash_.emplace(key_bytes_, std::move(entry)).first;
      }
      for (AggBuffer& buffer : it->second.buffers) buffer.Update(row);
      if (desc_->gby_max_hash_entries > 0 &&
          hash_.size() >= static_cast<size_t>(desc_->gby_max_hash_entries)) {
        // Memory-bounded partial aggregation: emit the partials downstream
        // and start over. The reducer's merge-partial GroupBy merges the
        // duplicates this creates.
        MINIHIVE_RETURN_IF_ERROR(FlushHash());
      }
      return Status::OK();
    }
    // Streaming (reduce-side) modes.
    if (!group_open_) {
      return Status::Internal("GroupBy row outside a group");
    }
    if (!have_key_) {
      group_key_.clear();
      if (desc_->group_by_mode == GroupByMode::kMergePartial) {
        group_key_.assign(row.begin(), row.begin() + desc_->partial_offset);
      } else {
        for (const ExprPtr& e : desc_->group_keys) {
          group_key_.push_back(e->Eval(row));
        }
      }
      have_key_ = true;
    }
    if (desc_->group_by_mode == GroupByMode::kMergePartial) {
      int offset = desc_->partial_offset;
      for (size_t i = 0; i < group_buffers_.size(); ++i) {
        group_buffers_[i].Merge(row, offset);
        offset += desc_->aggs[i].PartialArity();
      }
    } else {
      for (AggBuffer& buffer : group_buffers_) buffer.Update(row);
    }
    return Status::OK();
  }

  Status DoStartGroup() override {
    if (desc_->group_by_mode != GroupByMode::kHash) {
      group_open_ = true;
      have_key_ = false;
      for (AggBuffer& buffer : group_buffers_) buffer.Reset();
    }
    return Operator::DoStartGroup();
  }

  Status DoEndGroup() override {
    if (desc_->group_by_mode == GroupByMode::kHash) {
      if (desc_->gby_flush_on_end_group) {
        MINIHIVE_RETURN_IF_ERROR(FlushHash());
      }
      return Operator::DoEndGroup();
    }
    if (group_open_) {
      if (have_key_) {
        Row out = group_key_;
        for (AggBuffer& buffer : group_buffers_) buffer.EmitFinal(&out);
        MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
        emitted_any_ = true;
      }
      group_open_ = false;
    }
    return Operator::DoEndGroup();
  }

  Status DoFinish() override {
    // A keyless (global) final aggregation that saw no input still emits
    // its SQL-mandated single row (COUNT(*) over empty input is 0).
    if (desc_->group_by_mode == GroupByMode::kMergePartial &&
        desc_->partial_offset == 0 && !emitted_any_) {
      Row out;
      for (AggBuffer& buffer : group_buffers_) {
        buffer.Reset();
        buffer.EmitFinal(&out);
      }
      MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
      emitted_any_ = true;
    }
    if (desc_->group_by_mode == GroupByMode::kHash) {
      // Hash (map-side partial) flush. With no group keys, emit a partial
      // row even for empty input so global aggregates see zero counts —
      // but not in grouped (flush-per-group) contexts.
      if (hash_.empty() && desc_->group_keys.empty() &&
          !desc_->gby_flush_on_end_group) {
        Row out;
        std::vector<AggBuffer> buffers;
        for (const AggDesc& agg : desc_->aggs) buffers.emplace_back(&agg);
        for (AggBuffer& buffer : buffers) buffer.EmitPartial(&out);
        MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
      }
      MINIHIVE_RETURN_IF_ERROR(FlushHash());
    }
    return Operator::DoFinish();
  }

  Status FlushHash() {
    for (auto& [bytes, entry] : hash_) {
      Row out = entry.key;
      for (AggBuffer& buffer : entry.buffers) buffer.EmitPartial(&out);
      MINIHIVE_RETURN_IF_ERROR(ForwardRow(out));
    }
    hash_.clear();
    return Status::OK();
  }

 private:
  struct HashEntry {
    Row key;
    std::vector<AggBuffer> buffers;
  };
  /// Keyed on the group key's shuffle key bytes (key_bytes_ is scratch).
  std::unordered_map<std::string, HashEntry> hash_;
  std::string key_bytes_;
  // Streaming state.
  std::vector<AggBuffer> group_buffers_;
  Row group_key_;
  bool group_open_ = false;
  bool have_key_ = false;
  bool emitted_any_ = false;
};

// ---------------------------------------------------------------- Join

/// Reduce-side (common) join: buffers each tag's rows within a key group
/// and emits the combination at the group end. Input rows are
/// key-prefixed; output is key ++ values(tag 0) ++ values(tag 1) ++ ...
class JoinOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    buffers_.resize(desc_->join_num_inputs);
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    if (tag < 0 || tag >= desc_->join_num_inputs) {
      return Status::Internal("join tag out of range");
    }
    if (!have_key_) {
      group_key_.assign(row.begin(), row.begin() + desc_->join_key_width);
      have_key_ = true;
    }
    buffers_[tag].emplace_back(row.begin() + desc_->join_key_width,
                               row.end());
    return Status::OK();
  }

  Status DoStartGroup() override {
    for (auto& buffer : buffers_) buffer.clear();
    have_key_ = false;
    return Operator::DoStartGroup();
  }

  Status DoEndGroup() override {
    if (have_key_) {
      MINIHIVE_RETURN_IF_ERROR(EmitJoined());
    }
    for (auto& buffer : buffers_) buffer.clear();
    have_key_ = false;
    return Operator::DoEndGroup();
  }

 private:
  Status EmitJoined() {
    // Inner sides with no rows produce nothing; left-outer sides with no
    // rows contribute one all-NULL row.
    std::vector<const std::vector<Row>*> sides(buffers_.size());
    std::vector<std::vector<Row>> null_holder(buffers_.size());
    for (size_t t = 0; t < buffers_.size(); ++t) {
      if (buffers_[t].empty()) {
        JoinSideKind side = t < desc_->join_sides.size()
                                ? desc_->join_sides[t]
                                : JoinSideKind::kInner;
        if (side == JoinSideKind::kInner) return Status::OK();
        int width = t < desc_->join_value_widths.size()
                        ? desc_->join_value_widths[t]
                        : 0;
        null_holder[t].push_back(Row(width, Value::Null()));
        sides[t] = &null_holder[t];
      } else {
        sides[t] = &buffers_[t];
      }
    }
    Row out = group_key_;
    return EmitCross(sides, 0, &out);
  }

  Status EmitCross(const std::vector<const std::vector<Row>*>& sides,
                   size_t tag, Row* out) {
    if (tag == sides.size()) {
      if (desc_->join_residual != nullptr) {
        Value v = desc_->join_residual->Eval(*out);
        if (v.is_null() || !v.AsBool()) return Status::OK();
      }
      return ForwardRow(*out);
    }
    size_t base = out->size();
    for (const Row& row : *sides[tag]) {
      out->insert(out->end(), row.begin(), row.end());
      MINIHIVE_RETURN_IF_ERROR(EmitCross(sides, tag + 1, out));
      out->resize(base);
    }
    return Status::OK();
  }

  std::vector<std::vector<Row>> buffers_;
  Row group_key_;
  bool have_key_ = false;
};

// ---------------------------------------------------------------- MapJoin

class MapJoinOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    if (ctx->mapjoin_tables == nullptr) {
      return Status::Internal("map join tables not provided");
    }
    auto it = ctx->mapjoin_tables->find(desc_->id);
    if (it == ctx->mapjoin_tables->end()) {
      return Status::Internal("map join tables missing for op " +
                              std::to_string(desc_->id));
    }
    tables_ = it->second.get();
    return Status::OK();
  }

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    // Output layout mirrors the reduce join this operator replaced:
    // keys ++ values(tag 0) ++ values(tag 1) ++ ... with the big side's
    // values at mapjoin_big_tag. Probe keys are evaluated over the big row
    // once; every small side is probed before anything is copied, so a
    // big row an inner side rejects costs no value evaluation. A NULL probe
    // key never matches (inner) / pads (outer).
    Row out;
    out.reserve(desc_->output_width);
    bool null_key = false;
    key_.clear();
    for (const ExprPtr& e : desc_->mapjoin_probe_keys) {
      out.push_back(e->Eval(row));
      if (out.back().is_null()) null_key = true;
      mr::AppendKeyValue(&key_, out.back(), e->result_type(),
                         /*ascending=*/true);
    }
    // All sides share the join key tuple of the converted 2-way join.
    matches_.assign(desc_->mapjoin_small_sides.size(),
                    MapJoinHashTable::kNoRow);
    for (size_t s = 0; s < matches_.size(); ++s) {
      if (!null_key) matches_[s] = (*tables_)[s]->Find(key_);
      if (matches_[s] == MapJoinHashTable::kNoRow &&
          desc_->mapjoin_small_sides[s].side == JoinSideKind::kInner) {
        return Status::OK();
      }
    }
    big_values_.clear();
    for (const ExprPtr& e : desc_->mapjoin_big_values) {
      big_values_.push_back(e->Eval(row));
    }
    return Expand(/*next_tag=*/0, /*side_index=*/0, &out);
  }

 private:
  /// Emits one output row per combination of small-side matches, walking
  /// tag slots in order so the layout matches the original reduce join.
  Status Expand(int next_tag, size_t side_index, Row* out) {
    int total_tags =
        static_cast<int>(desc_->mapjoin_small_sides.size()) + 1;
    if (next_tag == total_tags) return ForwardRow(*out);
    size_t base = out->size();
    if (next_tag == desc_->mapjoin_big_tag) {
      out->insert(out->end(), big_values_.begin(), big_values_.end());
      MINIHIVE_RETURN_IF_ERROR(Expand(next_tag + 1, side_index, out));
      out->resize(base);
      return Status::OK();
    }
    const uint32_t first = matches_[side_index];
    if (first == MapJoinHashTable::kNoRow) {  // Unmatched outer side.
      out->insert(out->end(),
                  desc_->mapjoin_small_sides[side_index].build_values.size(),
                  Value::Null());
      MINIHIVE_RETURN_IF_ERROR(Expand(next_tag + 1, side_index + 1, out));
      out->resize(base);
      return Status::OK();
    }
    const MapJoinHashTable& table = *(*tables_)[side_index];
    for (uint32_t r = first; r != MapJoinHashTable::kNoRow;
         r = table.next_row[r]) {
      for (const MapJoinColumn& column : table.columns) {
        out->push_back(column.Get(r));
      }
      MINIHIVE_RETURN_IF_ERROR(Expand(next_tag + 1, side_index + 1, out));
      out->resize(base);
    }
    return Status::OK();
  }

  // Per-row scratch: the probe key's bytes, each small side's first
  // matching build row (kNoRow = none) and the big side's evaluated values.
  std::string key_;
  std::vector<uint32_t> matches_;
  Row big_values_;
  const MapJoinTables* tables_ = nullptr;
};

// ---------------------------------------------------------------- ReduceSink

class ReduceSinkOperator : public Operator {
 public:
  using Operator::Operator;

  Status Init(TaskContext* ctx) override {
    MINIHIVE_RETURN_IF_ERROR(Operator::Init(ctx));
    if (ctx->emitter == nullptr) {
      return Status::Internal("ReduceSink without a shuffle emitter");
    }
    return Status::OK();
  }

  /// Writes the shuffle record's key and value bytes straight from the
  /// evaluated expressions, each key column by its declared type.
  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    key_.clear();
    for (size_t k = 0; k < desc_->sink_keys.size(); ++k) {
      const ExprPtr& e = desc_->sink_keys[k];
      mr::AppendKeyValue(&key_, e->Eval(row), e->result_type(),
                         desc_->SinkAscending(k));
    }
    value_.clear();
    for (const ExprPtr& e : desc_->sink_values) {
      serde::VariantEncodeValue(e->Eval(row), &value_);
    }
    return ctx_->emitter->Emit(key_, value_, desc_->sink_tag);
  }

 private:
  std::string key_;
  std::string value_;
};

// ---------------------------------------------------------------- FileSink

class FileSinkOperator : public Operator {
 public:
  using Operator::Operator;

  Status DoProcess(const Row& row, int tag) override {
    (void)tag;
    if (writer_ == nullptr) {
      // Lazy creation: tasks that produce no rows write no file.
      const formats::FileFormat* format =
          formats::GetFileFormat(desc_->sink_format);
      formats::WriterOptions options;
      options.compression = desc_->sink_compression;
      std::string path = AttemptPartName(desc_->sink_path_prefix,
                                         ctx_->task_suffix, ctx_->attempt);
      MINIHIVE_ASSIGN_OR_RETURN(
          writer_, format->CreateWriter(ctx_->fs, path, desc_->sink_schema,
                                        options));
    }
    return writer_->AddRow(row);
  }

  Status DoFinish() override {
    if (writer_ != nullptr) {
      MINIHIVE_RETURN_IF_ERROR(writer_->Close());
      writer_.reset();
    }
    return Operator::DoFinish();
  }

 private:
  std::unique_ptr<formats::FileWriter> writer_;
};

// ---------------------------------------------------------------- Demux

/// Reduce-phase entry for correlation-optimized plans (paper Figure 5):
/// restores original tags and dispatches rows to the right child pipeline.
class DemuxOperator : public Operator {
 public:
  using Operator::Operator;

  Status DoProcess(const Row& row, int tag) override {
    if (tag < 0 || static_cast<size_t>(tag) >= desc_->demux_routes.size()) {
      return Status::Internal("demux: unknown new tag " + std::to_string(tag));
    }
    for (const OpDesc::DemuxRoute& route : desc_->demux_routes[tag]) {
      MINIHIVE_RETURN_IF_ERROR(
          children_[route.child_index]->Process(row, route.old_tag));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------- Mux

/// Multi-parent funnel in front of a reduce-side GroupBy or Join in a
/// correlation-optimized plan. Coordinates group signals: the child sees
/// StartGroup/EndGroup only after every parent delivered the signal, at
/// which point the child flushes its group state (paper §5.2.2).
class MuxOperator : public Operator {
 public:
  using Operator::Operator;

  void set_num_parents(int n) { num_parents_ = n; }

  /// A row from parent slot `parent_index` (through its edge proxy).
  Status ProcessFrom(int parent_index, const Row& row, int tag) {
    parent_index_ = parent_index;
    return Process(row, tag);
  }

  Status DoProcess(const Row& row, int tag) override {
    // A direct Process (no proxy) means a single-parent Mux: slot 0.
    const size_t parent = parent_index_;
    parent_index_ = 0;
    int out_tag = tag;
    if (parent < desc_->mux_parent_tags.size() &&
        desc_->mux_parent_tags[parent] >= 0) {
      out_tag = desc_->mux_parent_tags[parent];
    }
    return ForwardRow(row, out_tag);
  }

  Status DoStartGroup() override {
    if (++start_count_ < num_parents_) return Status::OK();
    start_count_ = 0;
    return Operator::DoStartGroup();
  }

  Status DoEndGroup() override {
    if (++end_count_ < num_parents_) return Status::OK();
    end_count_ = 0;
    return Operator::DoEndGroup();
  }

  Status DoFinish() override {
    if (++finish_count_ < num_parents_) return Status::OK();
    finish_count_ = 0;
    return Operator::DoFinish();
  }

 private:
  int num_parents_ = 1;
  int parent_index_ = 0;  // The slot of the row being processed.
  int start_count_ = 0;
  int end_count_ = 0;
  int finish_count_ = 0;
};

/// Edge proxy giving MuxOperator the identity of the calling parent.
class MuxInputProxy : public Operator {
 public:
  MuxInputProxy(const OpDesc* desc, MuxOperator* mux, int parent_index)
      : Operator(desc), mux_(mux), parent_index_(parent_index) {}

  Status Init(TaskContext* ctx) override {
    ctx_ = ctx;
    return mux_->Init(ctx);
  }

  Status DoProcess(const Row& row, int tag) override {
    return mux_->ProcessFrom(parent_index_, row, tag);
  }
  Status DoStartGroup() override { return mux_->StartGroup(); }
  Status DoEndGroup() override { return mux_->EndGroup(); }
  Status DoFinish() override { return mux_->Finish(); }

 private:
  MuxOperator* mux_;
  int parent_index_;
};

// ---------------------------------------------------------------- builder

struct BuildState {
  OperatorArena* arena;
  std::unordered_map<const OpDesc*, Operator*> built;
  /// Edges already wired per (parent, mux child) pair, so repeated edges
  /// between the same pair resolve to successive parent slots.
  std::map<std::pair<const OpDesc*, const OpDesc*>, int> mux_edges_built;
};

/// The parent slot of `parent` within `child`'s parents list, honouring
/// duplicates: the n-th edge from the same parent takes the n-th slot.
int ParentSlot(const OpDesc* parent, const OpDesc* child, int nth) {
  int seen = 0;
  for (size_t i = 0; i < child->parents.size(); ++i) {
    if (child->parents[i] == parent) {
      if (seen == nth) return static_cast<int>(i);
      ++seen;
    }
  }
  return -1;
}

Result<Operator*> BuildNode(const OpDesc* desc, BuildState* state);

Status BuildChildren(const OpDesc* desc, Operator* op, BuildState* state) {
  for (const OpDescPtr& child : desc->children) {
    if (child->kind == OpKind::kMux) {
      // Each parent edge gets its own proxy carrying the parent slot, which
      // indexes mux_parent_tags and the signal-coordination counters.
      MINIHIVE_ASSIGN_OR_RETURN(Operator * mux_core, BuildNode(child.get(),
                                                               state));
      int nth = state->mux_edges_built[{desc, child.get()}]++;
      int parent_index = ParentSlot(desc, child.get(), nth);
      if (parent_index < 0) {
        return Status::Internal("mux parent edge not found in plan");
      }
      auto proxy = std::make_unique<MuxInputProxy>(
          child.get(), static_cast<MuxOperator*>(mux_core), parent_index);
      op->AddChild(state->arena->Add(std::move(proxy)));
    } else {
      MINIHIVE_ASSIGN_OR_RETURN(Operator * built, BuildNode(child.get(),
                                                            state));
      op->AddChild(built);
    }
  }
  return Status::OK();
}

Result<Operator*> BuildNode(const OpDesc* desc, BuildState* state) {
  auto it = state->built.find(desc);
  if (it != state->built.end()) return it->second;
  std::unique_ptr<Operator> op;
  switch (desc->kind) {
    case OpKind::kTableScan:
      op = std::make_unique<TableScanOperator>(desc);
      break;
    case OpKind::kFilter:
      op = std::make_unique<FilterOperator>(desc);
      break;
    case OpKind::kSelect:
      op = std::make_unique<SelectOperator>(desc);
      break;
    case OpKind::kLimit:
      op = std::make_unique<LimitOperator>(desc);
      break;
    case OpKind::kGroupBy:
      op = std::make_unique<GroupByOperator>(desc);
      break;
    case OpKind::kJoin:
      op = std::make_unique<JoinOperator>(desc);
      break;
    case OpKind::kMapJoin:
      op = std::make_unique<MapJoinOperator>(desc);
      break;
    case OpKind::kReduceSink:
      op = std::make_unique<ReduceSinkOperator>(desc);
      break;
    case OpKind::kFileSink:
      op = std::make_unique<FileSinkOperator>(desc);
      break;
    case OpKind::kDemux:
      op = std::make_unique<DemuxOperator>(desc);
      break;
    case OpKind::kMux: {
      auto mux = std::make_unique<MuxOperator>(desc);
      mux->set_num_parents(static_cast<int>(desc->parents.size()));
      op = std::move(mux);
      break;
    }
  }
  Operator* raw = state->arena->Add(std::move(op));
  state->built[desc] = raw;
  // A ReduceSink ends the map-side pipeline: its children belong to the
  // downstream job's reduce phase and are built there, not here.
  if (desc->kind != OpKind::kReduceSink) {
    MINIHIVE_RETURN_IF_ERROR(BuildChildren(desc, raw, state));
  }
  return raw;
}

}  // namespace

Result<Operator*> BuildOperatorTree(
    const OpDesc* desc, OperatorArena* arena,
    std::unordered_map<const OpDesc*, Operator*>* built) {
  BuildState state;
  state.arena = arena;
  MINIHIVE_ASSIGN_OR_RETURN(Operator * root, BuildNode(desc, &state));
  if (built != nullptr) *built = state.built;
  return root;
}

Result<std::shared_ptr<MapJoinTables>> BuildMapJoinTables(
    dfs::FileSystem* fs, const OpDesc& desc, const TableResolver& resolve,
    bool late_materialization, const QueryContext* query,
    mr::JobCounters* counters) {
  auto tables = std::make_shared<MapJoinTables>();
  uint64_t rows_scanned = 0;
  for (const auto& side : desc.mapjoin_small_sides) {
    MINIHIVE_ASSIGN_OR_RETURN(SmallTableSource source,
                              resolve(side.table_name));
    auto table = std::make_shared<MapJoinHashTable>();
    for (const ExprPtr& e : side.build_values) {
      table->columns.emplace_back(e->result_type());
    }
    const formats::FileFormat* format = formats::GetFileFormat(source.format);
    for (const std::string& path : source.paths) {
      formats::ReadOptions options;
      options.projected_columns = side.projection;
      options.sarg = side.sarg.get();
      options.enable_late_materialization = late_materialization;
      options.delete_bitmap = FindDeleteBitmap(&source.delete_bitmaps, path);
      options.counters = counters;
      MINIHIVE_ASSIGN_OR_RETURN(
          std::unique_ptr<formats::RowReader> reader,
          format->OpenReader(fs, path, source.schema, options));
      Row row;
      while (true) {
        if (query != nullptr && (++rows_scanned & 511u) == 0) {
          MINIHIVE_RETURN_IF_ERROR(query->CheckAlive());
        }
        MINIHIVE_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
        if (!more) break;
        if (side.build_filter != nullptr) {
          Value v = side.build_filter->Eval(row);
          if (v.is_null() || !v.AsBool()) continue;
        }
        Row key;
        key.reserve(side.build_keys.size());
        std::string key_bytes;
        for (const ExprPtr& e : side.build_keys) {
          key.push_back(e->Eval(row));
          mr::AppendKeyValue(&key_bytes, key.back(), e->result_type(),
                             /*ascending=*/true);
        }
        Row value;
        value.reserve(side.build_values.size());
        for (const ExprPtr& e : side.build_values) {
          value.push_back(e->Eval(row));
        }
        table->approx_bytes += mr::EstimateRowBytes(key) +
                               mr::EstimateRowBytes(value) + 32;
        // Charged while building, not after, so an oversized build side
        // cannot balloon memory before being caught; in chunks (one CAS per
        // ~256 KiB grown). Exhaustion is a determinate ResourceExhausted.
        if (query != nullptr && query->memory_budget() != nullptr) {
          MINIHIVE_RETURN_IF_ERROR(table->reservation.CoverAtLeast(
              query->memory_budget(), table->approx_bytes));
        }
        MINIHIVE_RETURN_IF_ERROR(table->Add(std::move(key_bytes), value));
      }
    }
    tables->push_back(std::move(table));
  }
  return tables;
}

}  // namespace minihive::exec
