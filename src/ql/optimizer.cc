#include "ql/optimizer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "orc/reader.h"

namespace minihive::ql {

namespace {

using exec::CollectOps;
using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;
using exec::MakeOp;
using exec::OpDesc;
using exec::OpDescPtr;
using exec::OpKind;

Result<OpDescPtr> SharedPtrOf(OpDesc* raw, const std::vector<OpDescPtr>& ops) {
  for (const OpDescPtr& op : ops) {
    if (op.get() == raw) return op;
  }
  return Status::Internal("descriptor not found in plan");
}

/// Replaces parent's child edge old_child -> new_child (fixing back edges).
void ReplaceChildEdge(OpDesc* parent, const OpDesc* old_child,
                      const OpDescPtr& new_child) {
  for (OpDescPtr& child : parent->children) {
    if (child.get() == old_child) {
      child = new_child;
      new_child->parents.push_back(parent);
      return;
    }
  }
}

void DropParentEdge(OpDesc* child, const OpDesc* parent) {
  auto& parents = child->parents;
  parents.erase(std::remove(parents.begin(), parents.end(), parent),
                parents.end());
}

// ====================================================================
// Column pruning + SARG pushdown
// ====================================================================

/// Tries to turn one filter conjunct into a SARG leaf over a scan column.
bool ToSargLeaf(const Expr& e, orc::LeafPredicate* leaf) {
  auto column_of = [](const Expr& x) {
    return x.kind() == ExprKind::kColumn ? x.column_index() : -1;
  };
  auto literal_of = [](const Expr& x, Value* v) {
    if (x.kind() != ExprKind::kLiteral) return false;
    *v = x.literal();
    return true;
  };
  switch (e.kind()) {
    case ExprKind::kEq:
    case ExprKind::kNe:
    case ExprKind::kLt:
    case ExprKind::kLe:
    case ExprKind::kGt:
    case ExprKind::kGe: {
      int col = column_of(*e.children()[0]);
      Value lit;
      bool flipped = false;
      if (col < 0) {
        col = column_of(*e.children()[1]);
        if (col < 0 || !literal_of(*e.children()[0], &lit)) return false;
        flipped = true;
      } else if (!literal_of(*e.children()[1], &lit)) {
        return false;
      }
      leaf->column = col;
      leaf->literal = lit;
      switch (e.kind()) {
        case ExprKind::kEq: leaf->op = orc::PredicateOp::kEquals; break;
        case ExprKind::kNe: leaf->op = orc::PredicateOp::kNotEquals; break;
        case ExprKind::kLt:
          leaf->op = flipped ? orc::PredicateOp::kGreaterThan
                             : orc::PredicateOp::kLessThan;
          break;
        case ExprKind::kLe:
          leaf->op = flipped ? orc::PredicateOp::kGreaterThanEquals
                             : orc::PredicateOp::kLessThanEquals;
          break;
        case ExprKind::kGt:
          leaf->op = flipped ? orc::PredicateOp::kLessThan
                             : orc::PredicateOp::kGreaterThan;
          break;
        default:
          leaf->op = flipped ? orc::PredicateOp::kLessThanEquals
                             : orc::PredicateOp::kGreaterThanEquals;
          break;
      }
      return true;
    }
    case ExprKind::kBetween: {
      int col = column_of(*e.children()[0]);
      Value lo, hi;
      if (col < 0 || !literal_of(*e.children()[1], &lo) ||
          !literal_of(*e.children()[2], &hi)) {
        return false;
      }
      leaf->column = col;
      leaf->op = orc::PredicateOp::kBetween;
      leaf->literal = lo;
      leaf->literal2 = hi;
      return true;
    }
    case ExprKind::kIn: {
      int col = column_of(*e.children()[0]);
      if (col < 0) return false;
      std::vector<Value> list;
      for (size_t i = 1; i < e.children().size(); ++i) {
        Value v;
        if (!literal_of(*e.children()[i], &v)) return false;
        list.push_back(v);
      }
      leaf->column = col;
      leaf->op = orc::PredicateOp::kIn;
      leaf->in_list = std::move(list);
      return true;
    }
    case ExprKind::kIsNull: {
      int col = column_of(*e.children()[0]);
      if (col < 0) return false;
      leaf->column = col;
      leaf->op = orc::PredicateOp::kIsNull;
      return true;
    }
    case ExprKind::kIsNotNull: {
      int col = column_of(*e.children()[0]);
      if (col < 0) return false;
      leaf->column = col;
      leaf->op = orc::PredicateOp::kIsNotNull;
      return true;
    }
    default:
      return false;
  }
}

void CollectConjunctExprs(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kAnd) {
    CollectConjunctExprs(e->children()[0], out);
    CollectConjunctExprs(e->children()[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr AndOf(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out == nullptr ? c : Expr::Binary(ExprKind::kAnd, out, c);
  }
  return out;
}

/// Removes a single-parent, single-child Filter from the plan.
void SpliceOutFilter(const OpDescPtr& filter) {
  OpDesc* parent = filter->parents[0];
  OpDescPtr child = filter->children[0];
  ReplaceChildEdge(parent, filter.get(), child);
  DropParentEdge(child.get(), filter.get());
}

/// The ReduceSink feeding each tag of a reduce Join, or empty when its
/// inputs are not exactly one tagged ReduceSink per tag.
std::vector<OpDesc*> JoinInputsByTag(const OpDesc& join) {
  int n = join.join_num_inputs;
  std::vector<OpDesc*> by_tag(n, nullptr);
  if (static_cast<int>(join.parents.size()) != n ||
      static_cast<int>(join.join_value_widths.size()) != n) {
    return {};
  }
  for (OpDesc* parent : join.parents) {
    if (parent->kind != OpKind::kReduceSink || parent->sink_tag < 0 ||
        parent->sink_tag >= n || by_tag[parent->sink_tag] != nullptr) {
      return {};
    }
    by_tag[parent->sink_tag] = parent;
  }
  return by_tag;
}

/// Moves the conjuncts of the Filter chain directly above `join` (a
/// two-input Join fed by tagged ReduceSinks) onto the join input whose value
/// columns they reference: each lands in a new Filter just above that
/// input's ReduceSink, remapped through the sink's column values. Tag 0 is
/// an inner or the preserved side; tag 1 qualifies only for inner joins.
/// Cross-side and constant conjuncts stay. Returns true if anything moved.
bool PushFiltersBelowJoin(OpDesc* join) {
  std::vector<OpDesc*> rs_by_tag = JoinInputsByTag(*join);
  if (rs_by_tag.size() != 2 || join->join_sides.size() != 2) return false;
  // mapping[t][c]: join output column c -> input column of tag t, or -1.
  std::vector<int> mapping[2];
  int offset = join->join_key_width;
  for (int t = 0; t < 2; ++t) {
    mapping[t].assign(join->output_width, -1);
    const OpDesc* rs = rs_by_tag[t];
    bool eligible =
        t == 0 || join->join_sides[1] == exec::JoinSideKind::kInner;
    int width = join->join_value_widths[t];
    for (int v = 0; eligible && v < width; ++v) {
      if (v < static_cast<int>(rs->sink_values.size()) &&
          rs->sink_values[v]->kind() == ExprKind::kColumn &&
          offset + v < join->output_width) {
        mapping[t][offset + v] = rs->sink_values[v]->column_index();
      }
    }
    offset += width;
  }

  bool moved = false;
  std::vector<ExprPtr> pushed[2];
  OpDesc* cur = join;
  while (cur->children.size() == 1 &&
         cur->children[0]->kind == OpKind::kFilter &&
         cur->children[0]->parents.size() == 1) {
    OpDescPtr filter = cur->children[0];
    std::vector<ExprPtr> conjuncts, kept;
    CollectConjunctExprs(filter->predicate, &conjuncts);
    for (const ExprPtr& c : conjuncts) {
      std::vector<int> columns;
      c->CollectColumns(&columns);
      int target = -1;
      for (int t = 0; t < 2 && target < 0 && !columns.empty(); ++t) {
        bool all_mapped = true;
        for (int col : columns) {
          if (col < 0 || col >= join->output_width || mapping[t][col] < 0) {
            all_mapped = false;
          }
        }
        if (all_mapped) target = t;
      }
      if (target < 0) {
        kept.push_back(c);
      } else {
        pushed[target].push_back(c->RemapColumns(mapping[target]));
      }
    }
    if (kept.size() == conjuncts.size()) {
      cur = filter.get();
      continue;
    }
    moved = true;
    if (kept.empty()) {
      SpliceOutFilter(filter);  // `cur` keeps its place in the chain.
    } else {
      filter->predicate = AndOf(kept);
      cur = filter.get();
    }
  }
  for (int t = 0; t < 2; ++t) {
    if (pushed[t].empty()) continue;
    OpDescPtr filter = MakeOp(OpKind::kFilter);
    filter->predicate = AndOf(pushed[t]);
    filter->output_width = rs_by_tag[t]->parents[0]->output_width;
    OpDesc::InsertAbove(rs_by_tag[t], filter);
  }
  return moved;
}

/// Signature of a bottom map pipeline, for input-correlation dedup.
std::string PipelineSignature(const OpDesc* rs) {
  std::string sig;
  const OpDesc* cur = rs;
  std::vector<std::string> parts;
  {
    std::string rs_part = "RS(keys:";
    for (const ExprPtr& e : rs->sink_keys) rs_part += e->ToString() + ",";
    rs_part += " values:";
    for (const ExprPtr& e : rs->sink_values) rs_part += e->ToString() + ",";
    rs_part += ")";
    parts.push_back(rs_part);
  }
  while (true) {
    if (cur->parents.size() != 1) return "";  // Not dedupable.
    const OpDesc* parent = cur->parents[0];
    switch (parent->kind) {
      case OpKind::kFilter:
        parts.push_back("FIL(" + parent->predicate->ToString() + ")");
        break;
      case OpKind::kSelect: {
        std::string p = "SEL(";
        for (const ExprPtr& e : parent->projections) p += e->ToString() + ",";
        parts.push_back(p + ")");
        break;
      }
      case OpKind::kTableScan: {
        if (!parent->scan_temp_prefix.empty()) return "";
        std::string p = "TS(" + parent->table_name + " proj:";
        for (int c : parent->scan_projection) p += std::to_string(c) + ",";
        parts.push_back(p + ")");
        for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
          sig += *it + "|";
        }
        return sig;
      }
      default:
        return "";  // MapJoins etc. are not deduped.
    }
    cur = parent;
  }
}

// ---- One Filter per edge

/// Appends the conjuncts of `predicate` whose text is not in `conjuncts`
/// yet; returns whether any was a repeat.
bool AddDistinctConjuncts(const ExprPtr& predicate,
                          std::vector<ExprPtr>* conjuncts) {
  std::vector<ExprPtr> split;
  CollectConjunctExprs(predicate, &split);
  bool repeated = false;
  for (const ExprPtr& c : split) {
    std::string text = c->ToString();
    if (std::any_of(conjuncts->begin(), conjuncts->end(),
                    [&](const ExprPtr& e) { return e->ToString() == text; })) {
      repeated = true;
    } else {
      conjuncts->push_back(c);
    }
  }
  return repeated;
}

/// Folds every Filter into a Filter parent it is the only child of, and
/// drops repeated conjuncts (same text): each row then pays one predicate
/// evaluation per edge. The upstream Filter's conjuncts come first.
void MergeAdjacentFilters(const std::vector<OpDescPtr>& ops) {
  for (const OpDescPtr& op : ops) {
    if (op->kind != OpKind::kFilter || op->parents.size() != 1 ||
        op->children.size() != 1) {
      continue;  // Not a Filter, or already folded away.
    }
    OpDesc* parent = op->parents[0];
    bool fold = parent->kind == OpKind::kFilter && parent->children.size() == 1;
    std::vector<ExprPtr> conjuncts;
    if (fold) AddDistinctConjuncts(parent->predicate, &conjuncts);
    bool repeated = AddDistinctConjuncts(op->predicate, &conjuncts);
    if (fold) {
      parent->predicate = AndOf(conjuncts);
      SpliceOutFilter(op);
      op->parents.clear();
      op->children.clear();
    } else if (repeated) {
      op->predicate = AndOf(conjuncts);
    }
  }
}

// ---- Column pruning (Hive's ColumnPruner)

/// Per operator: which of its output columns some consumer reads.
using NeedMap = std::unordered_map<const OpDesc*, std::vector<bool>>;
/// Per operator: old output column -> new output column, or -1 if pruned.
using ColumnMaps = std::unordered_map<const OpDesc*, std::vector<int>>;

/// Parents before children (reverse DFS post-order over child edges).
std::vector<OpDescPtr> TopologicalOrder(const std::vector<OpDescPtr>& roots) {
  std::vector<OpDescPtr> post;
  std::set<const OpDesc*> seen;
  std::function<void(const OpDescPtr&)> visit = [&](const OpDescPtr& op) {
    if (!seen.insert(op.get()).second) return;
    for (const OpDescPtr& child : op->children) visit(child);
    post.push_back(op);
  };
  for (const OpDescPtr& root : roots) visit(root);
  std::reverse(post.begin(), post.end());
  return post;
}

void MarkColumns(const Expr& e, std::vector<bool>* need) {
  std::vector<int> columns;
  e.CollectColumns(&columns);
  for (int c : columns) {
    if (c >= 0 && c < static_cast<int>(need->size())) (*need)[c] = true;
  }
}

/// The projections a Select keeps: the needed ones, or its first if none
/// is, so a row never becomes zero-width.
std::vector<bool> SelectKeeps(const OpDesc& select,
                              const std::vector<bool>& out) {
  std::vector<bool> keep = out;
  keep.resize(select.projections.size(), false);
  if (!keep.empty() && std::find(keep.begin(), keep.end(), true) == keep.end()) {
    keep[0] = true;
  }
  return keep;
}

/// ORs `from` into `*into`; returns whether `*into` grew.
bool OrInto(const std::vector<bool>& from, std::vector<bool>* into) {
  bool grew = false;
  for (size_t i = 0; i < from.size() && i < into->size(); ++i) {
    if (from[i] && !(*into)[i]) (*into)[i] = grew = true;
  }
  return grew;
}

/// Backward step: ORs into each parent's needs the columns `op` reads of
/// it, given the columns of `op`'s output that are needed. Returns whether
/// any parent's needs grew.
bool PropagateNeeds(const OpDesc& op, NeedMap* needs) {
  const std::vector<bool> out = needs->at(&op);
  std::vector<OpDesc*> inputs;
  if (op.kind == OpKind::kJoin) inputs = JoinInputsByTag(op);
  if (!inputs.empty()) {
    // keys | values(tag 0) | values(tag 1) | ...: each RS ships its keys
    // and the values read downstream or by the residual.
    std::vector<bool> read = out;
    if (op.join_residual != nullptr) MarkColumns(*op.join_residual, &read);
    bool grew = false;
    int k = op.join_key_width;
    int offset = k;
    for (size_t t = 0; t < inputs.size(); ++t) {
      std::vector<bool> in(inputs[t]->output_width, false);
      for (int i = 0; i < static_cast<int>(in.size()); ++i) {
        int col = i < k ? -1 : offset + i - k;
        in[i] = col < 0 || (col < static_cast<int>(read.size()) && read[col]);
      }
      offset += op.join_value_widths[t];
      grew = OrInto(in, &needs->at(inputs[t])) || grew;
    }
    return grew;
  }
  if (op.parents.size() != 1) {  // A Mux, or a Join of another shape.
    bool grew = false;
    for (const OpDesc* parent : op.parents) {
      grew = OrInto(std::vector<bool>(parent->output_width, true),
                    &needs->at(parent)) || grew;
    }
    return grew;
  }
  const OpDesc* parent = op.parents[0];
  std::vector<bool> in(parent->output_width, false);
  switch (op.kind) {
    case OpKind::kFilter:
      OrInto(out, &in);
      MarkColumns(*op.predicate, &in);
      break;
    case OpKind::kLimit:
      OrInto(out, &in);
      break;
    case OpKind::kSelect: {
      std::vector<bool> keep = SelectKeeps(op, out);
      for (size_t j = 0; j < keep.size(); ++j) {
        if (keep[j]) MarkColumns(*op.projections[j], &in);
      }
      break;
    }
    case OpKind::kGroupBy:
      if (op.group_by_mode == exec::GroupByMode::kMergePartial) {
        in.assign(in.size(), true);  // Every partial, by offset.
        break;
      }
      for (const ExprPtr& e : op.group_keys) MarkColumns(*e, &in);
      for (const exec::AggDesc& a : op.aggs) {
        if (a.arg != nullptr) MarkColumns(*a.arg, &in);
      }
      break;
    case OpKind::kReduceSink: {
      size_t k = op.sink_keys.size();
      for (const ExprPtr& e : op.sink_keys) MarkColumns(*e, &in);
      for (size_t v = 0; v < op.sink_values.size(); ++v) {
        if (k + v < out.size() && out[k + v]) {
          MarkColumns(*op.sink_values[v], &in);
        }
      }
      break;
    }
    default:  // A FileSink needs its full row; so does anything unmodelled.
      in.assign(in.size(), true);
      break;
  }
  return OrInto(in, &needs->at(parent));
}

/// Remaps `e` through `map`, failing if it reads a pruned column.
Result<ExprPtr> Remapped(const ExprPtr& e, const std::vector<int>& map) {
  ExprPtr out = e->RemapColumns(map);
  std::vector<int> columns;
  out->CollectColumns(&columns);
  if (!columns.empty() && columns[0] < 0) {
    return Status::Internal("column pruning dropped a column " +
                            e->ToString() + " reads");
  }
  return out;
}

Status RemapAll(std::vector<ExprPtr>* exprs, const std::vector<int>& map) {
  for (ExprPtr& e : *exprs) {
    MINIHIVE_ASSIGN_OR_RETURN(e, Remapped(e, map));
  }
  return Status::OK();
}

std::vector<int> IdentityMap(int width) {
  std::vector<int> map(width);
  for (int i = 0; i < width; ++i) map[i] = i;
  return map;
}

/// Forward step: narrows `op`'s output to its needed columns (scan
/// projection, Select list, ReduceSink values, Join value widths) and
/// remaps its expressions through its inputs' maps. Returns the old -> new
/// map of its output.
Result<std::vector<int>> ApplyNeeds(OpDesc* op, const NeedMap& needs,
                                    const ColumnMaps& maps) {
  const std::vector<bool>& out = needs.at(op);
  if (op->kind == OpKind::kTableScan) {
    // Scans emit full-width rows (unread columns NULL), so the layout holds.
    // Empty means every column: all are read, or none is (COUNT(*)).
    std::vector<int> used;
    for (int c = 0; c < op->output_width; ++c) {
      if (out[c]) used.push_back(c);
    }
    if (op->scan_temp_prefix.empty()) {
      op->scan_projection.clear();
      if (static_cast<int>(used.size()) < op->table_width) {
        op->scan_projection = used;
      }
    }
    return IdentityMap(op->output_width);
  }
  std::vector<OpDesc*> inputs;
  if (op->kind == OpKind::kJoin) inputs = JoinInputsByTag(*op);
  if (!inputs.empty()) {
    int k = op->join_key_width;
    std::vector<int> map(op->output_width, -1);
    for (int i = 0; i < k && i < op->output_width; ++i) map[i] = i;
    int old_offset = k, new_offset = k;
    for (size_t t = 0; t < inputs.size(); ++t) {
      const std::vector<int>& in = maps.at(inputs[t]);
      for (int v = 0; v < op->join_value_widths[t]; ++v) {
        if (k + v < static_cast<int>(in.size()) && in[k + v] >= 0 &&
            old_offset + v < op->output_width) {
          map[old_offset + v] = new_offset + in[k + v] - k;
        }
      }
      old_offset += op->join_value_widths[t];
      op->join_value_widths[t] = inputs[t]->output_width - k;
      new_offset += op->join_value_widths[t];
    }
    op->output_width = new_offset;
    if (op->join_residual != nullptr) {
      MINIHIVE_ASSIGN_OR_RETURN(op->join_residual,
                                Remapped(op->join_residual, map));
    }
    return map;
  }
  if (op->parents.size() != 1) return IdentityMap(op->output_width);
  const OpDesc* parent = op->parents[0];
  const std::vector<int>& in = maps.at(parent);
  switch (op->kind) {
    case OpKind::kFilter: {
      MINIHIVE_ASSIGN_OR_RETURN(op->predicate, Remapped(op->predicate, in));
      op->output_width = parent->output_width;
      return in;
    }
    case OpKind::kLimit:
      op->output_width = parent->output_width;
      return in;
    case OpKind::kSelect: {
      std::vector<bool> keep = SelectKeeps(*op, out);
      std::vector<int> map(op->projections.size(), -1);
      std::vector<ExprPtr> kept;
      for (size_t j = 0; j < keep.size(); ++j) {
        if (!keep[j]) continue;
        map[j] = static_cast<int>(kept.size());
        kept.push_back(op->projections[j]);
      }
      MINIHIVE_RETURN_IF_ERROR(RemapAll(&kept, in));
      op->projections = std::move(kept);
      op->output_width = static_cast<int>(op->projections.size());
      return map;
    }
    case OpKind::kGroupBy: {
      // A merge reads partials by offset and needs every input column (see
      // PropagateNeeds), so its input keeps its layout: nothing to remap.
      if (op->group_by_mode == exec::GroupByMode::kMergePartial) {
        return IdentityMap(op->output_width);
      }
      MINIHIVE_RETURN_IF_ERROR(RemapAll(&op->group_keys, in));
      for (exec::AggDesc& a : op->aggs) {
        if (a.arg != nullptr) {
          MINIHIVE_ASSIGN_OR_RETURN(a.arg, Remapped(a.arg, in));
        }
      }
      return IdentityMap(op->output_width);
    }
    case OpKind::kReduceSink: {
      int k = static_cast<int>(op->sink_keys.size());
      std::vector<int> map(op->output_width, -1);
      for (int i = 0; i < k; ++i) map[i] = i;
      std::vector<ExprPtr> kept;
      for (size_t v = 0; v < op->sink_values.size(); ++v) {
        if (out[k + v]) {
          map[k + v] = k + static_cast<int>(kept.size());
          kept.push_back(op->sink_values[v]);
        }
      }
      MINIHIVE_RETURN_IF_ERROR(RemapAll(&op->sink_keys, in));
      MINIHIVE_RETURN_IF_ERROR(RemapAll(&kept, in));
      op->sink_values = std::move(kept);
      op->output_width = k + static_cast<int>(op->sink_values.size());
      return map;
    }
    default:
      // Opaque: it read every input column, so its input kept its layout.
      return IdentityMap(op->output_width);
  }
}

/// Hive's ColumnPruner as one pass. Walks from the FileSinks toward the
/// scans recording the columns each edge needs, then from the scans toward
/// the sinks narrows every edge to them. ReduceSinks whose map pipelines
/// are identical before pruning (PipelineSignature) are kept identical, so
/// the Correlation Optimizer's input-correlation dedup still finds them.
Status PruneColumns(PlannedQuery* plan) {
  std::vector<OpDescPtr> order = TopologicalOrder(plan->roots);
  std::map<std::string, std::vector<const OpDesc*>> twins;
  for (const OpDescPtr& op : order) {
    if (op->kind != OpKind::kReduceSink) continue;
    std::string sig = PipelineSignature(op.get());
    if (!sig.empty()) twins[sig].push_back(op.get());
  }
  NeedMap needs;
  for (const OpDescPtr& op : order) {
    needs[op.get()].assign(op->output_width, false);
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      grew = PropagateNeeds(**it, &needs) || grew;
    }
    for (const auto& [sig, members] : twins) {
      std::vector<bool> all(members[0]->output_width, false);
      for (const OpDesc* rs : members) OrInto(needs[rs], &all);
      for (const OpDesc* rs : members) grew = OrInto(all, &needs[rs]) || grew;
    }
  }
  ColumnMaps maps;
  for (const OpDescPtr& op : order) {
    MINIHIVE_ASSIGN_OR_RETURN(maps[op.get()],
                              ApplyNeeds(op.get(), needs, maps));
  }
  return Status::OK();
}

}  // namespace

Status PushdownIntoScans(PlannedQuery* plan, bool attach_sargs) {
  // Predicate pushdown through joins first, so every conjunct that can
  // reach a scan's chain does before the chain's Filters are folded.
  for (bool moved = attach_sargs; moved;) {
    moved = false;
    std::vector<OpDescPtr> ops = CollectOps(plan->roots);
    for (const OpDescPtr& op : ops) {
      if (op->kind == OpKind::kJoin) {
        moved = PushFiltersBelowJoin(op.get()) || moved;
      }
    }
  }
  MergeAdjacentFilters(CollectOps(plan->roots));
  MINIHIVE_RETURN_IF_ERROR(PruneColumns(plan));
  if (!attach_sargs) return Status::OK();
  for (const OpDescPtr& scan : plan->roots) {
    if (scan->kind != OpKind::kTableScan || !scan->scan_temp_prefix.empty() ||
        scan->children.size() != 1 ||
        scan->children[0]->kind != OpKind::kFilter) {
      continue;
    }
    // The scan's Filter (one per edge by now) holds its SARG-able conjuncts.
    auto sarg = std::make_shared<orc::SearchArgument>();
    std::vector<ExprPtr> conjuncts;
    CollectConjunctExprs(scan->children[0]->predicate, &conjuncts);
    for (const ExprPtr& c : conjuncts) {
      orc::LeafPredicate leaf;
      if (ToSargLeaf(*c, &leaf)) sarg->AddLeaf(std::move(leaf));
    }
    if (!sarg->empty()) scan->sarg = sarg;
  }
  return Status::OK();
}

// ====================================================================
// Map-join conversion (§5.1, first half)
// ====================================================================

namespace {

/// True when the side pipeline is TS(catalog)[<-Filter]* <- rs, returning
/// the scan and the combined filter.
bool MatchSmallSidePipeline(const OpDesc* rs, const OpDesc** scan,
                            ExprPtr* filter) {
  const OpDesc* cur = rs;
  ExprPtr combined;
  while (true) {
    if (cur->parents.size() != 1) return false;
    const OpDesc* parent = cur->parents[0];
    if (parent->kind == OpKind::kFilter) {
      combined = combined == nullptr
                     ? parent->predicate
                     : Expr::Binary(ExprKind::kAnd, parent->predicate,
                                    combined);
      cur = parent;
      continue;
    }
    if (parent->kind == OpKind::kTableScan &&
        parent->scan_temp_prefix.empty()) {
      *scan = parent;
      *filter = combined;
      return true;
    }
    return false;
  }
}

}  // namespace

Status ConvertMapJoins(PlannedQuery* plan, const Catalog* catalog,
                       uint64_t threshold_bytes) {
  bool changed = true;
  int tmp_index = 0;
  while (changed) {
    changed = false;
    std::vector<OpDescPtr> ops = CollectOps(plan->roots);
    for (const OpDescPtr& op : ops) {
      if (op->kind != OpKind::kJoin || op->join_num_inputs != 2) continue;
      std::vector<OpDesc*> rs_by_tag = JoinInputsByTag(*op);
      if (rs_by_tag.empty()) continue;

      // Which sides qualify as small?
      uint64_t side_bytes[2] = {UINT64_MAX, UINT64_MAX};
      const OpDesc* side_scan[2] = {nullptr, nullptr};
      ExprPtr side_filter[2];
      for (int t = 0; t < 2; ++t) {
        const OpDesc* scan = nullptr;
        ExprPtr filter;
        if (!MatchSmallSidePipeline(rs_by_tag[t], &scan, &filter)) continue;
        auto table = catalog->GetTable(scan->table_name);
        if (!table.ok()) continue;
        side_scan[t] = scan;
        side_filter[t] = filter;
        side_bytes[t] = catalog->TableBytes(**table);
      }
      int small_tag = -1;
      if (side_bytes[0] <= threshold_bytes || side_bytes[1] <= threshold_bytes) {
        small_tag = side_bytes[0] <= side_bytes[1] ? 0 : 1;
      }
      if (small_tag < 0) continue;
      // A LEFT OUTER join preserves tag 0; converting requires the
      // *preserved* side to stream (be the big side).
      bool left_outer = op->join_sides.size() > 1 &&
                        op->join_sides[1] == exec::JoinSideKind::kLeftOuter;
      if (left_outer && small_tag == 0) continue;
      int big_tag = 1 - small_tag;
      OpDesc* rs_small = rs_by_tag[small_tag];
      OpDesc* rs_big = rs_by_tag[big_tag];

      // Build the MapJoin descriptor.
      OpDescPtr mapjoin = MakeOp(OpKind::kMapJoin);
      OpDesc::MapJoinSmallSide side;
      side.table_name = side_scan[small_tag]->table_name;
      side.projection = side_scan[small_tag]->scan_projection;
      side.sarg = side_scan[small_tag]->sarg;
      side.build_filter = side_filter[small_tag];
      side.build_keys = rs_small->sink_keys;
      side.build_values = rs_small->sink_values;
      side.side = left_outer ? exec::JoinSideKind::kLeftOuter
                             : exec::JoinSideKind::kInner;
      mapjoin->mapjoin_small_sides.push_back(std::move(side));
      mapjoin->mapjoin_probe_keys = rs_big->sink_keys;
      mapjoin->mapjoin_big_values = rs_big->sink_values;
      mapjoin->mapjoin_big_tag = big_tag;
      mapjoin->mapjoin_hash_table_bytes = side_bytes[small_tag];
      mapjoin->output_width = op->output_width;

      // Splice the big pipeline: parent(rs_big) -> mapjoin -> join children.
      OpDesc* big_parent = rs_big->parents[0];
      ReplaceChildEdge(big_parent, rs_big, mapjoin);
      // Residual condition survives as a filter after the map join.
      OpDescPtr attach = mapjoin;
      if (op->join_residual != nullptr) {
        OpDescPtr residual = MakeOp(OpKind::kFilter);
        residual->predicate = op->join_residual;
        residual->output_width = op->output_width;
        OpDesc::Connect(mapjoin, residual);
        attach = residual;
      }
      // Emulate Hive's post-assembly conversion: the map join initially
      // lives in its own Map-only job writing an intermediate file
      // (paper §5.1); MergeMapOnlyJobs may later remove the break.
      std::string tmp = "/tmp/mapjoin-" + std::to_string(op->id) + "-" +
                        std::to_string(tmp_index++);
      OpDescPtr fs = MakeOp(OpKind::kFileSink);
      fs->sink_path_prefix = tmp;
      fs->sink_format = formats::FormatKind::kSequenceFile;
      fs->sink_schema = nullptr;
      fs->output_width = op->output_width;
      OpDesc::Connect(attach, fs);
      OpDescPtr ts = MakeOp(OpKind::kTableScan);
      ts->scan_temp_prefix = tmp;
      ts->table_width = op->output_width;
      ts->output_width = op->output_width;
      plan->roots.push_back(ts);
      plan->temp_dirs.push_back(tmp);
      for (const OpDescPtr& child : op->children) {
        ts->children.push_back(child);
        std::replace(child->parents.begin(), child->parents.end(),
                     static_cast<OpDesc*>(op.get()),
                     static_cast<OpDesc*>(ts.get()));
      }
      // Drop the small pipeline root from the plan.
      const OpDesc* small_root = side_scan[small_tag];
      // Walk up from rs_small to find the root scan (it is small_root).
      plan->roots.erase(
          std::remove_if(plan->roots.begin(), plan->roots.end(),
                         [&](const OpDescPtr& r) {
                           return r.get() == small_root;
                         }),
          plan->roots.end());
      changed = true;
      break;  // Restart with a fresh op list.
    }
  }
  return Status::OK();
}

// ====================================================================
// Merge Map-only jobs into their children (§5.1, second half)
// ====================================================================

namespace {

/// If the pipeline feeding `fs` is map-only (a single-parent chain up to a
/// TableScan with no ReduceSink), returns its scan; else null.
const OpDesc* MapOnlyProducer(const OpDesc* fs) {
  const OpDesc* cur = fs;
  while (true) {
    if (cur->parents.size() != 1) return nullptr;
    const OpDesc* parent = cur->parents[0];
    if (parent->kind == OpKind::kReduceSink) return nullptr;
    if (parent->kind == OpKind::kTableScan) return parent;
    cur = parent;
  }
}

/// True when everything downstream of `ts` reaches FileSinks without any
/// ReduceSink (the consuming job is map-only).
bool ConsumerIsMapOnly(const OpDesc* ts) {
  bool map_only = true;
  exec::WalkOps(ts->children, /*stop_at_reduce_sink=*/true,
                [&map_only](const OpDescPtr& op) {
                  if (op->kind == OpKind::kReduceSink) map_only = false;
                });
  return map_only;
}

/// Hash-table bytes of the map joins in the region below `scan`.
uint64_t SumHashTableBytes(const OpDesc* scan) {
  uint64_t total = 0;
  exec::WalkOps(scan->children, /*stop_at_reduce_sink=*/true,
                [&total](const OpDescPtr& op) {
                  if (op->kind == OpKind::kMapJoin) {
                    total += op->mapjoin_hash_table_bytes;
                  }
                });
  return total;
}

}  // namespace

Status MergeMapOnlyJobs(PlannedQuery* plan, uint64_t threshold_bytes) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<OpDescPtr> ops = CollectOps(plan->roots);
    // Map temp prefix -> consuming temp TableScan.
    std::map<std::string, OpDescPtr> temp_scans;
    for (const OpDescPtr& op : ops) {
      if (op->kind == OpKind::kTableScan && !op->scan_temp_prefix.empty()) {
        temp_scans[op->scan_temp_prefix] = op;
      }
    }
    for (const OpDescPtr& fs : ops) {
      if (fs->kind != OpKind::kFileSink || fs->sink_schema != nullptr) {
        continue;
      }
      auto it = temp_scans.find(fs->sink_path_prefix);
      if (it == temp_scans.end()) continue;
      const OpDesc* producer_scan = MapOnlyProducer(fs.get());
      OpDescPtr ts = it->second;
      // Merge when the producing side is a pure map pipeline, or when the
      // consuming side is map-only (its operators then run inside the
      // producer's map or reduce phase, as Hive does).
      if (producer_scan == nullptr && !ConsumerIsMapOnly(ts.get())) continue;
      // Threshold: total hash-table bytes after the merge must fit a task.
      uint64_t merged_bytes =
          SumHashTableBytes(ts.get()) +
          (producer_scan != nullptr ? SumHashTableBytes(producer_scan) : 0);
      if (merged_bytes > threshold_bytes) continue;
      // Splice out the FS/TS pair.
      OpDesc* fs_parent = fs->parents[0];
      if (ts->children.size() != 1) continue;
      OpDescPtr next = ts->children[0];
      for (OpDescPtr& child : fs_parent->children) {
        if (child.get() == fs.get()) {
          child = next;
          break;
        }
      }
      DropParentEdge(next.get(), ts.get());
      next->parents.push_back(fs_parent);
      plan->roots.erase(
          std::remove_if(plan->roots.begin(), plan->roots.end(),
                         [&](const OpDescPtr& r) { return r == ts; }),
          plan->roots.end());
      changed = true;
      break;
    }
  }
  return Status::OK();
}

// ====================================================================
// Metadata-only aggregation (§4.2)
// ====================================================================

Status TryAnswerFromStatistics(const PlannedQuery& plan,
                               const Catalog* catalog, bool* answered,
                               std::vector<Row>* rows,
                               mr::JobCounters* counters) {
  *answered = false;
  // Pattern: TS(orc table, no filter) -> GBY(hash, keyless) -> RS ->
  // GBY(merge) -> Select -> FileSink.
  if (plan.roots.size() != 1) return Status::OK();
  const OpDesc* ts = plan.roots[0].get();
  if (ts->kind != OpKind::kTableScan || !ts->scan_temp_prefix.empty() ||
      ts->children.size() != 1) {
    return Status::OK();
  }
  const OpDesc* gby = ts->children[0].get();
  if (gby->kind != OpKind::kGroupBy ||
      gby->group_by_mode != exec::GroupByMode::kHash ||
      !gby->group_keys.empty() || gby->children.size() != 1) {
    return Status::OK();
  }
  const OpDesc* rs = gby->children[0].get();
  if (rs->kind != OpKind::kReduceSink || rs->children.size() != 1) {
    return Status::OK();
  }
  const OpDesc* merge = rs->children[0].get();
  if (merge->kind != OpKind::kGroupBy || merge->children.size() != 1) {
    return Status::OK();
  }
  const OpDesc* select = merge->children[0].get();
  if (select->kind != OpKind::kSelect || select->children.size() != 1 ||
      select->children[0]->kind != OpKind::kFileSink) {
    return Status::OK();
  }
  auto table_result = catalog->GetTable(ts->table_name);
  if (!table_result.ok() ||
      (*table_result)->format != formats::FormatKind::kOrcFile) {
    return Status::OK();
  }
  const TableDesc* table = *table_result;
  // Merge-on-read tables with outstanding deletes: the file statistics
  // still count deleted rows, so a stats-only answer would be wrong.
  if (table->managed() && catalog->Snapshot(*table)->HasDeletes()) {
    return Status::OK();
  }

  // Every aggregate must be computable from column statistics.
  for (const exec::AggDesc& agg : gby->aggs) {
    if (agg.arg != nullptr &&
        agg.arg->kind() != ExprKind::kColumn) {
      return Status::OK();  // Computed argument: needs a scan.
    }
  }

  // Fold the tails of all files.
  uint64_t total_rows = 0;
  std::vector<orc::ColumnStatistics> stats(
      table->schema->ColumnCount());
  orc::OrcReadOptions read_options;
  read_options.counters = counters;
  for (const std::string& path : catalog->TableFiles(*table)) {
    auto reader = orc::OrcReader::Open(catalog->fs(), path, read_options);
    if (!reader.ok()) return Status::OK();  // Fall back to scanning.
    const orc::FileTail& tail = (*reader)->tail();
    total_rows += tail.num_rows;
    for (size_t c = 0; c < tail.file_stats.size() && c < stats.size(); ++c) {
      stats[c].Merge(tail.file_stats[c]);
    }
  }

  // Build the final-aggregate row ([finals], keyless).
  Row finals;
  for (const exec::AggDesc& agg : gby->aggs) {
    const orc::ColumnStatistics* column_stats = nullptr;
    if (agg.arg != nullptr) {
      int field = agg.arg->column_index();
      int column_id =
          table->schema->children()[field]->column_id();
      column_stats = &stats[column_id];
    }
    switch (agg.kind) {
      case exec::AggKind::kCountStar:
        finals.push_back(Value::Int(static_cast<int64_t>(total_rows)));
        break;
      case exec::AggKind::kCount:
        finals.push_back(
            Value::Int(static_cast<int64_t>(column_stats->num_values())));
        break;
      case exec::AggKind::kMin:
      case exec::AggKind::kMax: {
        bool want_min = agg.kind == exec::AggKind::kMin;
        if (column_stats->has_int_stats()) {
          finals.push_back(Value::Int(want_min ? column_stats->int_min()
                                               : column_stats->int_max()));
        } else if (column_stats->has_double_stats()) {
          finals.push_back(
              Value::Double(want_min ? column_stats->double_min()
                                     : column_stats->double_max()));
        } else if (column_stats->has_string_stats()) {
          finals.push_back(
              Value::String(want_min ? column_stats->string_min()
                                     : column_stats->string_max()));
        } else {
          finals.push_back(Value::Null());  // All NULL.
        }
        break;
      }
      case exec::AggKind::kSum:
        if (column_stats->num_values() == 0) {
          finals.push_back(Value::Null());
        } else if (column_stats->has_double_stats()) {
          finals.push_back(Value::Double(column_stats->double_sum()));
        } else if (column_stats->has_int_stats()) {
          finals.push_back(Value::Int(column_stats->int_sum()));
        } else {
          return Status::OK();  // Not summable from stats.
        }
        break;
      case exec::AggKind::kAvg:
        if (column_stats->num_values() == 0) {
          finals.push_back(Value::Null());
        } else if (column_stats->has_double_stats()) {
          finals.push_back(Value::Double(
              column_stats->double_sum() /
              static_cast<double>(column_stats->num_values())));
        } else if (column_stats->has_int_stats()) {
          finals.push_back(Value::Double(
              static_cast<double>(column_stats->int_sum()) /
              static_cast<double>(column_stats->num_values())));
        } else {
          return Status::OK();
        }
        break;
    }
  }

  // Apply the final projections over the finals row.
  Row out;
  for (const ExprPtr& e : select->projections) {
    out.push_back(e->Eval(finals));
  }
  rows->clear();
  rows->push_back(std::move(out));
  *answered = true;
  return Status::OK();
}

// ====================================================================
// Correlation Optimizer (§5.2)
// ====================================================================

namespace {

/// Union-find over small index sets.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

/// For a reduce op (Join or merge GroupBy), computes keyof[pos] = key index
/// that output column `pos` is equal to, or -1.
std::vector<int> KeyEquivalenceOf(const OpDesc* reduce_op) {
  std::vector<int> keyof(reduce_op->output_width, -1);
  if (reduce_op->kind == OpKind::kGroupBy &&
      reduce_op->group_by_mode == exec::GroupByMode::kMergePartial) {
    for (int i = 0; i < reduce_op->partial_offset &&
                    i < reduce_op->output_width;
         ++i) {
      keyof[i] = i;
    }
    return keyof;
  }
  if (reduce_op->kind == OpKind::kJoin) {
    int k = reduce_op->join_key_width;
    for (int i = 0; i < k && i < reduce_op->output_width; ++i) keyof[i] = i;
    // Value columns that replicated the RS key expressions are also keys.
    // Offsets: keys | values(tag 0) | values(tag 1) | ...
    std::vector<const OpDesc*> rs_by_tag(reduce_op->join_num_inputs, nullptr);
    for (const OpDesc* parent : reduce_op->parents) {
      if (parent->kind == OpKind::kReduceSink && parent->sink_tag >= 0 &&
          parent->sink_tag < reduce_op->join_num_inputs) {
        rs_by_tag[parent->sink_tag] = parent;
      }
    }
    int offset = k;
    for (int t = 0; t < reduce_op->join_num_inputs; ++t) {
      const OpDesc* rs = rs_by_tag[t];
      int width = t < static_cast<int>(reduce_op->join_value_widths.size())
                      ? reduce_op->join_value_widths[t]
                      : 0;
      if (rs != nullptr) {
        for (size_t v = 0; v < rs->sink_values.size(); ++v) {
          const ExprPtr& value = rs->sink_values[v];
          for (size_t key = 0; key < rs->sink_keys.size(); ++key) {
            if (value->ToString() == rs->sink_keys[key]->ToString() &&
                offset + static_cast<int>(v) < reduce_op->output_width) {
              keyof[offset + static_cast<int>(v)] = static_cast<int>(key);
            }
          }
        }
      }
      offset += width;
    }
    return keyof;
  }
  return keyof;
}

/// Walks up from `rs` through width-tracking ops to the nearest reduce op;
/// returns it (or null) and whether rs's keys equal its keys in order.
const OpDesc* TraceToReduceProducer(const OpDesc* rs, bool* keys_match) {
  *keys_match = false;
  // Collect the chain rs <- c1 <- c2 ... <- producer.
  std::vector<const OpDesc*> chain;
  const OpDesc* cur = rs;
  while (true) {
    if (cur->parents.size() != 1) return nullptr;
    const OpDesc* parent = cur->parents[0];
    if (parent->kind == OpKind::kJoin ||
        (parent->kind == OpKind::kGroupBy &&
         parent->group_by_mode == exec::GroupByMode::kMergePartial)) {
      // Found the producer; now push key equivalence down the chain.
      std::vector<int> keyof = KeyEquivalenceOf(parent);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const OpDesc* op = *it;
        switch (op->kind) {
          case OpKind::kFilter:
          case OpKind::kLimit:
            break;  // Layout preserved.
          case OpKind::kSelect: {
            std::vector<int> next(op->projections.size(), -1);
            for (size_t j = 0; j < op->projections.size(); ++j) {
              const Expr& e = *op->projections[j];
              if (e.kind() == ExprKind::kColumn && e.column_index() >= 0 &&
                  e.column_index() < static_cast<int>(keyof.size())) {
                next[j] = keyof[e.column_index()];
              }
            }
            keyof = std::move(next);
            break;
          }
          case OpKind::kGroupBy: {
            if (op->group_by_mode != exec::GroupByMode::kHash) return nullptr;
            int nk = static_cast<int>(op->group_keys.size());
            std::vector<int> next(op->output_width, -1);
            for (int j = 0; j < nk; ++j) {
              const Expr& e = *op->group_keys[j];
              if (e.kind() == ExprKind::kColumn && e.column_index() >= 0 &&
                  e.column_index() < static_cast<int>(keyof.size())) {
                next[j] = keyof[e.column_index()];
              }
            }
            keyof = std::move(next);
            break;
          }
          default:
            return nullptr;
        }
      }
      // rs keys must be columns equal to producer keys, in order.
      if (rs->sink_keys.empty()) return nullptr;
      for (size_t j = 0; j < rs->sink_keys.size(); ++j) {
        const Expr& e = *rs->sink_keys[j];
        if (e.kind() != ExprKind::kColumn || e.column_index() < 0 ||
            e.column_index() >= static_cast<int>(keyof.size()) ||
            keyof[e.column_index()] != static_cast<int>(j)) {
          return parent;  // Producer found but keys do not line up.
        }
      }
      *keys_match = true;
      return parent;
    }
    switch (parent->kind) {
      case OpKind::kFilter:
      case OpKind::kLimit:
      case OpKind::kSelect:
      case OpKind::kGroupBy:
        chain.push_back(parent);
        cur = parent;
        continue;
      default:
        return nullptr;  // TableScan / MapJoin => bottom-layer pipeline.
    }
  }
}

}  // namespace

Status ApplyCorrelationOptimizer(PlannedQuery* plan) {
  std::vector<OpDescPtr> ops = CollectOps(plan->roots);

  // Candidate ReduceSinks: exclude the ORDER BY boundary (custom sort) and
  // anything with an explicit reducer count.
  std::vector<OpDescPtr> all_rs;
  for (const OpDescPtr& op : ops) {
    if (op->kind != OpKind::kReduceSink) continue;
    if (!op->sink_ascending.empty() || op->sink_num_reducers > 0) continue;
    all_rs.push_back(op);
  }
  if (all_rs.size() < 2) return Status::OK();
  auto rs_index = [&](const OpDesc* rs) {
    for (size_t i = 0; i < all_rs.size(); ++i) {
      if (all_rs[i].get() == rs) return static_cast<int>(i);
    }
    return -1;
  };

  // ---- Correlation detection.
  UnionFind uf(static_cast<int>(all_rs.size()));
  // (1) Sibling rule: RS ops feeding the same consumer are co-partitioned.
  std::map<const OpDesc*, std::vector<int>> by_child;
  for (size_t i = 0; i < all_rs.size(); ++i) {
    if (all_rs[i]->children.size() != 1) continue;
    by_child[all_rs[i]->children[0].get()].push_back(static_cast<int>(i));
  }
  for (const auto& [child, members] : by_child) {
    for (size_t i = 1; i < members.size(); ++i) {
      uf.Union(members[0], members[i]);
    }
  }
  // (2) Job-flow rule: an RS whose keys are exactly the keys produced by an
  // upstream reduce op joins that op's input RS class (paper §5.2.1).
  for (size_t i = 0; i < all_rs.size(); ++i) {
    bool keys_match = false;
    const OpDesc* producer = TraceToReduceProducer(all_rs[i].get(),
                                                   &keys_match);
    if (producer == nullptr || !keys_match) continue;
    for (const OpDesc* parent : producer->parents) {
      int j = rs_index(parent);
      if (j >= 0) {
        uf.Union(static_cast<int>(i), j);
        break;
      }
    }
  }

  // Gather classes that span more than one reduce entry (otherwise there is
  // nothing to merge).
  std::map<int, std::vector<int>> classes;
  for (size_t i = 0; i < all_rs.size(); ++i) {
    classes[uf.Find(static_cast<int>(i))].push_back(static_cast<int>(i));
  }

  for (auto& [class_id, members] : classes) {
    std::set<const OpDesc*> entries;
    for (int m : members) {
      entries.insert(all_rs[m]->children[0].get());
    }
    if (entries.size() < 2) continue;

    // Key arity must agree across the class.
    size_t arity = all_rs[members[0]]->sink_keys.size();
    bool compatible = true;
    for (int m : members) {
      if (all_rs[m]->sink_keys.size() != arity) compatible = false;
    }
    if (!compatible) continue;

    // ---- Split members into bottom-layer and unnecessary RS ops.
    std::vector<int> bottom, unnecessary;
    for (int m : members) {
      bool keys_match = false;
      const OpDesc* producer =
          TraceToReduceProducer(all_rs[m].get(), &keys_match);
      // A member fed by another member's reduce output is unnecessary; a
      // member fed from a map pipeline is bottom-layer.
      bool producer_in_class = false;
      if (producer != nullptr) {
        for (const OpDesc* parent : producer->parents) {
          int j = rs_index(parent);
          if (j >= 0 && uf.Find(j) == class_id) producer_in_class = true;
        }
      }
      if (producer_in_class && keys_match) {
        unnecessary.push_back(m);
      } else {
        bottom.push_back(m);
      }
    }
    if (unnecessary.empty()) continue;  // Plain sibling set: nothing to do.

    // ---- Input correlation: dedup identical bottom pipelines.
    std::map<std::string, int> signature_rep;  // signature -> new tag.
    std::vector<int> rep_of(bottom.size());    // bottom idx -> new tag.
    std::vector<int> representatives;          // new tag -> member index.
    for (size_t b = 0; b < bottom.size(); ++b) {
      std::string sig = PipelineSignature(all_rs[bottom[b]].get());
      if (!sig.empty()) {
        auto it = signature_rep.find(sig);
        if (it != signature_rep.end()) {
          rep_of[b] = it->second;
          continue;
        }
        signature_rep[sig] = static_cast<int>(representatives.size());
      }
      rep_of[b] = static_cast<int>(representatives.size());
      representatives.push_back(bottom[b]);
    }

    // ---- Build the merged reduce phase: Demux + per-entry Mux.
    OpDescPtr demux = MakeOp(OpKind::kDemux);
    demux->demux_routes.resize(representatives.size());

    // One Mux per reduce-entry operator of the class.
    std::map<const OpDesc*, OpDescPtr> mux_of;
    std::map<const OpDesc*, int> demux_child_index;
    auto mux_for = [&](const OpDescPtr& entry) {
      auto it = mux_of.find(entry.get());
      if (it != mux_of.end()) return it->second;
      OpDescPtr mux = MakeOp(OpKind::kMux);
      mux->output_width = entry->output_width;
      mux_of[entry.get()] = mux;
      return mux;
    };

    // Wire each member RS.
    for (size_t b = 0; b < bottom.size(); ++b) {
      OpDescPtr rs = all_rs[bottom[b]];
      OpDescPtr entry = rs->children[0];
      OpDescPtr mux = mux_for(entry);
      // Demux -> Mux edge dedicated to this route.
      OpDesc::Connect(demux, mux);
      int child_index = static_cast<int>(demux->children.size()) - 1;
      mux->mux_parent_tags.push_back(-1);  // Demux already restores the tag.
      demux->demux_routes[rep_of[b]].push_back({rs->sink_tag, child_index});
      // Detach rs -> entry.
      DropParentEdge(entry.get(), rs.get());
      rs->children.clear();
      if (bottom[b] == representatives[rep_of[b]]) {
        // Representative keeps its map pipeline and feeds the Demux.
        rs->sink_tag = rep_of[b];
        OpDesc::Connect(rs, demux);
      } else {
        // Duplicate scan removed entirely (input correlation).
        const OpDesc* cur = rs.get();
        while (cur->parents.size() == 1 &&
               cur->parents[0]->kind != OpKind::kTableScan) {
          cur = cur->parents[0];
        }
        const OpDesc* dead_root =
            cur->parents.size() == 1 ? cur->parents[0] : nullptr;
        plan->roots.erase(
            std::remove_if(plan->roots.begin(), plan->roots.end(),
                           [&](const OpDescPtr& r) {
                             return r.get() == dead_root;
                           }),
            plan->roots.end());
      }
    }
    for (int m : unnecessary) {
      OpDescPtr rs = all_rs[m];
      OpDescPtr entry = rs->children[0];
      OpDescPtr mux = mux_for(entry);
      // Hash GroupBys pulled into the merged reduce phase must flush per
      // key group (paper §5.2.2: the Mux coordination protocol).
      for (const OpDesc* cur = rs.get(); cur->parents.size() == 1;) {
        OpDesc* p = cur->parents[0];
        if (p->kind == OpKind::kJoin ||
            (p->kind == OpKind::kGroupBy &&
             p->group_by_mode != exec::GroupByMode::kHash)) {
          break;
        }
        if (p->kind == OpKind::kGroupBy) p->gby_flush_on_end_group = true;
        cur = p;
      }
      // Replace the RS with a Select that reproduces its key++value layout,
      // then a Mux edge that restores the RS's tag.
      OpDescPtr select = MakeOp(OpKind::kSelect);
      select->projections = rs->sink_keys;
      select->projections.insert(select->projections.end(),
                                 rs->sink_values.begin(),
                                 rs->sink_values.end());
      select->output_width = static_cast<int>(select->projections.size());
      OpDesc* rs_parent = rs->parents[0];
      ReplaceChildEdge(rs_parent, rs.get(), select);
      OpDesc::Connect(select, mux);
      mux->mux_parent_tags.push_back(rs->sink_tag);
      DropParentEdge(entry.get(), rs.get());
      rs->children.clear();
      rs->parents.clear();
    }
    // Finally connect each Mux to its entry operator.
    for (auto& [entry_raw, mux] : mux_of) {
      MINIHIVE_ASSIGN_OR_RETURN(OpDescPtr entry, SharedPtrOf(
          const_cast<OpDesc*>(entry_raw), ops));
      OpDesc::Connect(mux, entry);
    }
  }
  return Status::OK();
}

}  // namespace minihive::ql
