#include "exec/plan.h"

#include <atomic>
#include <unordered_set>

namespace minihive::exec {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTableScan: return "TS";
    case OpKind::kFilter: return "FIL";
    case OpKind::kSelect: return "SEL";
    case OpKind::kGroupBy: return "GBY";
    case OpKind::kJoin: return "JOIN";
    case OpKind::kMapJoin: return "MAPJOIN";
    case OpKind::kReduceSink: return "RS";
    case OpKind::kFileSink: return "FS";
    case OpKind::kLimit: return "LIM";
    case OpKind::kDemux: return "DEMUX";
    case OpKind::kMux: return "MUX";
  }
  return "?";
}

void OpDesc::InsertAbove(OpDesc* child, const OpDescPtr& op) {
  OpDesc* parent = child->parents[0];
  for (OpDescPtr& edge : parent->children) {
    if (edge.get() != child) continue;
    op->children.push_back(edge);
    op->parents.push_back(parent);
    child->parents[0] = op.get();
    edge = op;
    return;
  }
}

OpDescPtr MakeOp(OpKind kind) {
  static std::atomic<int> next_id{0};
  auto op = std::make_shared<OpDesc>();
  op->kind = kind;
  op->id = next_id.fetch_add(1);
  return op;
}

void WalkOps(const std::vector<OpDescPtr>& roots, bool stop_at_reduce_sink,
             const std::function<void(const OpDescPtr&)>& visit) {
  std::unordered_set<const OpDesc*> seen;
  std::vector<OpDescPtr> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    OpDescPtr op = std::move(stack.back());
    stack.pop_back();
    if (!seen.insert(op.get()).second) continue;
    visit(op);
    if (stop_at_reduce_sink && op->kind == OpKind::kReduceSink) continue;
    for (const OpDescPtr& child : op->children) stack.push_back(child);
  }
}

std::vector<OpDescPtr> CollectOps(const std::vector<OpDescPtr>& roots) {
  std::vector<OpDescPtr> ops;
  WalkOps(roots, /*stop_at_reduce_sink=*/false,
          [&ops](const OpDescPtr& op) { ops.push_back(op); });
  return ops;
}

std::string OpDesc::DebugString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string s = pad + OpKindName(kind) + "_" + std::to_string(id);
  switch (kind) {
    case OpKind::kTableScan:
      s += " table=" + table_name;
      break;
    case OpKind::kFilter:
      s += " pred=" + (predicate ? predicate->ToString() : "?");
      break;
    case OpKind::kSelect:
      s += " exprs=" + std::to_string(projections.size());
      break;
    case OpKind::kGroupBy:
      s += " keys=" + std::to_string(group_keys.size()) +
           " aggs=" + std::to_string(aggs.size()) +
           (group_by_mode == GroupByMode::kHash
                ? " mode=hash"
                : (group_by_mode == GroupByMode::kMergePartial
                       ? " mode=mergepartial"
                       : " mode=complete"));
      break;
    case OpKind::kReduceSink:
      s += " tag=" + std::to_string(sink_tag) +
           " keys=" + std::to_string(sink_keys.size());
      break;
    case OpKind::kJoin:
      s += " inputs=" + std::to_string(join_num_inputs);
      break;
    case OpKind::kMapJoin:
      for (const MapJoinSmallSide& side : mapjoin_small_sides) {
        s += " small=" + side.table_name;
        if (side.build_filter != nullptr) {
          s += " build_filter=" + side.build_filter->ToString();
        }
      }
      break;
    case OpKind::kFileSink:
      s += " path=" + sink_path_prefix;
      break;
    case OpKind::kLimit:
      s += " n=" + std::to_string(limit);
      break;
    default:
      break;
  }
  s += "\n";
  for (const OpDescPtr& child : children) {
    s += child->DebugString(indent + 1);
  }
  return s;
}

}  // namespace minihive::exec
