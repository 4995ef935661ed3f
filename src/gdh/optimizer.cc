#include "gdh/optimizer.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace prisma::gdh {

using algebra::BinaryOp;
using algebra::Expr;
using algebra::ExprKind;
using algebra::JoinPlan;
using algebra::Plan;
using algebra::PlanKind;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;

Optimizer::Optimizer(const DataDictionary* dictionary, OptimizerRules rules)
    : dictionary_(dictionary), rules_(rules) {}

// ------------------------------------------------------------- Estimation

double Optimizer::SelectivityOf(const Expr& predicate) const {
  switch (predicate.kind()) {
    case ExprKind::kLiteral:
      return 1.0;
    case ExprKind::kColumnRef:
      return 0.5;
    case ExprKind::kUnary:
      if (predicate.unary_op() == algebra::UnaryOp::kIsNull) return 0.1;
      if (predicate.unary_op() == algebra::UnaryOp::kNot) {
        return std::max(0.0, 1.0 - SelectivityOf(*predicate.operand()));
      }
      return 0.5;
    case ExprKind::kBinary:
      switch (predicate.binary_op()) {
        case BinaryOp::kEq:
          return kEqSelectivity;
        case BinaryOp::kNe:
          return 1.0 - kEqSelectivity;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return kRangeSelectivity;
        case BinaryOp::kAnd:
          return SelectivityOf(*predicate.left()) *
                 SelectivityOf(*predicate.right());
        case BinaryOp::kOr:
          return std::min(1.0, SelectivityOf(*predicate.left()) +
                                   SelectivityOf(*predicate.right()));
        default:
          return 0.5;
      }
  }
  return 0.5;
}

double Optimizer::EstimateRows(const Plan& plan) const {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& table = static_cast<const ScanPlan&>(plan).table();
      if (dictionary_ != nullptr) {
        auto info = dictionary_->GetTable(table);
        if (info.ok()) {
          return std::max<double>(1.0, static_cast<double>((*info)->TotalRows()));
        }
      }
      return kDefaultScanRows;
    }
    case PlanKind::kValues:
      return static_cast<double>(
          static_cast<const algebra::ValuesPlan&>(plan).rows().size());
    case PlanKind::kSelect:
      return EstimateRows(*plan.child()) *
             SelectivityOf(static_cast<const SelectPlan&>(plan).predicate());
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
      return EstimateRows(*plan.child());
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinPlan&>(plan);
      const double l = EstimateRows(*plan.child(0));
      const double r = EstimateRows(*plan.child(1));
      if (!join.EquiKeys().empty()) {
        return l * r / std::max({l, r, 1.0});
      }
      if (join.predicate() != nullptr) {
        return l * r * SelectivityOf(*join.predicate());
      }
      return l * r;
    }
    case PlanKind::kUnion:
      return EstimateRows(*plan.child(0)) + EstimateRows(*plan.child(1));
    case PlanKind::kDifference:
      return EstimateRows(*plan.child(0));
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const algebra::AggregatePlan&>(plan);
      if (agg.group_by().empty()) return 1.0;
      // Without statistics for its keys, a grouping shrinks nothing.
      const std::optional<GroupEstimate> groups =
          EstimateAggregateGroups(agg);
      return groups.has_value() ? std::max(1.0, groups->groups)
                                : EstimateRows(*plan.child());
    }
    case PlanKind::kLimit:
      return std::min(
          EstimateRows(*plan.child()),
          static_cast<double>(static_cast<const algebra::LimitPlan&>(plan).limit()));
    case PlanKind::kTransitiveClosure:
      return EstimateRows(*plan.child()) * 4.0 + 1.0;
    case PlanKind::kExchange:
      // An annotation of already-lowered distributed plans (EXPLAIN
      // output); the optimizer never costs it.
      break;
  }
  return kDefaultScanRows;
}

GroupEstimate Optimizer::EstimateGroups(
    const TableInfo& table,
    const std::vector<std::optional<size_t>>& group_columns,
    const std::vector<const Expr*>& filter) const {
  double selectivity = 1.0;
  for (const Expr* predicate : filter) selectivity *= SelectivityOf(*predicate);
  const sql::FragmentStrategy strategy = table.fragmentation.strategy;
  bool disjoint = false;
  for (const std::optional<size_t>& column : group_columns) {
    disjoint |= column == table.fragmentation.column &&
                (strategy == sql::FragmentStrategy::kHash ||
                 strategy == sql::FragmentStrategy::kRange);
  }
  GroupEstimate out;
  std::vector<double> domain(group_columns.size(), 1.0);
  for (const FragmentInfo& frag : table.fragments) {
    const double rows = static_cast<double>(frag.row_count) * selectivity;
    double partial = 1.0;
    for (size_t i = 0; i < group_columns.size(); ++i) {
      const std::optional<size_t> column = group_columns[i];
      const double distinct =
          column.has_value() && *column < frag.distinct.size()
              ? std::min(rows, static_cast<double>(frag.distinct[*column]))
              : rows;
      partial *= distinct;
      domain[i] = std::max(domain[i], distinct);
    }
    out.rows += rows;
    out.max_fragment_rows = std::max(out.max_fragment_rows, rows);
    out.partial_rows += std::min(rows, partial);
  }
  double groups = 1.0;
  for (const double distinct : domain) groups *= distinct;
  out.groups = disjoint ? out.partial_rows
                        : std::min({out.rows, out.partial_rows, groups});
  return out;
}

std::optional<GroupEstimate> Optimizer::EstimateAggregateGroups(
    const algebra::AggregatePlan& agg) const {
  if (dictionary_ == nullptr) return std::nullopt;
  // Follow each group column down to the base scan.
  std::vector<std::optional<size_t>> columns;
  for (const auto& key : agg.group_by()) {
    columns.push_back(key->kind() == ExprKind::kColumnRef && key->bound()
                          ? std::optional<size_t>(key->column_index())
                          : std::nullopt);
  }
  std::vector<const Expr*> filter;
  const Plan* node = agg.child();
  while (node->kind() != PlanKind::kScan) {
    switch (node->kind()) {
      case PlanKind::kSelect:
        filter.push_back(&static_cast<const SelectPlan*>(node)->predicate());
        break;
      case PlanKind::kProject: {
        const auto& exprs = static_cast<const ProjectPlan*>(node)->exprs();
        for (std::optional<size_t>& column : columns) {
          if (!column.has_value()) continue;
          const Expr& e = *exprs[*column];
          column = e.kind() == ExprKind::kColumnRef && e.bound()
                       ? std::optional<size_t>(e.column_index())
                       : std::nullopt;
        }
        break;
      }
      case PlanKind::kDistinct:
        break;
      default:
        return std::nullopt;
    }
    node = node->child();
  }
  auto table = dictionary_->GetTable(static_cast<const ScanPlan*>(node)->table());
  if (!table.ok()) return std::nullopt;
  return EstimateGroups(**table, columns, filter);
}

double Optimizer::EstimateFlow(const Plan& plan) const {
  double flow = EstimateRows(plan);
  for (size_t i = 0; i < plan.num_children(); ++i) {
    flow += EstimateFlow(*plan.child(i));
  }
  return flow;
}

// ------------------------------------------------------ Selection pushdown

namespace {

/// Sinks a positional conjunct into `plan`, tracking whether it crossed an
/// operator boundary on the way down.
std::unique_ptr<Plan> Sink(std::unique_ptr<Plan> plan,
                           std::unique_ptr<Expr> conjunct, bool* moved) {
  switch (plan->kind()) {
    case PlanKind::kJoin: {
      const size_t left_width = plan->child(0)->schema().num_columns();
      const size_t total = plan->schema().num_columns();
      std::vector<size_t> cols;
      conjunct->CollectColumnIndexes(&cols);
      const bool all_left = std::all_of(
          cols.begin(), cols.end(), [&](size_t c) { return c < left_width; });
      const bool all_right = !cols.empty() &&
                             std::all_of(cols.begin(), cols.end(),
                                         [&](size_t c) { return c >= left_width; });
      if (all_left && !cols.empty()) {
        *moved = true;
        plan->SetChild(0, Sink(plan->TakeChild(0), std::move(conjunct), moved));
        return plan;
      }
      if (all_right) {
        std::vector<size_t> mapping(total, SIZE_MAX);
        for (size_t i = left_width; i < total; ++i) mapping[i] = i - left_width;
        *moved = true;
        plan->SetChild(1, Sink(plan->TakeChild(1),
                               algebra::RemapColumns(*conjunct, mapping),
                               moved));
        return plan;
      }
      // References both sides: merge into the join predicate (equality
      // conjuncts become hash-join keys).
      const auto& join = static_cast<const JoinPlan&>(*plan);
      std::vector<std::unique_ptr<Expr>> conjuncts;
      if (join.predicate() != nullptr) {
        conjuncts = algebra::SplitConjuncts(*join.predicate());
      }
      conjuncts.push_back(std::move(conjunct));
      *moved = true;
      auto rebuilt = JoinPlan::Create(
          plan->TakeChild(0), plan->TakeChild(1),
          algebra::CombineConjuncts(std::move(conjuncts)));
      PRISMA_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
      return std::move(rebuilt).value();
    }
    case PlanKind::kSelect:
    case PlanKind::kDistinct:
    case PlanKind::kSort: {
      *moved = true;
      plan->SetChild(0, Sink(plan->TakeChild(0), std::move(conjunct), moved));
      return plan;
    }
    case PlanKind::kUnion: {
      *moved = true;
      auto copy = conjunct->Clone();
      plan->SetChild(0, Sink(plan->TakeChild(0), std::move(conjunct), moved));
      plan->SetChild(1, Sink(plan->TakeChild(1), std::move(copy), moved));
      return plan;
    }
    case PlanKind::kDifference: {
      // Filtering the left input preserves the difference.
      *moved = true;
      plan->SetChild(0, Sink(plan->TakeChild(0), std::move(conjunct), moved));
      return plan;
    }
    default: {
      auto wrapped = SelectPlan::Create(std::move(plan), std::move(conjunct));
      PRISMA_CHECK(wrapped.ok()) << wrapped.status().ToString();
      return std::move(wrapped).value();
    }
  }
}

}  // namespace

std::unique_ptr<Plan> Optimizer::SinkConjunct(std::unique_ptr<Plan> plan,
                                              std::unique_ptr<Expr> conjunct,
                                              OptimizerReport* report) {
  bool moved = false;
  plan = Sink(std::move(plan), std::move(conjunct), &moved);
  if (moved && report != nullptr) ++report->selections_pushed;
  return plan;
}

std::unique_ptr<Plan> Optimizer::PushSelections(std::unique_ptr<Plan> plan,
                                                OptimizerReport* report) {
  for (size_t i = 0; i < plan->num_children(); ++i) {
    plan->SetChild(i, PushSelections(plan->TakeChild(i), report));
  }
  if (plan->kind() != PlanKind::kSelect) return plan;

  auto& select = static_cast<SelectPlan&>(*plan);
  auto conjuncts = algebra::SplitConjuncts(select.predicate());
  std::unique_ptr<Plan> child = plan->TakeChild(0);
  for (auto& conjunct : conjuncts) {
    child = SinkConjunct(std::move(child), algebra::ToPositional(*conjunct),
                         report);
  }
  return child;
}

// ----------------------------------------------------------- Join reorder

namespace {

struct FlatJoin {
  std::vector<std::unique_ptr<Plan>> leaves;   // In original order.
  std::vector<size_t> leaf_offset;             // Global start column.
  std::vector<std::unique_ptr<Expr>> conjuncts;  // Positional, global.
};

/// Flattens a maximal join subtree; `offset` is the global start column of
/// this subtree in the flattened output.
void Flatten(std::unique_ptr<Plan> plan, size_t offset, FlatJoin* out) {
  if (plan->kind() != PlanKind::kJoin) {
    out->leaf_offset.push_back(offset);
    out->leaves.push_back(std::move(plan));
    return;
  }
  auto& join = static_cast<JoinPlan&>(*plan);
  const size_t left_width = plan->child(0)->schema().num_columns();
  if (join.predicate() != nullptr) {
    // Shift this node's predicate columns by the subtree's global offset.
    const size_t total = plan->schema().num_columns();
    std::vector<size_t> mapping(total);
    for (size_t i = 0; i < total; ++i) mapping[i] = i + offset;
    for (auto& c : algebra::SplitConjuncts(*join.predicate())) {
      out->conjuncts.push_back(
          algebra::RemapColumns(*algebra::ToPositional(*c), mapping));
    }
  }
  std::unique_ptr<Plan> left = plan->TakeChild(0);
  std::unique_ptr<Plan> right = plan->TakeChild(1);
  Flatten(std::move(left), offset, out);
  Flatten(std::move(right), offset + left_width, out);
}

}  // namespace

std::unique_ptr<Plan> Optimizer::ReorderJoins(std::unique_ptr<Plan> plan,
                                              OptimizerReport* report) {
  // Recurse below non-join nodes; reorder each maximal join subtree.
  if (plan->kind() != PlanKind::kJoin) {
    for (size_t i = 0; i < plan->num_children(); ++i) {
      plan->SetChild(i, ReorderJoins(plan->TakeChild(i), report));
    }
    return plan;
  }

  const Schema original_schema = plan->schema();
  FlatJoin flat;
  Flatten(std::move(plan), 0, &flat);
  // Leaves themselves may contain joins further down (e.g. under selects).
  for (auto& leaf : flat.leaves) {
    for (size_t i = 0; i < leaf->num_children(); ++i) {
      leaf->SetChild(i, ReorderJoins(leaf->TakeChild(i), report));
    }
  }
  const size_t n = flat.leaves.size();
  if (n < 3) {
    // Nothing to reorder: rebuild verbatim (left-deep in original order).
    std::unique_ptr<Plan> rebuilt = std::move(flat.leaves[0]);
    for (size_t i = 1; i < n; ++i) {
      // All conjuncts are attachable at the top join for n == 2.
      std::unique_ptr<Expr> pred;
      if (i == n - 1) {
        pred = algebra::CombineConjuncts(std::move(flat.conjuncts));
      }
      auto join = JoinPlan::Create(std::move(rebuilt),
                                   std::move(flat.leaves[i]), std::move(pred));
      PRISMA_CHECK(join.ok()) << join.status().ToString();
      rebuilt = std::move(join).value();
    }
    return rebuilt;
  }

  // Which leaf does each global column belong to?
  std::vector<size_t> leaf_width(n);
  size_t total_width = 0;
  for (size_t i = 0; i < n; ++i) {
    leaf_width[i] = flat.leaves[i]->schema().num_columns();
    total_width += leaf_width[i];
  }
  auto leaf_of_col = [&](size_t col) {
    for (size_t i = 0; i < n; ++i) {
      if (col >= flat.leaf_offset[i] && col < flat.leaf_offset[i] + leaf_width[i]) {
        return i;
      }
    }
    PRISMA_CHECK(false) << "column beyond join width";
    return n;
  };

  struct ConjunctInfo {
    std::unique_ptr<Expr> expr;
    std::set<size_t> leaves;
    bool attached = false;
  };
  std::vector<ConjunctInfo> conjuncts;
  for (auto& c : flat.conjuncts) {
    ConjunctInfo info;
    std::vector<size_t> cols;
    c->CollectColumnIndexes(&cols);
    for (const size_t col : cols) info.leaves.insert(leaf_of_col(col));
    info.expr = std::move(c);
    conjuncts.push_back(std::move(info));
  }

  std::vector<double> leaf_rows(n);
  for (size_t i = 0; i < n; ++i) leaf_rows[i] = EstimateRows(*flat.leaves[i]);

  // Greedy order: smallest leaf first, then the smallest leaf connected to
  // the chosen set by some conjunct (cross products only as a last resort).
  std::vector<bool> chosen(n, false);
  std::vector<size_t> order;
  order.push_back(static_cast<size_t>(
      std::min_element(leaf_rows.begin(), leaf_rows.end()) - leaf_rows.begin()));
  chosen[order[0]] = true;
  while (order.size() < n) {
    size_t best = n;
    bool best_connected = false;
    for (size_t cand = 0; cand < n; ++cand) {
      if (chosen[cand]) continue;
      bool connected = false;
      for (const ConjunctInfo& c : conjuncts) {
        if (!c.leaves.contains(cand)) continue;
        bool others_chosen = true;
        for (const size_t l : c.leaves) {
          if (l != cand && !chosen[l]) {
            others_chosen = false;
            break;
          }
        }
        if (others_chosen) {
          connected = true;
          break;
        }
      }
      if (best == n || (connected && !best_connected) ||
          (connected == best_connected && leaf_rows[cand] < leaf_rows[best])) {
        best = cand;
        best_connected = connected;
      }
    }
    chosen[best] = true;
    order.push_back(best);
  }

  const bool changed = !std::is_sorted(order.begin(), order.end());
  if (changed && report != nullptr) ++report->joins_reordered;

  // New global index of each old global column.
  std::vector<size_t> new_index(total_width, SIZE_MAX);
  size_t cursor = 0;
  for (const size_t leaf : order) {
    for (size_t c = 0; c < leaf_width[leaf]; ++c) {
      new_index[flat.leaf_offset[leaf] + c] = cursor++;
    }
  }

  // Rebuild left-deep, attaching each conjunct at the first join where all
  // its leaves are available.
  std::set<size_t> placed{order[0]};
  std::unique_ptr<Plan> rebuilt = std::move(flat.leaves[order[0]]);
  for (size_t step = 1; step < n; ++step) {
    const size_t leaf = order[step];
    placed.insert(leaf);
    std::vector<std::unique_ptr<Expr>> attach;
    for (ConjunctInfo& c : conjuncts) {
      if (c.attached) continue;
      bool ready = true;
      for (const size_t l : c.leaves) {
        if (!placed.contains(l)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      c.attached = true;
      attach.push_back(algebra::RemapColumns(*c.expr, new_index));
    }
    auto join = JoinPlan::Create(std::move(rebuilt),
                                 std::move(flat.leaves[leaf]),
                                 algebra::CombineConjuncts(std::move(attach)));
    PRISMA_CHECK(join.ok()) << join.status().ToString();
    rebuilt = std::move(join).value();
  }

  // Restore the original column order and names for the parent.
  std::vector<std::unique_ptr<Expr>> proj;
  std::vector<std::string> names;
  for (size_t i = 0; i < total_width; ++i) {
    proj.push_back(Expr::ColumnIndex(new_index[i],
                                     original_schema.column(i).type));
    names.push_back(original_schema.column(i).name);
  }
  auto projected =
      ProjectPlan::Create(std::move(rebuilt), std::move(proj), names);
  PRISMA_CHECK(projected.ok()) << projected.status().ToString();
  return std::move(projected).value();
}

// ------------------------------------------------------------------- CSE

void Optimizer::CountCommonSubtrees(const Plan& plan,
                                    OptimizerReport* report) const {
  std::map<std::string, int> shapes;
  std::function<void(const Plan&)> walk = [&](const Plan& node) {
    switch (node.kind()) {
      case PlanKind::kJoin:
      case PlanKind::kAggregate:
      case PlanKind::kSort:
      case PlanKind::kDistinct:
      case PlanKind::kTransitiveClosure:
        ++shapes[node.ToString()];
        break;
      default:
        break;
    }
    for (size_t i = 0; i < node.num_children(); ++i) walk(*node.child(i));
  };
  walk(plan);
  for (const auto& [_, count] : shapes) {
    if (count > 1) report->common_subtrees += count - 1;
  }
}

// ------------------------------------------------------------------ Drive

StatusOr<std::unique_ptr<Plan>> Optimizer::Optimize(
    std::unique_ptr<Plan> plan, OptimizerReport* report) {
  OptimizerReport local;
  OptimizerReport& r = report != nullptr ? *report : local;
  r = OptimizerReport();
  r.estimated_flow_before = EstimateFlow(*plan);

  if (rules_.push_selections) {
    plan = PushSelections(std::move(plan), &r);
  }
  if (rules_.reorder_joins) {
    plan = ReorderJoins(std::move(plan), &r);
  }
  if (rules_.detect_common_subexpressions) {
    CountCommonSubtrees(*plan, &r);
  }
  r.estimated_flow_after = EstimateFlow(*plan);
  return plan;
}

}  // namespace prisma::gdh
