#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "common/logging.h"
#include "exec/access_path.h"
#include "exec/expr_eval.h"
#include "exec/join.h"
#include "exec/transitive_closure.h"

namespace prisma::exec {

using algebra::AggFunc;
using algebra::AggregatePlan;
using algebra::JoinPlan;
using algebra::LimitPlan;
using algebra::Plan;
using algebra::PlanKind;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;
using algebra::SortPlan;
using algebra::ValuesPlan;

StatusOr<const storage::Relation*> MapTableResolver::Resolve(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return NotFoundError("no resident relation named " + table);
  }
  return it->second;
}

Status MapTableResolver::Load(const std::string& name, const Schema& schema,
                              std::vector<Tuple> rows) {
  auto relation = std::make_unique<storage::Relation>(name, schema);
  for (Tuple& tuple : rows) {
    RETURN_IF_ERROR(relation->Insert(std::move(tuple)).status());
  }
  Register(name, relation.get());
  loaded_.push_back(std::move(relation));
  return Status::OK();
}

const storage::HashIndex* MapTableResolver::FindHashIndex(
    const std::string& table, const std::vector<size_t>& columns) const {
  auto it = hash_indexes_.find(table);
  if (it == hash_indexes_.end()) return nullptr;
  for (const storage::HashIndex* index : it->second) {
    if (index->key_columns() == columns) return index;
  }
  return nullptr;
}

const storage::BTreeIndex* MapTableResolver::FindBTreeIndex(
    const std::string& table, const std::vector<size_t>& columns) const {
  auto it = btree_indexes_.find(table);
  if (it == btree_indexes_.end()) return nullptr;
  for (const storage::BTreeIndex* index : it->second) {
    if (index->key_columns() == columns) return index;
  }
  return nullptr;
}

// ------------------------------------------------------------ PreparedExpr

StatusOr<Executor::PreparedExpr> Executor::PreparedExpr::Make(
    const algebra::Expr& expr, const ExecOptions& options) {
  PreparedExpr p;
  if (options.expr_mode == ExprMode::kCompiled) {
    ASSIGN_OR_RETURN(CompiledExpr compiled, CompileExpr(expr));
    p.compiled_ = std::make_shared<CompiledExpr>(std::move(compiled));
    p.cost_ns_ = static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
                 options.costs.compiled_instr_ns;
    p.vrow_cost_ns_ =
        static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
        options.costs.vector_instr_ns;
    p.vbatch_cost_ns_ =
        static_cast<sim::SimTime>(p.compiled_->num_instructions()) *
        options.costs.vector_batch_ns;
  } else {
    // The tree-walk has no per-batch kernel: it costs the same per row on
    // either side of a batch boundary.
    p.interpreted_ = &expr;
    p.cost_ns_ = static_cast<sim::SimTime>(expr.TreeSize()) *
                 options.costs.interpreted_node_ns;
    p.vrow_cost_ns_ = p.cost_ns_;
  }
  return p;
}

StatusOr<Value> Executor::PreparedExpr::Eval(const Tuple& tuple) const {
  if (compiled_ != nullptr) return compiled_->Eval(tuple);
  return EvalExpr(*interpreted_, tuple);
}

StatusOr<bool> Executor::PreparedExpr::EvalPredicate(const Tuple& tuple) const {
  if (compiled_ != nullptr) return compiled_->EvalPredicate(tuple);
  return exec::EvalPredicate(*interpreted_, tuple);
}

StatusOr<ColumnBatch::Column> Executor::PreparedExpr::EvalBatch(
    const ColumnBatch& batch) const {
  if (compiled_ != nullptr) return compiled_->EvalBatch(batch);
  // Interpreted: walk the tree once per row. The one-column batch infers
  // the column's typing, so mixed-type results stay boxed per row.
  ColumnBatch out(1);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    ASSIGN_OR_RETURN(Value v, EvalExpr(*interpreted_, batch.RowAt(r)));
    out.AppendTuple(Tuple({std::move(v)}));
  }
  return out.column(0);
}

Status Executor::PreparedExpr::EvalPredicateBatch(
    const ColumnBatch& batch, std::vector<uint8_t>* keep) const {
  if (compiled_ != nullptr) return compiled_->EvalPredicateBatch(batch, keep);
  keep->assign(batch.num_rows(), 0);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    ASSIGN_OR_RETURN(bool pass,
                     exec::EvalPredicate(*interpreted_, batch.RowAt(r)));
    (*keep)[r] = pass ? 1 : 0;
  }
  return Status::OK();
}

// ---------------------------------------------------------------- Executor

Executor::Executor(const TableResolver* resolver, ExecOptions options)
    : resolver_(resolver), options_(std::move(options)) {}

void Executor::Charge(sim::SimTime ns) {
  stats_.charged_ns += ns;
  if (options_.charge) options_.charge(ns);
}

namespace {

std::vector<Tuple> FlattenBatches(const std::vector<ColumnBatch>& batches) {
  size_t total = 0;
  for (const ColumnBatch& b : batches) total += b.num_rows();
  std::vector<Tuple> out;
  out.reserve(total);
  for (const ColumnBatch& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) out.push_back(b.RowAt(r));
  }
  return out;
}

/// Display label of a plan node in profiles ("Scan(emp#3)", "Join", ...).
std::string OperatorLabel(const Plan& plan) {
  std::string label = PlanKindName(plan.kind());
  if (plan.kind() == PlanKind::kScan) {
    label += '(';
    label += static_cast<const ScanPlan&>(plan).table();
    label += ')';
  }
  return label;
}

}  // namespace

StatusOr<std::vector<Tuple>> Executor::Execute(const Plan& plan) {
  profile_root_.reset();
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> batches, RunBatches(plan));
  std::vector<Tuple> out = FlattenBatches(batches);
  stats_.tuples_output = out.size();
  return out;
}

StatusOr<std::optional<std::vector<Tuple>>> Executor::TryIndexSelect(
    const SelectPlan& plan) {
  if (plan.child()->kind() != PlanKind::kScan) return std::optional<std::vector<Tuple>>();
  const auto& scan = static_cast<const ScanPlan&>(*plan.child());
  ASSIGN_OR_RETURN(const storage::Relation* rel,
                   resolver_->Resolve(scan.table()));
  std::optional<IndexCandidates> path = ChooseIndexPath(
      plan.predicate(), *resolver_, scan.table(), options_.costs);
  if (!path.has_value()) return std::optional<std::vector<Tuple>>();
  ++stats_.index_selections;

  // Candidate rows are re-checked against the *full* predicate, so the
  // access path only needs to be a superset of the answer.
  ASSIGN_OR_RETURN(PreparedExpr pred,
                   PreparedExpr::Make(plan.predicate(), options_));
  std::vector<Tuple> out;
  for (const storage::RowId row : path->rows) {
    auto tuple = rel->Get(row);
    if (!tuple.ok()) continue;  // Row vanished (not possible locally).
    ASSIGN_OR_RETURN(bool keep, pred.EvalPredicate(*tuple));
    ++stats_.expr_evaluations;
    if (keep) out.push_back(std::move(*tuple));
  }
  Charge(path->walk_ns +
         static_cast<sim::SimTime>(path->rows.size()) *
             (options_.costs.hash_ns + pred.cost_ns()));
  return std::optional<std::vector<Tuple>>(std::move(out));
}

StatusOr<std::vector<Tuple>> Executor::RunUnion(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> left, RunChildRows(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<Tuple> right, RunChildRows(*plan.child(1)));
  Charge(static_cast<sim::SimTime>(right.size()) * options_.costs.tuple_ns);
  for (Tuple& t : right) left.push_back(std::move(t));
  return left;
}

StatusOr<std::vector<Tuple>> Executor::RunDifference(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> left, RunChildRows(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<Tuple> right, RunChildRows(*plan.child(1)));
  // Anti-semi by whole-tuple equality; left duplicates surviving together.
  std::set<Tuple> reject(right.begin(), right.end());
  Charge(static_cast<sim::SimTime>(left.size() + right.size()) *
         options_.costs.hash_ns);
  std::vector<Tuple> out;
  for (Tuple& t : left) {
    if (!reject.contains(t)) out.push_back(std::move(t));
  }
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunDistinct(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));
  Charge(static_cast<sim::SimTime>(in.size()) * options_.costs.hash_ns);
  std::set<Tuple> seen;
  std::vector<Tuple> out;
  for (Tuple& t : in) {
    if (seen.insert(t).second) out.push_back(std::move(t));
  }
  return out;
}

namespace {

/// Running state of one aggregate over one group.
struct AggState {
  uint64_t count = 0;        // Non-null inputs (or all rows for COUNT(*)).
  int64_t sum_i = 0;
  double sum_d = 0;
  bool sum_is_double = false;
  std::optional<Value> min;
  std::optional<Value> max;

  void Add(const Value& v, AggFunc func, bool count_star) {
    if (count_star) {
      ++count;
      return;
    }
    if (v.is_null()) return;  // SQL aggregates ignore NULLs.
    ++count;
    switch (func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == DataType::kDouble) {
          sum_is_double = true;
          sum_d += v.double_value();
        } else {
          sum_i += v.int_value();
          sum_d += static_cast<double>(v.int_value());
        }
        break;
      case AggFunc::kMin:
        if (!min.has_value() || v < *min) min = v;
        break;
      case AggFunc::kMax:
        if (!max.has_value() || *max < v) max = v;
        break;
    }
  }

  Value Result(AggFunc func, DataType out_type) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (out_type == DataType::kDouble || sum_is_double) {
          return Value::Double(sum_d);
        }
        return Value::Int(sum_i);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum_d / static_cast<double>(count));
      case AggFunc::kMin:
        return min.has_value() ? *min : Value::Null();
      case AggFunc::kMax:
        return max.has_value() ? *max : Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

StatusOr<std::vector<Tuple>> Executor::RunSort(const SortPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));

  std::vector<PreparedExpr> keys;
  sim::SimTime key_cost = 0;
  for (const auto& k : plan.keys()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*k.expr, options_));
    key_cost += p.cost_ns();
    keys.push_back(std::move(p));
  }
  // Evaluate sort keys once per tuple.
  std::vector<Tuple> key_tuples;
  key_tuples.reserve(in.size());
  for (const Tuple& t : in) {
    std::vector<Value> vals;
    vals.reserve(keys.size());
    for (const PreparedExpr& k : keys) {
      ASSIGN_OR_RETURN(Value v, k.Eval(t));
      ++stats_.expr_evaluations;
      vals.push_back(std::move(v));
    }
    key_tuples.push_back(Tuple(std::move(vals)));
  }

  std::vector<size_t> order(in.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const int c = key_tuples[a].at(i).Compare(key_tuples[b].at(i));
      if (c != 0) return plan.keys()[i].descending ? c > 0 : c < 0;
    }
    return false;
  });

  const double n = static_cast<double>(std::max<size_t>(in.size(), 2));
  Charge(static_cast<sim::SimTime>(n * std::log2(n)) *
             options_.costs.compare_ns +
         static_cast<sim::SimTime>(in.size()) * key_cost);

  std::vector<Tuple> out;
  out.reserve(in.size());
  for (const size_t i : order) out.push_back(std::move(in[i]));
  return out;
}

StatusOr<std::vector<Tuple>> Executor::RunLimit(const LimitPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> in, RunChildRows(*plan.child()));
  if (in.size() > plan.limit()) in.resize(plan.limit());
  return in;
}

StatusOr<std::vector<Tuple>> Executor::RunTransitiveClosure(const Plan& plan) {
  ASSIGN_OR_RETURN(std::vector<Tuple> edges, RunChildRows(*plan.child()));
  TcStats tc_stats;
  ASSIGN_OR_RETURN(
      std::vector<Tuple> out,
      TransitiveClosure(edges, TcAlgorithm::kSeminaive, &tc_stats));
  Charge(static_cast<sim::SimTime>(tc_stats.pairs_derived) *
         options_.costs.hash_ns);
  return out;
}

// ------------------------------------------------------------ batch spine

StatusOr<std::vector<Tuple>> Executor::RunChildRows(const Plan& child) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> batches, RunBatches(child));
  return FlattenBatches(batches);
}

StatusOr<std::vector<ColumnBatch>> Executor::RunBatches(const Plan& plan) {
  if (!options_.profile) {
    auto result = DispatchBatches(plan);
    if (result.ok()) stats_.batches += result->size();
    return result;
  }
  obs::OperatorProfile node;
  node.op = OperatorLabel(plan);
  obs::OperatorProfile* parent = current_profile_;
  current_profile_ = &node;
  const sim::SimTime before_ns = stats_.charged_ns;
  auto result = DispatchBatches(plan);
  current_profile_ = parent;
  node.total_ns = stats_.charged_ns - before_ns;
  if (result.ok()) {
    stats_.batches += result->size();
    node.batches = result->size();
    for (const ColumnBatch& b : *result) {
      node.rows += b.num_rows();
      node.bytes += static_cast<uint64_t>(b.ByteSize());
    }
  }
  if (parent != nullptr) {
    parent->children.push_back(std::move(node));
  } else {
    profile_root_ = std::move(node);
  }
  return result;
}

StatusOr<std::vector<ColumnBatch>> Executor::Rechunk(
    StatusOr<std::vector<Tuple>> rows) const {
  RETURN_IF_ERROR(rows.status());
  return ColumnBatch::Chunk(*rows, options_.batch_rows);
}

StatusOr<std::vector<ColumnBatch>> Executor::DispatchBatches(
    const Plan& plan) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return RunScanBatches(static_cast<const ScanPlan&>(plan));
    case PlanKind::kSelect:
      return RunSelectBatches(static_cast<const SelectPlan&>(plan));
    case PlanKind::kProject:
      return RunProjectBatches(static_cast<const ProjectPlan&>(plan));
    case PlanKind::kJoin:
      return RunJoinBatches(static_cast<const JoinPlan&>(plan));
    case PlanKind::kAggregate:
      return RunAggregateBatches(static_cast<const AggregatePlan&>(plan));
    case PlanKind::kExchange:
      // Repartitioning is a mail-layer affair (DESIGN.md §10); within one
      // local executor an Exchange moves nothing and is a pass-through.
      return DispatchBatches(*plan.child());
    // Operators without a batch kernel run their row logic (over batched
    // children, via RunChildRows) and re-chunk the output.
    case PlanKind::kValues:
      return Rechunk(static_cast<const ValuesPlan&>(plan).rows());
    case PlanKind::kUnion:
      return Rechunk(RunUnion(plan));
    case PlanKind::kDifference:
      return Rechunk(RunDifference(plan));
    case PlanKind::kDistinct:
      return Rechunk(RunDistinct(plan));
    case PlanKind::kSort:
      return Rechunk(RunSort(static_cast<const SortPlan&>(plan)));
    case PlanKind::kLimit:
      return Rechunk(RunLimit(static_cast<const LimitPlan&>(plan)));
    case PlanKind::kTransitiveClosure:
      return Rechunk(RunTransitiveClosure(plan));
  }
  return InternalError("corrupt plan kind");
}

StatusOr<std::vector<ColumnBatch>> Executor::RunScanBatches(
    const ScanPlan& plan) {
  ASSIGN_OR_RETURN(const storage::Relation* rel,
                   resolver_->Resolve(plan.table()));
  std::vector<ColumnBatch> out = rel->ScanBatches(options_.batch_rows);
  size_t rows = 0;
  for (const ColumnBatch& b : out) rows += b.num_rows();
  stats_.tuples_scanned += rows;
  Charge(static_cast<sim::SimTime>(rows) * options_.costs.batch_row_ns +
         static_cast<sim::SimTime>(out.size()) *
             options_.costs.vector_batch_ns);
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunSelectBatches(
    const SelectPlan& plan) {
  // Index access paths return rows; re-chunk them.
  ASSIGN_OR_RETURN(std::optional<std::vector<Tuple>> via_index,
                   TryIndexSelect(plan));
  if (via_index.has_value()) {
    return ColumnBatch::Chunk(*via_index, options_.batch_rows);
  }

  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));
  ASSIGN_OR_RETURN(PreparedExpr pred,
                   PreparedExpr::Make(plan.predicate(), options_));
  std::vector<ColumnBatch> out;
  std::vector<uint8_t> keep;
  std::vector<uint32_t> idx;
  for (const ColumnBatch& b : in) {
    RETURN_IF_ERROR(pred.EvalPredicateBatch(b, &keep));
    stats_.expr_evaluations += b.num_rows();
    Charge(static_cast<sim::SimTime>(b.num_rows()) *
               (options_.costs.batch_row_ns + pred.vrow_cost_ns()) +
           pred.vbatch_cost_ns());
    idx.clear();
    for (size_t r = 0; r < b.num_rows(); ++r) {
      if (keep[r]) idx.push_back(static_cast<uint32_t>(r));
    }
    if (idx.empty()) continue;
    out.push_back(b.TakeRows(idx));
  }
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunProjectBatches(
    const ProjectPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));
  std::vector<PreparedExpr> exprs;
  sim::SimTime per_row = options_.costs.batch_row_ns;
  sim::SimTime per_batch = 0;
  for (const auto& e : plan.exprs()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*e, options_));
    per_row += p.vrow_cost_ns();
    per_batch += p.vbatch_cost_ns();
    exprs.push_back(std::move(p));
  }
  std::vector<ColumnBatch> out;
  out.reserve(in.size());
  for (const ColumnBatch& b : in) {
    std::vector<ColumnBatch::Column> cols;
    cols.reserve(exprs.size());
    for (const PreparedExpr& e : exprs) {
      StatusOr<ColumnBatch::Column> col = e.EvalBatch(b);
      if (!col.ok()) {
        // Surface the first error in row-major (row-then-expression)
        // order, whichever column failed first: re-evaluate this batch
        // row by row.
        for (size_t r = 0; r < b.num_rows(); ++r) {
          const Tuple row = b.RowAt(r);
          for (const PreparedExpr& re : exprs) {
            RETURN_IF_ERROR(re.Eval(row).status());
          }
        }
        return col.status();
      }
      cols.push_back(std::move(*col));
    }
    stats_.expr_evaluations += b.num_rows() * exprs.size();
    Charge(static_cast<sim::SimTime>(b.num_rows()) * per_row + per_batch);
    out.push_back(ColumnBatch::FromColumns(std::move(cols), b.num_rows()));
  }
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunJoinBatches(
    const JoinPlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> left, RunBatches(*plan.child(0)));
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> right, RunBatches(*plan.child(1)));

  JoinFilter filter;
  sim::SimTime filter_cost = 0;
  std::optional<PreparedExpr> pred;
  if (plan.predicate() != nullptr) {
    ASSIGN_OR_RETURN(PreparedExpr p,
                     PreparedExpr::Make(*plan.predicate(), options_));
    filter_cost = p.cost_ns();
    pred = std::move(p);
    filter = [this, &pred](const Tuple& t) {
      ++stats_.expr_evaluations;
      return pred->EvalPredicate(t);
    };
  }

  const auto keys = plan.EquiKeys();
  JoinCounters counters;
  StatusOr<std::vector<ColumnBatch>> out =
      keys.empty() ? VectorizedNestedLoopJoin(left, right, options_.batch_rows,
                                              filter, &counters)
                   : VectorizedHashJoin(left, right, keys, options_.batch_rows,
                                        filter, &counters);
  RETURN_IF_ERROR(out.status());
  Charge(static_cast<sim::SimTime>(counters.hash_ops) *
             options_.costs.hash_ns +
         static_cast<sim::SimTime>(counters.compare_ops) *
             options_.costs.compare_ns +
         static_cast<sim::SimTime>(counters.pairs_examined) *
             (options_.costs.batch_row_ns + filter_cost));
  return out;
}

StatusOr<std::vector<ColumnBatch>> Executor::RunAggregateBatches(
    const AggregatePlan& plan) {
  ASSIGN_OR_RETURN(std::vector<ColumnBatch> in, RunBatches(*plan.child()));

  std::vector<PreparedExpr> group_exprs;
  sim::SimTime per_row = options_.costs.hash_ns;
  sim::SimTime per_batch = 0;
  for (const auto& g : plan.group_by()) {
    ASSIGN_OR_RETURN(PreparedExpr p, PreparedExpr::Make(*g, options_));
    per_row += p.vrow_cost_ns();
    per_batch += p.vbatch_cost_ns();
    group_exprs.push_back(std::move(p));
  }
  std::vector<PreparedExpr> agg_args(plan.aggs().size());
  std::vector<bool> has_arg(plan.aggs().size(), false);
  for (size_t i = 0; i < plan.aggs().size(); ++i) {
    if (plan.aggs()[i].arg != nullptr) {
      ASSIGN_OR_RETURN(PreparedExpr p,
                       PreparedExpr::Make(*plan.aggs()[i].arg, options_));
      per_row += p.vrow_cost_ns();
      per_batch += p.vbatch_cost_ns();
      agg_args[i] = std::move(p);
      has_arg[i] = true;
    }
  }

  std::map<Tuple, std::vector<AggState>> groups;
  for (const ColumnBatch& b : in) {
    // Evaluate all key and argument expressions column-wise; on any error,
    // re-run this batch row-major to surface the first error in row order.
    auto row_major_error = [&]() -> Status {
      for (size_t r = 0; r < b.num_rows(); ++r) {
        const Tuple row = b.RowAt(r);
        for (const PreparedExpr& g : group_exprs) {
          RETURN_IF_ERROR(g.Eval(row).status());
        }
        for (size_t i = 0; i < plan.aggs().size(); ++i) {
          if (has_arg[i]) RETURN_IF_ERROR(agg_args[i].Eval(row).status());
        }
      }
      return Status::OK();
    };
    std::vector<ColumnBatch::Column> key_cols;
    key_cols.reserve(group_exprs.size());
    for (const PreparedExpr& g : group_exprs) {
      StatusOr<ColumnBatch::Column> col = g.EvalBatch(b);
      if (!col.ok()) {
        RETURN_IF_ERROR(row_major_error());
        return col.status();
      }
      key_cols.push_back(std::move(*col));
    }
    std::vector<ColumnBatch::Column> arg_cols(plan.aggs().size());
    for (size_t i = 0; i < plan.aggs().size(); ++i) {
      if (!has_arg[i]) continue;
      StatusOr<ColumnBatch::Column> col = agg_args[i].EvalBatch(b);
      if (!col.ok()) {
        RETURN_IF_ERROR(row_major_error());
        return col.status();
      }
      arg_cols[i] = std::move(*col);
    }
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::vector<Value> key_vals;
      key_vals.reserve(key_cols.size());
      for (const ColumnBatch::Column& c : key_cols) {
        key_vals.push_back(c.ValueAt(r));
      }
      auto [it, inserted] =
          groups.try_emplace(Tuple(std::move(key_vals)),
                             std::vector<AggState>(plan.aggs().size()));
      for (size_t i = 0; i < plan.aggs().size(); ++i) {
        Value v;
        if (has_arg[i]) v = arg_cols[i].ValueAt(r);
        it->second[i].Add(v, plan.aggs()[i].func, !has_arg[i]);
      }
    }
    stats_.expr_evaluations +=
        b.num_rows() * (group_exprs.size() +
                        static_cast<size_t>(std::count(
                            has_arg.begin(), has_arg.end(), true)));
    Charge(static_cast<sim::SimTime>(b.num_rows()) * per_row + per_batch);
  }
  if (groups.empty() && plan.group_by().empty()) {
    groups.try_emplace(Tuple(), std::vector<AggState>(plan.aggs().size()));
  }

  std::vector<Tuple> rows;
  rows.reserve(groups.size());
  const size_t num_groups = plan.group_by().size();
  for (const auto& [key, states] : groups) {
    std::vector<Value> row = key.values();
    for (size_t i = 0; i < states.size(); ++i) {
      row.push_back(states[i].Result(
          plan.aggs()[i].func, plan.schema().column(num_groups + i).type));
    }
    rows.push_back(Tuple(std::move(row)));
  }
  return ColumnBatch::Chunk(rows, options_.batch_rows);
}

}  // namespace prisma::exec
