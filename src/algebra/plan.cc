#include "algebra/plan.h"

#include <utility>

#include "common/logging.h"
#include "common/str_util.h"

namespace prisma::algebra {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kValues:
      return "Values";
    case PlanKind::kSelect:
      return "Select";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kDifference:
      return "Difference";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kTransitiveClosure:
      return "TransitiveClosure";
    case PlanKind::kExchange:
      return "Exchange";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

namespace {

/// Checks column-type compatibility for set operators.
Status CheckSameShape(const Schema& a, const Schema& b, const char* op) {
  if (a.num_columns() != b.num_columns()) {
    return InvalidArgumentError(StrFormat("%s inputs have %zu vs %zu columns",
                                          op, a.num_columns(),
                                          b.num_columns()));
  }
  for (size_t i = 0; i < a.num_columns(); ++i) {
    const DataType lt = a.column(i).type;
    const DataType rt = b.column(i).type;
    if (lt != rt && lt != DataType::kNull && rt != DataType::kNull) {
      return InvalidArgumentError(
          StrFormat("%s column %zu types differ: %s vs %s", op, i,
                    DataTypeName(lt), DataTypeName(rt)));
    }
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------------- Plan

std::unique_ptr<Plan> Plan::TakeChild(size_t i) {
  PRISMA_CHECK(i < children_.size());
  return std::move(children_[i]);
}

void Plan::SetChild(size_t i, std::unique_ptr<Plan> child) {
  PRISMA_CHECK(i < children_.size());
  children_[i] = std::move(child);
}

std::string Plan::ToString() const {
  std::string out;
  AppendTo(&out, 0);
  return out;
}

void Plan::AppendTo(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(SelfString());
  out->append("\n");
  for (const auto& c : children_) c->AppendTo(out, indent + 1);
}

size_t Plan::TreeSize() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->TreeSize();
  return n;
}

void Plan::CollectLiterals(Literals* out) const {
  for (const Expr* e : OwnExprs()) e->CollectLiterals(out);
  for (const auto& c : children_) c->CollectLiterals(out);
}

std::unique_ptr<Plan> Plan::CloneWithLiterals(const Literals& values) const {
  std::unique_ptr<Plan> clone = Clone();
  clone->SetLiterals(values);
  return clone;
}

void Plan::SetLiterals(const Literals& values) {
  for (Expr* e : OwnExprs()) e->SetLiterals(values);
  for (const auto& c : children_) c->SetLiterals(values);
}

// ------------------------------------------------------------------- Scan

std::unique_ptr<ScanPlan> ScanPlan::Create(std::string table, Schema schema) {
  return std::unique_ptr<ScanPlan>(
      new ScanPlan(std::move(table), std::move(schema)));
}

std::unique_ptr<Plan> ScanPlan::Clone() const {
  return Create(table_, schema_);
}

std::string ScanPlan::SelfString() const {
  return "Scan " + table_ + " " + schema_.ToString();
}

// ----------------------------------------------------------------- Values

StatusOr<std::unique_ptr<ValuesPlan>> ValuesPlan::Create(
    Schema schema, std::vector<Tuple> rows) {
  for (Tuple& row : rows) {
    if (row.size() != schema.num_columns()) {
      return InvalidArgumentError("VALUES row arity mismatch");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      ASSIGN_OR_RETURN(Value v,
                       CoerceValue(row.at(i), schema.column(i).type));
      row.at(i) = std::move(v);
    }
  }
  return std::unique_ptr<ValuesPlan>(
      new ValuesPlan(std::move(schema), std::move(rows)));
}

std::unique_ptr<Plan> ValuesPlan::Clone() const {
  return std::unique_ptr<ValuesPlan>(new ValuesPlan(schema_, rows_));
}

std::string ValuesPlan::SelfString() const {
  return StrFormat("Values [%zu rows]", rows_.size());
}

// ----------------------------------------------------------------- Select

SelectPlan::SelectPlan(std::unique_ptr<Plan> child,
                       std::unique_ptr<Expr> predicate)
    : Plan(PlanKind::kSelect, child->schema()),
      predicate_(std::move(predicate)) {
  children_.push_back(std::move(child));
}

StatusOr<std::unique_ptr<SelectPlan>> SelectPlan::Create(
    std::unique_ptr<Plan> child, std::unique_ptr<Expr> predicate) {
  RETURN_IF_ERROR(predicate->Bind(child->schema()));
  if (predicate->result_type() != DataType::kBool &&
      predicate->result_type() != DataType::kNull) {
    return InvalidArgumentError("selection predicate must be BOOL, got " +
                                std::string(DataTypeName(predicate->result_type())));
  }
  return std::unique_ptr<SelectPlan>(
      new SelectPlan(std::move(child), std::move(predicate)));
}

std::unique_ptr<Plan> SelectPlan::Clone() const {
  return std::unique_ptr<SelectPlan>(
      new SelectPlan(children_[0]->Clone(), predicate_->Clone()));
}

std::vector<Expr*> SelectPlan::OwnExprs() const {
  return {predicate_.get()};
}

std::string SelectPlan::SelfString() const {
  return "Select " + predicate_->ToString();
}

// ---------------------------------------------------------------- Project

ProjectPlan::ProjectPlan(std::unique_ptr<Plan> child,
                         std::vector<std::unique_ptr<Expr>> exprs,
                         Schema schema)
    : Plan(PlanKind::kProject, std::move(schema)), exprs_(std::move(exprs)) {
  children_.push_back(std::move(child));
}

StatusOr<std::unique_ptr<ProjectPlan>> ProjectPlan::Create(
    std::unique_ptr<Plan> child, std::vector<std::unique_ptr<Expr>> exprs,
    std::vector<std::string> names) {
  if (exprs.size() != names.size()) {
    return InvalidArgumentError("projection exprs/names size mismatch");
  }
  if (exprs.empty()) {
    return InvalidArgumentError("empty projection");
  }
  Schema schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    RETURN_IF_ERROR(exprs[i]->Bind(child->schema()));
    schema.AddColumn(names[i], exprs[i]->result_type());
  }
  return std::unique_ptr<ProjectPlan>(new ProjectPlan(
      std::move(child), std::move(exprs), std::move(schema)));
}

std::unique_ptr<Plan> ProjectPlan::Clone() const {
  std::vector<std::unique_ptr<Expr>> exprs;
  for (const auto& e : exprs_) exprs.push_back(e->Clone());
  return std::unique_ptr<ProjectPlan>(
      new ProjectPlan(children_[0]->Clone(), std::move(exprs), schema_));
}

std::vector<Expr*> ProjectPlan::OwnExprs() const {
  std::vector<Expr*> out;
  for (const auto& e : exprs_) out.push_back(e.get());
  return out;
}

std::string ProjectPlan::SelfString() const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    parts.push_back(exprs_[i]->ToString() + " AS " + schema_.column(i).name);
  }
  return "Project " + Join(parts, ", ");
}

// ------------------------------------------------------------------- Join

JoinPlan::JoinPlan(std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
                   std::unique_ptr<Expr> predicate)
    : Plan(PlanKind::kJoin, left->schema().Concat(right->schema())),
      predicate_(std::move(predicate)) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

StatusOr<std::unique_ptr<JoinPlan>> JoinPlan::Create(
    std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
    std::unique_ptr<Expr> predicate) {
  if (predicate != nullptr) {
    const Schema joined = left->schema().Concat(right->schema());
    RETURN_IF_ERROR(predicate->Bind(joined));
    if (predicate->result_type() != DataType::kBool &&
        predicate->result_type() != DataType::kNull) {
      return InvalidArgumentError("join predicate must be BOOL");
    }
  }
  return std::unique_ptr<JoinPlan>(
      new JoinPlan(std::move(left), std::move(right), std::move(predicate)));
}

std::unique_ptr<Plan> JoinPlan::Clone() const {
  return std::unique_ptr<JoinPlan>(
      new JoinPlan(children_[0]->Clone(), children_[1]->Clone(),
                   predicate_ ? predicate_->Clone() : nullptr));
}

std::vector<std::pair<size_t, size_t>> JoinPlan::EquiKeys() const {
  std::vector<std::pair<size_t, size_t>> keys;
  if (predicate_ == nullptr) return keys;
  const size_t left_width = children_[0]->schema().num_columns();
  for (const auto& conjunct : SplitConjuncts(*predicate_)) {
    if (conjunct->kind() != ExprKind::kBinary ||
        conjunct->binary_op() != BinaryOp::kEq) {
      continue;
    }
    const Expr* l = conjunct->left();
    const Expr* r = conjunct->right();
    if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kColumnRef) {
      continue;
    }
    const size_t li = l->column_index();
    const size_t ri = r->column_index();
    if (li < left_width && ri >= left_width) {
      keys.push_back({li, ri - left_width});
    } else if (ri < left_width && li >= left_width) {
      keys.push_back({ri, li - left_width});
    }
  }
  return keys;
}

std::vector<Expr*> JoinPlan::OwnExprs() const {
  if (predicate_ == nullptr) return {};
  return {predicate_.get()};
}

std::string JoinPlan::SelfString() const {
  return "Join " + (predicate_ ? predicate_->ToString() : std::string("TRUE"));
}

// ------------------------------------------------------------------ Union

UnionPlan::UnionPlan(std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
                     Schema schema)
    : Plan(PlanKind::kUnion, std::move(schema)) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

StatusOr<std::unique_ptr<UnionPlan>> UnionPlan::Create(
    std::unique_ptr<Plan> left, std::unique_ptr<Plan> right) {
  RETURN_IF_ERROR(CheckSameShape(left->schema(), right->schema(), "UNION"));
  Schema schema = left->schema();
  return std::unique_ptr<UnionPlan>(
      new UnionPlan(std::move(left), std::move(right), std::move(schema)));
}

std::unique_ptr<Plan> UnionPlan::Clone() const {
  return std::unique_ptr<UnionPlan>(
      new UnionPlan(children_[0]->Clone(), children_[1]->Clone(), schema_));
}

std::string UnionPlan::SelfString() const { return "Union"; }

// ------------------------------------------------------------- Difference

DifferencePlan::DifferencePlan(std::unique_ptr<Plan> left,
                               std::unique_ptr<Plan> right, Schema schema)
    : Plan(PlanKind::kDifference, std::move(schema)) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

StatusOr<std::unique_ptr<DifferencePlan>> DifferencePlan::Create(
    std::unique_ptr<Plan> left, std::unique_ptr<Plan> right) {
  RETURN_IF_ERROR(CheckSameShape(left->schema(), right->schema(), "EXCEPT"));
  Schema schema = left->schema();
  return std::unique_ptr<DifferencePlan>(new DifferencePlan(
      std::move(left), std::move(right), std::move(schema)));
}

std::unique_ptr<Plan> DifferencePlan::Clone() const {
  return std::unique_ptr<DifferencePlan>(new DifferencePlan(
      children_[0]->Clone(), children_[1]->Clone(), schema_));
}

std::string DifferencePlan::SelfString() const { return "Difference"; }

// --------------------------------------------------------------- Distinct

DistinctPlan::DistinctPlan(std::unique_ptr<Plan> child)
    : Plan(PlanKind::kDistinct, child->schema()) {
  children_.push_back(std::move(child));
}

std::unique_ptr<DistinctPlan> DistinctPlan::Create(
    std::unique_ptr<Plan> child) {
  return std::unique_ptr<DistinctPlan>(new DistinctPlan(std::move(child)));
}

std::unique_ptr<Plan> DistinctPlan::Clone() const {
  return std::unique_ptr<DistinctPlan>(
      new DistinctPlan(children_[0]->Clone()));
}

std::string DistinctPlan::SelfString() const { return "Distinct"; }

// -------------------------------------------------------------- Aggregate

AggregatePlan::AggregatePlan(std::unique_ptr<Plan> child,
                             std::vector<std::unique_ptr<Expr>> group_by,
                             std::vector<AggSpec> aggs, Schema schema)
    : Plan(PlanKind::kAggregate, std::move(schema)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  children_.push_back(std::move(child));
}

StatusOr<std::unique_ptr<AggregatePlan>> AggregatePlan::Create(
    std::unique_ptr<Plan> child, std::vector<std::unique_ptr<Expr>> group_by,
    std::vector<std::string> group_names, std::vector<AggSpec> aggs) {
  if (group_by.size() != group_names.size()) {
    return InvalidArgumentError("group-by exprs/names size mismatch");
  }
  Schema schema;
  for (size_t i = 0; i < group_by.size(); ++i) {
    RETURN_IF_ERROR(group_by[i]->Bind(child->schema()));
    schema.AddColumn(group_names[i], group_by[i]->result_type());
  }
  for (AggSpec& agg : aggs) {
    DataType out_type = DataType::kInt64;
    if (agg.arg != nullptr) {
      RETURN_IF_ERROR(agg.arg->Bind(child->schema()));
      const DataType at = agg.arg->result_type();
      switch (agg.func) {
        case AggFunc::kCount:
          out_type = DataType::kInt64;
          break;
        case AggFunc::kSum:
          if (at != DataType::kInt64 && at != DataType::kDouble &&
              at != DataType::kNull) {
            return InvalidArgumentError("SUM requires a numeric argument");
          }
          out_type = at;
          break;
        case AggFunc::kAvg:
          if (at != DataType::kInt64 && at != DataType::kDouble &&
              at != DataType::kNull) {
            return InvalidArgumentError("AVG requires a numeric argument");
          }
          out_type = DataType::kDouble;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          out_type = at;
          break;
      }
    } else {
      if (agg.func != AggFunc::kCount) {
        return InvalidArgumentError(
            std::string(AggFuncName(agg.func)) + " requires an argument");
      }
      out_type = DataType::kInt64;
    }
    schema.AddColumn(agg.output_name, out_type);
  }
  if (schema.num_columns() == 0) {
    return InvalidArgumentError("aggregate with no outputs");
  }
  return std::unique_ptr<AggregatePlan>(
      new AggregatePlan(std::move(child), std::move(group_by),
                        std::move(aggs), std::move(schema)));
}

std::unique_ptr<Plan> AggregatePlan::Clone() const {
  std::vector<std::unique_ptr<Expr>> group_by;
  for (const auto& g : group_by_) group_by.push_back(g->Clone());
  std::vector<AggSpec> aggs;
  for (const auto& a : aggs_) aggs.push_back(a.Clone());
  return std::unique_ptr<AggregatePlan>(new AggregatePlan(
      children_[0]->Clone(), std::move(group_by), std::move(aggs), schema_));
}

std::vector<Expr*> AggregatePlan::OwnExprs() const {
  std::vector<Expr*> out;
  for (const auto& g : group_by_) out.push_back(g.get());
  for (const AggSpec& a : aggs_) {
    if (a.arg != nullptr) out.push_back(a.arg.get());
  }
  return out;
}

std::string AggregatePlan::SelfString() const {
  std::vector<std::string> parts;
  for (const auto& g : group_by_) parts.push_back(g->ToString());
  for (const auto& a : aggs_) {
    parts.push_back(std::string(AggFuncName(a.func)) + "(" +
                    (a.arg ? a.arg->ToString() : "*") + ")");
  }
  return "Aggregate " + Join(parts, ", ");
}

// ------------------------------------------------------------------- Sort

SortPlan::SortPlan(std::unique_ptr<Plan> child, std::vector<SortKey> keys)
    : Plan(PlanKind::kSort, child->schema()), keys_(std::move(keys)) {
  children_.push_back(std::move(child));
}

StatusOr<std::unique_ptr<SortPlan>> SortPlan::Create(
    std::unique_ptr<Plan> child, std::vector<SortKey> keys) {
  if (keys.empty()) return InvalidArgumentError("sort with no keys");
  for (SortKey& k : keys) {
    RETURN_IF_ERROR(k.expr->Bind(child->schema()));
  }
  return std::unique_ptr<SortPlan>(
      new SortPlan(std::move(child), std::move(keys)));
}

std::unique_ptr<Plan> SortPlan::Clone() const {
  std::vector<SortKey> keys;
  for (const auto& k : keys_) keys.push_back(k.Clone());
  return std::unique_ptr<SortPlan>(
      new SortPlan(children_[0]->Clone(), std::move(keys)));
}

std::vector<Expr*> SortPlan::OwnExprs() const {
  std::vector<Expr*> out;
  for (const SortKey& k : keys_) out.push_back(k.expr.get());
  return out;
}

std::string SortPlan::SelfString() const {
  std::vector<std::string> parts;
  for (const auto& k : keys_) {
    parts.push_back(k.expr->ToString() + (k.descending ? " DESC" : " ASC"));
  }
  return "Sort " + Join(parts, ", ");
}

// ------------------------------------------------------------------ Limit

LimitPlan::LimitPlan(std::unique_ptr<Plan> child, uint64_t limit)
    : Plan(PlanKind::kLimit, child->schema()), limit_(limit) {
  children_.push_back(std::move(child));
}

std::unique_ptr<LimitPlan> LimitPlan::Create(std::unique_ptr<Plan> child,
                                             uint64_t limit) {
  return std::unique_ptr<LimitPlan>(new LimitPlan(std::move(child), limit));
}

std::unique_ptr<Plan> LimitPlan::Clone() const {
  return std::unique_ptr<LimitPlan>(
      new LimitPlan(children_[0]->Clone(), limit_));
}

std::string LimitPlan::SelfString() const {
  return StrFormat("Limit %llu", static_cast<unsigned long long>(limit_));
}

// ------------------------------------------------------- TransitiveClosure

TransitiveClosurePlan::TransitiveClosurePlan(std::unique_ptr<Plan> child)
    : Plan(PlanKind::kTransitiveClosure, child->schema()) {
  children_.push_back(std::move(child));
}

StatusOr<std::unique_ptr<TransitiveClosurePlan>> TransitiveClosurePlan::Create(
    std::unique_ptr<Plan> child) {
  const Schema& s = child->schema();
  if (s.num_columns() != 2) {
    return InvalidArgumentError(
        "transitive closure requires a binary relation, got " + s.ToString());
  }
  const DataType a = s.column(0).type;
  const DataType b = s.column(1).type;
  if (a != b && a != DataType::kNull && b != DataType::kNull) {
    return InvalidArgumentError(
        "transitive closure columns must have one type, got " + s.ToString());
  }
  return std::unique_ptr<TransitiveClosurePlan>(
      new TransitiveClosurePlan(std::move(child)));
}

std::unique_ptr<Plan> TransitiveClosurePlan::Clone() const {
  return std::unique_ptr<TransitiveClosurePlan>(
      new TransitiveClosurePlan(children_[0]->Clone()));
}

std::string TransitiveClosurePlan::SelfString() const {
  return "TransitiveClosure";
}

// --------------------------------------------------------------- Exchange

ExchangePlan::ExchangePlan(std::unique_ptr<Plan> child, Mode mode,
                           std::vector<size_t> keys)
    : Plan(PlanKind::kExchange, child->schema()),
      mode_(mode),
      keys_(std::move(keys)) {
  children_.push_back(std::move(child));
}

std::unique_ptr<ExchangePlan> ExchangePlan::Create(std::unique_ptr<Plan> child,
                                                   Mode mode,
                                                   std::vector<size_t> keys) {
  return std::unique_ptr<ExchangePlan>(
      new ExchangePlan(std::move(child), mode, std::move(keys)));
}

std::unique_ptr<Plan> ExchangePlan::Clone() const {
  return std::unique_ptr<ExchangePlan>(
      new ExchangePlan(children_[0]->Clone(), mode_, keys_));
}

std::string ExchangePlan::SelfString() const {
  if (mode_ == Mode::kBroadcast) return "Exchange broadcast";
  std::string out = "Exchange hash(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema_.column(keys_[i]).name;
  }
  out += ")";
  return out;
}

}  // namespace prisma::algebra
