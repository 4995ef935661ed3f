#include "algebra/expr.h"

#include <utility>

#include "common/logging.h"

namespace prisma::algebra {
namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kNull;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

/// Whether values of the two types may be compared at all.
bool Comparable(DataType a, DataType b) {
  if (a == DataType::kNull || b == DataType::kNull) return true;
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

}  // namespace

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNeg:
      return "-";
    case UnaryOp::kNot:
      return "NOT";
    case UnaryOp::kIsNull:
      return "IS NULL";
  }
  return "?";
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Literal(Value value, int ordinal) {
  auto e = std::unique_ptr<Expr>(new Expr(ExprKind::kLiteral));
  e->literal_ = std::move(value);
  e->ordinal_ = ordinal;
  e->result_type_ = e->literal_.type();
  e->bound_ = true;  // Literals need no schema.
  return e;
}

std::unique_ptr<Expr> Expr::ColumnRef(std::string name) {
  auto e = std::unique_ptr<Expr>(new Expr(ExprKind::kColumnRef));
  e->column_name_ = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::ColumnIndex(size_t index, DataType type) {
  auto e = std::unique_ptr<Expr>(new Expr(ExprKind::kColumnRef));
  e->column_index_ = index;
  e->column_name_ = std::string("$") + std::to_string(index);
  e->result_type_ = type;
  e->bound_ = true;
  return e;
}

std::unique_ptr<Expr> Expr::Unary(UnaryOp op, std::unique_ptr<Expr> operand) {
  auto e = std::unique_ptr<Expr>(new Expr(ExprKind::kUnary));
  e->unary_op_ = op;
  e->children_.push_back(std::move(operand));
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::unique_ptr<Expr>(new Expr(ExprKind::kBinary));
  e->binary_op_ = op;
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

Status Expr::Bind(const Schema& schema) {
  switch (kind_) {
    case ExprKind::kLiteral:
      result_type_ = literal_.type();
      bound_ = true;
      return Status::OK();
    case ExprKind::kColumnRef: {
      // Pre-resolved positional references keep their index.
      if (!column_name_.empty() && column_name_[0] == '$' &&
          column_index_ != SIZE_MAX) {
        if (column_index_ >= schema.num_columns()) {
          return InvalidArgumentError("column index out of range: " +
                                      column_name_);
        }
        result_type_ = schema.column(column_index_).type;
        bound_ = true;
        return Status::OK();
      }
      ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(column_name_));
      column_index_ = idx;
      result_type_ = schema.column(idx).type;
      bound_ = true;
      return Status::OK();
    }
    case ExprKind::kUnary: {
      RETURN_IF_ERROR(children_[0]->Bind(schema));
      const DataType t = children_[0]->result_type();
      switch (unary_op_) {
        case UnaryOp::kNeg:
          if (!IsNumeric(t)) {
            return InvalidArgumentError("cannot negate " +
                                        std::string(DataTypeName(t)));
          }
          result_type_ = t;
          break;
        case UnaryOp::kNot:
          if (t != DataType::kBool && t != DataType::kNull) {
            return InvalidArgumentError("NOT requires BOOL, got " +
                                        std::string(DataTypeName(t)));
          }
          result_type_ = DataType::kBool;
          break;
        case UnaryOp::kIsNull:
          result_type_ = DataType::kBool;
          break;
      }
      bound_ = true;
      return Status::OK();
    }
    case ExprKind::kBinary: {
      RETURN_IF_ERROR(children_[0]->Bind(schema));
      RETURN_IF_ERROR(children_[1]->Bind(schema));
      const DataType lt = children_[0]->result_type();
      const DataType rt = children_[1]->result_type();
      if (IsArithmetic(binary_op_)) {
        if (binary_op_ == BinaryOp::kAdd && lt == DataType::kString &&
            rt == DataType::kString) {
          result_type_ = DataType::kString;  // String concatenation.
        } else if (binary_op_ == BinaryOp::kMod) {
          if ((lt != DataType::kInt64 && lt != DataType::kNull) ||
              (rt != DataType::kInt64 && rt != DataType::kNull)) {
            return InvalidArgumentError("% requires INT operands");
          }
          result_type_ = DataType::kInt64;
        } else {
          if (!IsNumeric(lt) || !IsNumeric(rt)) {
            return InvalidArgumentError(
                std::string("arithmetic on non-numeric types: ") +
                DataTypeName(lt) + " " + BinaryOpName(binary_op_) + " " +
                DataTypeName(rt));
          }
          result_type_ = (lt == DataType::kDouble || rt == DataType::kDouble)
                             ? DataType::kDouble
                             : DataType::kInt64;
          if (lt == DataType::kNull) result_type_ = rt;
          if (rt == DataType::kNull) result_type_ = lt;
        }
      } else if (IsComparison(binary_op_)) {
        if (!Comparable(lt, rt)) {
          return InvalidArgumentError(
              std::string("cannot compare ") + DataTypeName(lt) + " with " +
              DataTypeName(rt));
        }
        result_type_ = DataType::kBool;
      } else {  // AND / OR.
        if ((lt != DataType::kBool && lt != DataType::kNull) ||
            (rt != DataType::kBool && rt != DataType::kNull)) {
          return InvalidArgumentError(
              std::string(BinaryOpName(binary_op_)) + " requires BOOL operands");
        }
        result_type_ = DataType::kBool;
      }
      bound_ = true;
      return Status::OK();
    }
  }
  return InternalError("corrupt expression kind");
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::unique_ptr<Expr>(new Expr(kind_));
  e->result_type_ = result_type_;
  e->bound_ = bound_;
  e->literal_ = literal_;
  e->ordinal_ = ordinal_;
  e->column_name_ = column_name_;
  e->column_index_ = column_index_;
  e->unary_op_ = unary_op_;
  e->binary_op_ = binary_op_;
  for (const auto& c : children_) e->children_.push_back(c->Clone());
  return e;
}

void Expr::CollectLiterals(Literals* out) const {
  if (kind_ == ExprKind::kLiteral && ordinal_ >= 0) {
    out->emplace(ordinal_, literal_);
  }
  for (const auto& c : children_) c->CollectLiterals(out);
}

void Expr::SetLiterals(const Literals& values) {
  if (kind_ == ExprKind::kLiteral && ordinal_ >= 0) {
    auto it = values.find(ordinal_);
    if (it != values.end()) {
      PRISMA_CHECK(it->second.type() == literal_.type())
          << "literal " << ordinal_ << " bound to another type";
      literal_ = it->second;
    }
  }
  for (const auto& c : children_) c->SetLiterals(values);
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_ == other.literal_ &&
             literal_.type() == other.literal_.type();
    case ExprKind::kColumnRef:
      if (bound_ && other.bound_) return column_index_ == other.column_index_;
      return column_name_ == other.column_name_;
    case ExprKind::kUnary:
      return unary_op_ == other.unary_op_ &&
             children_[0]->Equals(*other.children_[0]);
    case ExprKind::kBinary:
      return binary_op_ == other.binary_op_ &&
             children_[0]->Equals(*other.children_[0]) &&
             children_[1]->Equals(*other.children_[1]);
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kColumnRef:
      return column_name_;
    case ExprKind::kUnary:
      if (unary_op_ == UnaryOp::kIsNull) {
        return std::string("(") + children_[0]->ToString() + " IS NULL)";
      }
      return std::string(UnaryOpName(unary_op_)) + "(" +
             children_[0]->ToString() + ")";
    case ExprKind::kBinary:
      return std::string("(") + children_[0]->ToString() + " " +
             BinaryOpName(binary_op_) + " " + children_[1]->ToString() + ")";
  }
  return "?";
}

size_t Expr::TreeSize() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->TreeSize();
  return n;
}

void Expr::CollectColumnIndexes(std::vector<size_t>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    PRISMA_CHECK(bound_) << "CollectColumnIndexes on unbound expr";
    out->push_back(column_index_);
    return;
  }
  for (const auto& c : children_) c->CollectColumnIndexes(out);
}

bool Expr::IsConstant() const {
  if (kind_ == ExprKind::kColumnRef) return false;
  for (const auto& c : children_) {
    if (!c->IsConstant()) return false;
  }
  return true;
}

std::unique_ptr<Expr> Col(std::string name) {
  return Expr::ColumnRef(std::move(name));
}
std::unique_ptr<Expr> Lit(int64_t v) { return Expr::Literal(Value::Int(v)); }
std::unique_ptr<Expr> Lit(double v) { return Expr::Literal(Value::Double(v)); }
std::unique_ptr<Expr> Lit(std::string v) {
  return Expr::Literal(Value::String(std::move(v)));
}
std::unique_ptr<Expr> Eq(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r) {
  return Expr::Binary(BinaryOp::kEq, std::move(l), std::move(r));
}
std::unique_ptr<Expr> And(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r) {
  return Expr::Binary(BinaryOp::kAnd, std::move(l), std::move(r));
}

std::vector<std::unique_ptr<Expr>> SplitConjuncts(const Expr& predicate) {
  std::vector<std::unique_ptr<Expr>> out;
  if (predicate.kind() == ExprKind::kBinary &&
      predicate.binary_op() == BinaryOp::kAnd) {
    auto l = SplitConjuncts(*predicate.left());
    auto r = SplitConjuncts(*predicate.right());
    for (auto& e : l) out.push_back(std::move(e));
    for (auto& e : r) out.push_back(std::move(e));
    return out;
  }
  out.push_back(predicate.Clone());
  return out;
}

std::unique_ptr<Expr> CombineConjuncts(
    std::vector<std::unique_ptr<Expr>> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  std::unique_ptr<Expr> result = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = Expr::Binary(BinaryOp::kAnd, std::move(result),
                          std::move(conjuncts[i]));
  }
  return result;
}

std::unique_ptr<Expr> ToPositional(const Expr& expr) {
  if (expr.kind() == ExprKind::kColumnRef) {
    PRISMA_CHECK(expr.bound()) << "ToPositional on unbound column reference";
    return Expr::ColumnIndex(expr.column_index(), expr.result_type());
  }
  auto clone = expr.Clone();
  if (expr.kind() == ExprKind::kUnary) {
    return Expr::Unary(expr.unary_op(), ToPositional(*expr.operand()));
  }
  if (expr.kind() == ExprKind::kBinary) {
    return Expr::Binary(expr.binary_op(), ToPositional(*expr.left()),
                        ToPositional(*expr.right()));
  }
  return clone;  // Literal.
}

std::unique_ptr<Expr> RemapColumns(const Expr& expr,
                                   const std::vector<size_t>& mapping) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return expr.Clone();
    case ExprKind::kColumnRef: {
      PRISMA_CHECK(expr.bound()) << "RemapColumns on unbound column reference";
      const size_t old = expr.column_index();
      PRISMA_CHECK(old < mapping.size() && mapping[old] != SIZE_MAX)
          << "column " << old << " has no remapping";
      return Expr::ColumnIndex(mapping[old], expr.result_type());
    }
    case ExprKind::kUnary:
      return Expr::Unary(expr.unary_op(),
                         RemapColumns(*expr.operand(), mapping));
    case ExprKind::kBinary:
      return Expr::Binary(expr.binary_op(),
                          RemapColumns(*expr.left(), mapping),
                          RemapColumns(*expr.right(), mapping));
  }
  return nullptr;
}

}  // namespace prisma::algebra
