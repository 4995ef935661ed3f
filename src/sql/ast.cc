#include "sql/ast.h"

namespace prisma::sql {

std::unique_ptr<SqlExpr> MakeLiteral(Value v) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExpr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<SqlExpr> MakeColumn(std::string name) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExpr::Kind::kColumn;
  e->name = std::move(name);
  return e;
}

std::unique_ptr<SqlExpr> MakeUnary(algebra::UnaryOp op,
                                   std::unique_ptr<SqlExpr> operand) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExpr::Kind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

std::unique_ptr<SqlExpr> MakeBinary(algebra::BinaryOp op,
                                    std::unique_ptr<SqlExpr> l,
                                    std::unique_ptr<SqlExpr> r) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExpr::Kind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::string SqlExpr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColumn:
      return name;
    case Kind::kUnary:
      if (unary_op == algebra::UnaryOp::kIsNull) {
        return std::string("(") + left->ToString() + " IS NULL)";
      }
      return std::string(algebra::UnaryOpName(unary_op)) + "(" +
             left->ToString() + ")";
    case Kind::kBinary:
      return std::string("(") + left->ToString() + " " +
             algebra::BinaryOpName(binary_op) + " " + right->ToString() + ")";
    case Kind::kFuncCall:
      return name + "(" + (left ? left->ToString() : "*") + ")";
  }
  return "?";
}

}  // namespace prisma::sql
