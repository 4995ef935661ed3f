#ifndef PRISMA_ALGEBRA_EXPR_H_
#define PRISMA_ALGEBRA_EXPR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace prisma::algebra {

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
};

enum class UnaryOp : uint8_t {
  kNeg,     // -x (numeric)
  kNot,     // NOT b
  kIsNull,  // x IS NULL
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,  // Integers only.
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// Values of a statement's literals by ordinal (DESIGN.md §15.4).
using Literals = std::map<int, Value>;

const char* UnaryOpName(UnaryOp op);
const char* BinaryOpName(BinaryOp op);

/// A scalar expression tree over the columns of one input schema.
///
/// Expressions are built unbound (column references hold only names), then
/// bound against a Schema, which resolves column indexes and computes
/// result types bottom-up. Only bound expressions can be evaluated,
/// compiled, or costed.
///
/// NULL semantics are SQL-ish three-valued logic folded to two-valued
/// results: any arithmetic or comparison with a NULL operand yields NULL,
/// AND/OR use Kleene logic, and predicates treat NULL as false.
class Expr {
 public:
  /// `ordinal` tags the literal as the statement's literal of that index
  /// (sql::NormalizedStatement::params), so one execution can bind its
  /// own value in; -1 leaves it untagged.
  static std::unique_ptr<Expr> Literal(Value value, int ordinal = -1);
  static std::unique_ptr<Expr> ColumnRef(std::string name);
  /// Column reference already resolved to `index` in the input schema.
  static std::unique_ptr<Expr> ColumnIndex(size_t index, DataType type);
  static std::unique_ptr<Expr> Unary(UnaryOp op, std::unique_ptr<Expr> operand);
  static std::unique_ptr<Expr> Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                      std::unique_ptr<Expr> rhs);

  ExprKind kind() const { return kind_; }
  /// Result type; meaningful only after binding (kNull before).
  DataType result_type() const { return result_type_; }
  bool bound() const { return bound_; }

  // Literal accessors.
  const Value& literal() const { return literal_; }

  // Column accessors.
  const std::string& column_name() const { return column_name_; }
  size_t column_index() const { return column_index_; }

  // Operator accessors.
  UnaryOp unary_op() const { return unary_op_; }
  BinaryOp binary_op() const { return binary_op_; }
  const Expr* left() const { return children_[0].get(); }
  const Expr* right() const { return children_[1].get(); }
  const Expr* operand() const { return children_[0].get(); }

  /// Resolves column names against `schema` and type-checks bottom-up.
  Status Bind(const Schema& schema);

  /// Deep copy (preserving binding state and literal ordinals).
  std::unique_ptr<Expr> Clone() const;

  /// Adds the tree's tagged literals to `out`, by ordinal.
  void CollectLiterals(Literals* out) const;
  /// Gives every tagged literal whose ordinal `values` holds that value,
  /// which must have the literal's type; the others keep theirs.
  void SetLiterals(const Literals& values);

  /// Structural equality (used for common-subexpression detection).
  bool Equals(const Expr& other) const;

  /// Renders as e.g. "(salary > 100) AND (dept = 'sales')".
  std::string ToString() const;

  /// Number of nodes in the tree (cost metric).
  size_t TreeSize() const;

  /// Appends the input-schema indexes of all referenced columns (bound
  /// expressions only); duplicates preserved.
  void CollectColumnIndexes(std::vector<size_t>* out) const;

  /// True if the tree contains no column references (constant foldable).
  bool IsConstant() const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  DataType result_type_ = DataType::kNull;
  bool bound_ = false;

  Value literal_;                 // kLiteral.
  int ordinal_ = -1;              // kLiteral.
  std::string column_name_;       // kColumnRef.
  size_t column_index_ = SIZE_MAX;
  UnaryOp unary_op_ = UnaryOp::kNeg;
  BinaryOp binary_op_ = BinaryOp::kAdd;
  std::vector<std::unique_ptr<Expr>> children_;
};

/// Convenience builders for tests and examples.
std::unique_ptr<Expr> Col(std::string name);
std::unique_ptr<Expr> Lit(int64_t v);
std::unique_ptr<Expr> Lit(double v);
std::unique_ptr<Expr> Lit(std::string v);
std::unique_ptr<Expr> Eq(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r);
std::unique_ptr<Expr> And(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r);

/// Splits a predicate into its top-level AND conjuncts (cloned).
std::vector<std::unique_ptr<Expr>> SplitConjuncts(const Expr& predicate);

/// Rebuilds a single predicate from conjuncts (nullptr when empty).
std::unique_ptr<Expr> CombineConjuncts(
    std::vector<std::unique_ptr<Expr>> conjuncts);

/// Clones a *bound* expression with every column reference rewritten to a
/// positional ("$i") reference, so later rebinding is index-based and
/// immune to duplicate column names (used by the optimizer's rewrites).
std::unique_ptr<Expr> ToPositional(const Expr& expr);

/// Clones a bound positional expression remapping column i to mapping[i].
/// Aborts if a referenced column has no mapping (SIZE_MAX entry).
std::unique_ptr<Expr> RemapColumns(const Expr& expr,
                                   const std::vector<size_t>& mapping);

}  // namespace prisma::algebra

#endif  // PRISMA_ALGEBRA_EXPR_H_
