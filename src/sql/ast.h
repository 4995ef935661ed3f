#ifndef PRISMA_SQL_AST_H_
#define PRISMA_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/value.h"

namespace prisma::sql {

/// Surface-syntax expression. Distinct from algebra::Expr because SQL has
/// constructs (aggregate function calls) that are lowered structurally by
/// the binder rather than evaluated per tuple.
struct SqlExpr {
  enum class Kind : uint8_t {
    kLiteral,
    kColumn,    // Possibly qualified ("e.salary").
    kUnary,
    kBinary,
    kFuncCall,  // COUNT/SUM/MIN/MAX/AVG; arg null means '*'.
  };

  Kind kind;
  Value literal;                       // kLiteral.
  std::string name;                    // kColumn: column; kFuncCall: func.
  algebra::UnaryOp unary_op{};         // kUnary.
  algebra::BinaryOp binary_op{};       // kBinary.
  std::unique_ptr<SqlExpr> left;       // kUnary operand / kBinary lhs /
                                       // kFuncCall argument (may be null).
  std::unique_ptr<SqlExpr> right;      // kBinary rhs.

  std::string ToString() const;
};

std::unique_ptr<SqlExpr> MakeLiteral(Value v);
std::unique_ptr<SqlExpr> MakeColumn(std::string name);
std::unique_ptr<SqlExpr> MakeUnary(algebra::UnaryOp op,
                                   std::unique_ptr<SqlExpr> operand);
std::unique_ptr<SqlExpr> MakeBinary(algebra::BinaryOp op,
                                    std::unique_ptr<SqlExpr> l,
                                    std::unique_ptr<SqlExpr> r);

/// One SELECT output: expression plus optional alias, or the star.
struct SelectItem {
  bool star = false;
  std::unique_ptr<SqlExpr> expr;  // Null when star.
  std::string alias;              // Empty = derive from expression.
};

/// One FROM entry: base table with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  // Empty = table name itself.
  /// INNER JOIN ... ON condition with the *previous* table in the list;
  /// null for the first table and for comma-listed cross joins.
  std::unique_ptr<SqlExpr> join_condition;
};

struct OrderItem {
  std::unique_ptr<SqlExpr> expr;
  bool descending = false;
};

/// SELECT [DISTINCT] items FROM refs [WHERE w] [GROUP BY g,...]
/// [HAVING h] [ORDER BY o,...] [LIMIT n]
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<SqlExpr> where;
  std::vector<std::unique_ptr<SqlExpr>> group_by;
  /// Filters the aggregated rows. It names select outputs (by alias or
  /// derived name); an aggregate call must repeat a select item.
  std::unique_ptr<SqlExpr> having;
  std::vector<OrderItem> order_by;
  std::optional<uint64_t> limit;
};

/// How a new table is split over the machine — PRISMA's data-allocation
/// clause (§2.2): FRAGMENTED BY HASH(col) | RANGE(col) | ROUNDROBIN
/// INTO n FRAGMENTS.
enum class FragmentStrategy : uint8_t { kNone, kHash, kRange, kRoundRobin };

struct FragmentClause {
  FragmentStrategy strategy = FragmentStrategy::kNone;
  std::string column;   // kHash / kRange.
  int num_fragments = 1;
};

struct ColumnDef {
  std::string name;
  DataType type;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  FragmentClause fragmentation;
};

struct DropTableStmt {
  std::string table;
};

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  bool ordered = false;  // CREATE [ORDERED] INDEX: B-tree vs hash.
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // Empty = schema order.
  /// Rows of constant expressions.
  std::vector<std::vector<std::unique_ptr<SqlExpr>>> rows;
};

struct DeleteStmt {
  std::string table;
  std::unique_ptr<SqlExpr> where;  // Null = all rows.
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<SqlExpr>>> assignments;
  std::unique_ptr<SqlExpr> where;
};

/// Explicit transaction control.
enum class TxnControl : uint8_t { kBegin, kCommit, kAbort };

/// A parsed SQL statement (exactly one member is set, per `kind`).
struct Statement {
  enum class Kind : uint8_t {
    kSelect,
    kCreateTable,
    kDropTable,
    kCreateIndex,
    kInsert,
    kDelete,
    kUpdate,
    kTxnControl,
    kCheckpoint,
  };
  Kind kind;
  /// EXPLAIN SELECT ...: plan the query and return the distributed plan
  /// instead of executing it.
  bool explain = false;
  /// EXPLAIN ANALYZE SELECT ...: execute the query and return the
  /// per-operator profile (rows, simulated ns, bytes) instead of its rows.
  bool analyze = false;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<UpdateStmt> update;
  TxnControl txn_control = TxnControl::kBegin;
};

}  // namespace prisma::sql

#endif  // PRISMA_SQL_AST_H_
