#include "sql/parser.h"

#include <utility>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace prisma::sql {
namespace {

using algebra::BinaryOp;
using algebra::UnaryOp;

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Statement> ParseStatement();

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool TryKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool TrySymbol(const char* s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!TryKeyword(kw)) {
      return InvalidArgumentError(StrFormat("expected %s near offset %zu", kw,
                                            Peek().offset));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const char* s) {
    if (!TrySymbol(s)) {
      return InvalidArgumentError(StrFormat("expected '%s' near offset %zu",
                                            s, Peek().offset));
    }
    return Status::OK();
  }
  StatusOr<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return InvalidArgumentError(
          StrFormat("expected identifier near offset %zu", Peek().offset));
    }
    return Advance().text;
  }
  Status ExpectEnd() {
    TrySymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return InvalidArgumentError(StrFormat(
          "unexpected trailing input near offset %zu", Peek().offset));
    }
    return Status::OK();
  }

  StatusOr<std::unique_ptr<SelectStmt>> ParseSelect();
  StatusOr<std::unique_ptr<CreateTableStmt>> ParseCreateTable();
  StatusOr<std::unique_ptr<CreateIndexStmt>> ParseCreateIndex(bool ordered);
  StatusOr<std::unique_ptr<InsertStmt>> ParseInsert();
  StatusOr<std::unique_ptr<DeleteStmt>> ParseDelete();
  StatusOr<std::unique_ptr<UpdateStmt>> ParseUpdate();

  StatusOr<std::unique_ptr<SqlExpr>> ParseExpr() { return ParseOr(); }
  StatusOr<std::unique_ptr<SqlExpr>> ParseOr();
  StatusOr<std::unique_ptr<SqlExpr>> ParseAnd();
  StatusOr<std::unique_ptr<SqlExpr>> ParseNot();
  StatusOr<std::unique_ptr<SqlExpr>> ParseComparison();
  StatusOr<std::unique_ptr<SqlExpr>> ParseAdditive();
  StatusOr<std::unique_ptr<SqlExpr>> ParseMultiplicative();
  StatusOr<std::unique_ptr<SqlExpr>> ParseUnary();
  StatusOr<std::unique_ptr<SqlExpr>> ParsePrimary();

  StatusOr<DataType> ParseType();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // Whether the FROM-list entry being parsed came via JOIN (needs ON).
  bool expect_on_ = false;
};

StatusOr<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (TryKeyword("EXPLAIN")) {
    stmt.analyze = TryKeyword("ANALYZE");
    if (!Peek().IsKeyword("SELECT")) {
      return InvalidArgumentError(stmt.analyze
                                      ? "EXPLAIN ANALYZE supports SELECT only"
                                      : "EXPLAIN supports SELECT only");
    }
    stmt.explain = true;
  }
  if (Peek().IsKeyword("SELECT")) {
    stmt.kind = Statement::Kind::kSelect;
    ASSIGN_OR_RETURN(stmt.select, ParseSelect());
  } else if (TryKeyword("CREATE")) {
    if (TryKeyword("TABLE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
    } else if (TryKeyword("ORDERED")) {
      RETURN_IF_ERROR(ExpectKeyword("INDEX"));
      stmt.kind = Statement::Kind::kCreateIndex;
      ASSIGN_OR_RETURN(stmt.create_index, ParseCreateIndex(true));
    } else if (TryKeyword("INDEX")) {
      stmt.kind = Statement::Kind::kCreateIndex;
      ASSIGN_OR_RETURN(stmt.create_index, ParseCreateIndex(false));
    } else {
      return InvalidArgumentError("expected TABLE or INDEX after CREATE");
    }
  } else if (TryKeyword("DROP")) {
    RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    stmt.kind = Statement::Kind::kDropTable;
    stmt.drop_table = std::make_unique<DropTableStmt>();
    ASSIGN_OR_RETURN(stmt.drop_table->table, ExpectIdentifier());
  } else if (TryKeyword("INSERT")) {
    stmt.kind = Statement::Kind::kInsert;
    ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
  } else if (TryKeyword("DELETE")) {
    stmt.kind = Statement::Kind::kDelete;
    ASSIGN_OR_RETURN(stmt.del, ParseDelete());
  } else if (TryKeyword("UPDATE")) {
    stmt.kind = Statement::Kind::kUpdate;
    ASSIGN_OR_RETURN(stmt.update, ParseUpdate());
  } else if (TryKeyword("CHECKPOINT")) {
    stmt.kind = Statement::Kind::kCheckpoint;
  } else if (TryKeyword("BEGIN")) {
    stmt.kind = Statement::Kind::kTxnControl;
    stmt.txn_control = TxnControl::kBegin;
  } else if (TryKeyword("COMMIT")) {
    stmt.kind = Statement::Kind::kTxnControl;
    stmt.txn_control = TxnControl::kCommit;
  } else if (TryKeyword("ABORT") || TryKeyword("ROLLBACK")) {
    stmt.kind = Statement::Kind::kTxnControl;
    stmt.txn_control = TxnControl::kAbort;
  } else {
    return InvalidArgumentError(StrFormat(
        "unrecognized statement near offset %zu", Peek().offset));
  }
  RETURN_IF_ERROR(ExpectEnd());
  return stmt;
}

StatusOr<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto select = std::make_unique<SelectStmt>();
  select->distinct = TryKeyword("DISTINCT");

  // Select list.
  do {
    SelectItem item;
    if (TrySymbol("*")) {
      item.star = true;
    } else {
      ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (TryKeyword("AS")) {
        ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      }
    }
    select->items.push_back(std::move(item));
  } while (TrySymbol(","));

  RETURN_IF_ERROR(ExpectKeyword("FROM"));
  // FROM list with optional aliases; JOIN ... ON attaches to the previous.
  bool first = true;
  while (true) {
    TableRef ref;
    ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    // Optional alias (an identifier that is not a clause keyword).
    if (Peek().kind == TokenKind::kIdentifier && !Peek().IsKeyword("WHERE") &&
        !Peek().IsKeyword("GROUP") && !Peek().IsKeyword("HAVING") &&
        !Peek().IsKeyword("ORDER") && !Peek().IsKeyword("LIMIT") &&
        !Peek().IsKeyword("JOIN") && !Peek().IsKeyword("INNER") &&
        !Peek().IsKeyword("ON")) {
      ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    }
    if (ref.alias.empty()) ref.alias = ref.table;
    if (!first && expect_on_) {
      RETURN_IF_ERROR(ExpectKeyword("ON"));
      ASSIGN_OR_RETURN(ref.join_condition, ParseExpr());
    }
    select->from.push_back(std::move(ref));
    first = false;
    if (TrySymbol(",")) {
      expect_on_ = false;
      continue;
    }
    if (TryKeyword("INNER")) {
      RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      expect_on_ = true;
      continue;
    }
    if (TryKeyword("JOIN")) {
      expect_on_ = true;
      continue;
    }
    break;
  }

  if (TryKeyword("WHERE")) {
    ASSIGN_OR_RETURN(select->where, ParseExpr());
  }
  if (TryKeyword("GROUP")) {
    RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      ASSIGN_OR_RETURN(auto g, ParseExpr());
      select->group_by.push_back(std::move(g));
    } while (TrySymbol(","));
  }
  if (TryKeyword("HAVING")) {
    ASSIGN_OR_RETURN(select->having, ParseExpr());
  }
  if (TryKeyword("ORDER")) {
    RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      OrderItem item;
      ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (TryKeyword("DESC")) {
        item.descending = true;
      } else {
        TryKeyword("ASC");
      }
      select->order_by.push_back(std::move(item));
    } while (TrySymbol(","));
  }
  if (TryKeyword("LIMIT")) {
    if (Peek().kind != TokenKind::kIntLiteral) {
      return InvalidArgumentError("LIMIT expects an integer");
    }
    select->limit = static_cast<uint64_t>(Advance().int_value);
  }
  return select;
}

StatusOr<DataType> Parser::ParseType() {
  ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
  if (EqualsIgnoreCase(name, "INT") || EqualsIgnoreCase(name, "INTEGER") ||
      EqualsIgnoreCase(name, "BIGINT")) {
    return DataType::kInt64;
  }
  if (EqualsIgnoreCase(name, "DOUBLE") || EqualsIgnoreCase(name, "FLOAT") ||
      EqualsIgnoreCase(name, "REAL")) {
    return DataType::kDouble;
  }
  if (EqualsIgnoreCase(name, "STRING") || EqualsIgnoreCase(name, "TEXT") ||
      EqualsIgnoreCase(name, "VARCHAR") || EqualsIgnoreCase(name, "CHAR")) {
    // Optional length (ignored): VARCHAR(20).
    if (TrySymbol("(")) {
      if (Peek().kind == TokenKind::kIntLiteral) Advance();
      RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    return DataType::kString;
  }
  if (EqualsIgnoreCase(name, "BOOL") || EqualsIgnoreCase(name, "BOOLEAN")) {
    return DataType::kBool;
  }
  return InvalidArgumentError("unknown type " + name);
}

StatusOr<std::unique_ptr<CreateTableStmt>> Parser::ParseCreateTable() {
  auto stmt = std::make_unique<CreateTableStmt>();
  ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
  RETURN_IF_ERROR(ExpectSymbol("("));
  do {
    ColumnDef col;
    ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
    ASSIGN_OR_RETURN(col.type, ParseType());
    stmt->columns.push_back(std::move(col));
  } while (TrySymbol(","));
  RETURN_IF_ERROR(ExpectSymbol(")"));

  if (TryKeyword("FRAGMENTED")) {
    RETURN_IF_ERROR(ExpectKeyword("BY"));
    if (TryKeyword("HASH")) {
      stmt->fragmentation.strategy = FragmentStrategy::kHash;
      RETURN_IF_ERROR(ExpectSymbol("("));
      ASSIGN_OR_RETURN(stmt->fragmentation.column, ExpectIdentifier());
      RETURN_IF_ERROR(ExpectSymbol(")"));
    } else if (TryKeyword("RANGE")) {
      stmt->fragmentation.strategy = FragmentStrategy::kRange;
      RETURN_IF_ERROR(ExpectSymbol("("));
      ASSIGN_OR_RETURN(stmt->fragmentation.column, ExpectIdentifier());
      RETURN_IF_ERROR(ExpectSymbol(")"));
    } else if (TryKeyword("ROUNDROBIN")) {
      stmt->fragmentation.strategy = FragmentStrategy::kRoundRobin;
    } else {
      return InvalidArgumentError("expected HASH, RANGE or ROUNDROBIN");
    }
    RETURN_IF_ERROR(ExpectKeyword("INTO"));
    if (Peek().kind != TokenKind::kIntLiteral) {
      return InvalidArgumentError("expected fragment count");
    }
    stmt->fragmentation.num_fragments =
        static_cast<int>(Advance().int_value);
    RETURN_IF_ERROR(ExpectKeyword("FRAGMENTS"));
    if (stmt->fragmentation.num_fragments < 1) {
      return InvalidArgumentError("fragment count must be positive");
    }
  }
  return stmt;
}

StatusOr<std::unique_ptr<CreateIndexStmt>> Parser::ParseCreateIndex(
    bool ordered) {
  auto stmt = std::make_unique<CreateIndexStmt>();
  stmt->ordered = ordered;
  ASSIGN_OR_RETURN(stmt->index, ExpectIdentifier());
  RETURN_IF_ERROR(ExpectKeyword("ON"));
  ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
  RETURN_IF_ERROR(ExpectSymbol("("));
  do {
    ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
    stmt->columns.push_back(std::move(col));
  } while (TrySymbol(","));
  RETURN_IF_ERROR(ExpectSymbol(")"));
  return stmt;
}

StatusOr<std::unique_ptr<InsertStmt>> Parser::ParseInsert() {
  RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<InsertStmt>();
  ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
  if (TrySymbol("(")) {
    do {
      ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      stmt->columns.push_back(std::move(col));
    } while (TrySymbol(","));
    RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  RETURN_IF_ERROR(ExpectKeyword("VALUES"));
  do {
    RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<std::unique_ptr<SqlExpr>> row;
    do {
      ASSIGN_OR_RETURN(auto e, ParseExpr());
      row.push_back(std::move(e));
    } while (TrySymbol(","));
    RETURN_IF_ERROR(ExpectSymbol(")"));
    stmt->rows.push_back(std::move(row));
  } while (TrySymbol(","));
  return stmt;
}

StatusOr<std::unique_ptr<DeleteStmt>> Parser::ParseDelete() {
  RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<DeleteStmt>();
  ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
  if (TryKeyword("WHERE")) {
    ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return stmt;
}

StatusOr<std::unique_ptr<UpdateStmt>> Parser::ParseUpdate() {
  auto stmt = std::make_unique<UpdateStmt>();
  ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
  RETURN_IF_ERROR(ExpectKeyword("SET"));
  do {
    ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
    RETURN_IF_ERROR(ExpectSymbol("="));
    ASSIGN_OR_RETURN(auto e, ParseExpr());
    stmt->assignments.push_back({std::move(col), std::move(e)});
  } while (TrySymbol(","));
  if (TryKeyword("WHERE")) {
    ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return stmt;
}

// ------------------------------------------------------------- Expressions

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseOr() {
  ASSIGN_OR_RETURN(auto left, ParseAnd());
  while (TryKeyword("OR")) {
    ASSIGN_OR_RETURN(auto right, ParseAnd());
    left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
  }
  return left;
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseAnd() {
  ASSIGN_OR_RETURN(auto left, ParseNot());
  while (TryKeyword("AND")) {
    ASSIGN_OR_RETURN(auto right, ParseNot());
    left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
  }
  return left;
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseNot() {
  if (TryKeyword("NOT")) {
    ASSIGN_OR_RETURN(auto operand, ParseNot());
    return MakeUnary(UnaryOp::kNot, std::move(operand));
  }
  return ParseComparison();
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseComparison() {
  ASSIGN_OR_RETURN(auto left, ParseAdditive());
  // Postfix IS [NOT] NULL.
  if (TryKeyword("IS")) {
    const bool negated = TryKeyword("NOT");
    RETURN_IF_ERROR(ExpectKeyword("NULL"));
    auto test = MakeUnary(UnaryOp::kIsNull, std::move(left));
    if (negated) return MakeUnary(UnaryOp::kNot, std::move(test));
    return test;
  }
  struct Cmp {
    const char* sym;
    BinaryOp op;
  };
  static const Cmp kCmps[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                              {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
                              {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},
                              {">", BinaryOp::kGt}};
  for (const Cmp& cmp : kCmps) {
    if (TrySymbol(cmp.sym)) {
      ASSIGN_OR_RETURN(auto right, ParseAdditive());
      return MakeBinary(cmp.op, std::move(left), std::move(right));
    }
  }
  return left;
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseAdditive() {
  ASSIGN_OR_RETURN(auto left, ParseMultiplicative());
  while (true) {
    if (TrySymbol("+")) {
      ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
      left = MakeBinary(BinaryOp::kAdd, std::move(left), std::move(right));
    } else if (TrySymbol("-")) {
      ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
      left = MakeBinary(BinaryOp::kSub, std::move(left), std::move(right));
    } else {
      return left;
    }
  }
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseMultiplicative() {
  ASSIGN_OR_RETURN(auto left, ParseUnary());
  while (true) {
    if (TrySymbol("*")) {
      ASSIGN_OR_RETURN(auto right, ParseUnary());
      left = MakeBinary(BinaryOp::kMul, std::move(left), std::move(right));
    } else if (TrySymbol("/")) {
      ASSIGN_OR_RETURN(auto right, ParseUnary());
      left = MakeBinary(BinaryOp::kDiv, std::move(left), std::move(right));
    } else if (TrySymbol("%")) {
      ASSIGN_OR_RETURN(auto right, ParseUnary());
      left = MakeBinary(BinaryOp::kMod, std::move(left), std::move(right));
    } else {
      return left;
    }
  }
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParseUnary() {
  if (TrySymbol("-")) {
    ASSIGN_OR_RETURN(auto operand, ParseUnary());
    return MakeUnary(UnaryOp::kNeg, std::move(operand));
  }
  return ParsePrimary();
}

StatusOr<std::unique_ptr<SqlExpr>> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kIntLiteral:
      Advance();
      return MakeLiteral(Value::Int(t.int_value));
    case TokenKind::kDoubleLiteral:
      Advance();
      return MakeLiteral(Value::Double(t.double_value));
    case TokenKind::kStringLiteral:
      Advance();
      return MakeLiteral(Value::String(t.text));
    case TokenKind::kSymbol:
      if (TrySymbol("(")) {
        ASSIGN_OR_RETURN(auto inner, ParseExpr());
        RETURN_IF_ERROR(ExpectSymbol(")"));
        return inner;
      }
      return InvalidArgumentError(StrFormat(
          "unexpected symbol '%s' at offset %zu", t.text.c_str(), t.offset));
    case TokenKind::kIdentifier: {
      if (t.IsKeyword("NULL")) {
        Advance();
        return MakeLiteral(Value::Null());
      }
      if (t.IsKeyword("TRUE")) {
        Advance();
        return MakeLiteral(Value::Bool(true));
      }
      if (t.IsKeyword("FALSE")) {
        Advance();
        return MakeLiteral(Value::Bool(false));
      }
      std::string name = Advance().text;
      // Function call?
      if (TrySymbol("(")) {
        auto call = std::make_unique<SqlExpr>();
        call->kind = SqlExpr::Kind::kFuncCall;
        call->name = AsciiLower(name);
        if (TrySymbol("*")) {
          // COUNT(*): no argument.
        } else {
          ASSIGN_OR_RETURN(call->left, ParseExpr());
        }
        RETURN_IF_ERROR(ExpectSymbol(")"));
        return call;
      }
      // Qualified column "alias.col".
      if (TrySymbol(".")) {
        ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        return MakeColumn(name + "." + col);
      }
      return MakeColumn(std::move(name));
    }
    case TokenKind::kEnd:
      return InvalidArgumentError("unexpected end of statement");
  }
  return InvalidArgumentError("unparsable expression");
}

}  // namespace

StatusOr<Statement> ParseSql(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace prisma::sql
