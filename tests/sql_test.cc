#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "exec/executor.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/relation.h"

namespace prisma::sql {
namespace {

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT x, 42, 2.5, 'it''s' <> <= :- ;");
  ASSERT_TRUE(tokens.ok());
  auto& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("select"));
  EXPECT_EQ(t[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[3].int_value, 42);
  EXPECT_DOUBLE_EQ(t[5].double_value, 2.5);
  EXPECT_EQ(t[7].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(t[7].text, "it's");
  EXPECT_TRUE(t[8].IsSymbol("<>"));
  EXPECT_TRUE(t[9].IsSymbol("<="));
  EXPECT_TRUE(t[10].IsSymbol(":-"));
  EXPECT_EQ(t.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("a -- comment here\n b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens).size(), 3u);  // a, b, end.
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, SelectFull) {
  auto stmt = ParseSql(
      "SELECT DISTINCT e.dept, SUM(e.salary) AS total FROM emp e "
      "WHERE e.salary > 100 AND e.dept <> 'hr' GROUP BY e.dept "
      "ORDER BY total DESC LIMIT 5;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& s = *stmt->select;
  EXPECT_TRUE(s.distinct);
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "total");
  EXPECT_EQ(s.items[1].expr->kind, SqlExpr::Kind::kFuncCall);
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].alias, "e");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 5u);
}

TEST(ParserTest, JoinOnSyntax) {
  auto stmt = ParseSql(
      "SELECT * FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.name = "
      "'eng'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].join_condition, nullptr);
  ASSERT_NE(s.from[1].join_condition, nullptr);
  EXPECT_TRUE(s.items[0].star);
}

TEST(ParserTest, CommaJoin) {
  auto stmt = ParseSql("SELECT a.x FROM t1 a, t2 b WHERE a.x = b.y");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from.size(), 2u);
}

TEST(ParserTest, CreateTableWithFragmentation) {
  auto stmt = ParseSql(
      "CREATE TABLE emp (id INT, name VARCHAR(20), salary DOUBLE) "
      "FRAGMENTED BY HASH(id) INTO 8 FRAGMENTS");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  const CreateTableStmt& c = *stmt->create_table;
  ASSERT_EQ(c.columns.size(), 3u);
  EXPECT_EQ(c.columns[1].type, DataType::kString);
  EXPECT_EQ(c.fragmentation.strategy, FragmentStrategy::kHash);
  EXPECT_EQ(c.fragmentation.column, "id");
  EXPECT_EQ(c.fragmentation.num_fragments, 8);
}

TEST(ParserTest, CreateTableRoundRobinAndRange) {
  auto rr = ParseSql(
      "CREATE TABLE t (x INT) FRAGMENTED BY ROUNDROBIN INTO 4 FRAGMENTS");
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->create_table->fragmentation.strategy,
            FragmentStrategy::kRoundRobin);
  auto rg =
      ParseSql("CREATE TABLE t (x INT) FRAGMENTED BY RANGE(x) INTO 2 FRAGMENTS");
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(rg->create_table->fragmentation.strategy, FragmentStrategy::kRange);
}

TEST(ParserTest, InsertForms) {
  auto stmt = ParseSql(
      "INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, 'bob')");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt->insert->columns.size(), 2u);
  EXPECT_EQ(stmt->insert->rows.size(), 2u);

  auto no_cols = ParseSql("INSERT INTO emp VALUES (1, 'x', 2.0)");
  ASSERT_TRUE(no_cols.ok());
  EXPECT_TRUE(no_cols->insert->columns.empty());
}

TEST(ParserTest, DeleteAndUpdate) {
  auto del = ParseSql("DELETE FROM emp WHERE salary < 100");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, Statement::Kind::kDelete);
  ASSERT_NE(del->del->where, nullptr);

  auto upd = ParseSql(
      "UPDATE emp SET salary = salary * 2, name = 'x' WHERE id = 3");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->update->assignments.size(), 2u);
}

TEST(ParserTest, CreateIndex) {
  auto hash = ParseSql("CREATE INDEX i1 ON emp (id)");
  ASSERT_TRUE(hash.ok());
  EXPECT_FALSE(hash->create_index->ordered);
  auto ordered = ParseSql("CREATE ORDERED INDEX i2 ON emp (salary, id)");
  ASSERT_TRUE(ordered.ok());
  EXPECT_TRUE(ordered->create_index->ordered);
  EXPECT_EQ(ordered->create_index->columns.size(), 2u);
}

TEST(ParserTest, ExplainAndCheckpoint) {
  auto explain = ParseSql("EXPLAIN SELECT * FROM t");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->kind, Statement::Kind::kSelect);
  EXPECT_TRUE(explain->explain);

  auto plain = ParseSql("SELECT * FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);

  EXPECT_FALSE(ParseSql("EXPLAIN DELETE FROM t").ok());

  auto ckpt = ParseSql("CHECKPOINT");
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->kind, Statement::Kind::kCheckpoint);
}

TEST(ParserTest, TxnControl) {
  EXPECT_EQ(ParseSql("BEGIN")->txn_control, TxnControl::kBegin);
  EXPECT_EQ(ParseSql("COMMIT;")->txn_control, TxnControl::kCommit);
  EXPECT_EQ(ParseSql("ROLLBACK")->txn_control, TxnControl::kAbort);
  EXPECT_EQ(ParseSql("ABORT")->txn_control, TxnControl::kAbort);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = ParseSql("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  // a + (b * c): top node is +.
  const SqlExpr& e = *stmt->select->items[0].expr;
  EXPECT_EQ(e.binary_op, algebra::BinaryOp::kAdd);
  EXPECT_EQ(e.right->binary_op, algebra::BinaryOp::kMul);

  auto logic = ParseSql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(logic.ok());
  // OR is top (AND binds tighter).
  EXPECT_EQ(logic->select->where->binary_op, algebra::BinaryOp::kOr);
}

TEST(ParserTest, IsNullForms) {
  auto stmt = ParseSql("SELECT * FROM t WHERE x IS NULL AND y IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& w = *stmt->select->where;
  EXPECT_EQ(w.binary_op, algebra::BinaryOp::kAnd);
  EXPECT_EQ(w.left->unary_op, algebra::UnaryOp::kIsNull);
  EXPECT_EQ(w.right->unary_op, algebra::UnaryOp::kNot);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("FLY TO the moon").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES 1, 2").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra garbage +").ok());
  EXPECT_FALSE(ParseSql("CREATE TABLE t (x WIBBLE)").ok());
  EXPECT_FALSE(
      ParseSql("CREATE TABLE t (x INT) FRAGMENTED BY HASH(x) INTO 0 FRAGMENTS")
          .ok());
}

// ----------------------------------------------------------------- Binder

/// In-memory catalog + storage used to execute bound statements.
class FakeCatalog : public CatalogReader {
 public:
  StatusOr<Schema> GetTableSchema(const std::string& table) const override {
    auto it = schemas_.find(table);
    if (it == schemas_.end()) return NotFoundError("no table " + table);
    return it->second;
  }
  void Add(const std::string& name, Schema schema) {
    schemas_[name] = std::move(schema);
  }

 private:
  std::map<std::string, Schema> schemas_;
};

class BinderTest : public ::testing::Test {
 protected:
  BinderTest()
      : emp_("emp", Schema({{"id", DataType::kInt64},
                            {"dept", DataType::kString},
                            {"salary", DataType::kInt64}})),
        dept_("dept", Schema({{"name", DataType::kString},
                              {"budget", DataType::kInt64}})) {
    catalog_.Add("emp", emp_.schema());
    catalog_.Add("dept", dept_.schema());
    const char* depts[] = {"sales", "eng"};
    for (int i = 0; i < 10; ++i) {
      emp_.Insert(Tuple({Value::Int(i), Value::String(depts[i % 2]),
                         Value::Int(100 * i)}))
          .value();
    }
    dept_.Insert(Tuple({Value::String("sales"), Value::Int(1000)})).value();
    dept_.Insert(Tuple({Value::String("eng"), Value::Int(2000)})).value();
    resolver_.Register("emp", &emp_);
    resolver_.Register("dept", &dept_);
  }

  StatusOr<std::vector<Tuple>> Query(const std::string& sql) {
    ASSIGN_OR_RETURN(BoundStatement bound, ParseAndBind(sql, catalog_));
    if (bound.kind != Statement::Kind::kSelect) {
      return InvalidArgumentError("not a select");
    }
    exec::Executor executor(&resolver_, exec::ExecOptions());
    return executor.Execute(*bound.plan);
  }

  FakeCatalog catalog_;
  storage::Relation emp_;
  storage::Relation dept_;
  exec::MapTableResolver resolver_;
};

TEST_F(BinderTest, SimpleSelect) {
  auto out = Query("SELECT id, salary FROM emp WHERE salary >= 800");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->front().size(), 2u);
}

TEST_F(BinderTest, StarExpansion) {
  auto out = Query("SELECT * FROM emp LIMIT 3");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(out->front().size(), 3u);
}

TEST_F(BinderTest, JoinWithQualifiedColumns) {
  auto out = Query(
      "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name "
      "WHERE d.budget > 1500");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 5u);  // eng employees.
}

TEST_F(BinderTest, SelfJoinWithAliases) {
  auto out = Query(
      "SELECT a.id, b.id FROM emp a, emp b "
      "WHERE a.dept = b.dept AND a.id < b.id");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 20u);  // 2 * C(5,2).
}

TEST_F(BinderTest, GroupByAggregates) {
  auto out = Query(
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(salary) "
      "FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);
  // eng = odd ids 1,3,5,7,9 -> sum 2500; sales even -> 2000.
  EXPECT_EQ((*out)[0].at(0), Value::String("eng"));
  EXPECT_EQ((*out)[0].at(2), Value::Int(2500));
  EXPECT_EQ((*out)[1].at(0), Value::String("sales"));
  EXPECT_EQ((*out)[1].at(2), Value::Int(2000));
  EXPECT_EQ((*out)[0].at(1), Value::Int(5));
}

TEST_F(BinderTest, GrandAggregateWithoutGroupBy) {
  auto out = Query("SELECT COUNT(*), MAX(salary) FROM emp");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().at(0), Value::Int(10));
  EXPECT_EQ(out->front().at(1), Value::Int(900));
}

TEST_F(BinderTest, HavingFiltersAggregatedRows) {
  // eng sums 2500, sales 2000; both have 5 rows.
  auto out = Query(
      "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept "
      "HAVING total > 2200");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().at(0), Value::String("eng"));
  // An aggregate call that repeats a select item names its output.
  out = Query(
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept "
      "HAVING COUNT(*) >= 5 AND dept <> 'eng' ORDER BY dept");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().at(0), Value::String("sales"));
  // Without aggregation, or with an aggregate the select list lacks.
  EXPECT_FALSE(Query("SELECT id FROM emp HAVING id > 1").ok());
  EXPECT_FALSE(Query("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                     "HAVING SUM(salary) > 1")
                   .ok());
}

TEST_F(BinderTest, DistinctAndOrderBy) {
  auto out = Query("SELECT DISTINCT dept FROM emp ORDER BY dept DESC");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->front().at(0), Value::String("sales"));
}

TEST_F(BinderTest, BindErrors) {
  EXPECT_FALSE(Query("SELECT nope FROM emp").ok());
  EXPECT_FALSE(Query("SELECT id FROM ghost").ok());
  // Non-grouped select item.
  EXPECT_FALSE(Query("SELECT id, COUNT(*) FROM emp GROUP BY dept").ok());
  // Aggregate nested in arithmetic is rejected (documented limit).
  EXPECT_FALSE(Query("SELECT SUM(salary) / 2 FROM emp").ok());
  // SELECT * with aggregation.
  EXPECT_FALSE(Query("SELECT * , COUNT(*) FROM emp").ok());
  // Type error.
  EXPECT_FALSE(Query("SELECT id + dept FROM emp").ok());
  // Ambiguous column across join.
  EXPECT_FALSE(Query("SELECT id FROM emp a, emp b WHERE a.id = b.id").ok());
}

TEST_F(BinderTest, InsertBinding) {
  auto bound = ParseAndBind(
      "INSERT INTO emp (dept, id) VALUES ('hr', 99), ('hr', -1 - 1)",
      catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->insert_rows.size(), 2u);
  // Reordered into schema order, missing salary = NULL.
  EXPECT_EQ(bound->insert_rows[0].at(0), Value::Int(99));
  EXPECT_EQ(bound->insert_rows[0].at(1), Value::String("hr"));
  EXPECT_TRUE(bound->insert_rows[0].at(2).is_null());
  EXPECT_EQ(bound->insert_rows[1].at(0), Value::Int(-2));
}

TEST_F(BinderTest, InsertErrors) {
  EXPECT_FALSE(ParseAndBind("INSERT INTO emp VALUES (1)", catalog_).ok());
  EXPECT_FALSE(
      ParseAndBind("INSERT INTO emp (id) VALUES (id)", catalog_).ok());
  EXPECT_FALSE(
      ParseAndBind("INSERT INTO emp (id) VALUES ('text')", catalog_).ok());
}

TEST_F(BinderTest, UpdateAndDeleteBinding) {
  auto upd = ParseAndBind(
      "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'", catalog_);
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  ASSERT_EQ(upd->assignments.size(), 1u);
  EXPECT_EQ(upd->assignments[0].first, 2u);
  ASSERT_NE(upd->where, nullptr);
  EXPECT_TRUE(upd->where->bound());

  auto del = ParseAndBind("DELETE FROM emp", catalog_);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->where, nullptr);

  EXPECT_FALSE(
      ParseAndBind("UPDATE emp SET id = 'oops'", catalog_).ok());
  EXPECT_FALSE(ParseAndBind("DELETE FROM emp WHERE id + 1", catalog_).ok());
}

TEST_F(BinderTest, CreateTableBinding) {
  auto bound = ParseAndBind(
      "CREATE TABLE log (ts INT, msg STRING) FRAGMENTED BY RANGE(ts) INTO 4 "
      "FRAGMENTS",
      catalog_);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->create_schema.num_columns(), 2u);
  EXPECT_EQ(bound->fragmentation.strategy, FragmentStrategy::kRange);
  EXPECT_EQ(bound->fragment_column, 0u);
  EXPECT_FALSE(
      ParseAndBind("CREATE TABLE bad (x INT, x INT)", catalog_).ok());
  EXPECT_FALSE(
      ParseAndBind("CREATE TABLE bad (x INT) FRAGMENTED BY HASH(y) INTO 2 "
                   "FRAGMENTS",
                   catalog_)
          .ok());
}

TEST_F(BinderTest, CreateIndexBinding) {
  auto bound =
      ParseAndBind("CREATE ORDERED INDEX isal ON emp (salary)", catalog_);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->index_ordered);
  EXPECT_EQ(bound->index_columns, (std::vector<size_t>{2}));
  EXPECT_FALSE(
      ParseAndBind("CREATE INDEX i ON emp (ghost)", catalog_).ok());
}

}  // namespace
}  // namespace prisma::sql
