#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "algebra/expr.h"
#include "common/rng.h"
#include "exec/expr_compiler.h"
#include "exec/expr_eval.h"

namespace prisma::exec {
namespace {

using algebra::BinaryOp;
using algebra::Col;
using algebra::Expr;
using algebra::Lit;
using algebra::UnaryOp;

Schema TestSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"n", DataType::kInt64}});  // Column that often holds NULL.
}

Tuple TestTuple() {
  return Tuple({Value::Int(10), Value::Double(2.5), Value::String("abc"),
                Value::Bool(true), Value::Null()});
}

std::unique_ptr<Expr> Bound(std::unique_ptr<Expr> e) {
  auto status = e->Bind(TestSchema());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return e;
}

// ------------------------------------------------------------- Binding

TEST(ExprBindTest, ResolvesColumnsAndTypes) {
  auto e = Expr::Binary(BinaryOp::kAdd, Col("i"), Col("i"));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->result_type(), DataType::kInt64);

  auto m = Expr::Binary(BinaryOp::kMul, Col("i"), Col("d"));
  ASSERT_TRUE(m->Bind(TestSchema()).ok());
  EXPECT_EQ(m->result_type(), DataType::kDouble);

  auto c = Expr::Binary(BinaryOp::kLt, Col("s"), Lit("zzz"));
  ASSERT_TRUE(c->Bind(TestSchema()).ok());
  EXPECT_EQ(c->result_type(), DataType::kBool);
}

TEST(ExprBindTest, RejectsUnknownColumn) {
  auto e = Col("nope");
  EXPECT_EQ(e->Bind(TestSchema()).code(), StatusCode::kNotFound);
}

TEST(ExprBindTest, RejectsTypeErrors) {
  EXPECT_FALSE(Expr::Binary(BinaryOp::kAdd, Col("i"), Col("s"))
                   ->Bind(TestSchema())
                   .ok());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kLt, Col("i"), Col("s"))
                   ->Bind(TestSchema())
                   .ok());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kAnd, Col("i"), Col("b"))
                   ->Bind(TestSchema())
                   .ok());
  EXPECT_FALSE(Expr::Unary(UnaryOp::kNot, Col("i"))->Bind(TestSchema()).ok());
  EXPECT_FALSE(Expr::Unary(UnaryOp::kNeg, Col("s"))->Bind(TestSchema()).ok());
  EXPECT_FALSE(Expr::Binary(BinaryOp::kMod, Col("d"), Lit(int64_t{2}))
                   ->Bind(TestSchema())
                   .ok());
}

TEST(ExprBindTest, StringConcatViaPlus) {
  auto e = Expr::Binary(BinaryOp::kAdd, Col("s"), Lit("def"));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->result_type(), DataType::kString);
}

// ------------------------------------------------------------ Interpreter

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kAdd, Col("i"), Lit(int64_t{5}))),
                     TestTuple())
                .value(),
            Value::Int(15));
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kMul, Col("i"), Col("d"))),
                     TestTuple())
                .value(),
            Value::Double(25.0));
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kMod, Col("i"), Lit(int64_t{3}))),
                     TestTuple())
                .value(),
            Value::Int(1));
  EXPECT_EQ(EvalExpr(*Bound(Expr::Unary(UnaryOp::kNeg, Col("d"))), TestTuple())
                .value(),
            Value::Double(-2.5));
}

TEST(ExprEvalTest, IntegerDivisionTruncates) {
  auto e = Bound(Expr::Binary(BinaryOp::kDiv, Col("i"), Lit(int64_t{3})));
  EXPECT_EQ(EvalExpr(*e, TestTuple()).value(), Value::Int(3));
}

TEST(ExprEvalTest, DivisionByZeroFails) {
  auto e = Bound(Expr::Binary(BinaryOp::kDiv, Col("i"), Lit(int64_t{0})));
  EXPECT_EQ(EvalExpr(*e, TestTuple()).status().code(),
            StatusCode::kInvalidArgument);
  auto m = Bound(Expr::Binary(BinaryOp::kMod, Col("i"), Lit(int64_t{0})));
  EXPECT_FALSE(EvalExpr(*m, TestTuple()).ok());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kGt, Col("i"), Lit(int64_t{9}))),
                     TestTuple())
                .value(),
            Value::Bool(true));
  // Mixed INT/DOUBLE comparison.
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kLt, Col("d"), Col("i"))),
                     TestTuple())
                .value(),
            Value::Bool(true));
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kEq, Col("s"), Lit("abc"))),
                     TestTuple())
                .value(),
            Value::Bool(true));
}

TEST(ExprEvalTest, NullPropagation) {
  // n is NULL: arithmetic and comparisons yield NULL.
  EXPECT_TRUE(EvalExpr(*Bound(Expr::Binary(BinaryOp::kAdd, Col("n"), Col("i"))),
                       TestTuple())
                  ->is_null());
  EXPECT_TRUE(EvalExpr(*Bound(Expr::Binary(BinaryOp::kEq, Col("n"), Col("i"))),
                       TestTuple())
                  ->is_null());
  EXPECT_TRUE(EvalExpr(*Bound(Expr::Unary(UnaryOp::kNeg, Col("n"))),
                       TestTuple())
                  ->is_null());
  // IS NULL is never NULL.
  EXPECT_EQ(EvalExpr(*Bound(Expr::Unary(UnaryOp::kIsNull, Col("n"))),
                     TestTuple())
                .value(),
            Value::Bool(true));
  EXPECT_EQ(EvalExpr(*Bound(Expr::Unary(UnaryOp::kIsNull, Col("i"))),
                     TestTuple())
                .value(),
            Value::Bool(false));
}

TEST(ExprEvalTest, KleeneLogic) {
  auto null_pred = [] {
    return Expr::Binary(BinaryOp::kEq, Col("n"), Lit(int64_t{1}));
  };
  auto true_pred = [] {
    return Expr::Binary(BinaryOp::kEq, Col("i"), Lit(int64_t{10}));
  };
  auto false_pred = [] {
    return Expr::Binary(BinaryOp::kEq, Col("i"), Lit(int64_t{11}));
  };
  // FALSE AND NULL = FALSE.
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kAnd, false_pred(),
                                         null_pred())),
                     TestTuple())
                .value(),
            Value::Bool(false));
  // TRUE AND NULL = NULL.
  EXPECT_TRUE(EvalExpr(*Bound(Expr::Binary(BinaryOp::kAnd, true_pred(),
                                           null_pred())),
                       TestTuple())
                  ->is_null());
  // TRUE OR NULL = TRUE.
  EXPECT_EQ(EvalExpr(*Bound(Expr::Binary(BinaryOp::kOr, true_pred(),
                                         null_pred())),
                     TestTuple())
                .value(),
            Value::Bool(true));
  // FALSE OR NULL = NULL.
  EXPECT_TRUE(EvalExpr(*Bound(Expr::Binary(BinaryOp::kOr, false_pred(),
                                           null_pred())),
                       TestTuple())
                  ->is_null());
  // NULL maps to false under predicate semantics.
  EXPECT_FALSE(EvalPredicate(*Bound(null_pred()), TestTuple()).value());
}

TEST(ExprEvalTest, StringConcat) {
  auto e = Bound(Expr::Binary(BinaryOp::kAdd, Col("s"), Lit("def")));
  EXPECT_EQ(EvalExpr(*e, TestTuple()).value(), Value::String("abcdef"));
}

// -------------------------------------------------------------- Compiler

TEST(ExprCompilerTest, CompilesAndEvaluates) {
  auto e = Bound(Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGt, Col("i"), Lit(int64_t{5})),
      Expr::Binary(BinaryOp::kLt, Col("d"), Lit(3.0))));
  auto compiled = CompileExpr(*e);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->num_instructions(), 4u);
  EXPECT_EQ(compiled->Eval(TestTuple()).value(), Value::Bool(true));
  EXPECT_TRUE(compiled->EvalPredicate(TestTuple()).value());
}

TEST(ExprCompilerTest, TypeSpecializedArithmetic) {
  auto e = Bound(Expr::Binary(BinaryOp::kAdd, Col("i"), Col("d")));
  auto compiled = CompileExpr(*e);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->result_type(), DataType::kDouble);
  EXPECT_EQ(compiled->Eval(TestTuple()).value(), Value::Double(12.5));
  // Disassembly mentions the int->double widening.
  EXPECT_NE(compiled->ToString().find("i2d"), std::string::npos);
}

TEST(ExprCompilerTest, ConcatUsesScratch) {
  auto e = Bound(Expr::Binary(
      BinaryOp::kAdd, Expr::Binary(BinaryOp::kAdd, Col("s"), Lit("-")),
      Col("s")));
  auto compiled = CompileExpr(*e);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->Eval(TestTuple()).value(), Value::String("abc-abc"));
  // Reusable across calls.
  EXPECT_EQ(compiled->Eval(TestTuple()).value(), Value::String("abc-abc"));
}

TEST(ExprCompilerTest, RuntimeErrorsSurface) {
  auto e = Bound(Expr::Binary(BinaryOp::kDiv, Col("i"), Col("n")));
  auto compiled = CompileExpr(*e);
  ASSERT_TRUE(compiled.ok());
  // NULL divisor -> NULL, not error.
  EXPECT_TRUE(compiled->Eval(TestTuple())->is_null());

  auto z = Bound(Expr::Binary(BinaryOp::kDiv, Col("i"), Lit(int64_t{0})));
  auto zc = CompileExpr(*z);
  ASSERT_TRUE(zc.ok());
  EXPECT_EQ(zc->Eval(TestTuple()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExprCompilerTest, StaticNullFoldsToNull) {
  auto e = Bound(Expr::Binary(BinaryOp::kAdd, Col("i"),
                              Expr::Literal(Value::Null())));
  auto compiled = CompileExpr(*e);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->Eval(TestTuple())->is_null());
}

// ------------------------------------------ Interpreter/compiler agreement

/// Generates random well-typed expressions and checks that the compiled
/// program agrees with the tree-walking interpreter on random tuples, row
/// by row and over a batch of them — the central correctness property of
/// the generative approach (E4) and the equivalence contract of the two
/// VMs (DESIGN.md §12.3). The generator reaches every opcode.
class ExprAgreementTest : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<Expr> RandomNumeric(Rng& rng, int depth);
std::unique_ptr<Expr> RandomString(Rng& rng, int depth);
std::unique_ptr<Expr> RandomBool(Rng& rng, int depth);

std::unique_ptr<Expr> RandomNumeric(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBool(0.3)) {
    switch (rng.Uniform(5)) {
      case 0:
        return Col("i");
      case 1:
        return Col("d");
      case 2:
        return Col("n");
      case 3:
        // Zero often, so divisions fail; now and then a static NULL.
        return rng.NextBool(0.2) ? Expr::Literal(Value::Null())
                                 : Lit(rng.UniformInt(0, 1));
      default:
        return rng.NextBool(0.5)
                   ? Lit(rng.UniformInt(-20, 20))
                   : Lit(static_cast<double>(rng.UniformInt(-200, 200)) / 10.0);
    }
  }
  if (rng.NextBool(0.15)) {
    return Expr::Unary(UnaryOp::kNeg, RandomNumeric(rng, depth - 1));
  }
  if (rng.NextBool(0.1)) {
    // % takes INT operands only; n is often NULL and the literal often 0.
    auto int_leaf = [&rng]() -> std::unique_ptr<Expr> {
      switch (rng.Uniform(3)) {
        case 0:
          return Col("i");
        case 1:
          return Col("n");
        default:
          return Lit(rng.UniformInt(0, 3));
      }
    };
    auto dividend = int_leaf();
    return Expr::Binary(BinaryOp::kMod, std::move(dividend), int_leaf());
  }
  const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kDiv};
  return Expr::Binary(ops[rng.Uniform(4)], RandomNumeric(rng, depth - 1),
                      RandomNumeric(rng, depth - 1));
}

std::unique_ptr<Expr> RandomString(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBool(0.4)) {
    const char* literals[] = {"", "x", "yy", "xy"};
    return rng.NextBool(0.5) ? Col("s") : Lit(literals[rng.Uniform(4)]);
  }
  return Expr::Binary(BinaryOp::kAdd, RandomString(rng, depth - 1),
                      RandomString(rng, depth - 1));
}

std::unique_ptr<Expr> RandomBool(Rng& rng, int depth) {
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  if (depth <= 0 || rng.NextBool(0.25)) {
    switch (rng.Uniform(4)) {
      case 0:
        return Expr::Binary(cmps[rng.Uniform(6)], RandomString(rng, depth),
                            RandomString(rng, depth));
      case 1:
        return rng.NextBool(0.5) ? Col("b")
                                 : Expr::Literal(Value::Bool(rng.NextBool(0.5)));
      default:
        return Expr::Binary(cmps[rng.Uniform(6)], RandomNumeric(rng, depth),
                            RandomNumeric(rng, depth));
    }
  }
  switch (rng.Uniform(6)) {
    case 0:
      return Expr::Binary(BinaryOp::kAnd, RandomBool(rng, depth - 1),
                          RandomBool(rng, depth - 1));
    case 1:
      return Expr::Binary(BinaryOp::kOr, RandomBool(rng, depth - 1),
                          RandomBool(rng, depth - 1));
    case 2:
      return Expr::Unary(UnaryOp::kNot, RandomBool(rng, depth - 1));
    case 3:
      // BOOL orders nothing: only = and <>.
      return Expr::Binary(rng.NextBool(0.5) ? BinaryOp::kEq : BinaryOp::kNe,
                          RandomBool(rng, depth - 1),
                          RandomBool(rng, depth - 1));
    case 4:
      return Expr::Unary(UnaryOp::kIsNull, RandomString(rng, depth - 1));
    default:
      return Expr::Unary(UnaryOp::kIsNull, RandomNumeric(rng, depth - 1));
  }
}

Tuple RandomTuple(Rng& rng) {
  const char* strings[] = {"", "x", "yy", "xy"};
  return Tuple({rng.NextBool(0.15) ? Value::Null()
                                   : Value::Int(rng.UniformInt(-10, 10)),
                rng.NextBool(0.15)
                    ? Value::Null()
                    : Value::Double(static_cast<double>(rng.UniformInt(-50, 50)) / 4.0),
                rng.NextBool(0.1) ? Value::Null()
                                  : Value::String(strings[rng.Uniform(4)]),
                rng.NextBool(0.1) ? Value::Null()
                                  : Value::Bool(rng.NextBool(0.5)),
                rng.NextBool(0.5) ? Value::Null()
                                  : Value::Int(rng.UniformInt(0, 5))});
}

TEST_P(ExprAgreementTest, CompiledMatchesInterpreted) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 120; ++trial) {
    std::unique_ptr<Expr> expr;
    switch (trial % 3) {
      case 0:
        expr = RandomBool(rng, 4);
        break;
      case 1:
        expr = RandomNumeric(rng, 4);
        break;
      default:
        expr = RandomString(rng, 3);
        break;
    }
    ASSERT_TRUE(expr->Bind(TestSchema()).ok()) << expr->ToString();
    auto compiled = CompileExpr(*expr);
    ASSERT_TRUE(compiled.ok()) << expr->ToString();
    const bool predicate = expr->result_type() == DataType::kBool;
    std::vector<Tuple> tuples;
    // The interpreter's answer per row, and the first row that fails.
    std::vector<StatusOr<Value>> expected;
    std::optional<Status> first_failure;
    std::optional<Status> first_predicate_failure;
    for (int i = 0; i < 25; ++i) {
      tuples.push_back(RandomTuple(rng));
      const Tuple& t = tuples.back();
      auto iv = EvalExpr(*expr, t);
      auto cv = compiled->Eval(t);
      ASSERT_EQ(iv.ok(), cv.ok()) << expr->ToString() << " on " << t.ToString();
      expected.push_back(iv);
      if (!iv.ok()) {
        EXPECT_EQ(iv.status().ToString(), cv.status().ToString());
        if (!first_failure.has_value()) first_failure = iv.status();
      } else {
        EXPECT_EQ(iv->is_null(), cv->is_null())
            << expr->ToString() << " on " << t.ToString();
        if (!iv->is_null()) {
          EXPECT_EQ(*iv, *cv) << expr->ToString() << " on " << t.ToString();
        }
      }
      if (!predicate) continue;
      // Predicate semantics agree too.
      auto ip = EvalPredicate(*expr, t);
      auto cp = compiled->EvalPredicate(t);
      ASSERT_EQ(ip.ok(), cp.ok()) << expr->ToString() << " on " << t.ToString();
      if (ip.ok()) {
        EXPECT_EQ(*ip, *cp);
      } else if (!first_predicate_failure.has_value()) {
        first_predicate_failure = ip.status();
      }
    }

    // The batch VM: the same values and NULLs on every row, or the status
    // of the first failing row.
    const ColumnBatch batch = ColumnBatch::FromTuples(tuples);
    auto column = compiled->EvalBatch(batch);
    if (first_failure.has_value()) {
      ASSERT_FALSE(column.ok()) << expr->ToString();
      EXPECT_EQ(column.status().ToString(), first_failure->ToString())
          << expr->ToString();
    } else {
      ASSERT_TRUE(column.ok())
          << expr->ToString() << ": " << column.status().ToString();
      for (size_t r = 0; r < tuples.size(); ++r) {
        const Value got = column->ValueAt(r);
        EXPECT_EQ(expected[r]->is_null(), got.is_null())
            << expr->ToString() << " on " << tuples[r].ToString();
        if (!got.is_null()) {
          EXPECT_EQ(*expected[r], got)
              << expr->ToString() << " on " << tuples[r].ToString();
        }
      }
    }
    if (!predicate) continue;
    std::vector<uint8_t> keep;
    const Status kept = compiled->EvalPredicateBatch(batch, &keep);
    if (first_predicate_failure.has_value()) {
      EXPECT_EQ(kept.ToString(), first_predicate_failure->ToString())
          << expr->ToString();
      continue;
    }
    ASSERT_TRUE(kept.ok()) << expr->ToString() << ": " << kept.ToString();
    ASSERT_EQ(keep.size(), tuples.size());
    for (size_t r = 0; r < tuples.size(); ++r) {
      EXPECT_EQ(keep[r] != 0, *EvalPredicate(*expr, tuples[r]))
          << expr->ToString() << " on " << tuples[r].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------- Expr helpers

TEST(ExprUtilTest, SplitAndCombineConjuncts) {
  auto e = Bound(And(
      Expr::Binary(BinaryOp::kGt, Col("i"), Lit(int64_t{1})),
      And(Expr::Binary(BinaryOp::kLt, Col("i"), Lit(int64_t{9})),
          Expr::Binary(BinaryOp::kEq, Col("s"), Lit("x")))));
  auto conjuncts = algebra::SplitConjuncts(*e);
  EXPECT_EQ(conjuncts.size(), 3u);
  auto recombined = algebra::CombineConjuncts(std::move(conjuncts));
  ASSERT_NE(recombined, nullptr);
  // Same evaluation on a sample tuple.
  ASSERT_TRUE(recombined->Bind(TestSchema()).ok());
  EXPECT_EQ(EvalPredicate(*e, TestTuple()).value(),
            EvalPredicate(*recombined, TestTuple()).value());
  EXPECT_EQ(algebra::CombineConjuncts({}), nullptr);
}

TEST(ExprUtilTest, CloneAndEquals) {
  auto e = Bound(Expr::Binary(BinaryOp::kGe, Col("d"), Lit(1.5)));
  auto c = e->Clone();
  EXPECT_TRUE(e->Equals(*c));
  auto other = Bound(Expr::Binary(BinaryOp::kGe, Col("d"), Lit(2.5)));
  EXPECT_FALSE(e->Equals(*other));
}

TEST(ExprUtilTest, CollectColumnsAndConstness) {
  auto e = Bound(Expr::Binary(BinaryOp::kAdd, Col("i"),
                              Expr::Binary(BinaryOp::kMul, Col("d"), Col("i"))));
  std::vector<size_t> cols;
  e->CollectColumnIndexes(&cols);
  EXPECT_EQ(cols, (std::vector<size_t>{0, 1, 0}));
  EXPECT_FALSE(e->IsConstant());
  EXPECT_TRUE(Lit(int64_t{3})->IsConstant());
}

}  // namespace
}  // namespace prisma::exec
