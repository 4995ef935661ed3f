#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/column_batch.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "exec/distinct_sketch.h"
#include "exec/executor.h"
#include "exec/expr_compiler.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/transitive_closure.h"
#include "storage/relation.h"

namespace prisma::exec {
namespace {

using algebra::AggFunc;
using algebra::AggregatePlan;
using algebra::BinaryOp;
using algebra::Col;
using algebra::DifferencePlan;
using algebra::DistinctPlan;
using algebra::Expr;
using algebra::JoinPlan;
using algebra::LimitPlan;
using algebra::Lit;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;
using algebra::SortKey;
using algebra::SortPlan;
using algebra::TransitiveClosurePlan;
using algebra::UnaryOp;
using algebra::UnionPlan;
using algebra::ValuesPlan;

Tuple Pair(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

std::vector<Tuple> Pairs(std::vector<std::pair<int64_t, int64_t>> ps) {
  std::vector<Tuple> out;
  for (auto [a, b] : ps) out.push_back(Pair(a, b));
  return out;
}

// ------------------------------------------------------------------ Joins

TEST(DistinctSketchTest, ExactBelowKAndCloseAbove) {
  // Below kSketchValues distinct values the count is exact, whatever the
  // duplicates; above it the estimate stays near the truth and does not
  // depend on the insertion order.
  DistinctSketch small;
  for (int i = 0; i < 200; ++i) small.Add(Value::Int(i % 40));
  small.Add(Value::Null());
  small.Add(Value::String("x"));
  EXPECT_EQ(small.Estimate(), 42u);

  DistinctSketch up;
  DistinctSketch down;
  for (int i = 0; i < 10'000; ++i) {
    up.Add(Value::Int(i));
    down.Add(Value::Int(9'999 - i));
  }
  EXPECT_EQ(up.Estimate(), down.Estimate());
  EXPECT_GT(up.Estimate(), 7'000u);
  EXPECT_LT(up.Estimate(), 13'000u);
  up.Clear();
  EXPECT_EQ(up.Estimate(), 0u);
}

TEST(JoinTest, HashJoinBasic) {
  auto left = Pairs({{1, 10}, {2, 20}, {3, 30}});
  auto right = Pairs({{2, 200}, {3, 300}, {3, 301}, {4, 400}});
  auto out = HashJoin(left, right, {{0, 0}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  for (const Tuple& t : *out) {
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.at(0), t.at(2));  // Key columns equal.
  }
}

TEST(JoinTest, NullKeysNeverJoin) {
  std::vector<Tuple> left = {Tuple({Value::Null(), Value::Int(1)}), Pair(2, 2)};
  std::vector<Tuple> right = {Tuple({Value::Null(), Value::Int(9)}),
                              Pair(2, 9)};
  auto out = HashJoin(left, right, {{0, 0}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u) << "null keys joined";
  EXPECT_EQ(out->front().at(0), Value::Int(2));
}

TEST(JoinTest, NestedLoopCrossProduct) {
  auto out = NestedLoopJoin(Pairs({{1, 1}, {2, 2}}), Pairs({{5, 5}}), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(JoinTest, FilterApplies) {
  auto filter = [](const Tuple& t) -> StatusOr<bool> {
    return t.at(1).int_value() + t.at(3).int_value() > 25;
  };
  auto out = HashJoin(Pairs({{1, 10}, {2, 20}}), Pairs({{1, 10}, {2, 20}}),
                      {{0, 0}}, filter);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().at(0), Value::Int(2));
}

/// Property: the hash and nested-loop joins agree on random inputs.
class JoinAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinAgreementTest, AllAlgorithmsAgree) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Tuple> left;
    std::vector<Tuple> right;
    const int nl = 1 + static_cast<int>(rng.Uniform(40));
    const int nr = 1 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < nl; ++i) {
      left.push_back(Pair(rng.UniformInt(0, 8), rng.UniformInt(0, 100)));
    }
    for (int i = 0; i < nr; ++i) {
      right.push_back(Pair(rng.UniformInt(0, 8), rng.UniformInt(0, 100)));
    }
    auto eq_filter = [](const Tuple& t) -> StatusOr<bool> {
      return t.at(0).Compare(t.at(2)) == 0;
    };
    auto h = HashJoin(left, right, {{0, 0}});
    auto n = NestedLoopJoin(left, right, eq_filter);
    ASSERT_TRUE(h.ok() && n.ok());
    auto canon = [](std::vector<Tuple> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(canon(*h), canon(*n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAgreementTest,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------- TransitiveClosure

TEST(TransitiveClosureTest, Chain) {
  auto edges = Pairs({{1, 2}, {2, 3}, {3, 4}});
  for (auto alg : {TcAlgorithm::kNaive, TcAlgorithm::kSeminaive,
                   TcAlgorithm::kSmart}) {
    auto out = TransitiveClosure(edges, alg);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 6u) << TcAlgorithmName(alg);  // All i<j pairs.
  }
}

TEST(TransitiveClosureTest, CycleSaturates) {
  auto edges = Pairs({{1, 2}, {2, 3}, {3, 1}});
  auto out = TransitiveClosure(edges, TcAlgorithm::kSeminaive);
  ASSERT_TRUE(out.ok());
  // Every node reaches every node including itself: 9 pairs.
  EXPECT_EQ(out->size(), 9u);
}

TEST(TransitiveClosureTest, EmptyAndSelfLoop) {
  EXPECT_TRUE(TransitiveClosure({}, TcAlgorithm::kNaive)->empty());
  auto out = TransitiveClosure(Pairs({{1, 1}}), TcAlgorithm::kSeminaive);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(TransitiveClosureTest, NullEndpointsIgnored) {
  std::vector<Tuple> edges = {Pair(1, 2),
                              Tuple({Value::Null(), Value::Int(3)})};
  auto out = TransitiveClosure(edges, TcAlgorithm::kSeminaive);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST(TransitiveClosureTest, RejectsNonBinary) {
  std::vector<Tuple> bad = {Tuple({Value::Int(1)})};
  EXPECT_FALSE(TransitiveClosure(bad, TcAlgorithm::kNaive).ok());
}

TEST(TransitiveClosureTest, WorksOnStrings) {
  std::vector<Tuple> edges = {
      Tuple({Value::String("a"), Value::String("b")}),
      Tuple({Value::String("b"), Value::String("c")})};
  auto out = TransitiveClosure(edges, TcAlgorithm::kSmart);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(TransitiveClosureTest, StatsAreAFunctionOfTheDistinctNonNullEdgeSet) {
  // Regression: naive/seminaive used to join against the raw edge list,
  // so duplicate input edges inflated pairs_derived (smart, which
  // rebuilds its adjacency from the deduplicated closure, never did) —
  // and NULL-endpoint tuples were dropped without any record. The three
  // algorithms must now report identical stats for the dirty and the
  // clean form of the same relation, plus the NULL drop count.
  const std::vector<Tuple> clean =
      Pairs({{1, 2}, {2, 3}, {3, 4}, {2, 4}});
  std::vector<Tuple> dirty = clean;
  dirty.push_back(Pair(1, 2));  // Duplicates...
  dirty.push_back(Pair(2, 3));
  dirty.push_back(Pair(1, 2));
  dirty.push_back(Tuple({Value::Null(), Value::Int(7)}));  // ...and NULLs.
  dirty.push_back(Tuple({Value::Int(7), Value::Null()}));
  dirty.push_back(Tuple({Value::Null(), Value::Null()}));
  for (auto alg : {TcAlgorithm::kNaive, TcAlgorithm::kSeminaive,
                   TcAlgorithm::kSmart}) {
    TcStats clean_stats, dirty_stats;
    auto clean_out = TransitiveClosure(clean, alg, &clean_stats);
    auto dirty_out = TransitiveClosure(dirty, alg, &dirty_stats);
    ASSERT_TRUE(clean_out.ok() && dirty_out.ok());
    EXPECT_EQ(*clean_out, *dirty_out) << TcAlgorithmName(alg);
    EXPECT_EQ(dirty_stats.pairs_derived, clean_stats.pairs_derived)
        << TcAlgorithmName(alg);
    EXPECT_EQ(dirty_stats.iterations, clean_stats.iterations)
        << TcAlgorithmName(alg);
    EXPECT_EQ(dirty_stats.result_size, clean_stats.result_size)
        << TcAlgorithmName(alg);
    EXPECT_EQ(clean_stats.null_edges_ignored, 0u);
    EXPECT_EQ(dirty_stats.null_edges_ignored, 3u) << TcAlgorithmName(alg);
  }
}

TEST(TransitiveClosureTest, SeminaiveDerivesFewerPairsThanNaive) {
  // A long chain maximizes naive's re-derivation waste.
  std::vector<Tuple> edges;
  for (int i = 0; i < 30; ++i) edges.push_back(Pair(i, i + 1));
  TcStats naive, semi, smart;
  ASSERT_TRUE(TransitiveClosure(edges, TcAlgorithm::kNaive, &naive).ok());
  ASSERT_TRUE(TransitiveClosure(edges, TcAlgorithm::kSeminaive, &semi).ok());
  ASSERT_TRUE(TransitiveClosure(edges, TcAlgorithm::kSmart, &smart).ok());
  EXPECT_EQ(naive.result_size, semi.result_size);
  EXPECT_EQ(naive.result_size, smart.result_size);
  EXPECT_GT(naive.pairs_derived, 3 * semi.pairs_derived);
  // Smart runs O(log n) iterations vs O(n).
  EXPECT_LT(smart.iterations, 8u);
  EXPECT_GT(semi.iterations, 25u);
}

/// Property: all three algorithms agree on random graphs, and match a
/// reference Floyd-Warshall closure.
class TcAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcAgreementTest, MatchesFloydWarshall) {
  Rng rng(GetParam());
  const int n = 12;
  std::vector<Tuple> edges;
  bool reach[12][12] = {};
  for (int i = 0; i < 28; ++i) {
    const int a = static_cast<int>(rng.Uniform(n));
    const int b = static_cast<int>(rng.Uniform(n));
    edges.push_back(Pair(a, b));
    reach[a][b] = true;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> want;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (reach[i][j]) want.insert({i, j});
    }
  }
  for (auto alg : {TcAlgorithm::kNaive, TcAlgorithm::kSeminaive,
                   TcAlgorithm::kSmart}) {
    auto out = TransitiveClosure(edges, alg);
    ASSERT_TRUE(out.ok());
    std::set<std::pair<int64_t, int64_t>> got;
    for (const Tuple& t : *out) {
      got.insert({t.at(0).int_value(), t.at(1).int_value()});
    }
    EXPECT_EQ(got, want) << TcAlgorithmName(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcAgreementTest,
                         ::testing::Values(7, 17, 27, 37, 47));

// --------------------------------------------------------------- Executor

Schema EmpSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"dept", DataType::kString},
                 {"salary", DataType::kInt64}});
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : emp_("emp", EmpSchema()) {
    const char* depts[] = {"sales", "eng", "hr"};
    for (int i = 0; i < 30; ++i) {
      emp_.Insert(Tuple({Value::Int(i), Value::String(depts[i % 3]),
                         Value::Int(1000 + 100 * i)}))
          .value();
    }
    resolver_.Register("emp", &emp_);
  }

  std::unique_ptr<algebra::Plan> EmpScan() {
    return ScanPlan::Create("emp", EmpSchema());
  }

  StatusOr<std::vector<Tuple>> Execute(const algebra::Plan& plan,
                                       ExprMode mode = ExprMode::kCompiled) {
    ExecOptions opts;
    opts.expr_mode = mode;
    Executor executor(&resolver_, opts);
    auto result = executor.Execute(plan);
    last_stats_ = executor.stats();
    return result;
  }

  storage::Relation emp_;
  MapTableResolver resolver_;
  ExecStats last_stats_;
};

TEST_F(ExecutorTest, ScanReturnsAll) {
  auto out = Execute(*EmpScan());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 30u);
  EXPECT_EQ(last_stats_.tuples_scanned, 30u);
  EXPECT_GT(last_stats_.charged_ns, 0);
}

TEST_F(ExecutorTest, ScanUnknownTableFails) {
  auto plan = ScanPlan::Create("ghost", EmpSchema());
  EXPECT_EQ(Execute(*plan).status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, SelectFilters) {
  auto plan = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGe, Col("salary"), Lit(int64_t{3500})));
  ASSERT_TRUE(plan.ok());
  for (ExprMode mode : {ExprMode::kCompiled, ExprMode::kInterpreted}) {
    auto out = Execute(**plan, mode);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 5u);
    for (const Tuple& t : *out) EXPECT_GE(t.at(2).int_value(), 3500);
  }
}

TEST_F(ExecutorTest, InterpretedChargesMoreThanCompiled) {
  auto plan = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGe, Col("salary"), Lit(int64_t{0})));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(Execute(**plan, ExprMode::kCompiled).ok());
  const sim::SimTime compiled_ns = last_stats_.charged_ns;
  ASSERT_TRUE(Execute(**plan, ExprMode::kInterpreted).ok());
  const sim::SimTime interpreted_ns = last_stats_.charged_ns;
  // The virtual cost model reflects the interpretation overhead (E4).
  EXPECT_GT(interpreted_ns, compiled_ns);
}

TEST_F(ExecutorTest, ProjectComputes) {
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Col("id"));
  exprs.push_back(Expr::Binary(BinaryOp::kMul, Col("salary"), Lit(int64_t{2})));
  auto plan = ProjectPlan::Create(EmpScan(), std::move(exprs),
                                  {"id", "double_salary"});
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*plan)->schema().column(1).name, "double_salary");
  EXPECT_EQ(out->front().at(1), Value::Int(2000));
}

TEST_F(ExecutorTest, JoinViaHashPath) {
  // Self-join emp with emp on dept, restricted to two specific ids.
  auto left = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kLt, Col("id"), Lit(int64_t{3})));
  ASSERT_TRUE(left.ok());
  auto right_scan = EmpScan();
  auto join = JoinPlan::Create(
      std::move(*left), std::move(right_scan),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(1, DataType::kString),
                   Expr::ColumnIndex(4, DataType::kString)));
  ASSERT_TRUE(join.ok());
  EXPECT_FALSE((*join)->EquiKeys().empty());
  auto out = Execute(**join);
  ASSERT_TRUE(out.ok());
  // Each of ids 0,1,2 joins its department's 10 members.
  EXPECT_EQ(out->size(), 30u);
  EXPECT_EQ(out->front().size(), 6u);
}

TEST_F(ExecutorTest, UnionConcatenates) {
  auto plan = UnionPlan::Create(EmpScan(), EmpScan());
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 60u);
}

TEST_F(ExecutorTest, DifferenceRemoves) {
  auto half = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kLt, Col("id"), Lit(int64_t{10})));
  ASSERT_TRUE(half.ok());
  auto plan = DifferencePlan::Create(EmpScan(), std::move(*half));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 20u);
  for (const Tuple& t : *out) EXPECT_GE(t.at(0).int_value(), 10);
}

TEST_F(ExecutorTest, DistinctDeduplicates) {
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Col("dept"));
  auto proj = ProjectPlan::Create(EmpScan(), std::move(exprs), {"dept"});
  ASSERT_TRUE(proj.ok());
  auto plan = DistinctPlan::Create(std::move(*proj));
  auto out = Execute(*plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST_F(ExecutorTest, AggregateGrouped) {
  std::vector<std::unique_ptr<Expr>> groups;
  groups.push_back(Col("dept"));
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, Col("salary"), "total"});
  aggs.push_back({AggFunc::kMin, Col("salary"), "lo"});
  aggs.push_back({AggFunc::kMax, Col("salary"), "hi"});
  aggs.push_back({AggFunc::kAvg, Col("salary"), "avg"});
  auto plan = AggregatePlan::Create(EmpScan(), std::move(groups), {"dept"},
                                    std::move(aggs));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  for (const Tuple& t : *out) {
    EXPECT_EQ(t.at(1), Value::Int(10));  // 10 per department.
    EXPECT_LT(t.at(3), t.at(4));         // lo < hi.
    EXPECT_EQ(t.at(5).type(), DataType::kDouble);
  }
}

TEST_F(ExecutorTest, AggregateGrandTotalOnEmptyInput) {
  auto none = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kLt, Col("id"), Lit(int64_t{0})));
  ASSERT_TRUE(none.ok());
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, Col("salary"), "total"});
  auto plan =
      AggregatePlan::Create(std::move(*none), {}, {}, std::move(aggs));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().at(0), Value::Int(0));
  EXPECT_TRUE(out->front().at(1).is_null());  // SUM of nothing is NULL.
}

TEST_F(ExecutorTest, SortAscendingAndDescending) {
  std::vector<SortKey> keys;
  keys.push_back({Col("salary"), /*descending=*/true});
  auto plan = SortPlan::Create(EmpScan(), std::move(keys));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_GE((*out)[i - 1].at(2).int_value(), (*out)[i].at(2).int_value());
  }
}

TEST_F(ExecutorTest, LimitTruncates) {
  auto plan = LimitPlan::Create(EmpScan(), 7);
  auto out = Execute(*plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 7u);
}

TEST_F(ExecutorTest, TransitiveClosureNode) {
  storage::Relation edges("edges", Schema({{"src", DataType::kInt64},
                                           {"dst", DataType::kInt64}}));
  for (int i = 0; i < 5; ++i) edges.Insert(Pair(i, i + 1)).value();
  resolver_.Register("edges", &edges);
  auto scan = ScanPlan::Create("edges", edges.schema());
  auto plan = TransitiveClosurePlan::Create(std::move(scan));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 15u);  // 6 choose 2.
}

TEST_F(ExecutorTest, ValuesPlanFeedsPipeline) {
  Schema s({{"x", DataType::kInt64}});
  auto values = ValuesPlan::Create(s, {Tuple({Value::Int(1)}),
                                       Tuple({Value::Int(2)}),
                                       Tuple({Value::Int(2)})});
  ASSERT_TRUE(values.ok());
  auto plan = DistinctPlan::Create(std::move(*values));
  auto out = Execute(*plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST_F(ExecutorTest, HashIndexSelectionMatchesScan) {
  storage::HashIndex by_id("by_id", {0});
  by_id.Rebuild(emp_);
  auto make_plan = [&] {
    auto plan = SelectPlan::Create(
        EmpScan(), Expr::Binary(BinaryOp::kEq, Col("id"), Lit(int64_t{7})));
    EXPECT_TRUE(plan.ok());
    return std::move(plan).value();
  };
  // Without the index: full scan.
  auto scan_result = Execute(*make_plan());
  ASSERT_TRUE(scan_result.ok());
  EXPECT_EQ(last_stats_.index_selections, 0u);
  EXPECT_EQ(last_stats_.tuples_scanned, 30u);

  // With the index registered: probe, no scan, same answer.
  resolver_.RegisterHashIndex("emp", &by_id);
  auto index_result = Execute(*make_plan());
  ASSERT_TRUE(index_result.ok());
  EXPECT_EQ(last_stats_.index_selections, 1u);
  EXPECT_EQ(last_stats_.tuples_scanned, 0u);
  EXPECT_EQ(*index_result, *scan_result);
  ASSERT_EQ(index_result->size(), 1u);
}

TEST_F(ExecutorTest, BTreeIndexRangeSelectionMatchesScan) {
  storage::BTreeIndex by_salary("by_salary", {2});
  by_salary.Rebuild(emp_);
  auto make_plan = [&](int64_t lo, int64_t hi) {
    auto plan = SelectPlan::Create(
        EmpScan(),
        algebra::And(
            Expr::Binary(BinaryOp::kGe, Col("salary"), Lit(lo)),
            Expr::Binary(BinaryOp::kLt, Col("salary"), Lit(hi))));
    EXPECT_TRUE(plan.ok());
    return std::move(plan).value();
  };
  auto scan_result = Execute(*make_plan(1500, 2500));
  ASSERT_TRUE(scan_result.ok());

  resolver_.RegisterBTreeIndex("emp", &by_salary);
  auto index_result = Execute(*make_plan(1500, 2500));
  ASSERT_TRUE(index_result.ok());
  EXPECT_EQ(last_stats_.index_selections, 1u);
  EXPECT_EQ(last_stats_.tuples_scanned, 0u);
  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(*index_result), canon(*scan_result));
  EXPECT_EQ(index_result->size(), 10u);  // Salaries 1500..2400.
}

TEST_F(ExecutorTest, IndexSelectionRechecksResidualPredicate) {
  storage::HashIndex by_dept("by_dept", {1});
  by_dept.Rebuild(emp_);
  resolver_.RegisterHashIndex("emp", &by_dept);
  // dept = 'eng' is indexed; the salary conjunct is residual.
  auto plan = SelectPlan::Create(
      EmpScan(),
      algebra::And(
          Expr::Binary(BinaryOp::kEq, Col("dept"), Lit(std::string("eng"))),
          Expr::Binary(BinaryOp::kGe, Col("salary"), Lit(int64_t{3000}))));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(last_stats_.index_selections, 1u);
  for (const Tuple& t : *out) {
    EXPECT_EQ(t.at(1), Value::String("eng"));
    EXPECT_GE(t.at(2).int_value(), 3000);
  }
  EXPECT_EQ(out->size(), 3u);  // ids 22, 25, 28.
}

TEST_F(ExecutorTest, IndexPathSkippedWhenNoUsableBound) {
  storage::HashIndex by_id("by_id", {0});
  by_id.Rebuild(emp_);
  resolver_.RegisterHashIndex("emp", &by_id);
  // Inequality cannot use a hash index; OR is not a conjunct chain.
  auto plan = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGt, Col("id"), Lit(int64_t{25})));
  ASSERT_TRUE(plan.ok());
  auto out = Execute(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(last_stats_.index_selections, 0u);
  EXPECT_EQ(out->size(), 4u);
}

/// Property: with random data and predicates, the indexed path and the
/// scan path agree exactly.
class IndexAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexAgreementTest, IndexAndScanAgree) {
  Rng rng(GetParam());
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  storage::Relation rel("t", schema);
  for (int i = 0; i < 300; ++i) {
    std::vector<Value> values(2);  // A NULL key 5% of the time.
    if (!rng.NextBool(0.05)) values[0] = Value::Int(rng.UniformInt(0, 40));
    values[1] = Value::Int(rng.UniformInt(0, 100));
    rel.Insert(Tuple(std::move(values))).value();
  }
  storage::HashIndex hash("h", {0});
  hash.Rebuild(rel);
  storage::BTreeIndex btree("b", {0});
  btree.Rebuild(rel);

  MapTableResolver plain;
  plain.Register("t", &rel);
  MapTableResolver indexed;
  indexed.Register("t", &rel);
  indexed.RegisterHashIndex("t", &hash);
  indexed.RegisterBTreeIndex("t", &btree);

  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const int64_t a = rng.UniformInt(0, 40);
    const int64_t b = rng.UniformInt(0, 40);
    std::unique_ptr<algebra::Plan> plans[2];
    for (auto* p : {&plans[0], &plans[1]}) {
      std::unique_ptr<Expr> pred;
      switch (trial % 3) {
        case 0:
          pred = Expr::Binary(BinaryOp::kEq, Col("k"), Lit(a));
          break;
        case 1:
          pred = algebra::And(
              Expr::Binary(BinaryOp::kGe, Col("k"), Lit(std::min(a, b))),
              Expr::Binary(BinaryOp::kLe, Col("k"), Lit(std::max(a, b))));
          break;
        default:
          pred = algebra::And(
              Expr::Binary(BinaryOp::kLt, Col("k"), Lit(a)),
              Expr::Binary(BinaryOp::kGt, Col("v"), Lit(int64_t{50})));
          break;
      }
      auto plan =
          SelectPlan::Create(ScanPlan::Create("t", schema), std::move(pred));
      ASSERT_TRUE(plan.ok());
      *p = std::move(plan).value();
    }
    Executor scan_exec(&plain, exec::ExecOptions());
    Executor index_exec(&indexed, exec::ExecOptions());
    auto scan_out = scan_exec.Execute(*plans[0]);
    auto index_out = index_exec.Execute(*plans[1]);
    ASSERT_TRUE(scan_out.ok() && index_out.ok());
    EXPECT_EQ(canon(*scan_out), canon(*index_out)) << "trial " << trial;
    if (trial % 3 != 2) {
      EXPECT_EQ(index_exec.stats().index_selections, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexAgreementTest,
                         ::testing::Values(101, 202, 303));

/// Property: pushing a selection below a join preserves results — the
/// algebraic identity the optimizer's rewrite rules rely on (E6).
TEST_F(ExecutorTest, SelectionPushdownEquivalence) {
  // Plan A: select over join.
  auto join_a = JoinPlan::Create(
      EmpScan(), EmpScan(),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(1, DataType::kString),
                   Expr::ColumnIndex(4, DataType::kString)));
  ASSERT_TRUE(join_a.ok());
  auto sel_a = SelectPlan::Create(
      std::move(*join_a),
      Expr::Binary(BinaryOp::kLt, Expr::ColumnIndex(0, DataType::kInt64),
                   Lit(int64_t{2})));
  ASSERT_TRUE(sel_a.ok());

  // Plan B: selection pushed to the left input.
  auto pushed = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kLt, Col("id"), Lit(int64_t{2})));
  ASSERT_TRUE(pushed.ok());
  auto join_b = JoinPlan::Create(
      std::move(*pushed), EmpScan(),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(1, DataType::kString),
                   Expr::ColumnIndex(4, DataType::kString)));
  ASSERT_TRUE(join_b.ok());

  auto a = Execute(**sel_a);
  auto b = Execute(**join_b);
  ASSERT_TRUE(a.ok() && b.ok());
  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(*a), canon(*b));
  EXPECT_FALSE(a->empty());
}

// ------------------------------------------------- Exchange channels (§10)

TEST(InboundChannelTest, InOrderDeliveryAdvancesAckOnTake) {
  InboundChannel channel;
  TupleBatch b1{1, false, Pairs({{1, 10}})};
  TupleBatch b2{2, true, Pairs({{2, 20}})};
  EXPECT_TRUE(channel.Offer(b1));
  // Offering alone must NOT move the ack point: only TakeReady delivers.
  EXPECT_EQ(channel.ack(), 0u);
  auto ready = channel.TakeReady();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(channel.ack(), 1u);
  EXPECT_FALSE(channel.done());
  EXPECT_TRUE(channel.Offer(b2));
  ready = channel.TakeReady();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_TRUE(ready[0].eos);
  EXPECT_EQ(channel.ack(), 2u);
  EXPECT_TRUE(channel.done());
}

TEST(InboundChannelTest, OutOfOrderBatchesAreReordered) {
  InboundChannel channel;
  EXPECT_TRUE(channel.Offer({3, true, Pairs({{3, 30}})}));
  EXPECT_TRUE(channel.Offer({2, false, Pairs({{2, 20}})}));
  // Seq 1 still missing: nothing deliverable, nothing acked.
  EXPECT_TRUE(channel.TakeReady().empty());
  EXPECT_EQ(channel.ack(), 0u);
  EXPECT_TRUE(channel.Offer({1, false, Pairs({{1, 10}})}));
  auto ready = channel.TakeReady();
  ASSERT_EQ(ready.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ready[i].seq, i + 1);
  }
  EXPECT_EQ(channel.ack(), 3u);
  EXPECT_TRUE(channel.done());
}

TEST(InboundChannelTest, DuplicatesAreDiscardedOnce) {
  InboundChannel channel;
  EXPECT_TRUE(channel.Offer({1, false, Pairs({{1, 10}})}));
  // Duplicate of a still-buffered batch.
  EXPECT_FALSE(channel.Offer({1, false, Pairs({{1, 10}})}));
  auto ready = channel.TakeReady();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tuples.size(), 1u);
  // Duplicate of an already-delivered batch.
  EXPECT_FALSE(channel.Offer({1, false, Pairs({{1, 10}})}));
  EXPECT_EQ(channel.duplicates(), 2u);
  EXPECT_TRUE(channel.TakeReady().empty());  // Delivered exactly once.
}

TEST(OutboundChannelTest, FramesIntoBoundedBatchesWithEos) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) tuples.push_back(Pair(i, i));
  OutboundChannel channel(std::move(tuples), /*batch_rows=*/4,
                          /*window=*/100);
  EXPECT_EQ(channel.last_seq(), 3u);  // 4 + 4 + 2.
  const TupleBatch* b;
  size_t total = 0;
  std::vector<size_t> sizes;
  while ((b = channel.TakeNextToSend()) != nullptr) {
    sizes.push_back(b->tuples.size());
    total += b->tuples.size();
    EXPECT_EQ(b->eos, sizes.size() == 3);
  }
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));
  EXPECT_EQ(total, 10u);
}

TEST(OutboundChannelTest, EmptyStreamIsOneEmptyEosBatch) {
  OutboundChannel channel({}, 4, 1);
  EXPECT_EQ(channel.last_seq(), 1u);
  const TupleBatch* b = channel.TakeNextToSend();
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->eos);
  EXPECT_TRUE(b->tuples.empty());
  EXPECT_FALSE(channel.done());  // Not done until the consumer acks.
  EXPECT_TRUE(channel.OnAck(1));
  EXPECT_TRUE(channel.done());
}

TEST(OutboundChannelTest, CreditWindowStallsAndAcksReopenIt) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) tuples.push_back(Pair(i, i));
  OutboundChannel channel(std::move(tuples), /*batch_rows=*/2,
                          /*window=*/2);  // 5 batches, 2 in flight.
  EXPECT_EQ(channel.credit(), 2u);
  EXPECT_NE(channel.TakeNextToSend(), nullptr);  // seq 1.
  EXPECT_NE(channel.TakeNextToSend(), nullptr);  // seq 2.
  EXPECT_EQ(channel.TakeNextToSend(), nullptr);  // Window exhausted.
  EXPECT_TRUE(channel.Stalled());
  EXPECT_EQ(channel.credit(), 0u);

  EXPECT_TRUE(channel.OnAck(1));
  EXPECT_FALSE(channel.Stalled());
  const TupleBatch* b = channel.TakeNextToSend();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->seq, 3u);
  // Stale/duplicate acks never move the window backwards.
  EXPECT_FALSE(channel.OnAck(1));
  EXPECT_FALSE(channel.OnAck(0));
  EXPECT_TRUE(channel.OnAck(5));
  EXPECT_TRUE(channel.done());
}

TEST(OutboundChannelTest, RetransmissionHelpers) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 4; ++i) tuples.push_back(Pair(i, i));
  OutboundChannel channel(std::move(tuples), 2, 1);  // 2 batches, window 1.
  EXPECT_FALSE(channel.Sent(1));
  EXPECT_NE(channel.TakeNextToSend(), nullptr);
  EXPECT_TRUE(channel.Sent(1));
  EXPECT_FALSE(channel.Sent(2));  // Stalled, not yet handed out.
  ASSERT_NE(channel.BatchAt(1), nullptr);
  EXPECT_EQ(channel.BatchAt(1)->seq, 1u);
  EXPECT_EQ(channel.BatchAt(3), nullptr);  // Out of range.
  // A consumer-granted window enlargement opens credit immediately.
  channel.set_window(2);
  EXPECT_EQ(channel.credit(), 1u);
  channel.set_window(0);  // Malformed grant: ignored.
  EXPECT_EQ(channel.credit(), 1u);
}

// ------------------------------------------------- Pipelined hash join

TEST(PipelinedHashJoinTest, MatchesMaterializedHashJoin) {
  auto left = Pairs({{1, 10}, {2, 20}, {3, 30}, {3, 31}, {5, 50}});
  auto right = Pairs({{2, 200}, {3, 300}, {3, 301}, {4, 400}});
  auto expected = HashJoin(left, right, {{0, 0}});
  ASSERT_TRUE(expected.ok());

  PipelinedHashJoin::Options options;
  options.build_cols = {0};
  options.probe_cols = {0};
  options.build_is_left = true;
  PipelinedHashJoin join(options);
  for (Tuple& t : left) join.AddBuild(std::move(t));
  join.FinishBuild();
  std::vector<Tuple> out;
  for (const Tuple& t : right) {
    ASSERT_TRUE(join.Probe(t, &out).ok());
  }
  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(out), canon(*expected));
  EXPECT_EQ(out.size(), 5u);  // Key 2: 1x1, key 3: 2x2.
}

TEST(PipelinedHashJoinTest, BuildRightKeepsConcatOrder) {
  // Build the RIGHT side: output must still be Concat(left, right).
  auto left = Pairs({{1, 10}, {2, 20}});
  auto right = Pairs({{2, 200}, {2, 201}});
  PipelinedHashJoin::Options options;
  options.build_cols = {0};
  options.probe_cols = {0};
  options.build_is_left = false;  // Probe tuples are the left input.
  PipelinedHashJoin join(options);
  for (Tuple& t : right) join.AddBuild(std::move(t));
  join.FinishBuild();
  std::vector<Tuple> out;
  ASSERT_TRUE(join.Probe(Pair(2, 20), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  for (const Tuple& t : out) {
    EXPECT_EQ(t.at(0), Value::Int(2));    // left.k
    EXPECT_EQ(t.at(1), Value::Int(20));   // left.v
    EXPECT_EQ(t.at(2), Value::Int(2));    // right.k
  }
}

TEST(PipelinedHashJoinTest, NullKeysNeverJoinAndFilterApplies) {
  PipelinedHashJoin::Options options;
  options.build_cols = {0};
  options.probe_cols = {0};
  options.filter = [](const Tuple& joined) -> StatusOr<bool> {
    return joined.at(3).int_value() < 300;  // Keep small right values only.
  };
  PipelinedHashJoin join(options);
  join.AddBuild(Pair(3, 30));
  join.AddBuild(Tuple({Value::Null(), Value::Int(99)}));
  join.FinishBuild();
  EXPECT_EQ(join.build_rows(), 1u);  // NULL build key dropped.
  std::vector<Tuple> out;
  ASSERT_TRUE(
      join.Probe(Tuple({Value::Null(), Value::Int(1)}), &out)
          .ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(join.Probe(Pair(3, 299), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  ASSERT_TRUE(join.Probe(Pair(3, 301), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // Filter rejected the second match.
}

TEST(PipelinedHashJoinTest, OutOfOrderAndDuplicateBatchesViaChannels) {
  // End-to-end over the channel primitives: batches of the build stream
  // arrive out of order and duplicated; the joined output must equal the
  // materialized join regardless.
  auto build_rows = Pairs({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  auto probe_rows = Pairs({{2, 200}, {4, 400}, {5, 500}});
  auto expected = HashJoin(build_rows, probe_rows, {{0, 0}});
  ASSERT_TRUE(expected.ok());

  OutboundChannel out_channel(build_rows, /*batch_rows=*/1, /*window=*/4);
  std::vector<TupleBatch> wire;
  while (const TupleBatch* b = out_channel.TakeNextToSend()) {
    wire.push_back(*b);
  }
  ASSERT_EQ(wire.size(), 4u);
  // Deliver 2, 1, 2(dup), 4, 3, 4(dup).
  InboundChannel in_channel;
  PipelinedHashJoin::Options options;
  options.build_cols = {0};
  options.probe_cols = {0};
  PipelinedHashJoin join(options);
  std::vector<Tuple> joined;
  const size_t order[] = {1, 0, 1, 3, 2, 3};
  for (const size_t i : order) {
    in_channel.Offer(wire[i]);
    for (TupleBatch& ready : in_channel.TakeReady()) {
      for (Tuple& t : ready.tuples) join.AddBuild(std::move(t));
    }
  }
  ASSERT_TRUE(in_channel.done());
  EXPECT_EQ(in_channel.duplicates(), 2u);
  join.FinishBuild();
  for (const Tuple& t : probe_rows) {
    ASSERT_TRUE(join.Probe(t, &joined).ok());
  }
  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(joined), canon(*expected));
}

// ----------------------------------------- Exchange joins, machine level

/// End-to-end acceptance for the streaming exchange layer: a non-colocated
/// equi-join over two hash-fragmented tables must execute through batch
/// channels (exchange.* metrics move) without the coordinator gathering
/// either full input — it only ever sees the joined result.
class ExchangeMachineTest : public ::testing::Test {
 protected:
  explicit ExchangeMachineTest() {
    core::MachineConfig config;
    config.pes = 16;
    db_ = std::make_unique<core::PrismaDb>(config);
  }

  core::QueryResult MustExecute(const std::string& sql) {
    ++statements_;
    auto result = db_->Execute(sql);
    PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  uint64_t SumOverLabel(const std::string& counter, const std::string& label,
                        const std::string& table, size_t fragments) {
    uint64_t total = 0;
    for (size_t f = 0; f < fragments; ++f) {
      total += db_->metrics()
                   .GetCounter(counter,
                               {{label, table + "#" + std::to_string(f)}})
                   ->value();
    }
    return total;
  }

  std::unique_ptr<core::PrismaDb> db_;
  uint64_t statements_ = 0;  // Next statement's request id - 1.
};

TEST_F(ExchangeMachineTest, NonColocatedJoinStreamsThroughExchange) {
  // fact is fragmented on v, NOT the join key, so the join cannot run
  // co-located; dim is fragmented on its key.
  MustExecute("CREATE TABLE fact (k INT, v INT) "
              "FRAGMENTED BY HASH(v) INTO 4 FRAGMENTS");
  MustExecute("CREATE TABLE dim (k INT, label STRING) "
              "FRAGMENTED BY HASH(k) INTO 2 FRAGMENTS");
  for (int i = 0; i < 60; ++i) {
    MustExecute("INSERT INTO fact VALUES (" + std::to_string(i % 20) + ", " +
                std::to_string(i) + ")");
  }
  for (int i = 0; i < 10; ++i) {
    MustExecute("INSERT INTO dim VALUES (" + std::to_string(i) + ", 'd" +
                std::to_string(i) + "')");
  }

  const uint64_t query_id = statements_ + 1;
  core::QueryResult result = MustExecute(
      "SELECT f.v, d.label FROM fact f JOIN dim d ON f.k = d.k ORDER BY f.v");
  // fact keys are i % 20; only 0..9 exist in dim -> 3 fact rows per key.
  ASSERT_EQ(result.tuples.size(), 30u);
  EXPECT_EQ(result.tuples.front().at(0), Value::Int(0));
  EXPECT_EQ(result.tuples.front().at(1), Value::String("d0"));

  // The join streamed through exchange channels...
  const uint64_t sent =
      SumOverLabel("exchange.batches_sent", "fragment", "fact", 4) +
      SumOverLabel("exchange.batches_sent", "fragment", "dim", 2);
  const uint64_t received =
      SumOverLabel("exchange.batches_received", "fragment", "fact", 4) +
      SumOverLabel("exchange.batches_received", "fragment", "dim", 2);
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(received, sent);
  EXPECT_GT(
      SumOverLabel("exchange.bytes", "fragment", "fact", 4) +
          SumOverLabel("exchange.bytes", "fragment", "dim", 2),
      0u);

  // ...and the coordinator only gathered the joined result, never a full
  // input (ship-to-coordinator would gather 60 fact + 10 dim rows).
  const uint64_t gathered =
      db_->metrics()
          .GetCounter("query.tuples_gathered",
                      {{"query", std::to_string(query_id)}})
          ->value();
  EXPECT_EQ(gathered, 30u);
  EXPECT_LT(gathered, 60u);
}

TEST_F(ExchangeMachineTest, ShuffleBothRepartitionsBothSides) {
  // Neither side is fragmented on the join key and both have the same
  // fragment count, so broadcasting is costlier than hash-repartitioning
  // both inputs: the optimizer must pick shuffle-both.
  MustExecute("CREATE TABLE lhs (k INT, v INT) "
              "FRAGMENTED BY HASH(v) INTO 4 FRAGMENTS");
  MustExecute("CREATE TABLE rhs (k INT, w INT) "
              "FRAGMENTED BY HASH(w) INTO 4 FRAGMENTS");
  for (int i = 0; i < 40; ++i) {
    MustExecute("INSERT INTO lhs VALUES (" + std::to_string(i % 8) + ", " +
                std::to_string(i) + ")");
    MustExecute("INSERT INTO rhs VALUES (" + std::to_string(i % 10) + ", " +
                std::to_string(1000 + i) + ")");
  }

  core::QueryResult explain = MustExecute(
      "EXPLAIN SELECT l.v, r.w FROM lhs l JOIN rhs r ON l.k = r.k");
  bool saw_shuffle_both = false;
  for (const Tuple& line : explain.tuples) {
    if (line.at(0).string_value().find("shuffle-both") != std::string::npos) {
      saw_shuffle_both = true;
    }
  }
  EXPECT_TRUE(saw_shuffle_both);

  core::QueryResult result =
      MustExecute("SELECT l.v, r.w FROM lhs l JOIN rhs r ON l.k = r.k");
  // Keys 0..7 exist on both sides: lhs has 5 rows per key, rhs has 4.
  ASSERT_EQ(result.tuples.size(), 8u * 5u * 4u);
  // Both sides produced into channels.
  EXPECT_GT(SumOverLabel("exchange.batches_sent", "fragment", "lhs", 4), 0u);
  EXPECT_GT(SumOverLabel("exchange.batches_sent", "fragment", "rhs", 4), 0u);
}

// ----------------------------------- Vectorized kernels (DESIGN.md §12)
//
// Kernel-level checks against the per-tuple reference implementations:
// the batch filter against CompiledExpr::EvalPredicate row by row, the
// batch hash join against HashJoin on the flattened inputs, and the
// batch aggregate across batch sizes.

Schema XSchema() { return Schema({{"x", DataType::kInt64}}); }

std::vector<Tuple> XTuples(int n) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) tuples.push_back(Tuple({Value::Int(i)}));
  return tuples;
}

TEST(VectorizedKernelTest, FilterSelectivityEdgesMatchPerTupleReference) {
  // 0%, 100% and boundary selectivities, with NULLs in the mix; ragged
  // batches (100 rows chunked by 16 leaves a 4-row tail).
  std::vector<Tuple> tuples = XTuples(100);
  tuples[13] = Tuple({Value::Null()});
  tuples[96] = Tuple({Value::Null()});
  const std::vector<ColumnBatch> batches = ColumnBatch::Chunk(tuples, 16);
  ASSERT_EQ(batches.size(), 7u);
  const struct {
    const char* name;
    BinaryOp op;
    int64_t literal;
  } kPredicates[] = {
      {"0% (x < 0)", BinaryOp::kLt, 0},
      {"100% (x >= 0)", BinaryOp::kGe, 0},
      {"boundary (x < 50)", BinaryOp::kLt, 50},
      {"first row only (x <= 0)", BinaryOp::kLe, 0},
      {"last row only (x >= 99)", BinaryOp::kGe, 99},
  };
  for (const auto& p : kPredicates) {
    SCOPED_TRACE(p.name);
    auto expr = Expr::Binary(p.op, Col("x"), Lit(p.literal));
    ASSERT_TRUE(expr->Bind(XSchema()).ok());
    auto compiled = CompileExpr(*expr);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    size_t row = 0;
    for (const ColumnBatch& batch : batches) {
      std::vector<uint8_t> keep;
      ASSERT_TRUE(compiled->EvalPredicateBatch(batch, &keep).ok());
      ASSERT_EQ(keep.size(), batch.num_rows());
      for (size_t r = 0; r < batch.num_rows(); ++r, ++row) {
        auto expect = compiled->EvalPredicate(tuples[row]);
        ASSERT_TRUE(expect.ok());
        EXPECT_EQ(keep[r] != 0, *expect) << "row " << row;
      }
    }
    EXPECT_EQ(row, tuples.size());
  }
}

TEST(VectorizedKernelTest, EvalBatchErrorMatchesFirstFailingRow) {
  // Division by zero on row 5: the batch kernel must report the same
  // Status the per-tuple path reports for the first failing row.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.push_back(Tuple({Value::Int(i == 5 ? 0 : i + 1)}));
  }
  auto expr = Expr::Binary(BinaryOp::kDiv, Lit(int64_t{100}), Col("x"));
  ASSERT_TRUE(expr->Bind(XSchema()).ok());
  auto compiled = CompileExpr(*expr);
  ASSERT_TRUE(compiled.ok());
  auto batch_result =
      compiled->EvalBatch(ColumnBatch::FromTuples(tuples));
  ASSERT_FALSE(batch_result.ok());
  auto row_result = compiled->Eval(tuples[5]);
  ASSERT_FALSE(row_result.ok());
  EXPECT_EQ(batch_result.status().ToString(),
            row_result.status().ToString());
}

TEST(VectorizedKernelTest, HashJoinKeyRunsSpanningBatchBoundaries) {
  // One key's matches straddle several input batches on both sides: 30
  // left rows of key 5 (chunked by 8 alongside non-matching and NULL
  // keys) against 9 right rows of key 5 chunked by 4.
  std::vector<Tuple> left, right;
  for (int i = 0; i < 30; ++i) left.push_back(Pair(5, i));
  for (int i = 0; i < 4; ++i) left.push_back(Pair(100 + i, i));
  left.push_back(Tuple({Value::Null(), Value::Int(-1)}));
  for (int i = 0; i < 9; ++i) right.push_back(Pair(5, 1000 + i));
  right.push_back(Tuple({Value::Null(), Value::Int(-2)}));
  right.push_back(Pair(200, 0));

  JoinCounters row_counters;
  auto expected = HashJoin(left, right, {{0, 0}}, nullptr, &row_counters);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 30u * 9u);

  JoinCounters vec_counters;
  auto batches = VectorizedHashJoin(
      ColumnBatch::Chunk(left, 8), ColumnBatch::Chunk(right, 4), {{0, 0}},
      /*batch_rows=*/16, nullptr, &vec_counters);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  std::vector<Tuple> flattened;
  for (const ColumnBatch& b : *batches) {
    for (Tuple& t : b.ToTuples()) flattened.push_back(std::move(t));
  }
  ASSERT_EQ(flattened.size(), expected->size());
  // Identical output order (probe order, insertion-order match lists).
  for (size_t i = 0; i < flattened.size(); ++i) {
    EXPECT_EQ(flattened[i].Compare((*expected)[i]), 0) << "row " << i;
  }
  EXPECT_EQ(vec_counters.hash_ops, row_counters.hash_ops);
  EXPECT_EQ(vec_counters.compare_ops, row_counters.compare_ops);
  EXPECT_EQ(vec_counters.pairs_examined, row_counters.pairs_examined);
  // Output respects the batch_rows bound.
  for (const ColumnBatch& b : *batches) EXPECT_LE(b.num_rows(), 16u);
}

class BatchExecutorTest : public ExecutorTest {
 protected:
  /// Runs `plan` in odd-sized batches (7 rows: ragged batches) so groups,
  /// filters and errors straddle batch boundaries.
  StatusOr<std::vector<Tuple>> ExecuteInBatches(
      const algebra::Plan& plan, ExprMode mode = ExprMode::kCompiled,
      size_t batch_rows = 7) {
    ExecOptions opts;
    opts.expr_mode = mode;
    opts.batch_rows = batch_rows;
    Executor executor(&resolver_, opts);
    auto result = executor.Execute(plan);
    last_stats_ = executor.stats();
    return result;
  }
};

TEST_F(BatchExecutorTest, AggregateEdgesAgreeAcrossBatchSizes) {
  // Grouped aggregates whose groups span batch boundaries, plus the
  // empty-input grand total, against one whole-input batch.
  std::vector<std::unique_ptr<Expr>> groups;
  groups.push_back(Col("dept"));
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "n"});
  aggs.push_back({AggFunc::kSum, Col("salary"), "total"});
  aggs.push_back({AggFunc::kMin, Col("salary"), "lo"});
  aggs.push_back({AggFunc::kMax, Col("salary"), "hi"});
  aggs.push_back({AggFunc::kAvg, Col("salary"), "avg"});
  auto grouped = AggregatePlan::Create(EmpScan(), std::move(groups),
                                       {"dept"}, std::move(aggs));
  ASSERT_TRUE(grouped.ok());
  auto whole = Execute(**grouped);
  ASSERT_TRUE(whole.ok());
  auto ragged = ExecuteInBatches(**grouped);
  ASSERT_TRUE(ragged.ok()) << ragged.status().ToString();
  ASSERT_EQ(ragged->size(), whole->size());
  for (size_t i = 0; i < whole->size(); ++i) {
    EXPECT_EQ((*ragged)[i].Compare((*whole)[i]), 0) << "group " << i;
  }
  EXPECT_GT(last_stats_.batches, 0u);

  // Empty input: COUNT = 0, SUM of nothing = NULL, identically.
  auto none = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kLt, Col("id"), Lit(int64_t{0})));
  ASSERT_TRUE(none.ok());
  std::vector<algebra::AggSpec> empty_aggs;
  empty_aggs.push_back({AggFunc::kCount, nullptr, "n"});
  empty_aggs.push_back({AggFunc::kSum, Col("salary"), "total"});
  auto grand = AggregatePlan::Create(std::move(*none), {}, {},
                                     std::move(empty_aggs));
  ASSERT_TRUE(grand.ok());
  auto whole_empty = Execute(**grand);
  auto ragged_empty = ExecuteInBatches(**grand);
  ASSERT_TRUE(whole_empty.ok());
  ASSERT_TRUE(ragged_empty.ok());
  ASSERT_EQ(ragged_empty->size(), 1u);
  EXPECT_EQ(ragged_empty->front().Compare(whole_empty->front()), 0);
}

TEST_F(BatchExecutorTest, FilterAndScanCountBatches) {
  auto plan = SelectPlan::Create(
      EmpScan(),
      Expr::Binary(BinaryOp::kLt, Col("salary"), Lit(int64_t{2000})));
  ASSERT_TRUE(plan.ok());
  auto whole = Execute(**plan);
  ASSERT_TRUE(whole.ok());
  auto ragged = ExecuteInBatches(**plan);
  ASSERT_TRUE(ragged.ok());
  ASSERT_EQ(ragged->size(), whole->size());
  for (size_t i = 0; i < whole->size(); ++i) {
    EXPECT_EQ((*ragged)[i].Compare((*whole)[i]), 0);
  }
  // 30 rows in batches of 7 -> 5 scan batches (the last ragged).
  EXPECT_GT(last_stats_.batches, 0u);
}

TEST_F(BatchExecutorTest, InterpretedPlansRunInBatches) {
  // The tree-walking evaluator runs on the one batch spine too: the same
  // answers as compiled expressions, in batches, at a higher per-row
  // charge (E4) and no per-batch kernel charge.
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Col("id"));
  exprs.push_back(Expr::Binary(BinaryOp::kAdd, Col("salary"), Col("id")));
  auto filtered = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGe, Col("salary"), Lit(int64_t{1500})));
  ASSERT_TRUE(filtered.ok());
  auto plan = ProjectPlan::Create(std::move(*filtered), std::move(exprs),
                                  {"id", "sum"});
  ASSERT_TRUE(plan.ok());
  auto compiled = ExecuteInBatches(**plan, ExprMode::kCompiled);
  ASSERT_TRUE(compiled.ok());
  const sim::SimTime compiled_ns = last_stats_.charged_ns;
  auto interpreted = ExecuteInBatches(**plan, ExprMode::kInterpreted);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  ASSERT_EQ(interpreted->size(), 25u);
  ASSERT_EQ(interpreted->size(), compiled->size());
  for (size_t i = 0; i < compiled->size(); ++i) {
    EXPECT_EQ((*interpreted)[i].Compare((*compiled)[i]), 0) << "row " << i;
  }
  // Scan, filter and project 5 batches each (30 rows in batches of 7).
  EXPECT_EQ(last_stats_.batches, 15u);
  EXPECT_GT(last_stats_.charged_ns, compiled_ns);
}

TEST_F(BatchExecutorTest, InterpretedKeepsMixedTypesPerRow) {
  // PRISMAlog's dynamically typed columns: one column holds INT, STRING,
  // DOUBLE and NULL values, so its batches are boxed. The interpreter
  // must hand every value back with its own type.
  // A kNull column type is the untyped Datalog relation's wildcard.
  const Schema untyped({{"v", DataType::kNull}});
  storage::Relation facts("facts", untyped);
  for (const Value& v : {Value::Int(1), Value::String("a"), Value::Double(2.5),
                         Value::Null(), Value::Int(3)}) {
    ASSERT_TRUE(facts.Insert(Tuple({v})).ok());
  }
  resolver_.Register("facts", &facts);
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Expr::ColumnIndex(0, DataType::kNull));
  exprs.push_back(
      Expr::Unary(UnaryOp::kIsNull, Expr::ColumnIndex(0, DataType::kNull)));
  auto project = ProjectPlan::Create(ScanPlan::Create("facts", untyped),
                                     std::move(exprs), {"v", "missing"});
  ASSERT_TRUE(project.ok());
  auto kept = SelectPlan::Create(
      std::move(*project),
      Expr::Unary(UnaryOp::kNot, Expr::ColumnIndex(1, DataType::kBool)));
  ASSERT_TRUE(kept.ok());
  auto out = ExecuteInBatches(**kept, ExprMode::kInterpreted,
                              /*batch_rows=*/2);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 4u);
  const std::vector<Value> want = {Value::Int(1), Value::String("a"),
                                   Value::Double(2.5), Value::Int(3)};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*out)[i].at(0).type(), want[i].type()) << "row " << i;
    EXPECT_EQ((*out)[i].at(0), want[i]) << "row " << i;
    EXPECT_EQ((*out)[i].at(1), Value::Bool(false)) << "row " << i;
  }
}

TEST_F(BatchExecutorTest, ProjectionErrorIsFirstInRowOrder) {
  // Column by column, the first expression fails first (modulo by zero
  // on row 29); row by row, the second one does (division by zero on the
  // third row, id 2). Both expression modes surface the row-order error.
  for (const ExprMode mode : {ExprMode::kCompiled, ExprMode::kInterpreted}) {
    std::vector<std::unique_ptr<Expr>> exprs;
    exprs.push_back(Expr::Binary(
        BinaryOp::kMod, Col("id"),
        Expr::Binary(BinaryOp::kSub, Col("id"), Lit(int64_t{29}))));
    exprs.push_back(Expr::Binary(
        BinaryOp::kDiv, Lit(int64_t{10}),
        Expr::Binary(BinaryOp::kSub, Col("id"), Lit(int64_t{2}))));
    auto plan = ProjectPlan::Create(EmpScan(), std::move(exprs), {"m", "d"});
    ASSERT_TRUE(plan.ok());
    auto out = ExecuteInBatches(**plan, mode, /*batch_rows=*/64);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("division by zero"),
              std::string::npos)
        << out.status().ToString();
  }
}

// --------------------------------- Distributed OLAP merge edge cases

/// Machine-level edge cases of the partial-aggregate merge and the
/// merge of sorted runs (DESIGN.md §14): fragments that contribute
/// nothing, NULL group keys (a group of their own, routed to consumer 0),
/// extreme group skew, and sorted runs that span exchange batch
/// boundaries.
class OlapEdgeTest : public ::testing::Test {
 protected:
  std::unique_ptr<core::PrismaDb> MakeDb(
      std::function<void(core::MachineConfig&)> tweak = nullptr) {
    core::MachineConfig config;
    config.pes = 8;
    if (tweak) tweak(config);
    return std::make_unique<core::PrismaDb>(config);
  }

  core::QueryResult MustExecute(core::PrismaDb& db, const std::string& sql) {
    auto result = db.Execute(sql);
    PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  /// m(id, g, v) over 8 fragments, 1,600 rows in 200 groups g = i % 200
  /// with v = i: every fragment holds most groups, so a GROUP BY g costs
  /// cheaper as a pre-aggregated shuffle than as gathered partials.
  void LoadManyGroups(core::PrismaDb& db) {
    MustExecute(db, "CREATE TABLE m (id INT, g INT, v INT) "
                    "FRAGMENTED BY HASH(id) INTO 8 FRAGMENTS");
    std::string insert = "INSERT INTO m VALUES ";
    for (int i = 0; i < 1600; ++i) {
      insert += StrFormat("%s(%d, %d, %d)", i > 0 ? ", " : "", i, i % 200, i);
    }
    MustExecute(db, insert);
  }

  std::string Explain(core::PrismaDb& db, const std::string& sql) {
    std::string plan;
    for (const Tuple& t : MustExecute(db, "EXPLAIN " + sql).tuples) {
      plan += t.ToString() + "\n";
    }
    return plan;
  }
};

TEST_F(OlapEdgeTest, EmptyFragmentsContributeEmptyPartials) {
  // 3 fragments but only 2 rows: at least one fragment pre-aggregates
  // nothing and its merge channels carry only EOS batches.
  auto db = MakeDb();
  MustExecute(*db, "CREATE TABLE t (id INT, g STRING, v INT) "
                   "FRAGMENTED BY HASH(id) INTO 3 FRAGMENTS");
  MustExecute(*db, "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)");
  const auto grouped = MustExecute(
      *db, "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY g");
  ASSERT_EQ(grouped.tuples.size(), 2u);
  EXPECT_EQ(grouped.tuples[0].at(0), Value::String("a"));
  EXPECT_EQ(grouped.tuples[0].at(1), Value::Int(10));
  EXPECT_EQ(grouped.tuples[1].at(0), Value::String("b"));
  EXPECT_EQ(grouped.tuples[1].at(1), Value::Int(20));
  const auto sorted =
      MustExecute(*db, "SELECT id, v FROM t ORDER BY v DESC, id");
  ASSERT_EQ(sorted.tuples.size(), 2u);
  EXPECT_EQ(sorted.tuples[0].at(1), Value::Int(20));
}

TEST_F(OlapEdgeTest, ShuffledGroupByOfNoRowsReturnsNoGroups) {
  // The filter is estimated to keep two thirds of m and keeps nothing:
  // the group-by shuffles, its producers ship no rows and its merge
  // channels carry only EOS batches.
  auto db = MakeDb();
  LoadManyGroups(*db);
  const std::string query =
      "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM m WHERE NOT (v >= 0) "
      "GROUP BY g";
  const std::string plan = Explain(*db, query);
  EXPECT_NE(plan.find("+ shuffle-by-key"), std::string::npos) << plan;
  EXPECT_TRUE(MustExecute(*db, query).tuples.empty());
}

TEST_F(OlapEdgeTest, AllNullGroupKeysFormOneGroup) {
  auto db = MakeDb();
  MustExecute(*db, "CREATE TABLE t (id INT, g STRING, v INT) "
                   "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 20; ++i) {
    if (i > 0) insert += ", ";
    insert += StrFormat("(%d, NULL, %d)", i, i);
  }
  MustExecute(*db, insert);
  const auto grouped = MustExecute(
      *db, "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g");
  // Every partial lands on merge consumer 0 (NULL keys keep a stable
  // route), and the NULL group survives the merge as a single group.
  ASSERT_EQ(grouped.tuples.size(), 1u);
  EXPECT_TRUE(grouped.tuples[0].at(0).is_null());
  EXPECT_EQ(grouped.tuples[0].at(1), Value::Int(20));
  EXPECT_EQ(grouped.tuples[0].at(2), Value::Int(190));
}

TEST_F(OlapEdgeTest, SkewedGroupAgreesOnEveryPath) {
  // 60 rows share the group 'hot'. Alone in their table, they are one
  // partial per fragment, gathered. Beside 1,600 rows in 200 other groups
  // over 8 fragments, the group-by pre-aggregates and shuffles by key,
  // and every fragment's 'hot' partial funnels into one merge consumer.
  // Beside 1,600 rows whose 200 other groups each hold one row of every
  // round-robin fragment, nothing shrinks locally: every 'hot' base row
  // ships direct to that one consumer. All three return the exact totals.
  const struct {
    const char* layout;
    int others;  // Rows in the other groups.
    int (*group)(int);
    size_t groups;  // 'hot' included.
    const char* path;
  } kCases[] = {
      {"HASH(id) INTO 4", 0, nullptr, 1, "gather partials"},
      {"HASH(id) INTO 8", 1600, [](int i) { return i % 200; }, 201,
       "pre-aggregate + shuffle-by-key"},
      {"ROUNDROBIN INTO 8", 1600, [](int i) { return i / 8; }, 201,
       "direct + shuffle-by-key"},
  };
  const std::string query =
      "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v), MAX(v) FROM t "
      "GROUP BY g";
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.path);
    auto db = MakeDb();
    MustExecute(*db, std::string("CREATE TABLE t (id INT, g STRING, v INT) "
                                 "FRAGMENTED BY ") +
                         c.layout + " FRAGMENTS");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 60; ++i) {
      if (i > 0) insert += ", ";
      insert += StrFormat("(%d, 'hot', %d)", i, i % 7);
    }
    for (int i = 0; i < c.others; ++i) {
      insert += StrFormat(", (%d, 'g%03d', %d)", 100 + i, c.group(i), i);
    }
    MustExecute(*db, insert);
    const std::string plan = Explain(*db, query);
    EXPECT_NE(plan.find(std::string("group-by path: ") + c.path),
              std::string::npos)
        << plan;
    const auto grouped = MustExecute(*db, query);
    ASSERT_EQ(grouped.tuples.size(), c.groups);
    // 'hot' sorts after every 'gNNN'.
    const Tuple& hot = grouped.tuples.back();
    EXPECT_EQ(hot.at(0), Value::String("hot"));
    EXPECT_EQ(hot.at(1), Value::Int(60));
    // 8 full cycles of 0..6 (= 168) plus 0+1+2+3 for rows 56..59.
    EXPECT_EQ(hot.at(2), Value::Int(174));
    EXPECT_EQ(hot.at(3), Value::Int(0));
    EXPECT_EQ(hot.at(4), Value::Int(6));
  }
}

TEST_F(OlapEdgeTest, SortRunsSpanBatchBoundaries) {
  // Tiny exchange batches force every sorted run through multiple frames
  // per channel; long runs of the leading key cross batch boundaries and
  // the unique trailing key pins tie order.
  auto db = MakeDb([](core::MachineConfig& config) {
    config.exchange_batch_rows = 4;
    config.exchange_credit_window = 2;
  });
  MustExecute(*db, "CREATE TABLE t (id INT, k INT) "
                   "FRAGMENTED BY HASH(id) INTO 3 FRAGMENTS");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 60; ++i) {
    if (i > 0) insert += ", ";
    // Only 3 distinct leading keys -> runs of ~20 equal keys.
    insert += StrFormat("(%d, %d)", i, i % 3);
  }
  MustExecute(*db, insert);
  const auto sorted = MustExecute(*db, "SELECT k, id FROM t ORDER BY k, id");
  ASSERT_EQ(sorted.tuples.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(sorted.tuples[i].at(0), Value::Int(i / 20));
    EXPECT_EQ(sorted.tuples[i].at(1), Value::Int((i % 20) * 3 + i / 20));
  }
}

}  // namespace
}  // namespace prisma::exec
