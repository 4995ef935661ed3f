#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "gdh/data_dictionary.h"
#include "gdh/distributed_plan.h"
#include "gdh/exchange_process.h"
#include "gdh/fragmentation.h"
#include "gdh/gdh_process.h"
#include "gdh/lock_manager.h"
#include "gdh/messages.h"
#include "gdh/ofm_process.h"
#include "gdh/optimizer.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pool/runtime.h"
#include "storage/relation.h"
#include "storage/stable_store.h"

namespace prisma::gdh {
namespace {

using algebra::BinaryOp;
using algebra::Col;
using algebra::Expr;
using algebra::JoinPlan;
using algebra::Lit;
using algebra::Plan;
using algebra::PlanKind;
using algebra::ScanPlan;
using algebra::SelectPlan;

// ------------------------------------------------------------ Fragmenter

TEST(FragmenterTest, HashIsDeterministicAndInRange) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kHash;
  spec.column = 0;
  spec.num_fragments = 8;
  Fragmenter f(spec);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Tuple t({Value::Int(rng.UniformInt(-1000, 1000)), Value::Int(0)});
    const int a = f.FragmentOf(t).value();
    const int b = f.FragmentOf(t).value();
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 8);
    // FragmentsForKey agrees with FragmentOf.
    EXPECT_EQ(f.FragmentsForKey(t.at(0)), std::vector<int>{a});
  }
}

TEST(FragmenterTest, HashSpreadsKeys) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kHash;
  spec.num_fragments = 4;
  Fragmenter f(spec);
  std::set<int> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(f.FragmentOf(Tuple({Value::Int(i)})).value());
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(FragmenterTest, RoundRobinCycles) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kRoundRobin;
  spec.num_fragments = 3;
  Fragmenter f(spec);
  Tuple t({Value::Int(7)});
  EXPECT_EQ(f.FragmentOf(t).value(), 0);
  EXPECT_EQ(f.FragmentOf(t).value(), 1);
  EXPECT_EQ(f.FragmentOf(t).value(), 2);
  EXPECT_EQ(f.FragmentOf(t).value(), 0);
  // Every fragment may hold any key.
  EXPECT_EQ(f.FragmentsForKey(Value::Int(7)).size(), 3u);
}

TEST(FragmenterTest, RangeWithExplicitBoundaries) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kRange;
  spec.num_fragments = 3;
  spec.boundaries = {Value::Int(10), Value::Int(20)};
  Fragmenter f(spec);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Int(5)})).value(), 0);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Int(10)})).value(), 1);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Int(19)})).value(), 1);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Int(99)})).value(), 2);
}

TEST(FragmenterTest, RangeDefaultBoundariesCoverDomain) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kRange;
  spec.num_fragments = 4;
  Fragmenter f(spec);
  EXPECT_EQ(f.spec().boundaries.size(), 3u);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Int(0)})).value(), 0);
  EXPECT_EQ(
      f.FragmentOf(Tuple({Value::Int(kDefaultRangeDomain - 1)})).value(), 3);
}

TEST(FragmenterTest, NullKeysGoToFragmentZero) {
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kHash;
  spec.num_fragments = 4;
  Fragmenter f(spec);
  EXPECT_EQ(f.FragmentOf(Tuple({Value::Null()})).value(), 0);
}

TEST(FragmenterTest, FragmentNames) {
  EXPECT_EQ(FragmentName("emp", 3), "emp#3");
}

// -------------------------------------------------------- Data allocation

/// The default machine's allocation pool: the GDH on PE 0, fragments on
/// PEs 1..7.
const std::vector<net::NodeId> kFragmentPes = {1, 2, 3, 4, 5, 6, 7};

std::vector<net::NodeId> PrimaryPes(const std::vector<FragmentHome>& homes) {
  std::vector<net::NodeId> pes;
  for (const FragmentHome& home : homes) pes.push_back(home.pe);
  return pes;
}

std::map<net::NodeId, int> FragmentsPerPe(
    const std::vector<FragmentHome>& homes) {
  std::map<net::NodeId, int> count;
  for (const FragmentHome& home : homes) ++count[home.pe];
  return count;
}

TEST(DataAllocationTest, TablesThatFitTheFragmentPesStayOffTheGdhPe) {
  EXPECT_EQ(PrimaryPes(AllocateFragments(kFragmentPes, 0, 7)), kFragmentPes);
  EXPECT_EQ(PrimaryPes(AllocateFragments(kFragmentPes, 0, 3)),
            (std::vector<net::NodeId>{1, 2, 3}));
}

TEST(DataAllocationTest, AnNWayTableOnNPesPutsOneFragmentOnEveryPe) {
  const auto homes = AllocateFragments(kFragmentPes, 0, 8);
  EXPECT_EQ(PrimaryPes(homes),
            (std::vector<net::NodeId>{1, 2, 3, 4, 5, 6, 7, 0}));
}

TEST(DataAllocationTest, A2NWayTableOnNPesPutsTwoFragmentsOnEveryPe) {
  const auto per_pe = FragmentsPerPe(AllocateFragments(kFragmentPes, 0, 16));
  ASSERT_EQ(per_pe.size(), 8u);
  for (const auto& [pe, count] : per_pe) {
    EXPECT_EQ(count, 2) << "PE " << pe;
  }
}

TEST(DataAllocationTest, NoFragmentHasBothReplicasOnOnePe) {
  // Pools of two PEs (the smallest a replicated machine allows) and of
  // seven, each with and without the GDH's PE appended.
  for (const auto& pes : {std::vector<net::NodeId>{1, 2}, kFragmentPes}) {
    for (size_t fragments = 1; fragments <= 17; ++fragments) {
      for (const FragmentHome& home : AllocateFragments(pes, 0, fragments)) {
        EXPECT_NE(home.pe, home.backup_pe)
            << fragments << " fragments over " << pes.size() << " PEs";
      }
    }
  }
}

// --------------------------------------------------------- DataDictionary

TEST(DataDictionaryTest, CreateGetDrop) {
  DataDictionary dict;
  Schema schema({{"id", DataType::kInt64}});
  FragmentationSpec spec;
  spec.num_fragments = 4;
  auto info = dict.CreateTable("emp", schema, spec);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->fragments.size(), 4u);
  EXPECT_EQ((*info)->fragments[2].name, "emp#2");
  EXPECT_TRUE(dict.HasTable("emp"));
  EXPECT_EQ(dict.GetTableSchema("emp")->num_columns(), 1u);

  EXPECT_EQ(dict.CreateTable("emp", schema, spec).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(dict.DropTable("emp").ok());
  EXPECT_FALSE(dict.HasTable("emp"));
  EXPECT_EQ(dict.DropTable("emp").code(), StatusCode::kNotFound);
}

TEST(DataDictionaryTest, RowCountsAggregate) {
  DataDictionary dict;
  FragmentationSpec spec;
  spec.num_fragments = 2;
  auto info = dict.CreateTable("t", Schema({{"x", DataType::kInt64}}), spec);
  ASSERT_TRUE(info.ok());
  (*info)->fragments[0].row_count = 10;
  (*info)->fragments[1].row_count = 5;
  EXPECT_EQ((*info)->TotalRows(), 15u);
}

TEST(DataDictionaryTest, IndexRegistration) {
  DataDictionary dict;
  FragmentationSpec spec;
  dict.CreateTable("t", Schema({{"x", DataType::kInt64}}), spec).value();
  EXPECT_TRUE(dict.AddIndex("t", IndexInfo{"i1", {0}, false}).ok());
  EXPECT_EQ(dict.AddIndex("t", IndexInfo{"i1", {0}, true}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(dict.AddIndex("ghost", IndexInfo{"i2", {0}, false}).ok());
}

// ------------------------------------------------------------ LockManager

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  int granted = 0;
  lm.Acquire(1, "r", LockMode::kShared, [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++granted;
  });
  lm.Acquire(2, "r", LockMode::kShared, [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++granted;
  });
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(lm.Holds(1, "r"));
  EXPECT_TRUE(lm.Holds(2, "r"));
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  bool second_granted = false;
  lm.Acquire(1, "r", LockMode::kExclusive, [](Status s) {
    EXPECT_TRUE(s.ok());
  });
  lm.Acquire(2, "r", LockMode::kExclusive, [&](Status s) {
    EXPECT_TRUE(s.ok());
    second_granted = true;
  });
  EXPECT_FALSE(second_granted);
  EXPECT_EQ(lm.waits(), 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(second_granted);
  EXPECT_TRUE(lm.Holds(2, "r"));
}

TEST(LockManagerTest, SharedReaderBlocksWriterNotReaders) {
  LockManager lm;
  bool writer = false;
  lm.Acquire(1, "r", LockMode::kShared, [](Status) {});
  lm.Acquire(2, "r", LockMode::kExclusive, [&](Status s) {
    EXPECT_TRUE(s.ok());
    writer = true;
  });
  EXPECT_FALSE(writer);
  // FIFO fairness: a reader arriving behind the writer waits too.
  bool late_reader = false;
  lm.Acquire(3, "r", LockMode::kShared, [&](Status) { late_reader = true; });
  EXPECT_FALSE(late_reader);
  lm.ReleaseAll(1);
  EXPECT_TRUE(writer);
  EXPECT_FALSE(late_reader);
  lm.ReleaseAll(2);
  EXPECT_TRUE(late_reader);
}

TEST(LockManagerTest, ReacquireAndUpgrade) {
  LockManager lm;
  int calls = 0;
  lm.Acquire(1, "r", LockMode::kShared, [&](Status) { ++calls; });
  lm.Acquire(1, "r", LockMode::kShared, [&](Status) { ++calls; });
  // Lone-holder upgrade succeeds immediately.
  lm.Acquire(1, "r", LockMode::kExclusive, [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++calls;
  });
  EXPECT_EQ(calls, 3);
  // X holder re-requesting S is a no-op grant.
  lm.Acquire(1, "r", LockMode::kShared, [&](Status s) {
    EXPECT_TRUE(s.ok());
    ++calls;
  });
  EXPECT_EQ(calls, 4);
}

TEST(LockManagerTest, DeadlockVictimIsRequester) {
  LockManager lm;
  lm.Acquire(1, "a", LockMode::kExclusive, [](Status) {});
  lm.Acquire(2, "b", LockMode::kExclusive, [](Status) {});
  // 1 waits for b (held by 2).
  bool t1_waiting_ok = false;
  lm.Acquire(1, "b", LockMode::kExclusive,
             [&](Status s) { t1_waiting_ok = s.ok(); });
  // 2 requesting a would close the cycle: aborted.
  Status t2_status;
  lm.Acquire(2, "a", LockMode::kExclusive, [&](Status s) { t2_status = s; });
  EXPECT_EQ(t2_status.code(), StatusCode::kAborted);
  EXPECT_EQ(lm.deadlocks_detected(), 1u);
  // Victim releases; txn 1 proceeds.
  lm.ReleaseAll(2);
  EXPECT_TRUE(t1_waiting_ok);
}

TEST(LockManagerTest, ThreeWayDeadlockDetected) {
  LockManager lm;
  lm.Acquire(1, "a", LockMode::kExclusive, [](Status) {});
  lm.Acquire(2, "b", LockMode::kExclusive, [](Status) {});
  lm.Acquire(3, "c", LockMode::kExclusive, [](Status) {});
  lm.Acquire(1, "b", LockMode::kExclusive, [](Status) {});
  lm.Acquire(2, "c", LockMode::kExclusive, [](Status) {});
  Status s3;
  lm.Acquire(3, "a", LockMode::kExclusive, [&](Status s) { s3 = s; });
  EXPECT_EQ(s3.code(), StatusCode::kAborted);
}

TEST(LockManagerTest, ReleaseDropsWaitingRequests) {
  LockManager lm;
  lm.Acquire(1, "r", LockMode::kExclusive, [](Status) {});
  bool fired = false;
  lm.Acquire(2, "r", LockMode::kExclusive, [&](Status) { fired = true; });
  lm.ReleaseAll(2);  // Waiter withdrawn before grant.
  lm.ReleaseAll(1);
  EXPECT_FALSE(fired);
  EXPECT_EQ(lm.num_locked_resources(), 0u);
}

// -------------------------------------------------------------- Optimizer

Schema EmpSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"dept", DataType::kString},
                 {"salary", DataType::kInt64}});
}

std::unique_ptr<Plan> EmpScan() { return ScanPlan::Create("emp", EmpSchema()); }

TEST(OptimizerTest, PushesSelectionBelowJoin) {
  // Select(salary > 10) over Join(emp, emp on dept).
  auto join = JoinPlan::Create(
      EmpScan(), EmpScan(),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(1, DataType::kString),
                   Expr::ColumnIndex(4, DataType::kString)));
  ASSERT_TRUE(join.ok());
  auto select = SelectPlan::Create(
      std::move(*join),
      Expr::Binary(BinaryOp::kGt, Expr::ColumnIndex(2, DataType::kInt64),
                   Lit(int64_t{10})));
  ASSERT_TRUE(select.ok());

  Optimizer optimizer(nullptr);
  OptimizerReport report;
  auto optimized = optimizer.Optimize(std::move(*select), &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_GE(report.selections_pushed, 1);
  // Top node is now the join; the selection sits on the left scan.
  EXPECT_EQ((*optimized)->kind(), PlanKind::kJoin);
  EXPECT_EQ((*optimized)->child(0)->kind(), PlanKind::kSelect);
  EXPECT_LT(report.estimated_flow_after, report.estimated_flow_before);
}

TEST(OptimizerTest, PushesRightSideSelectionWithRemap) {
  auto join = JoinPlan::Create(EmpScan(), EmpScan(), nullptr);
  ASSERT_TRUE(join.ok());
  // Column 4 = right scan's dept.
  auto select = SelectPlan::Create(
      std::move(*join),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(4, DataType::kString),
                   Lit(std::string("x"))));
  ASSERT_TRUE(select.ok());
  Optimizer optimizer(nullptr);
  auto optimized = optimizer.Optimize(std::move(*select));
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ((*optimized)->kind(), PlanKind::kJoin);
  ASSERT_EQ((*optimized)->child(1)->kind(), PlanKind::kSelect);
  // The remapped predicate references the right scan's column 1.
  const auto& pushed =
      static_cast<const SelectPlan&>(*(*optimized)->child(1));
  std::vector<size_t> cols;
  pushed.predicate().CollectColumnIndexes(&cols);
  EXPECT_EQ(cols, (std::vector<size_t>{1}));
}

TEST(OptimizerTest, MixedConjunctBecomesJoinPredicate) {
  auto join = JoinPlan::Create(EmpScan(), EmpScan(), nullptr);
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(static_cast<JoinPlan&>(**join).EquiKeys().empty());
  auto select = SelectPlan::Create(
      std::move(*join),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                   Expr::ColumnIndex(3, DataType::kInt64)));
  ASSERT_TRUE(select.ok());
  Optimizer optimizer(nullptr);
  auto optimized = optimizer.Optimize(std::move(*select));
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ((*optimized)->kind(), PlanKind::kJoin);
  // The equality conjunct became a hash-join key.
  EXPECT_EQ(static_cast<const JoinPlan&>(**optimized).EquiKeys().size(), 1u);
}

TEST(OptimizerTest, RewritePreservesResults) {
  // Property: an optimized plan returns the same rows.
  storage::Relation emp("emp", EmpSchema());
  const char* depts[] = {"a", "b", "c"};
  for (int i = 0; i < 30; ++i) {
    emp.Insert(Tuple({Value::Int(i), Value::String(depts[i % 3]),
                      Value::Int(100 * (i % 7))}))
        .value();
  }
  exec::MapTableResolver resolver;
  resolver.Register("emp", &emp);

  auto build = [&]() -> std::unique_ptr<Plan> {
    auto j1 = JoinPlan::Create(
        EmpScan(), EmpScan(),
        Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(1, DataType::kString),
                     Expr::ColumnIndex(4, DataType::kString)));
    auto j2 = JoinPlan::Create(
        std::move(*j1), EmpScan(),
        Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(3, DataType::kInt64),
                     Expr::ColumnIndex(6, DataType::kInt64)));
    auto sel = SelectPlan::Create(
        std::move(*j2),
        algebra::And(
            Expr::Binary(BinaryOp::kLt, Expr::ColumnIndex(0, DataType::kInt64),
                         Lit(int64_t{5})),
            Expr::Binary(BinaryOp::kGt, Expr::ColumnIndex(8, DataType::kInt64),
                         Lit(int64_t{100}))));
    return std::move(*sel);
  };

  exec::Executor baseline_exec(&resolver, exec::ExecOptions());
  auto baseline = baseline_exec.Execute(*build());
  ASSERT_TRUE(baseline.ok());

  Optimizer optimizer(nullptr);
  OptimizerReport report;
  auto optimized = optimizer.Optimize(build(), &report);
  ASSERT_TRUE(optimized.ok());
  exec::Executor optimized_exec(&resolver, exec::ExecOptions());
  auto rewritten = optimized_exec.Execute(**optimized);
  ASSERT_TRUE(rewritten.ok());

  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(*baseline), canon(*rewritten));
  EXPECT_FALSE(baseline->empty());
  EXPECT_GE(report.selections_pushed, 2);
}

TEST(OptimizerTest, JoinReorderPutsSmallTableFirst) {
  DataDictionary dict;
  FragmentationSpec spec;
  dict.CreateTable("big", EmpSchema(), spec).value();
  dict.CreateTable("small", EmpSchema(), spec).value();
  dict.CreateTable("mid", EmpSchema(), spec).value();
  dict.GetTable("big").value()->fragments[0].row_count = 10000;
  dict.GetTable("small").value()->fragments[0].row_count = 10;
  dict.GetTable("mid").value()->fragments[0].row_count = 1000;

  // big JOIN mid JOIN small, chained on id.
  auto j1 = JoinPlan::Create(
      ScanPlan::Create("big", EmpSchema()), ScanPlan::Create("mid", EmpSchema()),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                   Expr::ColumnIndex(3, DataType::kInt64)));
  ASSERT_TRUE(j1.ok());
  auto j2 = JoinPlan::Create(
      std::move(*j1), ScanPlan::Create("small", EmpSchema()),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(3, DataType::kInt64),
                   Expr::ColumnIndex(6, DataType::kInt64)));
  ASSERT_TRUE(j2.ok());

  Optimizer optimizer(&dict);
  OptimizerReport report;
  const double flow_before = optimizer.EstimateFlow(**j2);
  auto optimized = optimizer.Optimize(std::move(*j2), &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.joins_reordered, 1);
  EXPECT_LT(optimizer.EstimateFlow(**optimized), flow_before);
  // Schema restored to the original order for the parent.
  EXPECT_EQ((*optimized)->schema().num_columns(), 9u);
  EXPECT_EQ((*optimized)->kind(), PlanKind::kProject);
}

TEST(OptimizerTest, ReorderedJoinPreservesResults) {
  storage::Relation r1("r1", EmpSchema());
  storage::Relation r2("r2", EmpSchema());
  storage::Relation r3("r3", EmpSchema());
  Rng rng(7);
  auto fill = [&](storage::Relation& r, int n) {
    for (int i = 0; i < n; ++i) {
      r.Insert(Tuple({Value::Int(rng.UniformInt(0, 8)), Value::String("d"),
                      Value::Int(rng.UniformInt(0, 5))}))
          .value();
    }
  };
  fill(r1, 20);
  fill(r2, 8);
  fill(r3, 14);
  exec::MapTableResolver resolver;
  resolver.Register("r1", &r1);
  resolver.Register("r2", &r2);
  resolver.Register("r3", &r3);
  DataDictionary dict;
  FragmentationSpec spec;
  dict.CreateTable("r1", EmpSchema(), spec).value()->fragments[0].row_count = 20;
  dict.CreateTable("r2", EmpSchema(), spec).value()->fragments[0].row_count = 8;
  dict.CreateTable("r3", EmpSchema(), spec).value()->fragments[0].row_count = 14;

  auto build = [&]() -> std::unique_ptr<Plan> {
    auto j1 = JoinPlan::Create(
        ScanPlan::Create("r1", EmpSchema()), ScanPlan::Create("r2", EmpSchema()),
        Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                     Expr::ColumnIndex(3, DataType::kInt64)));
    auto j2 = JoinPlan::Create(
        std::move(*j1), ScanPlan::Create("r3", EmpSchema()),
        Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(5, DataType::kInt64),
                     Expr::ColumnIndex(8, DataType::kInt64)));
    return std::move(*j2);
  };
  exec::Executor e1(&resolver, exec::ExecOptions());
  auto baseline = e1.Execute(*build());
  ASSERT_TRUE(baseline.ok());
  Optimizer optimizer(&dict);
  auto optimized = optimizer.Optimize(build());
  ASSERT_TRUE(optimized.ok());
  exec::Executor e2(&resolver, exec::ExecOptions());
  auto rewritten = e2.Execute(**optimized);
  ASSERT_TRUE(rewritten.ok());
  auto canon = [](std::vector<Tuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(*baseline), canon(*rewritten));
  EXPECT_FALSE(baseline->empty());
}

TEST(OptimizerTest, DetectsCommonSubtrees) {
  // Join(X, X) where X = Distinct(Scan) duplicated.
  auto left = algebra::DistinctPlan::Create(EmpScan());
  auto right = algebra::DistinctPlan::Create(EmpScan());
  auto join = JoinPlan::Create(std::move(left), std::move(right), nullptr);
  ASSERT_TRUE(join.ok());
  Optimizer optimizer(nullptr);
  OptimizerReport report;
  auto optimized = optimizer.Optimize(std::move(*join), &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_GE(report.common_subtrees, 1);
}

TEST(OptimizerTest, RuleTogglesDisableRewrites) {
  OptimizerRules off;
  off.push_selections = false;
  off.reorder_joins = false;
  off.detect_common_subexpressions = false;
  auto join = JoinPlan::Create(EmpScan(), EmpScan(), nullptr);
  ASSERT_TRUE(join.ok());
  auto select = SelectPlan::Create(
      std::move(*join),
      Expr::Binary(BinaryOp::kGt, Expr::ColumnIndex(0, DataType::kInt64),
                   Lit(int64_t{3})));
  ASSERT_TRUE(select.ok());
  Optimizer optimizer(nullptr, off);
  OptimizerReport report;
  auto optimized = optimizer.Optimize(std::move(*select), &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.selections_pushed, 0);
  EXPECT_EQ((*optimized)->kind(), PlanKind::kSelect);  // Untouched.
}

TEST(OptimizerTest, EstimatesUseDictionaryCardinalities) {
  DataDictionary dict;
  FragmentationSpec spec;
  dict.CreateTable("emp", EmpSchema(), spec).value()->fragments[0].row_count =
      5000;
  Optimizer optimizer(&dict);
  EXPECT_DOUBLE_EQ(optimizer.EstimateRows(*EmpScan()), 5000);
  auto select = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kEq,
                              Expr::ColumnIndex(0, DataType::kInt64),
                              Lit(int64_t{1})));
  ASSERT_TRUE(select.ok());
  EXPECT_DOUBLE_EQ(optimizer.EstimateRows(**select),
                   5000 * Optimizer::kEqSelectivity);
}

TEST(OptimizerTest, GroupsComeFromTheDistinctEstimates) {
  // emp HASH(id) over 2 fragments of 100 rows: 100 ids (disjoint across
  // fragments, the fragmentation column) and 4 depts in each.
  DataDictionary dict;
  FragmentationSpec spec;
  spec.strategy = sql::FragmentStrategy::kHash;
  spec.num_fragments = 2;
  TableInfo* emp = dict.CreateTable("emp", EmpSchema(), spec).value();
  for (FragmentInfo& frag : emp->fragments) {
    frag.row_count = 100;
    frag.distinct = {100, 4, 60};
  }
  Optimizer optimizer(&dict);
  const GroupEstimate by_dept = optimizer.EstimateGroups(*emp, {1}, {});
  EXPECT_DOUBLE_EQ(by_dept.rows, 200);
  EXPECT_DOUBLE_EQ(by_dept.max_fragment_rows, 100);
  EXPECT_DOUBLE_EQ(by_dept.partial_rows, 8);
  EXPECT_DOUBLE_EQ(by_dept.groups, 4);  // One domain in both fragments.
  const GroupEstimate by_id = optimizer.EstimateGroups(*emp, {0}, {});
  EXPECT_DOUBLE_EQ(by_id.groups, 200);  // Disjoint: the partials add up.
  // Two columns multiply, capped by the rows; a computed key counts as
  // distinct per row.
  EXPECT_DOUBLE_EQ(optimizer.EstimateGroups(*emp, {1, 2}, {}).partial_rows,
                   200);
  EXPECT_DOUBLE_EQ(
      optimizer.EstimateGroups(*emp, {std::nullopt}, {}).partial_rows, 200);
  // A filter scales every fragment's rows, and the distinct counts stay
  // within them.
  const auto eq = Expr::Binary(BinaryOp::kEq,
                               Expr::ColumnIndex(2, DataType::kInt64),
                               Lit(int64_t{7}));
  const GroupEstimate filtered =
      optimizer.EstimateGroups(*emp, {2}, {eq.get()});
  EXPECT_DOUBLE_EQ(filtered.rows, 200 * Optimizer::kEqSelectivity);
  EXPECT_DOUBLE_EQ(filtered.groups, 100 * Optimizer::kEqSelectivity);

  // EstimateRows of a grouped aggregate is the group estimate.
  std::vector<std::unique_ptr<Expr>> groups;
  groups.push_back(Expr::ColumnIndex(1, DataType::kString));
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({algebra::AggFunc::kCount, nullptr, "n"});
  auto agg = algebra::AggregatePlan::Create(EmpScan(), std::move(groups),
                                            {"dept"}, std::move(aggs));
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(optimizer.EstimateRows(**agg), 4);
}

// -------------------------------------------------------- DistributedPlan

/// The splitter's rules without the OLAP lowering: joins split by the two
/// join rules; group-bys and sorts stay global.
/// The default 8-PE machine's GROUP BY costs: a 2 x 4 mesh of default
/// links and CPUs.
GroupByCosts MeshCosts() {
  return MachineGroupByCosts(net::Topology::Mesh(2, 4), net::LinkParams{},
                             pool::CostModel{});
}

OptimizerRules SplitRules(bool colocated_joins = true,
                          bool exchange_joins = true) {
  OptimizerRules rules;
  rules.colocated_joins = colocated_joins;
  rules.exchange_joins = exchange_joins;
  rules.distributed_olap = false;
  return rules;
}

class SplitTest : public ::testing::Test {
 protected:
  SplitTest() {
    FragmentationSpec spec;
    spec.strategy = sql::FragmentStrategy::kHash;
    spec.num_fragments = 4;
    dict_.CreateTable("emp", EmpSchema(), spec).value();
  }
  DataDictionary dict_;
};

TEST_F(SplitTest, SelectOverScanBecomesLocalPart) {
  auto select = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGt,
                              Expr::ColumnIndex(2, DataType::kInt64),
                              Lit(int64_t{100})));
  ASSERT_TRUE(select.ok());
  auto split = SplitPlanForFragments(std::move(*select), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->parts.size(), 1u);
  EXPECT_EQ(split->parts[0].table, "emp");
  EXPECT_EQ(split->parts[0].plan->kind(), PlanKind::kSelect);
  // Global side is just the gathered scan.
  EXPECT_EQ(split->global->kind(), PlanKind::kScan);
}

TEST_F(SplitTest, JoinStaysGlobalWithTwoParts) {
  auto join = JoinPlan::Create(
      EmpScan(), EmpScan(),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                   Expr::ColumnIndex(3, DataType::kInt64)));
  ASSERT_TRUE(join.ok());
  auto split = SplitPlanForFragments(std::move(*join), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->parts.size(), 2u);
  EXPECT_EQ(split->global->kind(), PlanKind::kJoin);
}

TEST_F(SplitTest, AggregatePushdownDecomposes) {
  std::vector<std::unique_ptr<Expr>> groups;
  groups.push_back(Expr::ColumnIndex(1, DataType::kString));
  std::vector<algebra::AggSpec> aggs;
  aggs.push_back({algebra::AggFunc::kCount, nullptr, "n"});
  aggs.push_back({algebra::AggFunc::kAvg,
                  Expr::ColumnIndex(2, DataType::kInt64), "avg_sal"});
  auto agg = algebra::AggregatePlan::Create(EmpScan(), std::move(groups),
                                            {"dept"}, std::move(aggs));
  ASSERT_TRUE(agg.ok());
  auto split = SplitPlanForFragments(std::move(*agg), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->pushed_aggregate);
  ASSERT_EQ(split->parts.size(), 1u);
  // The local part aggregates per fragment.
  EXPECT_EQ(split->parts[0].plan->kind(), PlanKind::kAggregate);
  // The global side re-aggregates and projects the AVG division.
  EXPECT_EQ(split->global->kind(), PlanKind::kProject);
  EXPECT_EQ(split->global->schema().num_columns(), 3u);
  EXPECT_EQ(split->global->schema().column(2).name, "avg_sal");
}

class ColocatedSplitTest : public ::testing::Test {
 protected:
  ColocatedSplitTest() {
    FragmentationSpec spec;
    spec.strategy = sql::FragmentStrategy::kHash;
    spec.column = 0;
    spec.num_fragments = 4;
    TableInfo* a = dict_.CreateTable("a", EmpSchema(), spec).value();
    TableInfo* b = dict_.CreateTable("b", EmpSchema(), spec).value();
    for (int i = 0; i < 4; ++i) {
      a->fragments[i].pe = i + 1;
      b->fragments[i].pe = i + 1;  // Aligned with a.
    }
  }

  std::unique_ptr<Plan> KeyJoin() {
    auto join = JoinPlan::Create(
        ScanPlan::Create("a", EmpSchema()), ScanPlan::Create("b", EmpSchema()),
        Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                     Expr::ColumnIndex(3, DataType::kInt64)));
    PRISMA_CHECK(join.ok());
    return std::move(join).value();
  }

  DataDictionary dict_;
};

TEST_F(ColocatedSplitTest, KeyJoinBecomesColocatedPart) {
  auto split = SplitPlanForFragments(KeyJoin(), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 1);
  ASSERT_EQ(split->parts.size(), 1u);
  EXPECT_EQ(split->parts[0].table, "a");
  EXPECT_EQ(split->parts[0].second_table, "b");
  EXPECT_EQ(split->parts[0].plan->kind(), PlanKind::kJoin);
  EXPECT_EQ(split->global->kind(), PlanKind::kScan);
}

TEST_F(ColocatedSplitTest, DisabledFlagsFallBackToGather) {
  auto split =
      SplitPlanForFragments(KeyJoin(), dict_, SplitRules(false, false),
                            MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 0);
  EXPECT_EQ(split->exchange_joins, 0);
  EXPECT_EQ(split->parts.size(), 2u);
  EXPECT_EQ(split->global->kind(), PlanKind::kJoin);
}

TEST_F(ColocatedSplitTest, ColocationDisabledLowersToExchange) {
  // With co-location off but exchanges on, the key join still avoids a
  // coordinator gather: it becomes a streamed exchange part.
  auto split = SplitPlanForFragments(KeyJoin(), dict_, SplitRules(false, true),
                                     MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 0);
  EXPECT_EQ(split->exchange_joins, 1);
  ASSERT_EQ(split->parts.size(), 1u);
  ASSERT_NE(split->parts[0].exchange, nullptr);
}

TEST_F(ColocatedSplitTest, NonKeyJoinLowersToExchange) {
  // Join on salary (column 2), not the fragmentation key: neither side is
  // fragmented on its join key, so co-location is impossible — but the
  // exchange layer can still repartition both sides on salary.
  auto join = JoinPlan::Create(
      ScanPlan::Create("a", EmpSchema()), ScanPlan::Create("b", EmpSchema()),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(2, DataType::kInt64),
                   Expr::ColumnIndex(5, DataType::kInt64)));
  ASSERT_TRUE(join.ok());
  auto split = SplitPlanForFragments(std::move(*join), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 0);
  EXPECT_EQ(split->exchange_joins, 1);
  ASSERT_EQ(split->parts.size(), 1u);
  ASSERT_NE(split->parts[0].exchange, nullptr);
  // A join keeps two inputs plus its keys; NULL join keys are dropped.
  const ExchangeSpec& ex = *split->parts[0].exchange;
  EXPECT_FALSE(ex.group_by());
  ASSERT_EQ(ex.inputs.size(), 2u);
  EXPECT_EQ(ex.inputs[0].table, "a");
  EXPECT_EQ(ex.inputs[1].table, "b");
  ASSERT_EQ(ex.keys.size(), 1u);
  EXPECT_EQ(ex.keys[0], std::make_pair(size_t{2}, size_t{2}));
  EXPECT_EQ(ex.inputs[0].route_column, 2u);
  EXPECT_EQ(ex.inputs[1].route_column, 2u);
  EXPECT_FALSE(ex.inputs[0].keep_nulls);
  EXPECT_FALSE(ex.inputs[1].keep_nulls);
  EXPECT_EQ(ex.post_plan, nullptr);
}

TEST_F(ColocatedSplitTest, NonKeyJoinStaysGlobalWithExchangesDisabled) {
  auto join = JoinPlan::Create(
      ScanPlan::Create("a", EmpSchema()), ScanPlan::Create("b", EmpSchema()),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(2, DataType::kInt64),
                   Expr::ColumnIndex(5, DataType::kInt64)));
  ASSERT_TRUE(join.ok());
  auto split = SplitPlanForFragments(
      std::move(*join), dict_,
      SplitRules(/*colocated_joins=*/true, /*exchange_joins=*/false),
      MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 0);
  EXPECT_EQ(split->exchange_joins, 0);
  EXPECT_EQ(split->parts.size(), 2u);
}

TEST_F(ColocatedSplitTest, GroupByPathFollowsTheDistinctEstimates) {
  // Every fragment holds 1,000 rows; only the distinct estimate of the
  // group column (dept) differs, and it alone picks the path. 3 depts:
  // the 12 partials are gathered. 100 depts repeated in every fragment:
  // pre-aggregating shrinks 4,000 rows to 400 partials, and the merge
  // consumers send 100 groups on. 1,000 depts unique in each fragment but
  // shared by all: nothing shrinks locally, so base rows ship direct,
  // hash-routed on the group column.
  const struct {
    uint64_t depts;
    GroupByPath path;
  } kCases[] = {{3, GroupByPath::kGather},
                {100, GroupByPath::kPreAggregate},
                {1000, GroupByPath::kDirect}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(GroupByPathName(c.path));
    for (FragmentInfo& frag : dict_.GetTable("a").value()->fragments) {
      frag.row_count = 1000;
      frag.distinct = {1000, c.depts, 1000};
    }
    std::vector<std::unique_ptr<Expr>> groups;
    groups.push_back(Expr::ColumnIndex(1, DataType::kString));
    std::vector<algebra::AggSpec> aggs;
    aggs.push_back({algebra::AggFunc::kSum,
                    Expr::ColumnIndex(2, DataType::kInt64), "total"});
    aggs.push_back({algebra::AggFunc::kCount, nullptr, "n"});
    auto agg = algebra::AggregatePlan::Create(
        ScanPlan::Create("a", EmpSchema()), std::move(groups), {"dept"},
        std::move(aggs));
    ASSERT_TRUE(agg.ok());
    auto split =
        SplitPlanForFragments(std::move(*agg), dict_, OptimizerRules(),
                              MeshCosts());
    ASSERT_TRUE(split.ok());
    EXPECT_EQ(split->exchange_joins, 0);
    ASSERT_EQ(split->parts.size(), 1u);
    const LocalPart& part = split->parts[0];
    ASSERT_TRUE(part.group_by.has_value());
    EXPECT_EQ(part.group_by->path, c.path);
    EXPECT_DOUBLE_EQ(part.group_by->partial_rows,
                     4 * static_cast<double>(c.depts));
    EXPECT_DOUBLE_EQ(part.group_by->groups, static_cast<double>(c.depts));
    if (c.path == GroupByPath::kGather) {
      // The pushdown part: partials per fragment, combined globally.
      EXPECT_EQ(split->olap_parts, 0);
      EXPECT_EQ(part.exchange, nullptr);
      EXPECT_EQ(part.plan->kind(), PlanKind::kAggregate);
      EXPECT_LE(part.group_by->gather_ns, part.group_by->shuffle_ns);
      continue;
    }
    EXPECT_EQ(split->olap_parts, 1);
    EXPECT_GT(part.group_by->gather_ns, part.group_by->shuffle_ns);
    ASSERT_NE(part.exchange, nullptr);
    const ExchangeSpec& ex = *part.exchange;
    EXPECT_TRUE(ex.group_by());
    ASSERT_EQ(ex.inputs.size(), 1u);
    EXPECT_EQ(ex.inputs[0].table, "a");
    EXPECT_EQ(ex.anchor_table, "a");
    EXPECT_TRUE(ExchangeSideMoves(ex.strategy, 0));
    EXPECT_TRUE(ex.keys.empty());
    EXPECT_TRUE(ex.inputs[0].keep_nulls);
    const bool pre_aggregate = c.path == GroupByPath::kPreAggregate;
    EXPECT_EQ(ex.inputs[0].route_column, pre_aggregate ? 0u : 1u);
    EXPECT_EQ(ex.inputs[0].plan->kind(),
              pre_aggregate ? PlanKind::kAggregate : PlanKind::kScan);
    // The merge plan is the post plan, run over the shuffled-in rows.
    ASSERT_NE(ex.post_plan, nullptr);
    const Plan* leaf = ex.post_plan.get();
    while (leaf->num_children() > 0) leaf = leaf->child();
    ASSERT_EQ(leaf->kind(), PlanKind::kScan);
    EXPECT_EQ(static_cast<const ScanPlan*>(leaf)->table(), OlapInputName());
    EXPECT_EQ(ex.schema.num_columns(),
              ex.inputs[0].plan->schema().num_columns());
    EXPECT_EQ(ex.post_plan->schema().num_columns(), 3u);
  }
}

TEST_F(ColocatedSplitTest, MisalignedPlacementStaysGlobal) {
  dict_.GetTable("b").value()->fragments[2].pe = 9;  // Break alignment.
  auto split = SplitPlanForFragments(KeyJoin(), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 0);
}

TEST_F(ColocatedSplitTest, SelectionsBelowJoinStayInPart) {
  auto left = SelectPlan::Create(
      ScanPlan::Create("a", EmpSchema()),
      Expr::Binary(BinaryOp::kGt, Expr::ColumnIndex(2, DataType::kInt64),
                   Lit(int64_t{10})));
  ASSERT_TRUE(left.ok());
  auto join = JoinPlan::Create(
      std::move(*left), ScanPlan::Create("b", EmpSchema()),
      Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(0, DataType::kInt64),
                   Expr::ColumnIndex(3, DataType::kInt64)));
  ASSERT_TRUE(join.ok());
  auto split = SplitPlanForFragments(std::move(*join), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->colocated_joins, 1);
  ASSERT_EQ(split->parts.size(), 1u);
  // The selection travels with the co-located join plan.
  EXPECT_EQ(split->parts[0].plan->child(0)->kind(), PlanKind::kSelect);
}

TEST_F(SplitTest, UnknownTableStaysGlobal) {
  auto scan = ScanPlan::Create("not_in_dictionary", EmpSchema());
  auto split = SplitPlanForFragments(std::move(scan), dict_, SplitRules(), MeshCosts());
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->parts.empty());
  EXPECT_EQ(split->global->kind(), PlanKind::kScan);
}

TEST_F(SplitTest, CloneWithScanRenamedRetargets) {
  auto select = SelectPlan::Create(
      EmpScan(), Expr::Binary(BinaryOp::kGt,
                              Expr::ColumnIndex(0, DataType::kInt64),
                              Lit(int64_t{0})));
  ASSERT_TRUE(select.ok());
  auto renamed = CloneWithScanRenamed(**select, "emp", "emp#2");
  std::vector<std::string> tables;
  CollectScanTables(*renamed, &tables);
  EXPECT_EQ(tables, (std::vector<std::string>{"emp#2"}));
  // The original is untouched.
  tables.clear();
  CollectScanTables(**select, &tables);
  EXPECT_EQ(tables, (std::vector<std::string>{"emp"}));
}

// ------------------------------------------- Consumers and spawn order

/// Records every mail it receives, with its arrival instant.
class RecorderProcess : public pool::Process {
 public:
  struct Received {
    std::string kind;
    sim::SimTime at = 0;
    std::any body;
  };
  explicit RecorderProcess(std::vector<Received>* log) : log_(log) {}
  void OnMail(const pool::Mail& mail) override {
    log_->push_back({mail.kind, runtime()->simulator()->now(), mail.body});
  }

 private:
  std::vector<Received>* log_;
};

/// Keeps its PE's CPU busy for `busy_ns` from spawn on.
class BusyProcess : public pool::Process {
 public:
  explicit BusyProcess(sim::SimTime busy_ns) : busy_ns_(busy_ns) {}
  void OnStart() override { ChargeCpu(busy_ns_); }
  void OnMail(const pool::Mail&) override {}

 private:
  sim::SimTime busy_ns_;
};

/// A 2-PE machine: PE 0 hosts the consumer under test, PE 1 the producer
/// side (a recorder standing in for the producing OFM and coordinator).
struct TwoPeMachine {
  sim::Simulator sim;
  net::Network network{&sim, net::Topology::FullyConnected(2)};
  pool::Runtime runtime{&sim, &network};
  obs::Tracer tracer;
  std::vector<RecorderProcess::Received> log;
  TwoPeMachine() {
    tracer.set_enabled(true);
    runtime.AttachObservability(nullptr, &tracer);
  }
};

std::shared_ptr<TupleBatchMsg> OneRowBatch() {
  auto msg = std::make_shared<TupleBatchMsg>();
  msg->exchange_id = 7;
  msg->seq = 1;
  msg->eos = true;
  msg->rows = EncodeRows(std::vector<Tuple>{Tuple({Value::Int(42)})});
  return msg;
}

pool::Mail BatchMail(pool::ProcessId from, pool::ProcessId to) {
  pool::Mail mail;
  mail.from = from;
  mail.to = to;
  mail.kind = kMailTupleBatch;
  mail.body = OneRowBatch();
  mail.size_bits = OneRowBatch()->WireBits();
  return mail;
}

TEST(ConsumerSpawnOrderTest, BatchHandledBeforeTheSpawnHandlerIsAccepted) {
  // Calibration: when does a batch sent from PE 1 at t=0 reach PE 0?
  sim::SimTime arrival = 0;
  {
    TwoPeMachine m;
    const pool::ProcessId sink =
        m.runtime.Spawn(0, std::make_unique<RecorderProcess>(&m.log));
    const pool::ProcessId source =
        m.runtime.Spawn(1, std::make_unique<RecorderProcess>(&m.log));
    m.sim.Run();
    const sim::SimTime sent = m.sim.now();
    m.runtime.Send(BatchMail(source, sink));
    m.sim.Run();
    ASSERT_EQ(m.log.size(), 1u);
    arrival = m.log[0].at - sent;
  }
  ASSERT_GT(arrival, pool::CostModel().spawn_ns);

  // The consumer's PE is busy at spawn until exactly the instant the
  // batch arrives. The batch's delivery was scheduled before the spawn
  // handler's retry, so it runs first: the consumer handles a tuple_batch
  // before its spawn handler.
  TwoPeMachine m;
  const pool::CostModel costs;
  m.runtime.Spawn(0, std::make_unique<BusyProcess>(arrival - costs.spawn_ns));
  const pool::ProcessId producer =
      m.runtime.Spawn(1, std::make_unique<RecorderProcess>(&m.log));
  ExchangeConsumerProcess::Config config;
  config.exchange_id = 7;
  config.coordinator = producer;
  config.reply_request_id = 99;
  config.left.moving = true;
  config.left.producers = 1;
  config.input_schema = Schema({{"v", DataType::kInt64}});
  config.post_plan = algebra::ScanPlan::Create(OlapInputName(),
                                               config.input_schema);
  const pool::ProcessId consumer =
      m.runtime.Spawn(0, std::make_unique<ExchangeConsumerProcess>(config));
  m.runtime.Send(BatchMail(producer, consumer));
  m.sim.Run();

  // Handler order on the consumer: the batch came first.
  std::vector<std::string> consumer_handlers;
  const std::string trace = m.tracer.DumpJson();
  const std::string tid = "\"tid\":" + std::to_string(consumer);
  for (size_t pos = 0; (pos = trace.find(tid, pos)) != std::string::npos;
       ++pos) {
    if (std::isdigit(trace[pos + tid.size()])) continue;
    const size_t name = trace.rfind("\"name\":\"", pos);
    const size_t end = trace.find('"', name + 8);
    consumer_handlers.push_back(trace.substr(name + 8, end - name - 8));
  }
  ASSERT_GE(consumer_handlers.size(), 2u);
  EXPECT_EQ(consumer_handlers[0], kMailTupleBatch);
  EXPECT_EQ(consumer_handlers[1], "spawn");

  // ...and was accepted: acknowledged at once (no retransmission wait) and
  // merged into the reply.
  bool acked = false;
  std::shared_ptr<ExecPlanReply> reply;
  for (const RecorderProcess::Received& r : m.log) {
    if (r.kind == kMailBatchAck) {
      acked = std::any_cast<std::shared_ptr<BatchAckMsg>>(r.body)->ack == 1;
    } else if (r.kind == kMailExecPlanReply) {
      reply = std::any_cast<std::shared_ptr<ExecPlanReply>>(r.body);
    }
  }
  EXPECT_TRUE(acked);
  ASSERT_NE(reply, nullptr);
  ASSERT_TRUE(reply->status.ok());
  auto rows = TupleBatchRows(reply->rows);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->at(0).at(0), Value::Int(42));
}

// --------------------------------------- Duplicated fragment-plan requests

TEST(FragmentPlanDuplicateTest, AGatherRerunsAStreamOpensOnceThenReplays) {
  // One OFM on PE 1 over three rows of t#0; a recorder on PE 0 is its
  // coordinator and its stream's only consumer (and acks by hand).
  sim::Simulator sim;
  net::Network network(&sim, net::Topology::FullyConnected(2));
  pool::Runtime runtime(&sim, &network);
  storage::StableStore store;
  runtime.AttachDisk(1, &store);
  obs::MetricsRegistry metrics;
  std::vector<RecorderProcess::Received> log;
  const pool::ProcessId coordinator =
      runtime.Spawn(0, std::make_unique<RecorderProcess>(&log));
  OfmProcess::Config config;
  config.fragment_name = "t#0";
  config.schema = Schema({{"v", DataType::kInt64}});
  config.gdh = coordinator;
  config.machine.metrics = &metrics;
  config.machine.exchange_batch_rows = 2;
  const pool::ProcessId ofm =
      runtime.Spawn(1, std::make_unique<OfmProcess>(config));
  auto send = [&](const char* kind, std::any body) {
    pool::Mail mail;
    mail.from = coordinator;
    mail.to = ofm;
    mail.kind = kind;
    mail.body = std::move(body);
    runtime.Send(std::move(mail));
  };
  for (int v = 0; v < 3; ++v) {
    auto write = std::make_shared<WriteRequest>();
    write->request_id = 100 + v;
    write->rows = EncodeRows(std::vector<Tuple>{Tuple({Value::Int(v)})});
    send(kMailWrite, write);
  }
  sim.Run();
  log.clear();
  auto received = [&log](const char* kind) {
    return std::count_if(
        log.begin(), log.end(),
        [kind](const RecorderProcess::Received& r) { return r.kind == kind; });
  };
  const obs::Labels fragment = {{"fragment", "t#0"}};
  const std::shared_ptr<const Plan> scan =
      ScanPlan::Create("t#0", config.schema);

  // A gathered request is not cached: its duplicate runs and is answered
  // again, rows and all.
  auto gathered = std::make_shared<ExecPlanRequest>();
  gathered->request_id = 1;
  gathered->plan = scan;
  send(kMailExecPlan, gathered);
  send(kMailExecPlan, gathered);
  sim.Run();
  ASSERT_EQ(received(kMailExecPlanReply), 2);
  for (const RecorderProcess::Received& r : log) {
    auto rows = TupleBatchRows(
        std::any_cast<std::shared_ptr<ExecPlanReply>>(r.body)->rows);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 3u);
  }
  EXPECT_EQ(metrics.CounterValue("ofm.plans_executed", fragment), 2u);
  EXPECT_EQ(metrics.CounterValue("ofm.dup_requests", fragment), 0u);

  // A stream request's duplicate lands while its stream runs (nothing is
  // acked yet): no second stream opens.
  auto streamed = std::make_shared<ExecPlanRequest>();
  streamed->request_id = 2;
  streamed->plan = scan;
  streamed->stream.emplace();
  streamed->stream->exchange_id = 9;
  streamed->stream->mode = ExecPlanRequest::Stream::Mode::kBroadcast;
  streamed->stream->consumers = {coordinator};
  send(kMailShufflePlan, streamed);
  send(kMailShufflePlan, streamed);
  while (received(kMailTupleBatch) < 2 && sim.Step()) {
  }
  ASSERT_EQ(received(kMailTupleBatch), 2);
  auto ack = std::make_shared<BatchAckMsg>();
  ack->shuffle_token =
      std::any_cast<std::shared_ptr<TupleBatchMsg>>(log.back().body)
          ->shuffle_token;
  ack->ack = 2;
  ack->credit = 4;
  send(kMailBatchAck, ack);
  sim.Run();
  EXPECT_EQ(metrics.CounterValue("exchange.batches_sent", fragment), 2u);
  EXPECT_EQ(received(kMailTupleBatch), 2);
  EXPECT_EQ(received(kMailExecPlanReply), 3);  // The settlement.
  EXPECT_EQ(metrics.CounterValue("ofm.plans_executed", fragment), 3u);

  // After settlement, a duplicate is answered from the reply cache.
  send(kMailShufflePlan, streamed);
  sim.Run();
  EXPECT_EQ(received(kMailExecPlanReply), 4);
  EXPECT_EQ(received(kMailTupleBatch), 2);
  EXPECT_EQ(metrics.CounterValue("ofm.dup_requests", fragment), 1u);
  EXPECT_EQ(metrics.CounterValue("ofm.plans_executed", fragment), 3u);
}

}  // namespace
}  // namespace prisma::gdh
