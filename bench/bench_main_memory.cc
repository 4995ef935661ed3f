// E3 — Main memory as primary storage (paper §2.1).
//
// Paper claim: PRISMA "aims at performance improvement ... by using a
// very large main-memory as primary storage". The paper has no numbers;
// the experiment contrasts the same OFM-local workloads against a
// simulated disk-resident baseline (a late-1980s drive: ~25 ms access,
// 1 MB/s transfer), using the virtual cost model for the CPU side and the
// DiskModel for I/O.
//
// The disk-resident baseline charges one sequential sweep of the relation
// per scan (pages are not cached between queries, as in a classic
// buffer-starved 1988 machine), while the main-memory OFM touches memory
// only.

#include <cstdio>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "exec/expr_compiler.h"
#include "obs/metrics.h"
#include "storage/relation.h"
#include "storage/stable_store.h"

using namespace prisma;           // NOLINT: bench convenience.
using namespace prisma::algebra;  // NOLINT

namespace {

Schema SalesSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"region", DataType::kInt64},
                 {"amount", DataType::kInt64}});
}

std::unique_ptr<storage::Relation> MakeSales(int rows) {
  auto rel = std::make_unique<storage::Relation>("sales", SalesSchema());
  Rng rng(42);
  for (int i = 0; i < rows; ++i) {
    rel->Insert(Tuple({Value::Int(i), Value::Int(rng.UniformInt(0, 9)),
                       Value::Int(rng.UniformInt(0, 999))}))
        .value();
  }
  return rel;
}

struct Workload {
  const char* name;
  std::function<std::unique_ptr<Plan>()> plan;
  /// Relation sweeps a disk-resident evaluation needs (scan passes).
  int disk_sweeps;
};

/// Compiled VM instructions of every expression `plan`'s own operator
/// evaluates per row.
size_t OperatorInstructions(const Plan& plan) {
  std::vector<const Expr*> exprs;
  if (plan.kind() == PlanKind::kSelect) {
    exprs.push_back(&static_cast<const SelectPlan&>(plan).predicate());
  } else if (plan.kind() == PlanKind::kAggregate) {
    const auto& agg = static_cast<const AggregatePlan&>(plan);
    for (const auto& g : agg.group_by()) exprs.push_back(g.get());
    for (const AggSpec& a : agg.aggs()) {
      if (a.arg != nullptr) exprs.push_back(a.arg.get());
    }
  }
  size_t instructions = 0;
  for (const Expr* e : exprs) {
    auto compiled = exec::CompileExpr(*e);
    PRISMA_CHECK(compiled.ok()) << compiled.status().ToString();
    instructions += compiled->num_instructions();
  }
  return instructions;
}

/// The tuple-at-a-time cost model of `plan` when every operator sees all
/// `rows` input rows (true of a scan and one operator over it): each
/// operator charges each row tuple_ns of dispatch plus compiled_instr_ns
/// per compiled instruction it evaluates.
double RowModelNs(const Plan& plan, uint64_t rows,
                  const pool::CostModel& costs) {
  double ns = static_cast<double>(rows) *
              static_cast<double>(
                  costs.tuple_ns +
                  costs.compiled_instr_ns *
                      static_cast<sim::SimTime>(OperatorInstructions(plan)));
  for (size_t i = 0; i < plan.num_children(); ++i) {
    ns += RowModelNs(*plan.child(i), rows, costs);
  }
  return ns;
}

/// --vectorized: the same OFM-local workloads on the batch kernels
/// (DESIGN.md §12) against the tuple-at-a-time cost model, in
/// virtual-time rows/sec. The kernels amortize interpretation: per row
/// they charge batch_row_ns plus a few vector_instr_ns instead of
/// tuple_ns plus compiled_instr_ns per instruction, so scan+filter must
/// clear 2x (enforced below — the smoke ctest case is the regression
/// gate).
int VectorizedSweep(bool smoke) {
  std::printf("E3v: batch kernels vs the per-tuple cost model "
              "(virtual time)%s\n",
              smoke ? " (smoke)" : "");
  std::printf("%-8s %-12s %14s %14s %9s\n", "rows", "workload",
              "model Mrows/s", "batch Mrows/s", "speedup");
  const std::vector<int> row_sweep =
      smoke ? std::vector<int>{10'000}
            : std::vector<int>{10'000, 100'000};
  double scan_filter_speedup = 0;
  for (const int rows : row_sweep) {
    auto sales = MakeSales(rows);
    exec::MapTableResolver resolver;
    resolver.Register("sales", sales.get());

    const Workload workloads[] = {
        {"select",
         [] {
           auto plan = SelectPlan::Create(
               ScanPlan::Create("sales", SalesSchema()),
               Expr::Binary(BinaryOp::kLt,
                            Expr::ColumnIndex(2, DataType::kInt64),
                            Lit(int64_t{100})));
           PRISMA_CHECK(plan.ok());
           return std::move(plan).value();
         },
         1},
        {"aggregate",
         [] {
           std::vector<std::unique_ptr<Expr>> groups;
           groups.push_back(Expr::ColumnIndex(1, DataType::kInt64));
           std::vector<AggSpec> aggs;
           aggs.push_back({AggFunc::kSum,
                           Expr::ColumnIndex(2, DataType::kInt64), "total"});
           auto plan = AggregatePlan::Create(
               ScanPlan::Create("sales", SalesSchema()), std::move(groups),
               {"region"}, std::move(aggs));
           PRISMA_CHECK(plan.ok());
           return std::unique_ptr<Plan>(std::move(plan).value());
         },
         1},
    };
    for (const Workload& w : workloads) {
      const exec::ExecOptions options;
      exec::Executor executor(&resolver, options);
      auto plan = w.plan();
      auto result = executor.Execute(*plan);
      PRISMA_CHECK(result.ok()) << result.status().ToString();
      PRISMA_CHECK(executor.stats().charged_ns > 0);
      // Rows scanned per virtual second.
      const double scanned =
          static_cast<double>(executor.stats().tuples_scanned);
      const double batch_rate =
          scanned / (static_cast<double>(executor.stats().charged_ns) / 1e9);
      const double model_rate =
          scanned / (RowModelNs(*plan, sales->num_tuples(), options.costs) /
                     1e9);
      const double speedup = batch_rate / model_rate;
      if (std::string(w.name) == "select") {
        scan_filter_speedup = speedup;
      }
      std::printf("%-8d %-12s %14.2f %14.2f %8.1fx\n", rows, w.name,
                  model_rate / 1e6, batch_rate / 1e6, speedup);
    }
  }
  PRISMA_CHECK(scan_filter_speedup >= 2.0)
      << "batch scan+filter regressed below the 2x contract: "
      << scan_filter_speedup;
  std::printf(
      "\nreading: the batch kernels clear the 2x contract on scan+filter "
      "by\namortizing per-tuple dispatch into per-batch kernel launches — "
      "the\ngenerative-interpretation gap the batch spine models.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (prisma::bench::HasFlag(argc, argv, "--vectorized")) {
    return VectorizedSweep(smoke);
  }
  std::printf("E3: main-memory vs disk-resident processing (simulated)%s\n",
              smoke ? " (smoke)" : "");
  std::printf("disk model: %.0f ms access, %.1f MB/s transfer\n",
              storage::DiskModel().access_ns / 1e6,
              storage::DiskModel().bandwidth_bytes_per_sec / 1e6);
  std::printf("%-8s %-12s %14s %14s %9s\n", "rows", "workload", "memory ms",
              "disk ms", "ratio");

  const storage::DiskModel disk;
  prisma::obs::MetricsRegistry registry;
  const std::vector<int> row_sweep =
      smoke ? std::vector<int>{1'000} : std::vector<int>{1'000, 10'000,
                                                         100'000};
  for (const int rows : row_sweep) {
    auto sales = MakeSales(rows);
    exec::MapTableResolver resolver;
    resolver.Register("sales", sales.get());

    const Workload workloads[] = {
        {"select",
         [] {
           auto plan = SelectPlan::Create(
               ScanPlan::Create("sales", SalesSchema()),
               Expr::Binary(BinaryOp::kLt,
                            Expr::ColumnIndex(2, DataType::kInt64),
                            Lit(int64_t{100})));
           PRISMA_CHECK(plan.ok());
           return std::move(plan).value();
         },
         1},
        {"aggregate",
         [] {
           std::vector<std::unique_ptr<Expr>> groups;
           groups.push_back(Expr::ColumnIndex(1, DataType::kInt64));
           std::vector<AggSpec> aggs;
           aggs.push_back({AggFunc::kSum,
                           Expr::ColumnIndex(2, DataType::kInt64), "total"});
           auto plan = AggregatePlan::Create(
               ScanPlan::Create("sales", SalesSchema()), std::move(groups),
               {"region"}, std::move(aggs));
           PRISMA_CHECK(plan.ok());
           return std::unique_ptr<Plan>(std::move(plan).value());
         },
         1},
        {"self-join",
         [] {
           // Equi self-join on region: two scans.
           auto plan = JoinPlan::Create(
               ScanPlan::Create("sales", SalesSchema()),
               ScanPlan::Create("sales", SalesSchema()),
               algebra::And(
                   Expr::Binary(BinaryOp::kEq,
                                Expr::ColumnIndex(0, DataType::kInt64),
                                Expr::ColumnIndex(3, DataType::kInt64)),
                   Expr::Binary(BinaryOp::kLt,
                                Expr::ColumnIndex(2, DataType::kInt64),
                                Lit(int64_t{50}))));
           PRISMA_CHECK(plan.ok());
           return std::unique_ptr<Plan>(std::move(plan).value());
         },
         2},
    };

    for (const Workload& w : workloads) {
      exec::Executor executor(&resolver, exec::ExecOptions());
      auto plan = w.plan();
      auto result = executor.Execute(*plan);
      PRISMA_CHECK(result.ok()) << result.status().ToString();
      const double memory_ms =
          static_cast<double>(executor.stats().charged_ns) / 1e6;
      // Disk-resident baseline: same CPU work, plus sequential sweeps of
      // the base relation per scan pass.
      const double io_ms = static_cast<double>(disk.IoNs(sales->byte_size())) /
                           1e6 * w.disk_sweeps;
      const double disk_ms = memory_ms + io_ms;
      const prisma::obs::Labels labels = {
          {"rows", std::to_string(rows)}, {"workload", w.name}};
      registry.GetGauge("e3.memory_ns", labels)
          ->Set(executor.stats().charged_ns);
      registry.GetCounter("e3.tuples_scanned", labels)
          ->Increment(executor.stats().tuples_scanned);
      std::printf("%-8d %-12s %14.3f %14.3f %8.1fx\n", rows, w.name,
                  memory_ms, disk_ms, disk_ms / memory_ms);
    }
  }
  prisma::bench::PrintCounterSeries(registry, {"e3.tuples_scanned"});
  std::printf(
      "\nreading: main-memory evaluation wins by the I/O-to-CPU gap — an "
      "order of\nmagnitude and more at small sizes where positioning time "
      "dominates, and\nstill several-fold at 100k rows. This is the design "
      "premise of §2.1.\n");
  return 0;
}
