#ifndef PRISMA_EXEC_EXECUTOR_H_
#define PRISMA_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/expr_compiler.h"
#include "obs/query_profile.h"
#include "pool/runtime.h"
#include "sim/simulator.h"
#include "storage/btree_index.h"
#include "storage/hash_index.h"
#include "storage/relation.h"

namespace prisma::exec {

/// Resolves base-table names in Scan nodes to resident relations. Inside
/// an OFM the resolver maps the fragment's qualified name to its local
/// fragment; in tests it is a simple map.
///
/// A resolver may also expose secondary indexes; the executor's local
/// access-path selection (the OFM's "local query optimizer", §2.5) uses
/// them for selections pinning or bounding an indexed column.
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  virtual StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const = 0;

  /// Hash index of `table` on exactly `columns`, or null.
  virtual const storage::HashIndex* FindHashIndex(
      const std::string& /*table*/,
      const std::vector<size_t>& /*columns*/) const {
    return nullptr;
  }
  /// Ordered index of `table` on exactly `columns`, or null.
  virtual const storage::BTreeIndex* FindBTreeIndex(
      const std::string& /*table*/,
      const std::vector<size_t>& /*columns*/) const {
    return nullptr;
  }
};

/// Map-backed resolver; it owns only the relations it Loads.
class MapTableResolver : public TableResolver {
 public:
  void Register(const std::string& name, const storage::Relation* relation) {
    tables_[name] = relation;
  }
  /// Materializes `rows` as a resident relation this resolver owns and
  /// registers it under `name`.
  Status Load(const std::string& name, const Schema& schema,
              std::vector<Tuple> rows);
  void RegisterHashIndex(const std::string& table,
                         const storage::HashIndex* index) {
    hash_indexes_[table].push_back(index);
  }
  void RegisterBTreeIndex(const std::string& table,
                          const storage::BTreeIndex* index) {
    btree_indexes_[table].push_back(index);
  }

  StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const override;
  const storage::HashIndex* FindHashIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override;
  const storage::BTreeIndex* FindBTreeIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override;

 private:
  std::map<std::string, const storage::Relation*> tables_;
  std::vector<std::unique_ptr<storage::Relation>> loaded_;
  std::map<std::string, std::vector<const storage::HashIndex*>> hash_indexes_;
  std::map<std::string, std::vector<const storage::BTreeIndex*>> btree_indexes_;
};

/// How the executor evaluates scalar expressions — the E4 ablation switch.
enum class ExprMode : uint8_t {
  kInterpreted,  // Tree-walking EvalExpr (the 1988 baseline to beat).
  kCompiled,     // CompiledExpr bytecode (the OFM's generative approach).
};

struct ExecOptions {
  ExprMode expr_mode = ExprMode::kCompiled;
  /// Rows per ColumnBatch on the local execution path.
  size_t batch_rows = ColumnBatch::kDefaultBatchRows;
  /// Virtual-time unit costs; see pool::CostModel.
  pool::CostModel costs;
  /// Invoked with virtual nanoseconds as work is performed; may be null.
  /// Inside an OFM process this forwards to Process::ChargeCpu.
  std::function<void(sim::SimTime)> charge;
  /// Build a per-operator profile tree (rows, bytes, charged ns) during
  /// Execute; read it back via Executor::profile(). EXPLAIN ANALYZE mode.
  bool profile = false;
};

struct ExecStats {
  uint64_t tuples_scanned = 0;
  /// Selections answered through an index instead of a scan.
  uint64_t index_selections = 0;
  uint64_t tuples_output = 0;
  uint64_t expr_evaluations = 0;
  /// ColumnBatches produced by operators.
  uint64_t batches = 0;
  /// Total virtual CPU time charged for the last Execute call tree.
  sim::SimTime charged_ns = 0;
};

/// Materializing executor for (fragment-local) plans of the extended
/// relational algebra. One Executor per plan execution; it charges the
/// virtual cost model as it goes, so the same code path produces both
/// results and simulated response times.
class Executor {
 public:
  explicit Executor(const TableResolver* resolver, ExecOptions options = {});

  /// Runs the plan to completion and returns all result tuples.
  StatusOr<std::vector<Tuple>> Execute(const algebra::Plan& plan);

  const ExecStats& stats() const { return stats_; }

  /// Per-operator profile of the last Execute (set when options.profile).
  const std::optional<obs::OperatorProfile>& profile() const {
    return profile_root_;
  }

 private:
  /// Expression prepared for evaluation in the selected mode, with its
  /// precomputed virtual costs.
  class PreparedExpr {
   public:
    static StatusOr<PreparedExpr> Make(const algebra::Expr& expr,
                                       const ExecOptions& options);
    StatusOr<Value> Eval(const Tuple& tuple) const;
    StatusOr<bool> EvalPredicate(const Tuple& tuple) const;
    StatusOr<ColumnBatch::Column> EvalBatch(const ColumnBatch& batch) const;
    Status EvalPredicateBatch(const ColumnBatch& batch,
                              std::vector<uint8_t>* keep) const;
    sim::SimTime cost_ns() const { return cost_ns_; }
    /// Batch costs: per-row work and the per-batch kernel dispatch. The
    /// interpreted tree-walk charges cost_ns per row and nothing per batch.
    sim::SimTime vrow_cost_ns() const { return vrow_cost_ns_; }
    sim::SimTime vbatch_cost_ns() const { return vbatch_cost_ns_; }

   private:
    const algebra::Expr* interpreted_ = nullptr;  // Borrowed from the plan.
    std::shared_ptr<CompiledExpr> compiled_;
    sim::SimTime cost_ns_ = 0;
    sim::SimTime vrow_cost_ns_ = 0;
    sim::SimTime vbatch_cost_ns_ = 0;
  };

  void Charge(sim::SimTime ns);

  /// Index fast path for Select-over-Scan; returns nullopt when no usable
  /// access path exists (caller falls back to scan + filter).
  StatusOr<std::optional<std::vector<Tuple>>> TryIndexSelect(
      const algebra::SelectPlan& plan);
  StatusOr<std::vector<Tuple>> RunUnion(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunDifference(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunDistinct(const algebra::Plan& plan);
  StatusOr<std::vector<Tuple>> RunSort(const algebra::SortPlan& plan);
  StatusOr<std::vector<Tuple>> RunLimit(const algebra::LimitPlan& plan);
  StatusOr<std::vector<Tuple>> RunTransitiveClosure(const algebra::Plan& plan);

  /// Child input for the row-logic operators: the flattened
  /// RunBatches(child) (so e.g. a Sort over a Scan still scans in batches).
  StatusOr<std::vector<Tuple>> RunChildRows(const algebra::Plan& child);
  /// A row-logic operator's output, cut into batch_rows batches.
  StatusOr<std::vector<ColumnBatch>> Rechunk(
      StatusOr<std::vector<Tuple>> rows) const;

  // The one execution spine: RunBatches wraps profiling and
  // DispatchBatches dispatches on the plan kind. Only the batch-kernel
  // operators have dedicated entries; everything else runs its row logic
  // over batched children and re-chunks its output.
  StatusOr<std::vector<ColumnBatch>> RunBatches(const algebra::Plan& plan);
  StatusOr<std::vector<ColumnBatch>> DispatchBatches(
      const algebra::Plan& plan);
  StatusOr<std::vector<ColumnBatch>> RunScanBatches(
      const algebra::ScanPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunSelectBatches(
      const algebra::SelectPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunProjectBatches(
      const algebra::ProjectPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunJoinBatches(
      const algebra::JoinPlan& plan);
  StatusOr<std::vector<ColumnBatch>> RunAggregateBatches(
      const algebra::AggregatePlan& plan);

  const TableResolver* resolver_;
  ExecOptions options_;
  ExecStats stats_;
  // Profiling state (options_.profile): node currently being built and the
  // finished root of the last Execute.
  obs::OperatorProfile* current_profile_ = nullptr;
  std::optional<obs::OperatorProfile> profile_root_;
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_EXECUTOR_H_
