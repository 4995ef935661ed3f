#ifndef PRISMA_GDH_OPTIMIZER_H_
#define PRISMA_GDH_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "gdh/data_dictionary.h"

namespace prisma::gdh {

/// The rule groups of the GDH's knowledge-based optimizer (§2.4): "the
/// knowledge base contains rules concerning logical transformations,
/// estimating sizes of intermediate results, detection of common
/// subexpressions, and applying parallelism to minimize response time."
/// Each group can be disabled independently — experiment E6's ablation.
struct OptimizerRules {
  /// Logical transformations: sink selection conjuncts towards scans and
  /// into join predicates (enabling hash joins).
  bool push_selections = true;
  /// Size estimation drives greedy reordering of join chains.
  bool reorder_joins = true;
  /// Detect structurally identical subtrees; execution memoizes them.
  bool detect_common_subexpressions = true;
  /// Scatter fragment work across PEs in parallel (consumed by the query
  /// scheduler, not by the plan rewriter).
  bool parallel_fragments = true;
  /// Execute joins of co-partitioned, co-located tables inside the PEs
  /// that host both fragments, shipping only join results (consumed by
  /// the plan splitter).
  bool colocated_joins = true;
  /// Lower the remaining (non-colocated) equi-joins to streaming
  /// exchanges — pipelined, flow-controlled tuple-batch shuffles between
  /// the fragments (DESIGN.md §10) — instead of shipping whole inputs to
  /// the coordinator (consumed by the plan splitter).
  bool exchange_joins = true;
  /// Compute partial aggregates inside the fragments and combine them at
  /// the coordinator instead of gathering base tuples (consumed by the
  /// plan splitter). Off = the base-tuple gather baseline used by the
  /// OLAP wire-cost comparisons (EXPERIMENTS.md E14).
  bool aggregate_pushdown = true;
  /// Lower global group-by onto the exchange layer as a multi-stage plan
  /// (per-fragment pre-aggregation + shuffle-by-group-key into merge
  /// consumers) and ORDER BY to per-fragment sorted runs merged at the
  /// coordinator (DESIGN.md §14). Off = the gather baseline (the
  /// coordinator merges fragment results itself).
  bool distributed_olap = true;
};

/// Size estimate of a GROUP BY over one base table (DESIGN.md §14.2),
/// from the dictionary's per-fragment row counts and distinct estimates.
struct GroupEstimate {
  /// Rows into the grouping, table-wide, after the filter.
  double rows = 0;
  /// Rows into the grouping on the fragment that has the most.
  double max_fragment_rows = 0;
  /// Rows per-fragment partial aggregation leaves: the sum over fragments
  /// of min(rows_f, product of the group columns' distinct counts).
  double partial_rows = 0;
  /// Distinct groups table-wide.
  double groups = 0;
};

struct OptimizerReport {
  int selections_pushed = 0;
  int joins_reordered = 0;
  int common_subtrees = 0;
  /// Estimated rows flowing through the plan (sum over edges) before and
  /// after rewriting — the optimizer's own cost metric.
  double estimated_flow_before = 0;
  double estimated_flow_after = 0;
  /// Whether the executor should memoize common subtrees.
  bool enable_subtree_cache = false;
};

/// Rule-based logical optimizer over the extended relational algebra.
class Optimizer {
 public:
  /// `dictionary` supplies base-table cardinalities (may be null: every
  /// scan is then estimated at kDefaultScanRows).
  explicit Optimizer(const DataDictionary* dictionary,
                     OptimizerRules rules = {});

  /// Rewrites the plan; fills `report` (optional).
  StatusOr<std::unique_ptr<algebra::Plan>> Optimize(
      std::unique_ptr<algebra::Plan> plan, OptimizerReport* report = nullptr);

  /// Cardinality estimate for a plan node (System-R style magic numbers).
  double EstimateRows(const algebra::Plan& plan) const;

  /// Groups of a GROUP BY on `group_columns` of `table` after `filter`
  /// (conjuncts applied before grouping; their selectivity scales every
  /// fragment's rows). A column is a base column of `table`, or nullopt
  /// for a computed key, whose distinct count is taken as its rows. The
  /// groups are disjoint across fragments when a group column is the
  /// table's HASH or RANGE fragmentation column; otherwise each column's
  /// distinct count is its largest per-fragment one (the fragments are
  /// taken to draw on one domain).
  GroupEstimate EstimateGroups(
      const TableInfo& table,
      const std::vector<std::optional<size_t>>& group_columns,
      const std::vector<const algebra::Expr*>& filter) const;

  /// EstimateGroups of `agg` when its input is Select/Project/Distinct over
  /// one dictionary table; nullopt otherwise.
  std::optional<GroupEstimate> EstimateAggregateGroups(
      const algebra::AggregatePlan& agg) const;

  /// Sum of estimated rows produced by every node — the "flow" cost used
  /// to compare plans.
  double EstimateFlow(const algebra::Plan& plan) const;

  static constexpr double kDefaultScanRows = 1000;
  static constexpr double kEqSelectivity = 0.1;
  static constexpr double kRangeSelectivity = 1.0 / 3.0;

 private:
  std::unique_ptr<algebra::Plan> PushSelections(
      std::unique_ptr<algebra::Plan> plan, OptimizerReport* report);
  /// Sinks one positional conjunct as deep as possible into `plan`.
  std::unique_ptr<algebra::Plan> SinkConjunct(
      std::unique_ptr<algebra::Plan> plan,
      std::unique_ptr<algebra::Expr> conjunct, OptimizerReport* report);

  std::unique_ptr<algebra::Plan> ReorderJoins(
      std::unique_ptr<algebra::Plan> plan, OptimizerReport* report);

  void CountCommonSubtrees(const algebra::Plan& plan,
                           OptimizerReport* report) const;

  double SelectivityOf(const algebra::Expr& predicate) const;

  const DataDictionary* dictionary_;
  OptimizerRules rules_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_OPTIMIZER_H_
