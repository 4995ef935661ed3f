#ifndef PRISMA_GDH_OPTIMIZER_H_
#define PRISMA_GDH_OPTIMIZER_H_

#include <memory>
#include <string>

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
