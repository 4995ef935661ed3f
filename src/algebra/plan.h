#ifndef PRISMA_ALGEBRA_PLAN_H_
#define PRISMA_ALGEBRA_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"

namespace prisma::algebra {

/// Node kinds of PRISMA's *extended* relational algebra (§2.3): classical
/// operators plus the transitive-closure extension that gives PRISMAlog
/// recursion its semantics.
enum class PlanKind : uint8_t {
  kScan,
  kValues,
  kSelect,
  kProject,
  kJoin,
  kUnion,
  kDifference,
  kDistinct,
  kAggregate,
  kSort,
  kLimit,
  kTransitiveClosure,
  kExchange,
  kFixpoint,
};

const char* PlanKindName(PlanKind kind);

enum class AggFunc : uint8_t { kCount, kSum, kMin, kMax, kAvg };
const char* AggFuncName(AggFunc func);

/// One aggregate output: FUNC(arg) AS name; arg is null for COUNT(*).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::unique_ptr<Expr> arg;  // Bound to the child schema; null = COUNT(*).
  std::string output_name;

  AggSpec Clone() const {
    return AggSpec{func, arg ? arg->Clone() : nullptr, output_name};
  }
};

/// One ORDER BY key.
struct SortKey {
  std::unique_ptr<Expr> expr;  // Bound to the child schema.
  bool descending = false;

  SortKey Clone() const { return SortKey{expr->Clone(), descending}; }
};

/// Abstract logical plan node. Plans are immutable trees except through
/// the explicit child-replacement hooks used by the optimizer. All
/// construction goes through the typed factories below, which bind and
/// type-check embedded expressions against child schemas, so an existing
/// Plan is always well-typed.
class Plan {
 public:
  virtual ~Plan() = default;

  PlanKind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }

  size_t num_children() const { return children_.size(); }
  const Plan* child(size_t i = 0) const { return children_[i].get(); }
  Plan* mutable_child(size_t i = 0) { return children_[i].get(); }

  /// Detaches child i (for optimizer rewrites).
  std::unique_ptr<Plan> TakeChild(size_t i);
  /// Replaces child i; the caller guarantees schema compatibility.
  void SetChild(size_t i, std::unique_ptr<Plan> child);

  virtual std::unique_ptr<Plan> Clone() const = 0;

  /// Multi-line indented plan rendering for EXPLAIN-style output.
  std::string ToString() const;

  /// Number of plan nodes in this subtree.
  size_t TreeSize() const;

 protected:
  Plan(PlanKind kind, Schema schema) : kind_(kind), schema_(std::move(schema)) {}
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  virtual std::string SelfString() const = 0;
  void AppendTo(std::string* out, int indent) const;

  PlanKind kind_;
  Schema schema_;
  std::vector<std::unique_ptr<Plan>> children_;
};

/// Leaf: scan of a named base relation (or fragment).
class ScanPlan : public Plan {
 public:
  /// `schema` comes from the data dictionary.
  static std::unique_ptr<ScanPlan> Create(std::string table, Schema schema);

  const std::string& table() const { return table_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  ScanPlan(std::string table, Schema schema)
      : Plan(PlanKind::kScan, std::move(schema)), table_(std::move(table)) {}
  std::string table_;
};

/// Leaf: literal rows (used for INSERT ... VALUES and tests).
class ValuesPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<ValuesPlan>> Create(Schema schema,
                                                      std::vector<Tuple> rows);

  const std::vector<Tuple>& rows() const { return rows_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  ValuesPlan(Schema schema, std::vector<Tuple> rows)
      : Plan(PlanKind::kValues, std::move(schema)), rows_(std::move(rows)) {}
  std::vector<Tuple> rows_;
};

/// Selection: keep child tuples satisfying a boolean predicate.
class SelectPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<SelectPlan>> Create(
      std::unique_ptr<Plan> child, std::unique_ptr<Expr> predicate);

  const Expr& predicate() const { return *predicate_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  SelectPlan(std::unique_ptr<Plan> child, std::unique_ptr<Expr> predicate);
  std::unique_ptr<Expr> predicate_;
};

/// Projection: compute named expressions over each child tuple.
class ProjectPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<ProjectPlan>> Create(
      std::unique_ptr<Plan> child, std::vector<std::unique_ptr<Expr>> exprs,
      std::vector<std::string> names);

  const std::vector<std::unique_ptr<Expr>>& exprs() const { return exprs_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  ProjectPlan(std::unique_ptr<Plan> child,
              std::vector<std::unique_ptr<Expr>> exprs, Schema schema);
  std::vector<std::unique_ptr<Expr>> exprs_;
};

/// Inner join on an arbitrary predicate over the concatenated schemas.
/// A null predicate is a cross product.
class JoinPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<JoinPlan>> Create(
      std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
      std::unique_ptr<Expr> predicate);

  const Expr* predicate() const { return predicate_.get(); }
  std::unique_ptr<Plan> Clone() const override;

  /// Equi-join key pairs (left column index, right column index) extracted
  /// from the predicate's top-level conjuncts; empty for non-equi joins.
  std::vector<std::pair<size_t, size_t>> EquiKeys() const;

 protected:
  std::string SelfString() const override;

 private:
  JoinPlan(std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
           std::unique_ptr<Expr> predicate);
  std::unique_ptr<Expr> predicate_;
};

/// Bag union of two type-compatible inputs (column names from the left).
class UnionPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<UnionPlan>> Create(
      std::unique_ptr<Plan> left, std::unique_ptr<Plan> right);
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  UnionPlan(std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
            Schema schema);
};

/// Set difference: left tuples with no equal tuple in right.
class DifferencePlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<DifferencePlan>> Create(
      std::unique_ptr<Plan> left, std::unique_ptr<Plan> right);
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  DifferencePlan(std::unique_ptr<Plan> left, std::unique_ptr<Plan> right,
                 Schema schema);
};

/// Duplicate elimination (PRISMAlog is set-oriented, §2.3).
class DistinctPlan : public Plan {
 public:
  static std::unique_ptr<DistinctPlan> Create(std::unique_ptr<Plan> child);
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  explicit DistinctPlan(std::unique_ptr<Plan> child);
};

/// Grouped aggregation; output = group-by columns then aggregates.
class AggregatePlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<AggregatePlan>> Create(
      std::unique_ptr<Plan> child,
      std::vector<std::unique_ptr<Expr>> group_by,
      std::vector<std::string> group_names, std::vector<AggSpec> aggs);

  const std::vector<std::unique_ptr<Expr>>& group_by() const {
    return group_by_;
  }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  AggregatePlan(std::unique_ptr<Plan> child,
                std::vector<std::unique_ptr<Expr>> group_by,
                std::vector<AggSpec> aggs, Schema schema);
  std::vector<std::unique_ptr<Expr>> group_by_;
  std::vector<AggSpec> aggs_;
};

/// Sort by one or more keys.
class SortPlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<SortPlan>> Create(
      std::unique_ptr<Plan> child, std::vector<SortKey> keys);

  const std::vector<SortKey>& keys() const { return keys_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  SortPlan(std::unique_ptr<Plan> child, std::vector<SortKey> keys);
  std::vector<SortKey> keys_;
};

/// First-N.
class LimitPlan : public Plan {
 public:
  static std::unique_ptr<LimitPlan> Create(std::unique_ptr<Plan> child,
                                           uint64_t limit);
  uint64_t limit() const { return limit_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  LimitPlan(std::unique_ptr<Plan> child, uint64_t limit);
  uint64_t limit_;
};

/// The extension operator (§2.5): transitive closure of a binary relation.
/// The child must produce exactly two same-type columns (from, to); the
/// output contains every pair (a, b) such that b is reachable from a in
/// one or more steps. Output is a set (duplicates eliminated).
class TransitiveClosurePlan : public Plan {
 public:
  static StatusOr<std::unique_ptr<TransitiveClosurePlan>> Create(
      std::unique_ptr<Plan> child);
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  explicit TransitiveClosurePlan(std::unique_ptr<Plan> child);
};

/// Exchange: the dataflow repartitioning operator of the streaming
/// exchange layer (DESIGN.md §10, §14). Marks the point in a distributed
/// plan where the child's tuple stream leaves its producing PE: hash-
/// partitioned on key columns across the consumer fragments, or
/// broadcast to all of them. The schema is unchanged
/// — Exchange moves tuples, it never transforms them — so local
/// executors treat it as a pass-through; the actual batching/flow
/// control happens in the mail layer.
class ExchangePlan : public Plan {
 public:
  enum class Mode : uint8_t { kHashPartition, kBroadcast };

  /// `keys` are columns of the child schema (hash mode; empty for
  /// broadcast).
  static std::unique_ptr<ExchangePlan> Create(std::unique_ptr<Plan> child,
                                              Mode mode,
                                              std::vector<size_t> keys);

  Mode mode() const { return mode_; }
  const std::vector<size_t>& keys() const { return keys_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  ExchangePlan(std::unique_ptr<Plan> child, Mode mode,
               std::vector<size_t> keys);
  Mode mode_;
  std::vector<size_t> keys_;
};

/// Fixpoint: the distributed, iterative form of the closure operator
/// (DESIGN.md §11). The child is the partitioned edge input (typically a
/// hash Exchange over the fragment scans); the node names the evaluation
/// strategy and partition count so EXPLAIN shows how rounds will run —
/// the round count itself is a runtime quantity, reported after
/// execution as the `fixpoint.rounds` metric.
class FixpointPlan : public Plan {
 public:
  /// `strategy` is a TcAlgorithmName-style label ("naive", "seminaive",
  /// "smart"); `partitions` is the number of fixpoint PEs.
  static StatusOr<std::unique_ptr<FixpointPlan>> Create(
      std::unique_ptr<Plan> child, std::string strategy, size_t partitions);

  const std::string& strategy() const { return strategy_; }
  size_t partitions() const { return partitions_; }
  std::unique_ptr<Plan> Clone() const override;

 protected:
  std::string SelfString() const override;

 private:
  FixpointPlan(std::unique_ptr<Plan> child, std::string strategy,
               size_t partitions);
  std::string strategy_;
  size_t partitions_;
};

}  // namespace prisma::algebra

#endif  // PRISMA_ALGEBRA_PLAN_H_
