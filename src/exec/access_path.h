#ifndef PRISMA_EXEC_ACCESS_PATH_H_
#define PRISMA_EXEC_ACCESS_PATH_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/value.h"
#include "exec/executor.h"
#include "pool/runtime.h"
#include "sim/simulator.h"
#include "storage/relation.h"

namespace prisma::exec {

/// A per-column restriction extracted from a conjunct: column OP literal.
struct ColumnBound {
  size_t column;
  algebra::BinaryOp op;
  Value literal;
};

/// Matches `conjunct` as (ColumnRef OP Literal) or (Literal OP ColumnRef)
/// with OP one of = < <= > >=, normalizing so the column is on the left.
std::optional<ColumnBound> MatchColumnBound(const algebra::Expr& conjunct);

/// Rows an index offers for a predicate: a superset of its matches, which
/// the caller re-checks against the full predicate.
struct IndexCandidates {
  /// In RowId order, the order a scan visits them: the access path changes
  /// what a statement costs, never the order of its answer.
  std::vector<storage::RowId> rows;
  /// Virtual cost of walking the index to find `rows` (an ordered range
  /// scan's comparisons; a hash probe is charged with its candidates).
  sim::SimTime walk_ns = 0;
};

/// The local access-path choice of an OFM (§2.5), shared by selections and
/// by UPDATE/DELETE: equality on a hash-indexed column of `table` probes
/// it; bounds on an ordered-indexed column scan one window. nullopt when
/// no index fits and the caller scans.
std::optional<IndexCandidates> ChooseIndexPath(
    const algebra::Expr& predicate, const TableResolver& resolver,
    const std::string& table, const pool::CostModel& costs);

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_ACCESS_PATH_H_
