#ifndef PRISMA_EXEC_JOIN_H_
#define PRISMA_EXEC_JOIN_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/column_batch.h"
#include "common/status.h"
#include "common/tuple.h"

namespace prisma::exec {

/// Per-tuple residual filter applied to a joined (left ++ right) tuple;
/// null means accept everything.
using JoinFilter = std::function<StatusOr<bool>(const Tuple&)>;

/// Work counters reported by the join kernels, used by the virtual-time
/// cost model and the optimizer's calibration tests.
struct JoinCounters {
  uint64_t hash_ops = 0;      // Hash-table inserts + probes.
  uint64_t compare_ops = 0;   // Key or tuple comparisons.
  uint64_t pairs_examined = 0;  // Candidate pairs fed to the filter.
};

/// Hash equi-join: builds on the smaller input, probes with the larger.
/// `keys` pairs (left column, right column); must be non-empty.
StatusOr<std::vector<Tuple>> HashJoin(
    const std::vector<Tuple>& left, const std::vector<Tuple>& right,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const JoinFilter& filter = nullptr, JoinCounters* counters = nullptr);

/// Nested-loop join on an arbitrary filter (cross product when null).
StatusOr<std::vector<Tuple>> NestedLoopJoin(
    const std::vector<Tuple>& left, const std::vector<Tuple>& right,
    const JoinFilter& filter = nullptr, JoinCounters* counters = nullptr);

/// Vectorized hash equi-join over ColumnBatch inputs (DESIGN.md §12): key
/// hashes and null-key masks are computed column-wise per batch, then the
/// build/probe protocol of HashJoin runs over the precomputed lanes.
/// Output, counters and error behavior are identical to HashJoin on the
/// flattened inputs — build on the smaller side, NULL keys never join,
/// probe-order output with insertion-order match lists. `batch_rows`
/// bounds output batch sizes.
StatusOr<std::vector<ColumnBatch>> VectorizedHashJoin(
    const std::vector<ColumnBatch>& left,
    const std::vector<ColumnBatch>& right,
    const std::vector<std::pair<size_t, size_t>>& keys, size_t batch_rows,
    const JoinFilter& filter = nullptr, JoinCounters* counters = nullptr);

/// Vectorized nested-loop join; equivalent to NestedLoopJoin on the
/// flattened inputs.
StatusOr<std::vector<ColumnBatch>> VectorizedNestedLoopJoin(
    const std::vector<ColumnBatch>& left,
    const std::vector<ColumnBatch>& right, size_t batch_rows,
    const JoinFilter& filter = nullptr, JoinCounters* counters = nullptr);

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_JOIN_H_
