#include "exec/join.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace prisma::exec {
namespace {

std::vector<size_t> LeftCols(const std::vector<std::pair<size_t, size_t>>& keys) {
  std::vector<size_t> out;
  out.reserve(keys.size());
  for (const auto& [l, _] : keys) out.push_back(l);
  return out;
}

std::vector<size_t> RightCols(
    const std::vector<std::pair<size_t, size_t>>& keys) {
  std::vector<size_t> out;
  out.reserve(keys.size());
  for (const auto& [_, r] : keys) out.push_back(r);
  return out;
}

/// True if the key columns of `l` and `r` are pairwise equal (NULL keys
/// never join, as in SQL).
bool KeysEqual(const Tuple& l, const std::vector<size_t>& lcols,
               const Tuple& r, const std::vector<size_t>& rcols) {
  for (size_t i = 0; i < lcols.size(); ++i) {
    const Value& a = l.at(lcols[i]);
    const Value& b = r.at(rcols[i]);
    if (a.is_null() || b.is_null()) return false;
    if (a.Compare(b) != 0) return false;
  }
  return true;
}

bool HasNullKey(const Tuple& t, const std::vector<size_t>& cols) {
  for (size_t c : cols) {
    if (t.at(c).is_null()) return true;
  }
  return false;
}

Status EmitIfPassing(const Tuple& l, const Tuple& r, const JoinFilter& filter,
                     std::vector<Tuple>* out) {
  Tuple joined = Tuple::Concat(l, r);
  if (filter != nullptr) {
    ASSIGN_OR_RETURN(bool keep, filter(joined));
    if (!keep) return Status::OK();
  }
  out->push_back(std::move(joined));
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<Tuple>> HashJoin(
    const std::vector<Tuple>& left, const std::vector<Tuple>& right,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const JoinFilter& filter, JoinCounters* counters) {
  if (keys.empty()) {
    return InvalidArgumentError("hash join requires equi-join keys");
  }
  JoinCounters local;
  JoinCounters& c = counters != nullptr ? *counters : local;
  const std::vector<size_t> lcols = LeftCols(keys);
  const std::vector<size_t> rcols = RightCols(keys);

  // Build on the smaller side.
  const bool build_left = left.size() <= right.size();
  const std::vector<Tuple>& build = build_left ? left : right;
  const std::vector<Tuple>& probe = build_left ? right : left;
  const std::vector<size_t>& bcols = build_left ? lcols : rcols;
  const std::vector<size_t>& pcols = build_left ? rcols : lcols;

  std::unordered_map<uint64_t, std::vector<size_t>> table;
  table.reserve(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    if (HasNullKey(build[i], bcols)) continue;  // NULL keys never join.
    table[HashTupleColumns(build[i], bcols)].push_back(i);
    ++c.hash_ops;
  }

  std::vector<Tuple> out;
  for (const Tuple& p : probe) {
    if (HasNullKey(p, pcols)) continue;
    ++c.hash_ops;
    auto it = table.find(HashTupleColumns(p, pcols));
    if (it == table.end()) continue;
    for (const size_t bi : it->second) {
      ++c.compare_ops;
      const Tuple& b = build[bi];
      // Re-verify (hash collisions) with real comparisons.
      const bool match = build_left ? KeysEqual(b, bcols, p, pcols)
                                    : KeysEqual(p, pcols, b, bcols);
      if (!match) continue;
      ++c.pairs_examined;
      const Tuple& l = build_left ? b : p;
      const Tuple& r = build_left ? p : b;
      RETURN_IF_ERROR(EmitIfPassing(l, r, filter, &out));
    }
  }
  return out;
}

StatusOr<std::vector<Tuple>> NestedLoopJoin(const std::vector<Tuple>& left,
                                            const std::vector<Tuple>& right,
                                            const JoinFilter& filter,
                                            JoinCounters* counters) {
  JoinCounters local;
  JoinCounters& c = counters != nullptr ? *counters : local;
  std::vector<Tuple> out;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      ++c.pairs_examined;
      RETURN_IF_ERROR(EmitIfPassing(l, r, filter, &out));
    }
  }
  return out;
}

namespace {

/// Flattened view over a run of batches: global row index -> (batch, row).
struct BatchedSide {
  std::vector<const ColumnBatch*> batch_of;  // Per global row.
  std::vector<uint32_t> row_of;
  /// Per global row: HashTupleColumns over `cols` (valid when the null
  /// mask is clear) and whether any key column is NULL.
  std::vector<uint64_t> key_hash;
  std::vector<uint8_t> null_key;

  size_t size() const { return batch_of.size(); }
  Tuple RowTuple(size_t i) const { return batch_of[i]->RowAt(row_of[i]); }
};

/// Column-wise key preparation: one pass per key column per batch,
/// reproducing HashTupleColumns (seed then per-column combine) exactly.
BatchedSide PrepareSide(const std::vector<ColumnBatch>& batches,
                        const std::vector<size_t>& cols) {
  BatchedSide side;
  size_t total = 0;
  for (const ColumnBatch& b : batches) total += b.num_rows();
  side.batch_of.reserve(total);
  side.row_of.reserve(total);
  side.key_hash.assign(total, kHashTupleColumnsSeed);
  side.null_key.assign(total, 0);
  size_t at = 0;
  for (const ColumnBatch& b : batches) {
    const size_t rows = b.num_rows();
    for (uint32_t r = 0; r < rows; ++r) {
      side.batch_of.push_back(&b);
      side.row_of.push_back(r);
    }
    for (const size_t c : cols) {
      const ColumnBatch::Column& col = b.column(c);
      for (size_t r = 0; r < rows; ++r) {
        if (col.IsNull(r)) {
          side.null_key[at + r] = 1;
        } else {
          side.key_hash[at + r] = CombineTupleHash(side.key_hash[at + r],
                                                   col.ValueAt(r).Hash());
        }
      }
    }
    at += rows;
  }
  return side;
}

/// KeysEqual over batched rows: pairwise column comparison with NULL
/// rejection, identical to the tuple form.
bool BatchKeysEqual(const BatchedSide& l, size_t li,
                    const std::vector<size_t>& lcols, const BatchedSide& r,
                    size_t ri, const std::vector<size_t>& rcols) {
  for (size_t i = 0; i < lcols.size(); ++i) {
    const ColumnBatch::Column& lc = l.batch_of[li]->column(lcols[i]);
    const ColumnBatch::Column& rc = r.batch_of[ri]->column(rcols[i]);
    if (lc.IsNull(l.row_of[li]) || rc.IsNull(r.row_of[ri])) return false;
    if (lc.ValueAt(l.row_of[li]).Compare(rc.ValueAt(r.row_of[ri])) != 0) {
      return false;
    }
  }
  return true;
}

/// Appends a joined row to the open output batch, flushing at batch_rows.
struct BatchEmitter {
  size_t batch_rows;
  size_t arity;
  std::vector<ColumnBatch> out;
  ColumnBatch open;

  explicit BatchEmitter(size_t batch_rows, size_t arity)
      : batch_rows(batch_rows == 0 ? ColumnBatch::kDefaultBatchRows
                                   : batch_rows),
        arity(arity),
        open(arity) {}

  Status Emit(const Tuple& l, const Tuple& r, const JoinFilter& filter) {
    Tuple joined = Tuple::Concat(l, r);
    if (filter != nullptr) {
      ASSIGN_OR_RETURN(bool keep, filter(joined));
      if (!keep) return Status::OK();
    }
    open.AppendTuple(joined);
    if (open.num_rows() >= batch_rows) {
      out.push_back(std::move(open));
      open = ColumnBatch(arity);
    }
    return Status::OK();
  }

  std::vector<ColumnBatch> Take() {
    if (open.num_rows() > 0) out.push_back(std::move(open));
    return std::move(out);
  }
};

size_t BatchArity(const std::vector<ColumnBatch>& batches) {
  return batches.empty() ? 0 : batches[0].num_columns();
}

}  // namespace

StatusOr<std::vector<ColumnBatch>> VectorizedHashJoin(
    const std::vector<ColumnBatch>& left,
    const std::vector<ColumnBatch>& right,
    const std::vector<std::pair<size_t, size_t>>& keys, size_t batch_rows,
    const JoinFilter& filter, JoinCounters* counters) {
  if (keys.empty()) {
    return InvalidArgumentError("hash join requires equi-join keys");
  }
  JoinCounters local;
  JoinCounters& c = counters != nullptr ? *counters : local;
  const std::vector<size_t> lcols = LeftCols(keys);
  const std::vector<size_t> rcols = RightCols(keys);

  BatchedSide lside = PrepareSide(left, lcols);
  BatchedSide rside = PrepareSide(right, rcols);

  // Build on the smaller side, as HashJoin does.
  const bool build_left = lside.size() <= rside.size();
  const BatchedSide& build = build_left ? lside : rside;
  const BatchedSide& probe = build_left ? rside : lside;
  const std::vector<size_t>& bcols = build_left ? lcols : rcols;
  const std::vector<size_t>& pcols = build_left ? rcols : lcols;

  std::unordered_map<uint64_t, std::vector<size_t>> table;
  table.reserve(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    if (build.null_key[i] != 0) continue;  // NULL keys never join.
    table[build.key_hash[i]].push_back(i);
    ++c.hash_ops;
  }

  BatchEmitter emit(batch_rows, BatchArity(left) + BatchArity(right));
  for (size_t pi = 0; pi < probe.size(); ++pi) {
    if (probe.null_key[pi] != 0) continue;
    ++c.hash_ops;
    auto it = table.find(probe.key_hash[pi]);
    if (it == table.end()) continue;
    for (const size_t bi : it->second) {
      ++c.compare_ops;
      // Re-verify (hash collisions) with real comparisons.
      const bool match =
          build_left ? BatchKeysEqual(build, bi, bcols, probe, pi, pcols)
                     : BatchKeysEqual(probe, pi, pcols, build, bi, bcols);
      if (!match) continue;
      ++c.pairs_examined;
      const Tuple l = build_left ? build.RowTuple(bi) : probe.RowTuple(pi);
      const Tuple r = build_left ? probe.RowTuple(pi) : build.RowTuple(bi);
      RETURN_IF_ERROR(emit.Emit(l, r, filter));
    }
  }
  return emit.Take();
}

StatusOr<std::vector<ColumnBatch>> VectorizedNestedLoopJoin(
    const std::vector<ColumnBatch>& left,
    const std::vector<ColumnBatch>& right, size_t batch_rows,
    const JoinFilter& filter, JoinCounters* counters) {
  JoinCounters local;
  JoinCounters& c = counters != nullptr ? *counters : local;
  BatchEmitter emit(batch_rows, BatchArity(left) + BatchArity(right));
  for (const ColumnBatch& lb : left) {
    for (size_t lr = 0; lr < lb.num_rows(); ++lr) {
      const Tuple l = lb.RowAt(lr);
      for (const ColumnBatch& rb : right) {
        for (size_t rr = 0; rr < rb.num_rows(); ++rr) {
          ++c.pairs_examined;
          RETURN_IF_ERROR(emit.Emit(l, rb.RowAt(rr), filter));
        }
      }
    }
  }
  return emit.Take();
}

}  // namespace prisma::exec
