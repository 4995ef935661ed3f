#include "exec/access_path.h"

#include <algorithm>
#include <utility>

#include "common/tuple.h"

namespace prisma::exec {

std::optional<ColumnBound> MatchColumnBound(const algebra::Expr& conjunct) {
  if (conjunct.kind() != algebra::ExprKind::kBinary) return std::nullopt;
  algebra::BinaryOp op = conjunct.binary_op();
  const algebra::Expr* l = conjunct.left();
  const algebra::Expr* r = conjunct.right();
  if (l->kind() == algebra::ExprKind::kLiteral &&
      r->kind() == algebra::ExprKind::kColumnRef) {
    std::swap(l, r);
    switch (op) {  // Mirror the comparison.
      case algebra::BinaryOp::kLt: op = algebra::BinaryOp::kGt; break;
      case algebra::BinaryOp::kLe: op = algebra::BinaryOp::kGe; break;
      case algebra::BinaryOp::kGt: op = algebra::BinaryOp::kLt; break;
      case algebra::BinaryOp::kGe: op = algebra::BinaryOp::kLe; break;
      default: break;
    }
  }
  if (l->kind() != algebra::ExprKind::kColumnRef || !l->bound() ||
      r->kind() != algebra::ExprKind::kLiteral) {
    return std::nullopt;
  }
  switch (op) {
    case algebra::BinaryOp::kEq:
    case algebra::BinaryOp::kLt:
    case algebra::BinaryOp::kLe:
    case algebra::BinaryOp::kGt:
    case algebra::BinaryOp::kGe:
      return ColumnBound{l->column_index(), op, r->literal()};
    default:
      return std::nullopt;
  }
}

std::optional<IndexCandidates> ChooseIndexPath(
    const algebra::Expr& predicate, const TableResolver& resolver,
    const std::string& table, const pool::CostModel& costs) {
  std::vector<ColumnBound> bounds;
  for (const auto& conjunct : algebra::SplitConjuncts(predicate)) {
    auto bound = MatchColumnBound(*conjunct);
    if (bound.has_value()) bounds.push_back(std::move(*bound));
  }

  // Equality on a hash-indexed column: probe.
  for (const ColumnBound& bound : bounds) {
    if (bound.op != algebra::BinaryOp::kEq) continue;
    const storage::HashIndex* hash =
        resolver.FindHashIndex(table, {bound.column});
    if (hash == nullptr) continue;
    IndexCandidates out{hash->Probe(Tuple({bound.literal})), 0};
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }

  // Range (or equality) on an ordered-indexed column: bounded scan.
  for (const ColumnBound& first : bounds) {
    const storage::BTreeIndex* btree =
        resolver.FindBTreeIndex(table, {first.column});
    if (btree == nullptr) continue;
    // Combine every bound on this column into one [lo, hi] window.
    std::optional<Tuple> lo;
    std::optional<Tuple> hi;
    bool lo_inclusive = true;
    bool hi_inclusive = true;
    auto tighten_lo = [&](const Value& v, bool inclusive) {
      Tuple key({v});
      if (!lo || key.Compare(*lo) > 0 ||
          (key.Compare(*lo) == 0 && !inclusive)) {
        lo = std::move(key);
        lo_inclusive = inclusive;
      }
    };
    auto tighten_hi = [&](const Value& v, bool inclusive) {
      Tuple key({v});
      if (!hi || key.Compare(*hi) < 0 ||
          (key.Compare(*hi) == 0 && !inclusive)) {
        hi = std::move(key);
        hi_inclusive = inclusive;
      }
    };
    for (const ColumnBound& bound : bounds) {
      if (bound.column != first.column) continue;
      switch (bound.op) {
        case algebra::BinaryOp::kEq:
          tighten_lo(bound.literal, true);
          tighten_hi(bound.literal, true);
          break;
        case algebra::BinaryOp::kGt:
          tighten_lo(bound.literal, false);
          break;
        case algebra::BinaryOp::kGe:
          tighten_lo(bound.literal, true);
          break;
        case algebra::BinaryOp::kLt:
          tighten_hi(bound.literal, false);
          break;
        case algebra::BinaryOp::kLe:
          tighten_hi(bound.literal, true);
          break;
        default:
          break;
      }
    }
    if (!lo && !hi) continue;  // No usable window on this column.
    IndexCandidates out;
    btree->ScanRange(lo, lo_inclusive, hi, hi_inclusive,
                     [&](const Tuple&, storage::RowId row) {
                       out.rows.push_back(row);
                       return true;
                     });
    out.walk_ns = static_cast<sim::SimTime>(out.rows.size()) * costs.compare_ns;
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }
  return std::nullopt;
}

}  // namespace prisma::exec
