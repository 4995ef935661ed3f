#include "gdh/messages.h"

#include "common/column_batch.h"
#include "common/serialize.h"

namespace prisma::gdh {

RowFrame EncodeRows(std::span<const Tuple> rows) {
  return std::make_shared<const std::string>(SerializeColumnBatch(
      ColumnBatch::FromTuples(rows.data(), rows.size())));
}

int64_t FrameBits(const RowFrame& frame) {
  return frame != nullptr ? static_cast<int64_t>(frame->size()) * 8 : 0;
}

StatusOr<std::vector<Tuple>> TupleBatchRows(const RowFrame& frame) {
  if (frame == nullptr) return std::vector<Tuple>();
  ASSIGN_OR_RETURN(ColumnBatch batch, DeserializeColumnBatch(*frame));
  return batch.ToTuples();
}

int CompareSortKeyTuples(const Tuple& a, const Tuple& b,
                         const std::vector<bool>& desc) {
  for (size_t k = 0; k < a.size() && k < b.size(); ++k) {
    int c = a.at(k).Compare(b.at(k));
    if (k < desc.size() && desc[k]) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

Tuple SortKeyOf(const Tuple& row, const std::vector<size_t>& columns) {
  std::vector<Value> key;
  key.reserve(columns.size());
  for (size_t col : columns) key.push_back(row.at(col));
  return Tuple(std::move(key));
}

size_t RangeSliceOf(const Tuple& row, const std::vector<size_t>& columns,
                    const std::vector<bool>& desc,
                    const std::vector<Tuple>& boundaries) {
  const Tuple key = SortKeyOf(row, columns);
  // Count of boundaries <= key: lower_bound over "boundary < key is not
  // enough, boundary <= key advances" — i.e. first boundary with
  // boundary > key.
  size_t lo = 0;
  size_t hi = boundaries.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareSortKeyTuples(boundaries[mid], key, desc) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int64_t ProfileBits(const obs::OperatorProfile& profile) {
  int64_t bits = kControlBits + static_cast<int64_t>(profile.op.size()) * 8;
  for (const obs::OperatorProfile& child : profile.children) {
    bits += ProfileBits(child);
  }
  return bits;
}

}  // namespace prisma::gdh
