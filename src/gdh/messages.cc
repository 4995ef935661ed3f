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

int64_t WriteReply::WireBits() const {
  int64_t bits = kControlBits;
  for (uint64_t estimate : distinct) {
    do {
      bits += 8;  // One LEB128 byte per 7 bits.
      estimate >>= 7;
    } while (estimate != 0);
  }
  return bits;
}

StatusOr<std::vector<Tuple>> TupleBatchRows(const RowFrame& frame) {
  if (frame == nullptr) return std::vector<Tuple>();
  ASSIGN_OR_RETURN(ColumnBatch batch, DeserializeColumnBatch(*frame));
  return batch.ToTuples();
}

int64_t PlanBits(const algebra::Plan* plan) {
  return plan != nullptr
             ? static_cast<int64_t>(plan->TreeSize()) * kPlanNodeBits
             : kPlanIdBits;
}

int64_t ProfileBits(const obs::OperatorProfile& profile) {
  int64_t bits = kControlBits + static_cast<int64_t>(profile.op.size()) * 8;
  for (const obs::OperatorProfile& child : profile.children) {
    bits += ProfileBits(child);
  }
  return bits;
}

}  // namespace prisma::gdh
