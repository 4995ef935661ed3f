#include "gdh/messages.h"

#include "common/column_batch.h"
#include "common/logging.h"
#include "common/serialize.h"

namespace prisma::gdh {

RowFrame EncodeRows(std::span<const Tuple> rows) {
  return std::make_shared<const std::string>(SerializeColumnBatch(
      ColumnBatch::FromTuples(rows.data(), rows.size())));
}

int64_t FrameBits(const RowFrame& frame) {
  return frame != nullptr ? static_cast<int64_t>(frame->size()) * 8 : 0;
}

namespace {

int64_t VarintBits(uint64_t value) {
  int64_t bits = 0;
  do {
    bits += 8;  // One LEB128 byte per 7 bits.
    value >>= 7;
  } while (value != 0);
  return bits;
}

int64_t LandedBits(const std::vector<exec::TxnId>& txns) {
  int64_t bits = 0;
  for (const exec::TxnId txn : txns) {
    bits += VarintBits(static_cast<uint64_t>(txn));
  }
  return bits;
}

}  // namespace

int64_t WriteReply::WireBits() const {
  int64_t bits = kControlBits + LandedBits(commits_landed);
  for (const uint64_t estimate : distinct) bits += VarintBits(estimate);
  return bits;
}

int64_t TxnControlReply::WireBits() const {
  return kControlBits + LandedBits(commits_landed);
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

std::vector<Value> PlanParams(const algebra::Plan& plan,
                              const std::vector<Value>& statement) {
  algebra::Literals own;
  plan.CollectLiterals(&own);
  std::vector<Value> params;
  bool differ = false;
  for (const auto& [ordinal, value] : own) {
    PRISMA_CHECK(static_cast<size_t>(ordinal) < statement.size());
    const Value& bound = statement[ordinal];
    differ = differ || bound != value;
    params.push_back(bound);
  }
  if (!differ) params.clear();
  return params;
}

int64_t ParamBits(const std::vector<Value>& params) {
  int64_t bits = 0;
  for (const Value& value : params) {
    bits += 64;
    if (value.type() == DataType::kString) {
      bits += static_cast<int64_t>(value.string_value().size()) * 8;
    }
  }
  return bits;
}

std::unique_ptr<algebra::Plan> BindPlanParams(
    const algebra::Plan& plan, const std::vector<Value>& params) {
  algebra::Literals values;
  plan.CollectLiterals(&values);
  PRISMA_CHECK(values.size() == params.size());
  size_t i = 0;
  for (auto& [ordinal, value] : values) value = params[i++];
  return plan.CloneWithLiterals(values);
}

int64_t ProfileBits(const obs::OperatorProfile& profile) {
  int64_t bits = kControlBits + static_cast<int64_t>(profile.op.size()) * 8;
  for (const obs::OperatorProfile& child : profile.children) {
    bits += ProfileBits(child);
  }
  return bits;
}

}  // namespace prisma::gdh
