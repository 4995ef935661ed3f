#ifndef PRISMA_COMMON_SERIALIZE_H_
#define PRISMA_COMMON_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/column_batch.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace prisma {

/// Little binary writer used for WAL records, checkpoints and the wire.
/// The format is private and versionless. Values and tuples carry a type
/// tag byte and fixed-width integers (simplicity over compactness, as in
/// the 1988 prototype); column frames, every row set on the wire, are
/// packed to the bit instead, since the links are the scarce resource.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutVarint(uint64_t v);  // LEB128: 7 bits a byte, low group first.
  void PutDouble(double v);
  void PutString(std::string_view s);
  void PutValue(const Value& value);
  void PutTuple(const Tuple& tuple);
  void PutSchema(const Schema& schema);
  /// Column-encoded tuple batch (DESIGN.md §12.2): varint shape, then per
  /// column an encoding tag, a null bitmap only if a row is NULL, and a
  /// payload for the non-null rows only — bit-packed bools, bit-packed
  /// frame-of-reference ints, raw doubles, and strings either plain or as
  /// a frame-local dictionary plus bit-packed codes, whichever is smaller;
  /// mixed-type columns fall back to tagged per-row Values.
  /// Deterministic: encode -> decode -> encode is byte-stable.
  void PutColumnBatch(const ColumnBatch& batch);

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Cursor-style reader over a serialized buffer; all getters fail with
/// kOutOfRange on truncated input and kInvalidArgument on corrupt tags.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  StatusOr<uint8_t> GetU8();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<int64_t> GetI64();
  /// kInvalidArgument past ten bytes or 64 bits.
  StatusOr<uint64_t> GetVarint();
  StatusOr<double> GetDouble();
  StatusOr<std::string> GetString();
  StatusOr<Value> GetValue();
  StatusOr<Tuple> GetTuple();
  StatusOr<Schema> GetSchema();
  StatusOr<ColumnBatch> GetColumnBatch();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;
  StatusOr<std::string> GetVarintString();  // Varint length + bytes.
  StatusOr<std::string> GetBytes(uint64_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

/// One-shot helpers.
std::string SerializeTuple(const Tuple& tuple);
StatusOr<Tuple> DeserializeTuple(std::string_view data);
std::string SerializeColumnBatch(const ColumnBatch& batch);
StatusOr<ColumnBatch> DeserializeColumnBatch(std::string_view data);

}  // namespace prisma

#endif  // PRISMA_COMMON_SERIALIZE_H_
