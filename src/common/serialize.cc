#include "common/serialize.h"

#include <cstring>

namespace prisma {
namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

// Column encodings inside a serialized ColumnBatch.
constexpr uint8_t kColTyped = 0;
constexpr uint8_t kColBoxed = 1;

/// Minimal delta width (bytes) that represents every value in [0, range].
uint8_t IntDeltaWidth(uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xFFu) return 1;
  if (range <= 0xFFFFu) return 2;
  if (range <= 0xFFFFFFFFu) return 4;
  return 8;
}

}  // namespace

void BinaryWriter::PutU32(uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out_.append(buf, sizeof(buf));
}

void BinaryWriter::PutU64(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out_.append(buf, sizeof(buf));
}

void BinaryWriter::PutDouble(double v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out_.append(buf, sizeof(buf));
}

void BinaryWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void BinaryWriter::PutValue(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      PutU8(kTagNull);
      return;
    case DataType::kBool:
      PutU8(kTagBool);
      PutU8(value.bool_value() ? 1 : 0);
      return;
    case DataType::kInt64:
      PutU8(kTagInt);
      PutI64(value.int_value());
      return;
    case DataType::kDouble:
      PutU8(kTagDouble);
      PutDouble(value.double_value());
      return;
    case DataType::kString:
      PutU8(kTagString);
      PutString(value.string_value());
      return;
  }
}

void BinaryWriter::PutTuple(const Tuple& tuple) {
  PutU32(static_cast<uint32_t>(tuple.size()));
  for (const Value& v : tuple.values()) PutValue(v);
}

void BinaryWriter::PutSchema(const Schema& schema) {
  PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    PutString(c.name);
    PutU8(static_cast<uint8_t>(c.type));
  }
}

void BinaryWriter::PutColumnBatch(const ColumnBatch& batch) {
  const size_t rows = batch.num_rows();
  PutU32(static_cast<uint32_t>(rows));
  PutU32(static_cast<uint32_t>(batch.num_columns()));
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnBatch::Column& col = batch.column(c);
    if (col.boxed) {
      PutU8(kColBoxed);
      for (size_t r = 0; r < rows; ++r) PutValue(col.values[r]);
      continue;
    }
    PutU8(kColTyped);
    PutU8(static_cast<uint8_t>(col.type));
    // Null bitmap, LSB-first; bit set = row is NULL.
    for (size_t at = 0; at < rows; at += 8) {
      uint8_t byte = 0;
      for (size_t b = 0; b < 8 && at + b < rows; ++b) {
        if (col.nulls[at + b] != 0) byte |= static_cast<uint8_t>(1u << b);
      }
      PutU8(byte);
    }
    // Packed payload over the non-null rows only, in row order.
    switch (col.type) {
      case DataType::kNull:
        break;  // All rows NULL: the bitmap is the whole column.
      case DataType::kBool: {
        uint8_t byte = 0;
        size_t bit = 0;
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          if (col.bools[r] != 0) byte |= static_cast<uint8_t>(1u << bit);
          if (++bit == 8) {
            PutU8(byte);
            byte = 0;
            bit = 0;
          }
        }
        if (bit > 0) PutU8(byte);
        break;
      }
      case DataType::kInt64: {
        // Frame of reference: base = min, then minimal-width deltas.
        bool any = false;
        int64_t lo = 0;
        int64_t hi = 0;
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          if (!any || col.ints[r] < lo) lo = col.ints[r];
          if (!any || col.ints[r] > hi) hi = col.ints[r];
          any = true;
        }
        if (!any) break;
        const uint64_t range =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
        const uint8_t width = IntDeltaWidth(range);
        PutI64(lo);
        PutU8(width);
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          const uint64_t delta = static_cast<uint64_t>(col.ints[r]) -
                                 static_cast<uint64_t>(lo);
          for (uint8_t b = 0; b < width; ++b) {
            PutU8(static_cast<uint8_t>(delta >> (8 * b)));
          }
        }
        break;
      }
      case DataType::kDouble:
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] == 0) PutDouble(col.doubles[r]);
        }
        break;
      case DataType::kString:
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] == 0) PutString(col.strings[r]);
        }
        break;
    }
  }
}

Status BinaryReader::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return OutOfRangeError("truncated serialized data");
  }
  return Status::OK();
}

StatusOr<uint8_t> BinaryReader::GetU8() {
  RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> BinaryReader::GetU32() {
  RETURN_IF_ERROR(Need(4));
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> BinaryReader::GetU64() {
  RETURN_IF_ERROR(Need(8));
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += 8;
  return v;
}

StatusOr<int64_t> BinaryReader::GetI64() {
  ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

StatusOr<double> BinaryReader::GetDouble() {
  RETURN_IF_ERROR(Need(8));
  double v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += 8;
  return v;
}

StatusOr<std::string> BinaryReader::GetString() {
  ASSIGN_OR_RETURN(uint32_t n, GetU32());
  RETURN_IF_ERROR(Need(n));
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

StatusOr<Value> BinaryReader::GetValue() {
  ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool: {
      ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value::Bool(b != 0);
    }
    case kTagInt: {
      ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Int(v);
    }
    case kTagDouble: {
      ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case kTagString: {
      ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::String(std::move(s));
    }
    default:
      return InvalidArgumentError("corrupt value tag " + std::to_string(tag));
  }
}

StatusOr<Tuple> BinaryReader::GetTuple() {
  ASSIGN_OR_RETURN(uint32_t n, GetU32());
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(Value v, GetValue());
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

StatusOr<Schema> BinaryReader::GetSchema() {
  ASSIGN_OR_RETURN(uint32_t n, GetU32());
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::string name, GetString());
    ASSIGN_OR_RETURN(uint8_t type, GetU8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return InvalidArgumentError("corrupt schema type tag");
    }
    cols.push_back(Column{std::move(name), static_cast<DataType>(type)});
  }
  return Schema(std::move(cols));
}

StatusOr<ColumnBatch> BinaryReader::GetColumnBatch() {
  ASSIGN_OR_RETURN(uint32_t rows, GetU32());
  ASSIGN_OR_RETURN(uint32_t cols, GetU32());
  // Every column costs at least one byte on the wire; reject frames whose
  // claimed shape cannot fit before allocating anything.
  RETURN_IF_ERROR(Need(cols));
  std::vector<ColumnBatch::Column> columns;
  columns.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnBatch::Column col;
    ASSIGN_OR_RETURN(uint8_t enc, GetU8());
    if (enc == kColBoxed) {
      col.boxed = true;
      for (uint32_t r = 0; r < rows; ++r) {
        ASSIGN_OR_RETURN(Value v, GetValue());
        col.values.push_back(std::move(v));
      }
      columns.push_back(std::move(col));
      continue;
    }
    if (enc != kColTyped) {
      return InvalidArgumentError("corrupt column encoding tag " +
                                  std::to_string(enc));
    }
    ASSIGN_OR_RETURN(uint8_t type, GetU8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return InvalidArgumentError("corrupt column type tag " +
                                  std::to_string(type));
    }
    col.type = static_cast<DataType>(type);
    const size_t bitmap_bytes = (static_cast<size_t>(rows) + 7) / 8;
    RETURN_IF_ERROR(Need(bitmap_bytes));
    col.nulls.reserve(rows);
    size_t non_null = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      const uint8_t byte = static_cast<uint8_t>(data_[pos_ + r / 8]);
      const uint8_t null = (byte >> (r % 8)) & 1u;
      col.nulls.push_back(null);
      if (null == 0) ++non_null;
    }
    pos_ += bitmap_bytes;
    if (col.type == DataType::kNull && non_null > 0) {
      return InvalidArgumentError(
          "corrupt column: non-null rows in NULL-typed column");
    }
    switch (col.type) {
      case DataType::kNull:
        break;
      case DataType::kBool: {
        const size_t packed = (non_null + 7) / 8;
        RETURN_IF_ERROR(Need(packed));
        col.bools.reserve(rows);
        size_t bit = 0;
        for (uint32_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) {
            col.bools.push_back(0);
            continue;
          }
          const uint8_t byte = static_cast<uint8_t>(data_[pos_ + bit / 8]);
          col.bools.push_back((byte >> (bit % 8)) & 1u);
          ++bit;
        }
        pos_ += packed;
        break;
      }
      case DataType::kInt64: {
        int64_t base = 0;
        uint8_t width = 0;
        if (non_null > 0) {
          ASSIGN_OR_RETURN(base, GetI64());
          ASSIGN_OR_RETURN(width, GetU8());
          if (width != 0 && width != 1 && width != 2 && width != 4 &&
              width != 8) {
            return InvalidArgumentError("corrupt int column width " +
                                        std::to_string(width));
          }
          RETURN_IF_ERROR(Need(non_null * width));
        }
        col.ints.reserve(rows);
        for (uint32_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) {
            col.ints.push_back(0);
            continue;
          }
          uint64_t delta = 0;
          for (uint8_t b = 0; b < width; ++b) {
            delta |= static_cast<uint64_t>(
                         static_cast<uint8_t>(data_[pos_ + b]))
                     << (8 * b);
          }
          pos_ += width;
          col.ints.push_back(
              static_cast<int64_t>(static_cast<uint64_t>(base) + delta));
        }
        break;
      }
      case DataType::kDouble:
        RETURN_IF_ERROR(Need(non_null * 8));
        col.doubles.reserve(rows);
        for (uint32_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) {
            col.doubles.push_back(0.0);
            continue;
          }
          ASSIGN_OR_RETURN(double v, GetDouble());
          col.doubles.push_back(v);
        }
        break;
      case DataType::kString:
        col.strings.reserve(rows);
        for (uint32_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) {
            col.strings.push_back(std::string());
            continue;
          }
          ASSIGN_OR_RETURN(std::string s, GetString());
          col.strings.push_back(std::move(s));
        }
        break;
    }
    columns.push_back(std::move(col));
  }
  return ColumnBatch::FromColumns(std::move(columns), rows);
}

std::string SerializeTuple(const Tuple& tuple) {
  BinaryWriter w;
  w.PutTuple(tuple);
  return w.Take();
}

StatusOr<Tuple> DeserializeTuple(std::string_view data) {
  BinaryReader r(data);
  return r.GetTuple();
}

std::string SerializeColumnBatch(const ColumnBatch& batch) {
  BinaryWriter w;
  w.PutColumnBatch(batch);
  return w.Take();
}

StatusOr<ColumnBatch> DeserializeColumnBatch(std::string_view data) {
  BinaryReader r(data);
  ASSIGN_OR_RETURN(ColumnBatch batch, r.GetColumnBatch());
  // A frame is exactly one batch: leftover bytes mean a corrupt header.
  if (!r.AtEnd()) {
    return InvalidArgumentError("trailing bytes after column batch");
  }
  return batch;
}

}  // namespace prisma
