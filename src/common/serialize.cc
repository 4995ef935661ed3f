#include "common/serialize.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace prisma {
namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

// Column encoding tags inside a serialized ColumnBatch (DESIGN.md §12.2):
// the low bits name the encoding, kNullBitmap says a null bitmap follows.
constexpr uint8_t kColNull = 0;  // Every row NULL: no bitmap, no payload.
constexpr uint8_t kColBool = 1;
constexpr uint8_t kColInt = 2;
constexpr uint8_t kColDouble = 3;
constexpr uint8_t kColString = 4;      // Varint length + bytes per value.
constexpr uint8_t kColStringDict = 5;  // Distinct values + bit-packed codes.
constexpr uint8_t kColBoxed = 6;       // One tagged Value per row.
constexpr uint8_t kNullBitmap = 0x08;
static_assert(kColString == static_cast<uint8_t>(DataType::kString),
              "kinds 0-4 are the DataType tags");

/// Width-0 columns spend no bytes per row, so a frame's length does not
/// bound the rows it claims; a corrupt header must not allocate billions.
constexpr uint64_t kMaxFrameRows = uint64_t{1} << 24;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Bits needed for a code or delta in [0, max_value].
unsigned BitWidth(uint64_t max_value) {
  return static_cast<unsigned>(std::bit_width(max_value));
}

/// Appends `width`-bit fields LSB-first, filling and flushing one 64-bit
/// little-endian word at a time; n fields take ceil(n * width / 8) bytes.
class BitPacker {
 public:
  explicit BitPacker(std::string* out) : out_(out) {}

  /// `width` in [1, 64], `v` < 2^width.
  void Put(uint64_t v, unsigned width) {
    word_ |= v << used_;
    if (used_ + width < 64) {
      used_ += width;
      return;
    }
    Flush(8);
    word_ = used_ == 0 ? 0 : v >> (64 - used_);
    used_ = used_ + width - 64;
  }

  /// Writes the partial last word.
  void Finish() { Flush((used_ + 7) / 8); }

 private:
  void Flush(size_t bytes) {
    char buf[8];
    std::memcpy(buf, &word_, sizeof(buf));
    out_->append(buf, bytes);
  }

  std::string* out_;
  uint64_t word_ = 0;
  unsigned used_ = 0;  // Bits of word_ filled, < 64.
};

/// Reads BitPacker fields back a 64-bit word at a time. The caller has
/// checked that `bytes` holds every field it will read.
class BitUnpacker {
 public:
  explicit BitUnpacker(std::string_view bytes) : bytes_(bytes) {
    word_ = NextWord();
  }

  /// `width` in [1, 64].
  uint64_t Get(unsigned width) {
    uint64_t v = word_ >> used_;
    const unsigned left = 64 - used_;
    if (width < left) {
      used_ += width;
    } else {
      word_ = NextWord();
      if (width > left) v |= word_ << left;
      used_ = width - left;
    }
    return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
  }

 private:
  uint64_t NextWord() {
    uint64_t word = 0;
    const size_t n = std::min<size_t>(8, bytes_.size() - at_);
    if (n > 0) std::memcpy(&word, bytes_.data() + at_, n);
    at_ += n;
    return word;
  }

  std::string_view bytes_;
  size_t at_ = 0;
  uint64_t word_ = 0;
  unsigned used_ = 0;  // Bits of word_ consumed, < 64.
};

/// A string column's dictionary: distinct values in first-occurrence
/// order and each non-null row's code.
struct StringDict {
  std::vector<std::string_view> values;
  std::vector<uint64_t> codes;
  unsigned width = 0;
  size_t plain_bytes = 0;  // The plain encoding's payload size.
  size_t dict_bytes = 0;   // The dictionary encoding's payload size.
};

StringDict BuildDict(const ColumnBatch::Column& col, size_t non_null) {
  StringDict dict;
  std::unordered_map<std::string_view, uint64_t> index;
  dict.codes.reserve(non_null);
  for (size_t r = 0; r < col.strings.size(); ++r) {
    if (col.nulls[r] != 0) continue;
    const std::string_view s = col.strings[r];
    const size_t bytes = VarintSize(s.size()) + s.size();
    dict.plain_bytes += bytes;
    auto [it, fresh] = index.emplace(s, dict.values.size());
    if (fresh) {
      dict.values.push_back(s);
      dict.dict_bytes += bytes;
    }
    dict.codes.push_back(it->second);
  }
  dict.width = dict.values.size() <= 1 ? 0 : BitWidth(dict.values.size() - 1);
  dict.dict_bytes +=
      VarintSize(dict.values.size()) + (non_null * dict.width + 7) / 8;
  return dict;
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

void BinaryWriter::PutVarint(uint64_t v) {
  for (; v >= 0x80; v >>= 7) PutU8(static_cast<uint8_t>(v) | 0x80);
  PutU8(static_cast<uint8_t>(v));
}

void BinaryWriter::PutColumnBatch(const ColumnBatch& batch) {
  const size_t rows = batch.num_rows();
  PutVarint(rows);
  PutVarint(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnBatch::Column& col = batch.column(c);
    if (col.boxed) {
      PutU8(kColBoxed);
      for (size_t r = 0; r < rows; ++r) PutValue(col.values[r]);
      continue;
    }
    if (col.type == DataType::kNull) {
      PutU8(kColNull);
      continue;
    }
    const size_t non_null = static_cast<size_t>(std::count(
        col.nulls.begin(), col.nulls.end(), uint8_t{0}));
    uint8_t tag = static_cast<uint8_t>(col.type);
    StringDict dict;
    if (col.type == DataType::kString) {
      dict = BuildDict(col, non_null);
      // Ties go to the plain encoding.
      if (dict.dict_bytes < dict.plain_bytes) tag = kColStringDict;
    }
    PutU8(non_null < rows ? tag | kNullBitmap : tag);
    if (non_null < rows) {
      // Null bitmap, LSB-first; bit set = row is NULL.
      BitPacker bits(&out_);
      for (size_t r = 0; r < rows; ++r) bits.Put(col.nulls[r] != 0, 1);
      bits.Finish();
    }
    // Payload over the non-null rows only, in row order.
    switch (tag) {
      case kColBool: {
        BitPacker bits(&out_);
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] == 0) bits.Put(col.bools[r] != 0, 1);
        }
        bits.Finish();
        break;
      }
      case kColInt: {
        if (non_null == 0) break;
        // Frame of reference: zigzag base = min, then bit-packed deltas.
        int64_t lo = INT64_MAX;
        int64_t hi = INT64_MIN;
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          lo = std::min(lo, col.ints[r]);
          hi = std::max(hi, col.ints[r]);
        }
        const unsigned width = BitWidth(static_cast<uint64_t>(hi) -
                                        static_cast<uint64_t>(lo));
        PutVarint(ZigZag(lo));
        PutU8(static_cast<uint8_t>(width));
        if (width == 0) break;
        BitPacker bits(&out_);
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          bits.Put(static_cast<uint64_t>(col.ints[r]) -
                       static_cast<uint64_t>(lo),
                   width);
        }
        bits.Finish();
        break;
      }
      case kColDouble:
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] == 0) PutDouble(col.doubles[r]);
        }
        break;
      case kColString:
        for (size_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          PutVarint(col.strings[r].size());
          out_.append(col.strings[r]);
        }
        break;
      case kColStringDict: {
        PutVarint(dict.values.size());
        for (const std::string_view s : dict.values) {
          PutVarint(s.size());
          out_.append(s);
        }
        if (dict.width == 0) break;
        BitPacker bits(&out_);
        for (const uint64_t code : dict.codes) bits.Put(code, dict.width);
        bits.Finish();
        break;
      }
    }
  }
}

Status BinaryReader::Need(size_t n) const {
  if (n > data_.size() - pos_) {
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
  return GetBytes(n);
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

StatusOr<uint64_t> BinaryReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    ASSIGN_OR_RETURN(uint8_t byte, GetU8());
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) != 0) continue;
    if (shift == 63 && byte > 1) {
      return InvalidArgumentError("varint overflows 64 bits");
    }
    return v;
  }
  return InvalidArgumentError("over-long varint");
}

StatusOr<ColumnBatch> BinaryReader::GetColumnBatch() {
  ASSIGN_OR_RETURN(uint64_t rows, GetVarint());
  ASSIGN_OR_RETURN(uint64_t cols, GetVarint());
  if (rows > kMaxFrameRows) {
    return InvalidArgumentError("corrupt frame: " + std::to_string(rows) +
                                " rows");
  }
  // Every column costs at least its tag byte on the wire; reject frames
  // whose claimed shape cannot fit before allocating anything.
  RETURN_IF_ERROR(Need(cols));
  std::vector<ColumnBatch::Column> columns;
  columns.reserve(cols);
  for (uint64_t c = 0; c < cols; ++c) {
    ColumnBatch::Column col;
    ASSIGN_OR_RETURN(uint8_t tag, GetU8());
    const uint8_t kind = tag & ~kNullBitmap;
    const bool has_bitmap = (tag & kNullBitmap) != 0;
    if (kind > kColBoxed ||
        (has_bitmap && (kind == kColNull || kind == kColBoxed))) {
      return InvalidArgumentError("corrupt column encoding tag " +
                                  std::to_string(tag));
    }
    if (kind == kColBoxed) {
      col.boxed = true;
      for (uint64_t r = 0; r < rows; ++r) {
        ASSIGN_OR_RETURN(Value v, GetValue());
        col.values.push_back(std::move(v));
      }
      columns.push_back(std::move(col));
      continue;
    }
    col.type = kind == kColStringDict ? DataType::kString
                                      : static_cast<DataType>(kind);
    col.nulls.assign(rows, kind == kColNull ? 1 : 0);
    size_t non_null = kind == kColNull ? 0 : rows;
    if (has_bitmap) {
      const size_t bytes = (rows + 7) / 8;
      RETURN_IF_ERROR(Need(bytes));
      BitUnpacker bits(data_.substr(pos_, bytes));
      for (uint64_t r = 0; r < rows; ++r) {
        col.nulls[r] = static_cast<uint8_t>(bits.Get(1));
        non_null -= col.nulls[r];
      }
      pos_ += bytes;
    }
    switch (kind) {
      case kColNull:
        break;
      case kColBool: {
        const size_t bytes = (non_null + 7) / 8;
        RETURN_IF_ERROR(Need(bytes));
        BitUnpacker bits(data_.substr(pos_, bytes));
        col.bools.assign(rows, 0);
        for (uint64_t r = 0; r < rows; ++r) {
          if (col.nulls[r] == 0) {
            col.bools[r] = static_cast<uint8_t>(bits.Get(1));
          }
        }
        pos_ += bytes;
        break;
      }
      case kColInt: {
        col.ints.assign(rows, 0);
        if (non_null == 0) break;
        ASSIGN_OR_RETURN(uint64_t zigzag, GetVarint());
        ASSIGN_OR_RETURN(uint8_t width, GetU8());
        if (width > 64) {
          return InvalidArgumentError("corrupt int column width " +
                                      std::to_string(width));
        }
        const uint64_t base = static_cast<uint64_t>(UnZigZag(zigzag));
        const size_t bytes = (non_null * width + 7) / 8;
        RETURN_IF_ERROR(Need(bytes));
        BitUnpacker bits(data_.substr(pos_, bytes));
        for (uint64_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          const uint64_t delta = width == 0 ? 0 : bits.Get(width);
          col.ints[r] = static_cast<int64_t>(base + delta);
        }
        pos_ += bytes;
        break;
      }
      case kColDouble:
        RETURN_IF_ERROR(Need(non_null * 8));
        col.doubles.assign(rows, 0.0);
        for (uint64_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          ASSIGN_OR_RETURN(col.doubles[r], GetDouble());
        }
        break;
      case kColString:
        col.strings.resize(rows);
        for (uint64_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          ASSIGN_OR_RETURN(col.strings[r], GetVarintString());
        }
        break;
      case kColStringDict: {
        ASSIGN_OR_RETURN(uint64_t size, GetVarint());
        if (size > non_null) {
          return InvalidArgumentError(
              "corrupt string dictionary: " + std::to_string(size) +
              " entries for " + std::to_string(non_null) + " rows");
        }
        RETURN_IF_ERROR(Need(size));
        std::vector<std::string> dict(size);
        for (std::string& s : dict) {
          ASSIGN_OR_RETURN(s, GetVarintString());
        }
        const unsigned width = size <= 1 ? 0 : BitWidth(size - 1);
        const size_t bytes = (non_null * width + 7) / 8;
        RETURN_IF_ERROR(Need(bytes));
        BitUnpacker bits(data_.substr(pos_, bytes));
        col.strings.resize(rows);
        for (uint64_t r = 0; r < rows; ++r) {
          if (col.nulls[r] != 0) continue;
          const uint64_t code = width == 0 ? 0 : bits.Get(width);
          if (code >= size) {
            return InvalidArgumentError(
                "corrupt string dictionary code " + std::to_string(code) +
                " of " + std::to_string(size));
          }
          col.strings[r] = dict[code];
        }
        pos_ += bytes;
        break;
      }
    }
    columns.push_back(std::move(col));
  }
  return ColumnBatch::FromColumns(std::move(columns), rows);
}

StatusOr<std::string> BinaryReader::GetVarintString() {
  ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  return GetBytes(n);
}

StatusOr<std::string> BinaryReader::GetBytes(uint64_t n) {
  RETURN_IF_ERROR(Need(n));
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
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
