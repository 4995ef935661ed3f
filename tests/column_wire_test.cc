// Round-trip fuzz harness for the column-encoded wire format every row
// set crosses the interconnect in (DESIGN.md §12.2). For seeded random
// batches over every Value type and NULL pattern — including ragged
// batches whose row count is not a multiple of the bitmap word — the
// format must satisfy:
//
//   1. decode(encode(batch)) reproduces the original tuples exactly;
//   2. encode(decode(encode(batch))) is byte-stable (canonical encoding);
//   3. every truncation of a valid frame, trailing garbage, corrupted
//      tag bytes and malformed payloads (dictionary codes, bit widths,
//      varints) fail with a typed Status — never a crash;
//   4. on a running machine, a truncated or tag-corrupted fragment gather
//      (exec_plan_reply) or client_reply frame fails its statement with
//      that typed Status — never a crash, never a truncated result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/column_batch.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/str_util.h"
#include "common/tuple.h"
#include "common/value.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"

namespace prisma {
namespace {

/// Which NULL pattern a generated column uses.
enum class NullPattern { kNone, kAll, kAlternating, kRandom };

Value RandomTypedValue(Rng& rng, DataType type) {
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng.Uniform(2) == 1);
    case DataType::kInt64: {
      // Mix magnitudes so frame-of-reference picks many delta widths
      // across seeds (BitWidthsZeroToSixtyFour pins every one).
      switch (rng.Uniform(5)) {
        case 0: return Value::Int(static_cast<int64_t>(rng.Uniform(2)));
        case 1: return Value::Int(rng.UniformInt(-120, 120));
        case 2: return Value::Int(rng.UniformInt(-30000, 30000));
        case 3: return Value::Int(rng.UniformInt(-2000000000, 2000000000));
        default:
          return Value::Int(static_cast<int64_t>(rng.Next()));
      }
    }
    case DataType::kDouble:
      return Value::Double(static_cast<double>(rng.UniformInt(-1000, 1000)) /
                           8.0);
    case DataType::kString: {
      // Half the values repeat from a small set, so a column's frame
      // picks the dictionary encoding on some seeds and plain on others.
      static constexpr const char* kRepeated[] = {"AUTOMOBILE", "BUILDING",
                                                  ""};
      if (rng.Uniform(2) == 0) return Value::String(kRepeated[rng.Uniform(3)]);
      std::string s;
      const size_t len = rng.Uniform(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      return Value::String(std::move(s));
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

bool IsNullAt(NullPattern pattern, Rng& rng, size_t row) {
  switch (pattern) {
    case NullPattern::kNone: return false;
    case NullPattern::kAll: return true;
    case NullPattern::kAlternating: return row % 2 == 0;
    case NullPattern::kRandom: return rng.Uniform(4) == 0;
  }
  return false;
}

/// A seeded batch: 1-5 columns, each with its own type (or mixed-type,
/// which must fall back to the boxed encoding) and NULL pattern; row
/// counts deliberately straddle multiples of 8 so the null bitmap's final
/// partial byte is exercised.
std::vector<Tuple> RandomBatchTuples(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const size_t rows = rng.Uniform(40);  // Includes 0, 7, 8, 9, ...
  const size_t cols = 1 + rng.Uniform(5);
  struct ColSpec {
    bool mixed;
    DataType type;
    NullPattern pattern;
  };
  std::vector<ColSpec> specs;
  static constexpr DataType kTypes[] = {DataType::kBool, DataType::kInt64,
                                        DataType::kDouble, DataType::kString};
  static constexpr NullPattern kPatterns[] = {
      NullPattern::kNone, NullPattern::kAll, NullPattern::kAlternating,
      NullPattern::kRandom};
  for (size_t c = 0; c < cols; ++c) {
    ColSpec spec;
    spec.mixed = rng.Uniform(5) == 0;
    spec.type = kTypes[rng.Uniform(4)];
    spec.pattern = kPatterns[rng.Uniform(4)];
    specs.push_back(spec);
  }
  std::vector<Tuple> tuples;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (const ColSpec& spec : specs) {
      if (IsNullAt(spec.pattern, rng, r)) {
        values.push_back(Value::Null());
      } else {
        const DataType type =
            spec.mixed ? kTypes[rng.Uniform(4)] : spec.type;
        values.push_back(RandomTypedValue(rng, type));
      }
    }
    tuples.emplace_back(std::move(values));
  }
  return tuples;
}

std::string Render(const std::vector<Tuple>& tuples) {
  std::string out;
  for (const Tuple& t : tuples) {
    out += t.ToString();
    out += '\n';
  }
  return out;
}

TEST(ColumnWireTest, RoundTripAndByteStabilityAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    const std::vector<Tuple> tuples = RandomBatchTuples(seed);
    const ColumnBatch batch = ColumnBatch::FromTuples(tuples);
    ASSERT_EQ(batch.num_rows(), tuples.size());

    const std::string frame = SerializeColumnBatch(batch);
    auto decoded = DeserializeColumnBatch(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->num_rows(), tuples.size());

    // 1. Exact tuple-level round trip (types and NULLs included).
    EXPECT_EQ(Render(decoded->ToTuples()), Render(tuples));

    // 2. Canonical: re-encoding the decoded batch is byte-identical.
    EXPECT_EQ(SerializeColumnBatch(*decoded), frame);
  }
}

TEST(ColumnWireTest, EveryTruncationFailsWithTypedStatus) {
  // A small but fully featured batch: every type, NULLs, a ragged tail.
  const std::vector<Tuple> tuples = RandomBatchTuples(7);
  ASSERT_FALSE(tuples.empty());
  const std::string frame =
      SerializeColumnBatch(ColumnBatch::FromTuples(tuples));
  for (size_t len = 0; len < frame.size(); ++len) {
    SCOPED_TRACE(StrFormat("prefix_len=%zu of %zu", len, frame.size()));
    auto result = DeserializeColumnBatch(frame.substr(0, len));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().code() == StatusCode::kOutOfRange ||
                result.status().code() == StatusCode::kInvalidArgument)
        << result.status().ToString();
  }
}

TEST(ColumnWireTest, TrailingBytesFailWithTypedStatus) {
  // A frame is exactly one batch: a corrupt row count that leaves bytes
  // over must not decode as a shorter result.
  const std::string frame =
      SerializeColumnBatch(ColumnBatch::FromTuples(RandomBatchTuples(7)));
  auto result = DeserializeColumnBatch(frame + '\0');
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ColumnWireTest, CorruptedBytesNeverCrash) {
  // Flipping any single byte must yield either a typed error or a clean
  // decode of different content — never a crash or hang. (Payload bytes
  // legitimately decode to altered values; header/tag bytes must fail.)
  const std::vector<Tuple> tuples = RandomBatchTuples(11);
  const std::string frame =
      SerializeColumnBatch(ColumnBatch::FromTuples(tuples));
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (const uint8_t delta : {uint8_t{1}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string corrupt = frame;
      corrupt[pos] = static_cast<char>(
          static_cast<uint8_t>(corrupt[pos]) ^ delta);
      auto result = DeserializeColumnBatch(corrupt);
      if (result.ok()) {
        // Whatever decoded must still be internally consistent.
        EXPECT_EQ(result->ToTuples().size(), result->num_rows());
      } else {
        EXPECT_TRUE(result.status().code() == StatusCode::kOutOfRange ||
                    result.status().code() == StatusCode::kInvalidArgument)
            << result.status().ToString();
      }
    }
  }
}

/// Offset of column 0's encoding tag: past the varint row and column
/// counts that open every frame.
size_t FirstTagOffset(const std::string& frame) {
  BinaryReader reader(frame);
  PRISMA_CHECK(reader.GetVarint().ok() && reader.GetVarint().ok());
  return frame.size() - reader.remaining();
}

StatusCode DecodeCode(const std::string& frame) {
  auto result = DeserializeColumnBatch(frame);
  return result.ok() ? StatusCode::kOk : result.status().code();
}

std::string FrameOf(const std::vector<std::vector<Value>>& rows) {
  std::vector<Tuple> tuples;
  for (const std::vector<Value>& row : rows) tuples.emplace_back(row);
  return SerializeColumnBatch(ColumnBatch::FromTuples(tuples));
}

TEST(ColumnWireTest, CorruptColumnEncodingTagFails) {
  // Column 0's tag follows the varint shape; 7 names no encoding, and the
  // bitmap flag on an all-NULL or boxed column is no valid tag either.
  std::string frame = FrameOf({{Value::Int(42)}});
  const size_t tag = FirstTagOffset(frame);
  ASSERT_LT(tag, frame.size());
  for (const uint8_t bad : {uint8_t{7}, uint8_t{0x08}, uint8_t{0x0e},
                            uint8_t{0x10}, uint8_t{0xff}}) {
    SCOPED_TRACE(StrFormat("tag=0x%02x", bad));
    frame[tag] = static_cast<char>(bad);
    EXPECT_EQ(DecodeCode(frame), StatusCode::kInvalidArgument);
  }
}

TEST(ColumnWireTest, GoldenFrame) {
  // Three rows: INT {5, 7, 6}, STRING {'x', NULL, 'x'}, and an all-NULL
  // column. A change here is a wire format change; make it on purpose.
  const std::string frame =
      FrameOf({{Value::Int(5), Value::String("x"), Value::Null()},
               {Value::Int(7), Value::Null(), Value::Null()},
               {Value::Int(6), Value::String("x"), Value::Null()}});
  std::string hex;
  for (const char c : frame) {
    hex += StrFormat("%02x ", static_cast<unsigned>(static_cast<uint8_t>(c)));
  }
  EXPECT_EQ(hex,
            // rows 3, cols 3
            "03 03 "
            // INT, no bitmap: zigzag base 5, width 2, deltas 0 2 1 packed
            "02 0a 02 18 "
            // STRING dictionary + bitmap (row 1 NULL): 1 entry "x", width 0
            "0d 02 01 01 78 "
            // all NULL: the tag is the whole column
            "00 ");
}

TEST(ColumnWireTest, BitWidthsZeroToSixtyFour) {
  // Every frame-of-reference width, at both ends of the int64 range and
  // around zero; width 64 spans INT64_MIN..INT64_MAX.
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t span =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (const int64_t lo : {INT64_MIN, int64_t{-3}, int64_t{0},
                             static_cast<int64_t>(INT64_MAX - span)}) {
      if (width == 64 && lo != INT64_MIN) continue;
      SCOPED_TRACE(StrFormat("width=%u lo=%lld", width,
                             static_cast<long long>(lo)));
      const int64_t hi = static_cast<int64_t>(static_cast<uint64_t>(lo) + span);
      Rng rng(width * 7 + 1);
      std::vector<std::vector<Value>> rows;
      for (int r = 0; r < 70; ++r) {  // Spans two 64-bit words and a tail.
        const uint64_t delta =
            span == 0 ? 0 : rng.Next() % (span == ~uint64_t{0} ? span : span + 1);
        const int64_t v =
            r % 3 == 0 ? (r % 2 == 0 ? lo : hi)
                       : static_cast<int64_t>(static_cast<uint64_t>(lo) + delta);
        rows.push_back({Value::Int(v)});
      }
      const std::string frame = FrameOf(rows);
      // tag, zigzag base, then the width byte.
      BinaryReader reader(frame);
      ASSERT_TRUE(reader.GetVarint().ok() && reader.GetVarint().ok());
      ASSERT_EQ(*reader.GetU8(), 2u);  // INT, no bitmap.
      ASSERT_TRUE(reader.GetVarint().ok());
      EXPECT_EQ(*reader.GetU8(), width);
      EXPECT_EQ(reader.remaining(), (70 * width + 7) / 8);
      auto decoded = DeserializeColumnBatch(frame);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      for (size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(decoded->GetValue(r, 0).int_value(), rows[r][0].int_value())
            << "row " << r;
      }
      EXPECT_EQ(SerializeColumnBatch(*decoded), frame);
    }
  }
}

TEST(ColumnWireTest, StringsTakeTheSmallerEncodingTiesGoPlain) {
  auto tag_of = [](const std::vector<const char*>& values) {
    std::vector<std::vector<Value>> rows;
    for (const char* v : values) rows.push_back({Value::String(v)});
    const std::string frame = FrameOf(rows);
    auto decoded = DeserializeColumnBatch(frame);
    EXPECT_TRUE(decoded.ok());
    if (decoded.ok()) {
      EXPECT_EQ(SerializeColumnBatch(*decoded), frame);
    }
    return static_cast<int>(frame[FirstTagOffset(frame)]);
  };
  constexpr int kPlain = 4;
  constexpr int kDict = 5;
  EXPECT_EQ(tag_of({"AUTOMOBILE", "AUTOMOBILE", "BUILDING"}), kDict);
  EXPECT_EQ(tag_of({"a", "b", "c"}), kPlain);
  EXPECT_EQ(tag_of({"only"}), kPlain);  // 5 bytes plain, 6 as a dictionary.
  // x x y: plain 3 x (1 + 1) = 6; dictionary 1 + 2 x 2 + 1 code byte = 6.
  EXPECT_EQ(tag_of({"x", "x", "y"}), kPlain);
  EXPECT_EQ(tag_of({"x", "x", "x"}), kDict);
}

TEST(ColumnWireTest, NullBitmapShipsOnlyWhenARowIsNull) {
  // 20 rows of INT 0: width 0, so the column is tag + base + width.
  std::vector<std::vector<Value>> rows(20, {Value::Int(0)});
  const size_t dense = FrameOf(rows).size();
  EXPECT_EQ(dense, 2u + 3u);
  rows[19] = {Value::Null()};
  const std::string sparse = FrameOf(rows);
  EXPECT_EQ(sparse.size(), dense + 3);  // ceil(20 / 8) bitmap bytes.
  EXPECT_EQ(sparse[FirstTagOffset(sparse)], 0x08 | 2);
  // All NULL: one tag byte, whatever the row count.
  const std::string none = FrameOf(
      std::vector<std::vector<Value>>(20, {Value::Null()}));
  EXPECT_EQ(none.size(), 3u);
  auto decoded = DeserializeColumnBatch(none);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_rows(), 20u);
  EXPECT_TRUE(decoded->GetValue(19, 0).is_null());
}

TEST(ColumnWireTest, MalformedPayloadsFailTyped) {
  auto frame = [](uint64_t rows, const std::function<void(BinaryWriter&)>&
                                     column) {
    BinaryWriter w;
    w.PutVarint(rows);
    w.PutVarint(1);
    column(w);
    return w.Take();
  };
  // Dictionary code 3 of a 3-entry dictionary (2-bit codes 0, 1, 3).
  EXPECT_EQ(DecodeCode(frame(3, [](BinaryWriter& w) {
              w.PutU8(5);
              w.PutVarint(3);
              for (const char* s : {"a", "b", "c"}) {
                w.PutVarint(1);
                w.PutU8(static_cast<uint8_t>(s[0]));
              }
              w.PutU8(0b110100);
            })),
            StatusCode::kInvalidArgument);
  // A 2-entry dictionary for one non-NULL row (row 0 is NULL).
  EXPECT_EQ(DecodeCode(frame(2, [](BinaryWriter& w) {
              w.PutU8(5 | 0x08);
              w.PutU8(0b01);
              w.PutVarint(2);
              for (const char* s : {"a", "b"}) {
                w.PutVarint(1);
                w.PutU8(static_cast<uint8_t>(s[0]));
              }
              w.PutU8(0);
            })),
            StatusCode::kInvalidArgument);
  // INT width 65.
  EXPECT_EQ(DecodeCode(frame(1, [](BinaryWriter& w) {
              w.PutU8(2);
              w.PutVarint(0);
              w.PutU8(65);
              for (int i = 0; i < 9; ++i) w.PutU8(0);
            })),
            StatusCode::kInvalidArgument);
  // Over-long varints: eleven bytes, and a tenth byte past bit 63.
  std::string eleven(10, static_cast<char>(0x80));
  eleven += '\x01';
  EXPECT_EQ(DecodeCode(eleven + FrameOf({{Value::Int(1)}}).substr(1)),
            StatusCode::kInvalidArgument);
  std::string overflow(9, static_cast<char>(0xff));
  overflow += '\x02';
  EXPECT_EQ(DecodeCode(overflow + '\x00'), StatusCode::kInvalidArgument);
  // A shape no frame can have: 2^30 rows of a width-0 column.
  EXPECT_EQ(DecodeCode(frame(uint64_t{1} << 30, [](BinaryWriter& w) {
              w.PutU8(0);
            })),
            StatusCode::kInvalidArgument);
}

TEST(ColumnWireTest, EmptyAndRaggedBatches) {
  // Zero rows.
  const ColumnBatch empty = ColumnBatch::FromTuples(std::vector<Tuple>{});
  const std::string empty_frame = SerializeColumnBatch(empty);
  auto empty_decoded = DeserializeColumnBatch(empty_frame);
  ASSERT_TRUE(empty_decoded.ok());
  EXPECT_EQ(empty_decoded->num_rows(), 0u);
  EXPECT_EQ(SerializeColumnBatch(*empty_decoded), empty_frame);

  // Chunking leaves a ragged final batch; each chunk round-trips.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 21; ++i) {
    tuples.emplace_back(std::vector<Value>{
        Value::Int(i), i % 3 == 0 ? Value::Null() : Value::String("x")});
  }
  const std::vector<ColumnBatch> chunks = ColumnBatch::Chunk(tuples, 8);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks.back().num_rows(), 5u);
  std::vector<Tuple> reassembled;
  for (const ColumnBatch& chunk : chunks) {
    auto decoded = DeserializeColumnBatch(SerializeColumnBatch(chunk));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    for (Tuple& t : decoded->ToTuples()) reassembled.push_back(std::move(t));
  }
  EXPECT_EQ(Render(reassembled), Render(tuples));
}

// ------------------------------------------- Frames on a running machine

bool TypedWireError(const Status& status) {
  return status.code() == StatusCode::kOutOfRange ||
         status.code() == StatusCode::kInvalidArgument;
}

/// A 4-PE machine holding t(id, s) in 4 fragments: 200 rows, so the
/// result reaches the client as a train of four frames.
class FrameFuzzTest : public ::testing::Test {
 protected:
  static constexpr int kTableRows = 200;

  FrameFuzzTest() : db_(Config()) {
    Must("CREATE TABLE t (id INT, s STRING) "
         "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS");
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < kTableRows; ++i) {
      if (i > 0) sql += ", ";
      const std::string s =
          i % 5 == 0 ? std::string("NULL") : StrFormat("'s%d'", i % 7);
      sql += StrFormat("(%d, %s)", i, s.c_str());
    }
    Must(sql);
    reference_ = Answer();
  }

  static core::MachineConfig Config() {
    core::MachineConfig config;
    config.pes = 4;
    return config;
  }

  core::QueryResult Must(const std::string& sql) {
    auto result = db_.Execute(sql);
    PRISMA_CHECK(result.ok()) << sql << ": " << result.status().ToString();
    return std::move(result).value();
  }

  /// The query's rows, sorted: gathers land in arrival order.
  std::vector<std::string> Answer() {
    std::vector<std::string> rows;
    for (const Tuple& t : Must(kQuery).tuples) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Runs the query with the `nth` (0-based) mail of `kind` that carries
  /// rows rewritten by `corrupt`; returns the statement's outcome.
  template <typename Msg>
  StatusOr<core::QueryResult> RunCorrupted(
      const char* kind, int nth,
      const std::function<std::string(std::string)>& corrupt) {
    int seen = 0;
    db_.runtime().SetMailTap([&](pool::Mail& mail) {
      if (mail.kind != kind) return;
      auto msg = std::any_cast<std::shared_ptr<Msg>>(mail.body);
      if (msg->rows == nullptr || seen++ != nth) return;
      auto copy = std::make_shared<Msg>(*msg);
      copy->rows = std::make_shared<const std::string>(corrupt(*msg->rows));
      mail.body = std::move(copy);
    });
    auto result = db_.Execute(kQuery);
    db_.runtime().SetMailTap(nullptr);
    EXPECT_GT(seen, nth) << "no " << kind << " frame was corrupted";
    return result;
  }

  /// Every prefix length of the nth frame, and a bad encoding tag, fail
  /// the statement with a typed error; the machine then answers in full.
  template <typename Msg>
  void FuzzFrames(const char* kind, int nth) {
    // Untouched, the frame passes; its length bounds the sweep.
    size_t frame_size = 0;
    auto untouched = RunCorrupted<Msg>(kind, nth, [&](std::string frame) {
      frame_size = frame.size();
      return frame;
    });
    ASSERT_TRUE(untouched.ok()) << untouched.status().ToString();
    ASSERT_GT(frame_size, 2u);
    for (size_t len = 0; len < frame_size; len += 1 + len / 16) {
      SCOPED_TRACE(StrFormat("%s #%d prefix_len=%zu of %zu", kind, nth, len,
                             frame_size));
      auto result = RunCorrupted<Msg>(
          kind, nth, [len](std::string frame) { return frame.substr(0, len); });
      ASSERT_FALSE(result.ok()) << result->tuples.size() << " rows";
      EXPECT_TRUE(TypedWireError(result.status()))
          << result.status().ToString();
    }
    // Tag 7 names no column encoding.
    auto result = RunCorrupted<Msg>(kind, nth, [](std::string frame) {
      frame[FirstTagOffset(frame)] = 7;
      return frame;
    });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(Answer(), reference_);
  }

  static constexpr char kQuery[] = "SELECT id, s FROM t";
  core::PrismaDb db_;
  std::vector<std::string> reference_;
};

TEST_F(FrameFuzzTest, CorruptGatherFrameFailsTheStatement) {
  FuzzFrames<gdh::ExecPlanReply>(gdh::kMailExecPlanReply, 0);
  FuzzFrames<gdh::ExecPlanReply>(gdh::kMailExecPlanReply, 3);
}

TEST_F(FrameFuzzTest, CorruptClientFrameFailsTheStatement) {
  // The head frame (it carries the schema) and one in mid-train.
  FuzzFrames<gdh::ClientReply>(gdh::kMailClientReply, 0);
  FuzzFrames<gdh::ClientReply>(gdh::kMailClientReply, 2);
}

}  // namespace
}  // namespace prisma
