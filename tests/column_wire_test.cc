// Round-trip fuzz harness for the column-encoded wire format every row
// set crosses the interconnect in (DESIGN.md §12.2). For seeded random
// batches over every Value type and NULL pattern — including ragged
// batches whose row count is not a multiple of the bitmap word — the
// format must satisfy:
//
//   1. decode(encode(batch)) reproduces the original tuples exactly;
//   2. encode(decode(encode(batch))) is byte-stable (canonical encoding);
//   3. every truncation of a valid frame, trailing garbage, and corrupted
//      tag bytes fail with a typed Status — never a crash;
//   4. on a running machine, a truncated or tag-corrupted fragment gather
//      (exec_plan_reply) or client_reply frame fails its statement with
//      that typed Status — never a crash, never a truncated result.

#include <gtest/gtest.h>

#include <algorithm>
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
      // Mix magnitudes so frame-of-reference picks every delta width
      // (0, 1, 2, 4 and 8 bytes) across seeds.
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

TEST(ColumnWireTest, CorruptColumnEncodingTagFails) {
  // Frame layout starts: u32 rows, u32 cols, then column 0's u8 enc tag
  // (0 = typed, 1 = boxed). Any other tag value is a typed error.
  std::vector<Tuple> tuples;
  tuples.emplace_back(std::vector<Value>{Value::Int(42)});
  std::string frame = SerializeColumnBatch(ColumnBatch::FromTuples(tuples));
  ASSERT_GT(frame.size(), 8u);
  frame[8] = 7;  // Invalid enc tag.
  auto result = DeserializeColumnBatch(frame);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
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
    ASSERT_GT(frame_size, 8u);
    for (size_t len = 0; len < frame_size; len += 1 + len / 16) {
      SCOPED_TRACE(StrFormat("%s #%d prefix_len=%zu of %zu", kind, nth, len,
                             frame_size));
      auto result = RunCorrupted<Msg>(
          kind, nth, [len](std::string frame) { return frame.substr(0, len); });
      ASSERT_FALSE(result.ok()) << result->tuples.size() << " rows";
      EXPECT_TRUE(TypedWireError(result.status()))
          << result.status().ToString();
    }
    // Byte 8 is column 0's encoding tag (0 = typed, 1 = boxed).
    auto result = RunCorrupted<Msg>(kind, nth, [](std::string frame) {
      frame[8] = 7;
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
