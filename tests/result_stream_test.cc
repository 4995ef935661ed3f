// Result delivery (DESIGN.md §15.5): results of more than one exchange
// batch reach the client as a train of client_reply frames, and a bare
// distributed sort frames the merge of its fragments' sorted runs to the
// client as the runs arrive. These tests pin the answers (byte-identical
// to a single-fragment reference, wherever the
// coordinator runs, scattered in parallel or one fragment at a time), the
// frame arithmetic (max(1, ceil(rows / 64)) frames per result), the
// pipelining (the train starts before the last run is in, wherever runs
// outlast one credit window), Top-N (a
// LIMIT n ships at most n rows per fragment) and the forwarding
// precondition (plans under LIMIT, and gather-baseline sorts, are not
// forwarded).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"
#include "sim/simulator.h"

namespace prisma::core {
namespace {

constexpr int kRows = 1200;
constexpr uint64_t kFrameRows = 64;  // MachineConfig's exchange_batch_rows.

constexpr const char* kSortSql =
    "SELECT id, k, v FROM big ORDER BY k DESC, id";

QueryResult MustExecute(PrismaDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << ": " << result.status().ToString();
  return std::move(result).value();
}

/// big(id, k, v): `rows` rows (a multiple of 200), k drawn from a small
/// range so the sort key has many ties (the trailing id pins their order).
void LoadBig(PrismaDb& db, int fragments, int rows = kRows) {
  MustExecute(db, fragments > 1
                      ? StrFormat("CREATE TABLE big (id INT, k INT, v INT) "
                                  "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
                                  fragments)
                      : std::string("CREATE TABLE big (id INT, k INT, v INT)"));
  Rng rng(0x5eed5);
  for (int i = 0; i < rows; i += 200) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int j = i; j < i + 200; ++j) {
      if (j > i) sql += ", ";
      sql += StrFormat("(%d, %d, %d)", j,
                       static_cast<int>(rng.UniformInt(0, 40)),
                       static_cast<int>(rng.UniformInt(-500, 500)));
    }
    MustExecute(db, sql);
  }
}

std::string Rendered(const QueryResult& result) {
  std::string out;
  for (const Tuple& t : result.tuples) {
    out += t.ToString();
    out += '\n';
  }
  return out;
}

uint64_t ClientFrames(PrismaDb& db) {
  return db.metrics().CounterValue("pool.mail_sent",
                                   {{"kind", "client_reply"}});
}

uint64_t Streamed(PrismaDb& db) {
  return db.metrics().CounterValue("query.reply_streamed");
}

uint64_t ExpectedFrames(size_t rows) {
  return rows == 0 ? 1 : (rows + kFrameRows - 1) / kFrameRows;
}

/// Arrival times, from a mail tap, of the first client frame and of the
/// last final (eos) tuple batch: the only batches of a lone sort
/// statement are its runs streaming to the coordinator.
struct TrainTiming {
  sim::SimTime first_frame = -1;
  sim::SimTime last_run_end = -1;
};

void TapTrain(PrismaDb& db, TrainTiming* timing) {
  db.runtime().SetMailTap([&db, timing](pool::Mail& mail) {
    const sim::SimTime now = db.simulator().now();
    if (mail.kind == gdh::kMailClientReply && timing->first_frame < 0) {
      timing->first_frame = now;
    } else if (mail.kind == gdh::kMailTupleBatch &&
               std::any_cast<std::shared_ptr<gdh::TupleBatchMsg>>(mail.body)
                   ->eos) {
      timing->last_run_end = now;
    }
  });
}

/// Whether each fragment's run is longer than one credit window. A
/// shorter run is wholly in flight at once: its last batch is already on
/// the wire when the merge's first handler starts, and that handler's
/// frames leave only when its charged work completes (run to
/// completion), so the train cannot be seen to start before the last eos.
bool RunsOutlastTheWindow(const MachineConfig& config, int rows,
                          int fragments) {
  return fragments > 1 &&
         static_cast<uint64_t>(rows / fragments) >
             config.exchange_credit_window * kFrameRows;
}

/// Pipelining: the first frame leaves the coordinator before the last run
/// has finished arriving, so the merge never waits for every run. (On the
/// client's PE a frame arrives as it leaves; the tap sees arrivals.)
void ExpectPipelined(const TrainTiming& timing) {
  EXPECT_GE(timing.first_frame, 0);
  EXPECT_LT(timing.first_frame, timing.last_run_end);
}

std::string ReferenceSort() {
  MachineConfig config;
  config.pes = 2;
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/1);
  return Rendered(MustExecute(db, kSortSql));
}

TEST(ResultStreamTest, StreamedSortMatchesTheSingleFragmentReference) {
  const std::string reference = ReferenceSort();
  ASSERT_FALSE(reference.empty());
  for (const int fragments : {1, 3, 7}) {
    // The coordinator on the client's PE, and on the PE farthest from it
    // (slices land in a different order, frames cross 4 hops).
    for (const int coordinator : {0, 7}) {
      SCOPED_TRACE(StrFormat("fragments=%d coordinator=PE %d", fragments,
                             coordinator));
      MachineConfig config;
      config.pes = 8;
      config.coordinator_pes = {coordinator};
      PrismaDb db(config);
      LoadBig(db, fragments);
      const uint64_t frames0 = ClientFrames(db);
      const uint64_t streamed0 = Streamed(db);
      TrainTiming timing;
      TapTrain(db, &timing);
      const QueryResult result = MustExecute(db, kSortSql);
      db.runtime().SetMailTap(nullptr);
      EXPECT_EQ(Rendered(result), reference);
      ASSERT_EQ(result.tuples.size(), static_cast<size_t>(kRows));
      EXPECT_EQ(ClientFrames(db) - frames0, ExpectedFrames(kRows));
      // Only a multi-fragment table has a distributed sort to forward.
      EXPECT_EQ(Streamed(db) - streamed0, fragments > 1 ? 1u : 0u);
      if (RunsOutlastTheWindow(config, kRows, fragments) &&
          coordinator == 0) {
        ExpectPipelined(timing);
      }
    }
  }
}

TEST(ResultStreamTest, SevenLongRunsPipeline) {
  // Seven runs of 400 rows (seven 64-row batches, the credit window is
  // four): producers wait on the merge's acks, and the train starts
  // before the last run ends.
  constexpr int kLongRows = 7 * 400;
  MachineConfig config;
  config.pes = 8;
  ASSERT_TRUE(RunsOutlastTheWindow(config, kLongRows, 7));
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7, kLongRows);
  TrainTiming timing;
  TapTrain(db, &timing);
  const QueryResult result = MustExecute(db, kSortSql);
  db.runtime().SetMailTap(nullptr);
  ASSERT_EQ(result.tuples.size(), static_cast<size_t>(kLongRows));
  ExpectPipelined(timing);
}

TEST(ResultStreamTest, SequentialScatterMergesTheSameAnswer) {
  // One fragment at a time: the coordinator acks every run batch on
  // receipt, so a producer never waits on credit for the merge, and the
  // next fragment starts once the previous run is in.
  MachineConfig config;
  config.pes = 8;
  config.rules.parallel_fragments = false;
  config.coordinator_pes = {7};
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7);
  const uint64_t frames0 = ClientFrames(db);
  const QueryResult result = MustExecute(db, kSortSql);
  EXPECT_EQ(Rendered(result), ReferenceSort());
  EXPECT_EQ(ClientFrames(db) - frames0, ExpectedFrames(kRows));
  EXPECT_EQ(Streamed(db), 1u);
}

TEST(ResultStreamTest, TopNShipsAtMostNRowsPerFragment) {
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7);
  const std::string reference = ReferenceSort();
  for (const int n : {1, 10, 100}) {
    SCOPED_TRACE(StrFormat("limit=%d", n));
    const std::string sql =
        StrFormat("SELECT id, k, v FROM big ORDER BY k DESC, id LIMIT %d", n);
    const uint64_t gathered0 =
        db.metrics().CounterTotal("query.tuples_gathered");
    const QueryResult top = MustExecute(db, sql);
    // The reference's first n rows.
    size_t at = 0;
    for (int i = 0; i < n; ++i) at = reference.find('\n', at) + 1;
    EXPECT_EQ(Rendered(top), reference.substr(0, at));
    EXPECT_LE(db.metrics().CounterTotal("query.tuples_gathered") - gathered0,
              static_cast<uint64_t>(7 * n));
  }
}

TEST(ResultStreamTest, FrameCountIsCeilRowsOverBatchAndSmallResultsStayOne) {
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7);
  // Row counts around the frame boundaries, all on the forwarding path.
  for (const int n : {0, 1, 64, 65, 128, 129, 700}) {
    SCOPED_TRACE(StrFormat("rows=%d", n));
    const uint64_t frames0 = ClientFrames(db);
    const uint64_t streamed0 = Streamed(db);
    const QueryResult result = MustExecute(
        db, StrFormat("SELECT id, k FROM big WHERE id < %d "
                      "ORDER BY k DESC, id",
                      n));
    ASSERT_EQ(result.tuples.size(), static_cast<size_t>(n));
    EXPECT_EQ(ClientFrames(db) - frames0, ExpectedFrames(n));
    EXPECT_EQ(Streamed(db) - streamed0, 1u);
  }
  // A DML reply is one frame too.
  const uint64_t frames0 = ClientFrames(db);
  MustExecute(db, "UPDATE big SET v = 0 WHERE id = 3");
  EXPECT_EQ(ClientFrames(db) - frames0, 1u);
}

TEST(ResultStreamTest, LimitAndGatherBaselineSortsAreNotForwarded) {
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7);
  // A LIMIT over the distributed sort: the global plan Limit(Scan) runs
  // over the merged runs, so nothing is framed before the cut.
  const uint64_t frames0 = ClientFrames(db);
  const QueryResult top =
      MustExecute(db, "SELECT id, k FROM big ORDER BY k DESC, id LIMIT 10");
  EXPECT_EQ(top.tuples.size(), 10u);
  EXPECT_EQ(ClientFrames(db) - frames0, 1u);
  EXPECT_EQ(Streamed(db), 0u);

  // EXPLAIN ANALYZE answers with the profile, not the rows: not
  // forwarded.
  MustExecute(db, std::string("EXPLAIN ANALYZE ") + kSortSql);
  EXPECT_EQ(Streamed(db), 0u);

  // Gather baseline: no OLAP part, so no forwarding — but a result this
  // large still travels as a frame train.
  MachineConfig base_config;
  base_config.pes = 8;
  base_config.rules.distributed_olap = false;
  PrismaDb base(base_config);
  LoadBig(base, /*fragments=*/7);
  const uint64_t base_frames0 = ClientFrames(base);
  const QueryResult sorted = MustExecute(base, kSortSql);
  EXPECT_EQ(Rendered(sorted), ReferenceSort());
  EXPECT_EQ(ClientFrames(base) - base_frames0, ExpectedFrames(kRows));
  EXPECT_EQ(Streamed(base), 0u);
}

TEST(ResultStreamTest, ClientReplyBitsAreTheFramesByteLengths) {
  // Every client_reply is one column frame behind a control header: the
  // pool.mail_bits the train is charged equals its frames' real sizes,
  // measured on the frames the client receives.
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  LoadBig(db, /*fragments=*/7);
  const obs::Labels kind = {{"kind", gdh::kMailClientReply}};
  const uint64_t bits0 = db.metrics().CounterValue("pool.mail_bits", kind);
  const uint64_t frames0 = ClientFrames(db);
  uint64_t frame_bits = 0;
  uint64_t frames = 0;
  db.runtime().SetMailTap([&](pool::Mail& mail) {
    if (mail.kind != gdh::kMailClientReply) return;
    const auto& reply =
        *std::any_cast<std::shared_ptr<gdh::ClientReply>>(mail.body);
    ASSERT_NE(reply.rows, nullptr);
    frame_bits += gdh::kControlBits + 8 * reply.rows->size();
    ++frames;
  });
  const QueryResult result = MustExecute(db, kSortSql);
  db.runtime().SetMailTap(nullptr);
  EXPECT_EQ(Rendered(result), ReferenceSort());
  EXPECT_EQ(frames, ExpectedFrames(kRows));
  EXPECT_EQ(ClientFrames(db) - frames0, frames);
  EXPECT_EQ(db.metrics().CounterValue("pool.mail_bits", kind) - bits0,
            frame_bits);
}

TEST(ResultStreamTest, FrameTrainsTakeTheHopDistanceOffTheCriticalPath) {
  // Same query, coordinator pinned 1 hop from the client vs 4 hops away
  // on the 2x4 mesh: a single reply message pays 3 more full
  // store-and-forward serializations of the result; pipelined frames keep
  // the spread below one. (A coordinator on the client's PE sends no
  // train across a link and merges over both of PE 0's inbound links, so
  // comparing it would measure link count, not hop distance.)
  double ms[3] = {0, 0, 0};
  int64_t result_bits = 0;
  const std::vector<int> coordinators[3] = {{1}, {7}, {}};
  for (int i = 0; i < 3; ++i) {
    MachineConfig config;
    config.pes = 8;
    config.coordinator_pes = coordinators[i];
    PrismaDb db(config);
    LoadBig(db, /*fragments=*/7);
    const QueryResult result = MustExecute(db, kSortSql);
    ms[i] = static_cast<double>(result.response_time_ns) / 1e6;
    gdh::ClientReply whole;
    whole.rows = gdh::EncodeRows(result.tuples);
    result_bits = whole.WireBits();
  }
  const double one_serialization_ms =
      static_cast<double>(result_bits) * 1e3 /
      static_cast<double>(MachineConfig().link.bandwidth_bps);
  EXPECT_LT(ms[1] - ms[0], one_serialization_ms)
      << "near " << ms[0] << " ms, far " << ms[1] << " ms";
  // The default coordinator runs on the client's PE, where the result
  // must end up: strictly faster than the 1-hop one.
  EXPECT_LT(ms[2], ms[0]) << "client's PE " << ms[2] << " ms, PE 1 "
                          << ms[0] << " ms";
}

}  // namespace
}  // namespace prisma::core
