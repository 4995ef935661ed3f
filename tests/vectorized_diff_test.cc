// Interpreted-vs-compiled differential harness over the one batch spine
// (DESIGN.md §12.3): every seeded workload runs twice on machines that
// are identical except for MachineConfig::expr_mode, and the two runs
// must produce byte-identical answers (canonicalized by sort where the
// query imposes no order), identical shipped-batch counts and wire bits
// on the exchange layer, and identical fixpoint round/delta/pairs
// statistics. Both runs ship the same column frames, which must be
// smaller than the boxed-row encoding of the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"
#include "soak_repro.h"

namespace prisma::core {
namespace {

/// One seeded dataset: a "fact"-shaped table and a "dim"-shaped table
/// whose sizes, key skew, NULL density and string payloads vary by seed.
struct Dataset {
  struct FactRow {
    int k;        // Join key (kNullKey = NULL).
    int v;        // Numeric payload.
    std::string s;
  };
  struct DimRow {
    int k;
    std::string label;
  };
  std::vector<FactRow> fact;
  std::vector<DimRow> dim;
};
constexpr int kNullKey = -1;

Dataset RandomDataset(uint64_t seed) {
  Rng rng(seed * 0x9e3779b9u + 7);
  Dataset data;
  const int keys = static_cast<int>(rng.UniformInt(3, 12));
  const int fact_rows = static_cast<int>(rng.UniformInt(20, 120));
  for (int i = 0; i < fact_rows; ++i) {
    Dataset::FactRow row;
    row.k = rng.Uniform(8) == 0 ? kNullKey
                                : static_cast<int>(rng.Uniform(keys));
    row.v = static_cast<int>(rng.UniformInt(0, 1000));
    // Repetitive strings: the column frame should compress relative to
    // the per-tuple row encoding mostly via bit-packed nulls and
    // frame-of-reference ints, but strings exercise the raw path.
    row.s = "tag" + std::to_string(row.v % 7);
    data.fact.push_back(std::move(row));
  }
  const int dim_rows = static_cast<int>(rng.UniformInt(2, 6));
  for (int i = 0; i < dim_rows; ++i) {
    data.dim.push_back({i, "label" + std::to_string(i)});
  }
  return data;
}

std::string FactInsert(const Dataset& data) {
  std::string sql = "INSERT INTO fact VALUES ";
  for (size_t i = 0; i < data.fact.size(); ++i) {
    const Dataset::FactRow& row = data.fact[i];
    if (i > 0) sql += ", ";
    sql += '(';
    sql += row.k == kNullKey ? std::string("NULL") : std::to_string(row.k);
    sql += ", " + std::to_string(row.v) + ", '" + row.s + "')";
  }
  return sql;
}

std::string DimInsert(const Dataset& data) {
  std::string sql = "INSERT INTO dim VALUES ";
  for (size_t i = 0; i < data.dim.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += '(' + std::to_string(data.dim[i].k) + ", '" +
           data.dim[i].label + "')";
  }
  return sql;
}

/// Canonical rendering: per-tuple text lines, sorted unless the query
/// already imposed an order. Byte-identical canonical forms == identical
/// result multisets.
std::string Canonical(const std::vector<Tuple>& tuples, bool ordered) {
  std::vector<std::string> lines;
  lines.reserve(tuples.size());
  for (const Tuple& t : tuples) lines.push_back(t.ToString());
  if (!ordered) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// How the two fragmented tables are laid out, which forces the exchange
/// strategy of the fact⋈dim join (TryExchangeJoin costs candidates by
/// table cardinality and fragmentation-key alignment).
enum class Layout {
  /// dim hash-fragmented on its join key (and padded to fact's size so
  /// broadcasting it is not cheaper), fact on its payload column: only
  /// the fact side can shuffle onto dim's partitions -> kShuffleLeft.
  kShuffleOne,
  /// Both fragmented on payload columns; tiny dim, big fact ->
  /// kBroadcastRight (dim replicated) at any fragment count.
  kBroadcast,
  /// Both fragmented on payload columns with comparable sizes: at 3+
  /// fragments co-partitioning both sides is cheapest -> kShuffleBoth.
  kShuffleBoth,
};

const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kShuffleOne: return "shuffle-one";
    case Layout::kBroadcast: return "broadcast";
    case Layout::kShuffleBoth: return "shuffle-both";
  }
  return "?";
}

struct RunStats {
  std::vector<std::string> results;  // Canonical form per query.
  uint64_t exchange_batches = 0;
  uint64_t exchange_wire_bits = 0;
  int64_t fixpoint_rounds = 0;
  int64_t fixpoint_delta = 0;
  int64_t fixpoint_pairs = 0;
  int64_t fixpoint_wire_bits = 0;
  /// Every tuple_batch delivered (exchange and fixpoint streams): its wire
  /// bits, and what the deleted row encoding charged for the same rows.
  int64_t batch_bits = 0;
  int64_t batch_row_model_bits = 0;
};

/// Wire bits the row encoding (deleted in favour of column frames)
/// charged for one message of `rows`: a 16-byte frame plus each tuple's
/// in-memory byte size, behind the control header.
int64_t RowModelBits(const std::vector<Tuple>& rows) {
  int64_t bytes = 16;
  for (const Tuple& t : rows) bytes += static_cast<int64_t>(t.ByteSize());
  return gdh::kControlBits + bytes * 8;
}

QueryResult MustExecute(PrismaDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << ": " << result.status().ToString();
  return std::move(result).value();
}

/// Builds one machine, loads the seeded dataset under `layout`, runs the
/// whole workload and collects canonical results plus wire statistics.
RunStats RunWorkload(uint64_t seed, int fragments, Layout layout,
                     exec::ExprMode mode) {
  const Dataset data = RandomDataset(seed);
  MachineConfig config;
  config.pes = 8;
  config.expr_mode = mode;
  PrismaDb db(config);

  // fact(k INT, v INT, s STRING); dim(k INT, label STRING). fact always
  // fragments on its payload column so the join key never lines up.
  const char* dim_frag = layout == Layout::kShuffleOne ? "k" : "label";
  MustExecute(db, StrFormat("CREATE TABLE fact (k INT, v INT, s STRING) "
                            "FRAGMENTED BY HASH(v) INTO %d FRAGMENTS",
                            fragments));
  MustExecute(db, StrFormat("CREATE TABLE dim (k INT, label STRING) "
                            "FRAGMENTED BY HASH(%s) INTO %d FRAGMENTS",
                            dim_frag, fragments));
  // Shuffle layouts want comparable sizes so shuffling beats
  // broadcasting the dimension: pad dim up to the fact size with keys
  // that never join (>= 1000, fact keys stay below 12).
  if (layout != Layout::kBroadcast) {
    std::string pad = "INSERT INTO dim VALUES ";
    for (size_t i = 0; i < data.fact.size(); ++i) {
      if (i > 0) pad += ", ";
      pad += '(' + std::to_string(1000 + static_cast<int>(i)) + ", 'pad')";
    }
    MustExecute(db, pad);
  }
  MustExecute(db, FactInsert(data));
  MustExecute(db, DimInsert(data));

  RunStats stats;
  db.runtime().SetMailTap([&stats](pool::Mail& mail) {
    if (mail.kind != gdh::kMailTupleBatch) return;
    const auto& msg =
        *std::any_cast<std::shared_ptr<gdh::TupleBatchMsg>>(mail.body);
    auto rows = gdh::TupleBatchRows(msg.rows);
    PRISMA_CHECK_OK(rows.status());
    stats.batch_bits += mail.size_bits;
    stats.batch_row_model_bits += RowModelBits(*rows);
  });
  const struct {
    const char* sql;
    bool ordered;
  } kQueries[] = {
      {"SELECT * FROM fact", false},
      {"SELECT k, v FROM fact WHERE v < 500", false},
      {"SELECT s, COUNT(*) AS n, SUM(v) AS total, MIN(v), MAX(v) "
       "FROM fact GROUP BY s ORDER BY s", true},
      {"SELECT f.v, d.label FROM fact f JOIN dim d ON f.k = d.k", false},
      {"SELECT d.label AS label, COUNT(*) AS n FROM fact f JOIN dim d "
       "ON f.k = d.k GROUP BY d.label ORDER BY label", true},
  };
  for (const auto& q : kQueries) {
    stats.results.push_back(Canonical(MustExecute(db, q.sql).tuples,
                                      q.ordered));
  }

  // Distributed fixpoint over a fragmented edge relation derived from the
  // same seed (fact keys as endpoints).
  MustExecute(db, StrFormat("CREATE TABLE edge (src INT, dst INT) "
                            "FRAGMENTED BY HASH(src) INTO %d FRAGMENTS",
                            fragments));
  std::string edges = "INSERT INTO edge VALUES ";
  const size_t edge_count = std::min<size_t>(data.fact.size(), 24);
  for (size_t i = 0; i < edge_count; ++i) {
    if (i > 0) edges += ", ";
    const Dataset::FactRow& row = data.fact[i];
    edges += '(';
    edges += row.k == kNullKey ? std::string("NULL") : std::to_string(row.k);
    edges += ", " + std::to_string(row.v % 9) + ')';
  }
  MustExecute(db, edges);
  auto closure = db.ExecutePrismalog(
      "p(X, Y) :- edge(X, Y).\n"
      "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
      "? p(X, Y).");
  PRISMA_CHECK(closure.ok()) << closure.status().ToString();
  stats.results.push_back(Canonical(closure->tuples, /*ordered=*/true));

  // Exchange-producer counters are labeled per fragment; sum them.
  for (const char* table : {"fact", "dim", "edge"}) {
    for (int f = 0; f < fragments; ++f) {
      const obs::Labels labels = {
          {"fragment", std::string(table) + "#" + std::to_string(f)}};
      stats.exchange_batches +=
          db.metrics().CounterValue("exchange.batches_sent", labels);
      stats.exchange_wire_bits +=
          db.metrics().CounterValue("exchange.wire_bits", labels);
    }
  }
  stats.fixpoint_rounds = db.metrics().GaugeValue("fixpoint.last_rounds");
  stats.fixpoint_delta =
      db.metrics().GaugeValue("fixpoint.last_delta_tuples");
  stats.fixpoint_pairs =
      db.metrics().GaugeValue("fixpoint.last_pairs_derived");
  stats.fixpoint_wire_bits =
      db.metrics().GaugeValue("fixpoint.last_wire_bits");
  db.runtime().SetMailTap(nullptr);
  return stats;
}

/// Core differential check for one (seed, fragments, layout) cell.
void CheckCell(uint64_t seed, int fragments, Layout layout) {
  SCOPED_TRACE(StrFormat("seed=%llu fragments=%d layout=%s",
                         static_cast<unsigned long long>(seed), fragments,
                         LayoutName(layout)));
  const RunStats compiled = RunWorkload(seed, fragments, layout,
                                        exec::ExprMode::kCompiled);
  const RunStats interpreted = RunWorkload(seed, fragments, layout,
                                           exec::ExprMode::kInterpreted);
  ASSERT_EQ(compiled.results.size(), interpreted.results.size());
  for (size_t q = 0; q < compiled.results.size(); ++q) {
    SCOPED_TRACE(StrFormat("query=%zu", q));
    EXPECT_EQ(compiled.results[q], interpreted.results[q]);
  }
  // Identical partitions and framing: the same number of batches ships in
  // both modes.
  EXPECT_EQ(compiled.exchange_batches, interpreted.exchange_batches);
  // The fixpoint's distributed statistics are mode-invariant.
  EXPECT_EQ(compiled.fixpoint_rounds, interpreted.fixpoint_rounds);
  EXPECT_EQ(compiled.fixpoint_delta, interpreted.fixpoint_delta);
  EXPECT_EQ(compiled.fixpoint_pairs, interpreted.fixpoint_pairs);
  // One wire format: both modes ship the same column frames...
  EXPECT_EQ(compiled.exchange_wire_bits, interpreted.exchange_wire_bits);
  EXPECT_EQ(compiled.fixpoint_wire_bits, interpreted.fixpoint_wire_bits);
  EXPECT_EQ(compiled.batch_bits, interpreted.batch_bits);
  // ...measurably smaller than the row encoding of the same rows whenever
  // anything shipped (ints are frame-of-reference packed, nulls are
  // bitmapped; the row encoding spends 16 bytes of framing per tuple).
  if (compiled.batch_bits > 0) {
    EXPECT_LT(compiled.batch_bits, compiled.batch_row_model_bits);
  }
}

constexpr int kFragmentCounts[] = {1, 3, 7};

TEST(VectorizedDiffTest, ShuffleOneLayoutAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(1, 17)) {
    PRISMA_SEED_REPRO("VectorizedDiffTest.ShuffleOneLayoutAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckCell(seed, fragments, Layout::kShuffleOne);
    }
  }
}

TEST(VectorizedDiffTest, BroadcastLayoutAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(18, 34)) {
    PRISMA_SEED_REPRO("VectorizedDiffTest.BroadcastLayoutAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckCell(seed, fragments, Layout::kBroadcast);
    }
  }
}

TEST(VectorizedDiffTest, ShuffleBothLayoutAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(35, 50)) {
    PRISMA_SEED_REPRO("VectorizedDiffTest.ShuffleBothLayoutAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckCell(seed, fragments, Layout::kShuffleBoth);
    }
  }
}

// ----------------------------------------------------- Strategy coverage

/// The three layouts must actually exercise three distinct exchange
/// strategies (otherwise the grid above silently degenerates); EXPLAIN
/// names the chosen strategy.
TEST(VectorizedDiffTest, LayoutsForceDistinctJoinStrategies) {
  const struct {
    Layout layout;
    const char* expect;
  } kCases[] = {
      {Layout::kShuffleOne, "shuffle-left"},
      {Layout::kBroadcast, "broadcast-right"},
      {Layout::kShuffleBoth, "shuffle-both"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(LayoutName(c.layout));
    const Dataset data = RandomDataset(3);
    MachineConfig config;
    config.pes = 8;
    PrismaDb db(config);
    const char* dim_frag = c.layout == Layout::kShuffleOne ? "k" : "label";
    MustExecute(db, StrFormat("CREATE TABLE fact (k INT, v INT, s STRING) "
                              "FRAGMENTED BY HASH(v) INTO 3 FRAGMENTS"));
    MustExecute(db, StrFormat("CREATE TABLE dim (k INT, label STRING) "
                              "FRAGMENTED BY HASH(%s) INTO 3 FRAGMENTS",
                              dim_frag));
    if (c.layout != Layout::kBroadcast) {
      std::string pad = "INSERT INTO dim VALUES ";
      for (size_t i = 0; i < data.fact.size(); ++i) {
        if (i > 0) pad += ", ";
        pad += '(' + std::to_string(1000 + static_cast<int>(i)) + ", 'pad')";
      }
      MustExecute(db, pad);
    }
    MustExecute(db, FactInsert(data));
    MustExecute(db, DimInsert(data));
    const QueryResult plan = MustExecute(
        db, "EXPLAIN SELECT f.v, d.label FROM fact f JOIN dim d "
            "ON f.k = d.k");
    std::string text;
    for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
    EXPECT_NE(text.find(c.expect), std::string::npos) << text;
  }
}

// ------------------------------------------------------ EXPLAIN ANALYZE

/// EXPLAIN ANALYZE reports per-operator batch counts alongside rows.
TEST(VectorizedDiffTest, ExplainAnalyzeReportsBatches) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  MustExecute(db, "CREATE TABLE t (x INT, y INT) "
                  "FRAGMENTED BY HASH(x) INTO 3 FRAGMENTS");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) insert += ", ";
    insert += '(' + std::to_string(i) + ", " + std::to_string(i * 3) + ')';
  }
  MustExecute(db, insert);
  const QueryResult analyzed =
      MustExecute(db, "EXPLAIN ANALYZE SELECT * FROM t WHERE y < 90");
  std::string text;
  for (const Tuple& t : analyzed.tuples) text += t.ToString() + "\n";
  EXPECT_NE(text.find("batches="), std::string::npos) << text;
}

}  // namespace
}  // namespace prisma::core
