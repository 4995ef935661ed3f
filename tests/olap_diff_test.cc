// Distributed-OLAP differential harness (DESIGN.md §14.6): every seeded
// workload of group-bys and sorts runs on a single-fragment machine (the
// reference — no distributed OLAP possible) and on multi-fragment
// machines with the multi-stage OLAP lowering enabled. Every run must
// produce byte-identical answers. A second family
// of tests pins the acceptance criteria of the lowering itself: the
// canonical group-by gathers zero base tuples, its wire cost stays
// strictly below the base-tuple gather baseline, and the EXPLAIN output
// names the chosen stage structure. A third family checks aggregates
// pushed onto join parts: every exchange strategy and a co-located join
// pre-aggregate where the join lands, against the single-fragment
// reference and the raw-row gather (aggregate_pushdown off).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/distributed_plan.h"
#include "gdh/messages.h"
#include "sim/simulator.h"
#include "soak_repro.h"

namespace prisma::core {
namespace {

/// One seeded dataset: sales(id, region, amount, qty) with seed-varying
/// row count, group-key cardinality, NULL-region density and value
/// ranges. Amounts stay integral and small so every SUM/AVG is exact in
/// double arithmetic — partial-aggregate merges add the same integral
/// values in a different order, which only FP rounding could expose.
struct SalesRow {
  int id;
  int region;  // kNullRegion = NULL.
  int amount;
  int qty;
};
constexpr int kNullRegion = -1;

std::vector<SalesRow> RandomSales(uint64_t seed) {
  Rng rng(seed * 0x9e3779b9u + 41);
  const int rows = static_cast<int>(rng.UniformInt(24, 120));
  const int regions = static_cast<int>(rng.UniformInt(2, 7));
  std::vector<SalesRow> sales;
  sales.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    SalesRow row;
    row.id = i;
    row.region = rng.Uniform(8) == 0 ? kNullRegion
                                     : static_cast<int>(rng.Uniform(regions));
    row.amount = static_cast<int>(rng.UniformInt(0, 400));
    row.qty = static_cast<int>(rng.UniformInt(1, 9));
    sales.push_back(row);
  }
  return sales;
}

std::string SalesInsert(const std::vector<SalesRow>& sales) {
  std::string sql = "INSERT INTO sales VALUES ";
  for (size_t i = 0; i < sales.size(); ++i) {
    const SalesRow& row = sales[i];
    if (i > 0) sql += ", ";
    sql += '(' + std::to_string(row.id) + ", ";
    sql += row.region == kNullRegion
               ? std::string("NULL")
               : "'region" + std::to_string(row.region) + "'";
    sql += ", " + std::to_string(row.amount) + ", " +
           std::to_string(row.qty) + ')';
  }
  return sql;
}

QueryResult MustExecute(PrismaDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << ": " << result.status().ToString();
  return std::move(result).value();
}

/// Byte rendering of a result. ORDER BY queries carry a unique trailing
/// sort key, and group-by outputs are canonically ordered by the
/// coordinator, so no extra canonicalization is needed — the comparison
/// is over the exact tuple sequence.
std::string Rendered(const QueryResult& result) {
  std::string out;
  for (const Tuple& t : result.tuples) {
    out += t.ToString();
    out += '\n';
  }
  return out;
}

/// The workload: group-bys over every aggregate (AVG decomposes into
/// SUM+COUNT partials), a filtered group-by that can leave fragments
/// empty, and distributed sorts (one Top-N) whose trailing key (unique
/// id) pins the order of ties across the merged runs.
const char* kQueries[] = {
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales "
    "GROUP BY region ORDER BY region",
    "SELECT region, AVG(amount) AS mean, MIN(qty) AS lo, MAX(qty) AS hi "
    "FROM sales GROUP BY region ORDER BY region",
    "SELECT id, amount FROM sales ORDER BY amount, id",
    "SELECT id, amount, qty FROM sales WHERE qty >= 3 "
    "ORDER BY qty DESC, id",
    "SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 7",
    "SELECT region, SUM(qty) AS q FROM sales WHERE amount < 200 "
    "GROUP BY region ORDER BY region",
};

/// Runs the whole workload on one machine configuration.
std::vector<std::string> RunWorkload(const std::vector<SalesRow>& sales,
                                     int fragments) {
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  if (fragments > 1) {
    MustExecute(db, StrFormat("CREATE TABLE sales (id INT, region STRING, "
                              "amount INT, qty INT) FRAGMENTED BY HASH(id) "
                              "INTO %d FRAGMENTS",
                              fragments));
  } else {
    MustExecute(db,
                "CREATE TABLE sales (id INT, region STRING, amount INT, "
                "qty INT)");
  }
  MustExecute(db, SalesInsert(sales));
  std::vector<std::string> results;
  for (const char* sql : kQueries) {
    results.push_back(Rendered(MustExecute(db, sql)));
  }
  return results;
}

void CheckSeed(uint64_t seed) {
  const std::vector<SalesRow> sales = RandomSales(seed);
  const std::vector<std::string> reference =
      RunWorkload(sales, /*fragments=*/1);
  for (const int fragments : {3, 7}) {
    SCOPED_TRACE(StrFormat("fragments=%d", fragments));
    const std::vector<std::string> got = RunWorkload(sales, fragments);
    ASSERT_EQ(reference.size(), got.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      SCOPED_TRACE(StrFormat("query=%zu: %s", q, kQueries[q]));
      EXPECT_EQ(reference[q], got[q]);
    }
  }
}

TEST(OlapDiffTest, SeededWorkloadsLow) {
  for (const uint64_t seed : SoakSeeds(1, 17)) {
    PRISMA_SEED_REPRO("OlapDiffTest.SeededWorkloadsLow", seed);
    CheckSeed(seed);
  }
}

TEST(OlapDiffTest, SeededWorkloadsMid) {
  for (const uint64_t seed : SoakSeeds(18, 34)) {
    PRISMA_SEED_REPRO("OlapDiffTest.SeededWorkloadsMid", seed);
    CheckSeed(seed);
  }
}

TEST(OlapDiffTest, SeededWorkloadsHigh) {
  for (const uint64_t seed : SoakSeeds(35, 50)) {
    PRISMA_SEED_REPRO("OlapDiffTest.SeededWorkloadsHigh", seed);
    CheckSeed(seed);
  }
}

// --------------------------------------------- Many-group differential

/// ledger(id, g, amount) with seed-varying rows (300-700) and groups
/// (20-60): on 7 fragments most groups sit in every fragment, so the cost
/// model shuffles some seeds' group-bys and gathers others. Every path
/// taken must return the single-fragment answer.
const char* kLedgerQueries[] = {
    "SELECT g, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS m "
    "FROM ledger GROUP BY g ORDER BY g",
    "SELECT g, MIN(amount) AS lo, MAX(amount) AS hi FROM ledger "
    "WHERE amount < 200 GROUP BY g ORDER BY g",
};

/// Answers of the ledger queries on one machine; adds the paths its
/// group-bys took to `paths` (olap.group_by_paths, by path name).
std::vector<std::string> RunLedger(uint64_t seed, int fragments,
                                   std::map<std::string, uint64_t>* paths) {
  Rng rng(seed * 0x51a3u + 5);
  const int rows = static_cast<int>(rng.UniformInt(300, 700));
  const int groups = static_cast<int>(rng.UniformInt(20, 60));
  std::string insert = "INSERT INTO ledger VALUES ";
  for (int i = 0; i < rows; ++i) {
    insert += StrFormat("%s(%d, %d, %d)", i > 0 ? ", " : "", i,
                        static_cast<int>(rng.Uniform(groups)),
                        static_cast<int>(rng.UniformInt(0, 400)));
  }
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  MustExecute(db, "CREATE TABLE ledger (id INT, g INT, amount INT)" +
                      (fragments > 1
                           ? StrFormat(" FRAGMENTED BY HASH(id) INTO %d "
                                       "FRAGMENTS",
                                       fragments)
                           : std::string()));
  MustExecute(db, insert);
  std::vector<std::string> answers;
  for (const char* sql : kLedgerQueries) {
    answers.push_back(Rendered(MustExecute(db, sql)));
  }
  for (const gdh::GroupByPath path :
       {gdh::GroupByPath::kGather, gdh::GroupByPath::kPreAggregate,
        gdh::GroupByPath::kDirect}) {
    const char* name = gdh::GroupByPathName(path);
    (*paths)[name] +=
        db.metrics().CounterValue("olap.group_by_paths", {{"path", name}});
  }
  return answers;
}

TEST(OlapDiffTest, SeededManyGroupWorkloadsAgreeOnEveryPath) {
  std::map<std::string, uint64_t> paths;
  for (const uint64_t seed : SoakSeeds(1, 12)) {
    PRISMA_SEED_REPRO("OlapDiffTest.SeededManyGroupWorkloadsAgreeOnEveryPath",
                      seed);
    const std::vector<std::string> reference = RunLedger(seed, 1, &paths);
    for (const int fragments : {3, 7}) {
      SCOPED_TRACE(StrFormat("fragments=%d", fragments));
      EXPECT_EQ(RunLedger(seed, fragments, &paths), reference);
    }
  }
  if (SingleSeedMode()) return;
  // Both the gather and the shuffle were exercised.
  EXPECT_GT(paths["gather partials"], 0u);
  EXPECT_GT(paths["pre-aggregate + shuffle-by-key"] +
                paths["direct + shuffle-by-key"],
            0u);
}

// ------------------------------------------- Aggregates over join parts

/// a(id, k, g, v) joins b(k, tag, w) on k. Some a.k are NULL or match
/// nothing, and some b.tag are NULL (a NULL group). Values stay small and
/// integral so every SUM/AVG is exact in any combine order.
std::vector<std::string> JoinInserts(uint64_t seed, int a_rows, int b_rows) {
  constexpr int kKeys = 12;
  Rng rng(seed * 0x2545f491u + 7);
  std::string a = "INSERT INTO a VALUES ";
  for (int i = 0; i < a_rows; ++i) {
    if (i > 0) a += ", ";
    const std::string k = rng.Uniform(10) == 0
                              ? std::string("NULL")
                              : std::to_string(rng.Uniform(kKeys + 3));
    a += StrFormat("(%d, %s, %d, %d)", i, k.c_str(),
                   static_cast<int>(rng.Uniform(3)),
                   static_cast<int>(rng.UniformInt(0, 200)));
  }
  std::string b = "INSERT INTO b VALUES ";
  for (int i = 0; i < b_rows; ++i) {
    if (i > 0) b += ", ";
    const int tag = rng.Uniform(5) == 0 ? -1
                                         : static_cast<int>(rng.Uniform(4));
    const std::string tag_sql =
        tag < 0 ? std::string("NULL") : StrFormat("'t%d'", tag);
    b += StrFormat("(%d, %s, %d)", i % kKeys, tag_sql.c_str(),
                   static_cast<int>(rng.UniformInt(0, 200)));
  }
  return {a, b};
}

/// One way the join can land. Row counts are fixed per shape: the
/// splitter picks the exchange strategy from dictionary cardinalities.
struct JoinShape {
  const char* expect;    // What EXPLAIN names the join part.
  const char* a_layout;  // FRAGMENTED BY clause of a ("" = one fragment).
  const char* b_layout;
  int a_rows;
  int b_rows;
  bool b_left;  // FROM b JOIN a instead of FROM a JOIN b.
};
constexpr int kJoinFragments = 3;
const JoinShape kJoinShapes[] = {
    {"shuffle-left", "HASH(id)", "HASH(k)", 60, 30, false},
    {"shuffle-right", "HASH(id)", "HASH(k)", 60, 30, true},
    {"broadcast-right", "HASH(id)", "", 60, 8, false},
    {"broadcast-left", "HASH(id)", "", 60, 8, true},
    {"shuffle-both", "HASH(id)", "HASH(w)", 60, 40, false},
    {"co-located join", "HASH(k)", "HASH(k)", 60, 30, false},
};

/// Join-aggregate statements; `%s` is the FROM clause. `groups` bounds
/// the distinct group keys (4 tags + NULL, 3 g values, or one scalar row).
struct JoinQuery {
  const char* sql;
  uint64_t groups;
};
const JoinQuery kJoinQueries[] = {
    {"SELECT b.tag, COUNT(*) AS n, SUM(a.v) AS s, MIN(a.v) AS lo, "
     "MAX(b.w) AS hi, AVG(a.v) AS mean FROM %s GROUP BY b.tag ORDER BY tag",
     5},
    {"SELECT COUNT(*) AS n, SUM(a.v) AS s, MIN(b.w) AS lo, AVG(b.w) AS m "
     "FROM %s",
     1},
    {"SELECT a.g, COUNT(*) AS n, SUM(b.w) AS s FROM %s GROUP BY a.g "
     "HAVING n > 3 ORDER BY g",
     3},
    {"SELECT b.tag, COUNT(*) AS n, MAX(a.v) AS hi FROM %s AND a.v > b.w "
     "GROUP BY b.tag ORDER BY tag",
     5},
    {"SELECT b.tag, COUNT(*) AS n FROM %s WHERE a.v < 0 GROUP BY b.tag "
     "ORDER BY tag",
     5},
    {"SELECT COUNT(*) AS n, SUM(a.v) AS s, AVG(a.v) AS m FROM %s "
     "WHERE a.v < 0",
     1},
};

struct JoinAnswer {
  std::string rendered;
  uint64_t gathered = 0;  // query.tuples_gathered of the statement.
};

/// Runs one statement to its reply, then drains the machine. The event
/// queue must end empty, and nothing may fire long after the reply: a
/// timer left armed would go off at its (seconds-long) timeout.
JoinAnswer RunJoinStatement(PrismaDb& db, const std::string& sql) {
  const uint64_t gathered0 = db.metrics().CounterTotal("query.tuples_gathered");
  bool replied = false;
  Status status;
  sim::SimTime replied_at = 0;
  JoinAnswer answer;
  db.Submit(sql, /*prismalog=*/false, exec::kAutoCommit,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              replied = true;
              status = reply.status;
              replied_at = db.simulator().now();
              if (reply.tuples == nullptr) return;
              for (const Tuple& t : *reply.tuples) {
                answer.rendered += t.ToString() + "\n";
              }
            });
  db.Run();
  PRISMA_CHECK(replied && status.ok()) << sql << ": " << status.ToString();
  EXPECT_EQ(db.simulator().pending(), 0u) << sql;
  EXPECT_LT(db.simulator().now() - replied_at, sim::kNanosPerSecond) << sql;
  answer.gathered =
      db.metrics().CounterTotal("query.tuples_gathered") - gathered0;
  return answer;
}

std::string JoinFrom(const JoinShape& shape) {
  return shape.b_left ? "b JOIN a ON b.k = a.k" : "a JOIN b ON a.k = b.k";
}

/// Loads a and b (`fragments` = false: both unfragmented) and runs every
/// join query on one machine configuration.
std::vector<JoinAnswer> RunJoinWorkload(uint64_t seed, const JoinShape& shape,
                                        bool fragments, bool pushdown) {
  MachineConfig config;
  config.pes = 8;
  config.rules.aggregate_pushdown = pushdown;
  if (!fragments) {
    // The reference joins and aggregates at the coordinator only.
    config.rules.colocated_joins = false;
    config.rules.exchange_joins = false;
  }
  PrismaDb db(config);
  auto layout = [&](const char* clause) {
    return fragments && clause[0] != '\0'
               ? StrFormat(" FRAGMENTED BY %s INTO %d FRAGMENTS", clause,
                           kJoinFragments)
               : std::string();
  };
  MustExecute(db, "CREATE TABLE a (id INT, k INT, g INT, v INT)" +
                      layout(shape.a_layout));
  MustExecute(db, "CREATE TABLE b (k INT, tag STRING, w INT)" +
                      layout(shape.b_layout));
  for (const std::string& insert :
       JoinInserts(seed, shape.a_rows, shape.b_rows)) {
    MustExecute(db, insert);
  }
  const std::string from = JoinFrom(shape);
  if (fragments) {
    // The join lands where the shape says, and the rule is in force.
    const QueryResult plan = MustExecute(
        db, "EXPLAIN " + StrFormat(kJoinQueries[0].sql, from.c_str()));
    std::string text;
    for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
    EXPECT_NE(text.find(shape.expect), std::string::npos) << text;
    EXPECT_NE(text.find(pushdown ? "aggregate pushdown: yes"
                                 : "aggregate pushdown: no"),
              std::string::npos)
        << text;
  }
  std::vector<JoinAnswer> answers;
  for (const JoinQuery& q : kJoinQueries) {
    answers.push_back(RunJoinStatement(db, StrFormat(q.sql, from.c_str())));
  }
  return answers;
}

void CheckJoinSeed(uint64_t seed) {
  for (const JoinShape& shape : kJoinShapes) {
    SCOPED_TRACE(shape.expect);
    const std::vector<JoinAnswer> reference = RunJoinWorkload(
        seed, shape, /*fragments=*/false, /*pushdown=*/true);
    const std::vector<JoinAnswer> pushed =
        RunJoinWorkload(seed, shape, true, /*pushdown=*/true);
    const std::vector<JoinAnswer> raw =
        RunJoinWorkload(seed, shape, true, /*pushdown=*/false);
    for (size_t q = 0; q < std::size(kJoinQueries); ++q) {
      SCOPED_TRACE(kJoinQueries[q].sql);
      EXPECT_EQ(reference[q].rendered, pushed[q].rendered);
      EXPECT_EQ(reference[q].rendered, raw[q].rendered);
      // Each consumer (or fragment pair) ships at most one partial row
      // per group, and a grouped partial never more than its join rows.
      EXPECT_LE(pushed[q].gathered, kJoinFragments * kJoinQueries[q].groups);
      if (kJoinQueries[q].groups > 1) {
        EXPECT_LE(pushed[q].gathered, raw[q].gathered);
      }
    }
  }
}

TEST(OlapDiffTest, JoinAggregatesPreAggregateWhereTheJoinLands) {
  for (const uint64_t seed : SoakSeeds(1, 4)) {
    PRISMA_SEED_REPRO(
        "OlapDiffTest.JoinAggregatesPreAggregateWhereTheJoinLands", seed);
    CheckJoinSeed(seed);
  }
}

// -------------------------------------------------- Acceptance criteria

/// Loads the canonical emp table: 60 rows over 3 departments, 4
/// fragments (4 distinct merge consumers).
void LoadEmp(PrismaDb& db, int fragments = 4) {
  MustExecute(db, StrFormat("CREATE TABLE emp (id INT, dept STRING, salary "
                            "INT) FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
                            fragments));
  const char* depts[] = {"eng", "hr", "sales"};
  std::string insert = "INSERT INTO emp VALUES ";
  for (int i = 0; i < 60; ++i) {
    if (i > 0) insert += ", ";
    insert += StrFormat("(%d, '%s', %d)", i, depts[i % 3], 1000 + i);
  }
  MustExecute(db, insert);
}

constexpr const char* kCanonicalQuery =
    "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept ORDER BY dept";

/// Row payload of the `kind` mail sent so far: its wire bits minus one
/// kControlBits header per message.
int64_t RowPayloadBits(PrismaDb& db, const std::string& kind) {
  const obs::Labels labels = {{"kind", kind}};
  return static_cast<int64_t>(
             db.metrics().CounterValue("pool.mail_bits", labels)) -
         gdh::kControlBits * static_cast<int64_t>(db.metrics().CounterValue(
                                 "pool.mail_sent", labels));
}

/// Row payload a statement ships: shuffled batches plus gathered replies.
int64_t StatementPayloadBits(PrismaDb& db, const std::string& sql,
                             QueryResult* result) {
  auto payload = [&db] {
    return RowPayloadBits(db, gdh::kMailTupleBatch) +
           RowPayloadBits(db, gdh::kMailExecPlanReply);
  };
  const int64_t before = payload();
  *result = MustExecute(db, sql);
  return payload() - before;
}

/// The canonical acceptance check: the canonical group-by's three depts
/// cost least as gathered partials, so the coordinator gathers one
/// partial row per dept and fragment (zero base tuples), and the row
/// payload it ships is strictly below the row payload of a base-tuple
/// gather of the same query.
TEST(OlapDiffTest, CanonicalGroupByShipsNoBaseTuples) {
  MachineConfig olap_config;
  olap_config.pes = 8;
  PrismaDb olap_db(olap_config);
  LoadEmp(olap_db);
  QueryResult dist;
  const int64_t olap_payload =
      StatementPayloadBits(olap_db, kCanonicalQuery, &dist);
  ASSERT_EQ(dist.tuples.size(), 3u);

  // EXPLAIN names the chosen path and its estimates.
  const QueryResult plan =
      MustExecute(olap_db, std::string("EXPLAIN ") + kCanonicalQuery);
  std::string text;
  for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
  EXPECT_NE(text.find("group-by path: gather partials, ~3 group(s) from "
                      "~12 partial row(s)"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("Exchange"), std::string::npos) << text;

  // Zero base tuples at the coordinator: 3 partials from each of the 4
  // fragments arrive (EXPLAIN executes nothing), and nothing shuffles.
  EXPECT_EQ(olap_db.metrics().CounterTotal("query.tuples_gathered"), 12u);
  EXPECT_EQ(olap_db.metrics().CounterTotal("olap.parts"), 0u);
  EXPECT_EQ(olap_db.metrics().CounterTotal("olap.shuffle_bits"), 0u);
  EXPECT_EQ(olap_db.metrics().CounterValue("olap.group_by_paths",
                                           {{"path", "gather partials"}}),
            1u);

  // Gather baseline: same machine shape, OLAP lowering and aggregate
  // pushdown off — the coordinator pulls all 60 base tuples.
  MachineConfig base_config;
  base_config.pes = 8;
  base_config.rules.distributed_olap = false;
  base_config.rules.aggregate_pushdown = false;
  PrismaDb base_db(base_config);
  LoadEmp(base_db);
  QueryResult gathered;
  const int64_t baseline_payload =
      StatementPayloadBits(base_db, kCanonicalQuery, &gathered);
  EXPECT_EQ(Rendered(dist), Rendered(gathered));
  EXPECT_EQ(base_db.metrics().CounterTotal("query.tuples_gathered"), 60u);
  ASSERT_GT(base_db.metrics().GaugeValue("query.last_gather_bits"), 0);
  // Fewer row bits than the base tuples: partial groups cross the wire
  // instead.
  EXPECT_LT(olap_payload, baseline_payload);
}

/// The data picks each path of a GROUP BY, and all three return the
/// single-fragment answer. s(k, v) is loaded three ways: 3 keys
/// (gathered partials); 200 keys over 8,000 rows, every key in every
/// fragment (pre-aggregated, then shuffled by key); and 200 keys unique
/// in each of 8 round-robin fragments but shared by all of them, so
/// nothing shrinks locally and a partial row (k, n, total) is wider than
/// an input row (k, v): base rows shuffle direct.
TEST(OlapDiffTest, AggStrategiesAgreeAndExplainNamesThem) {
  const struct {
    const char* layout;
    int rows;
    int (*key)(int);
    const char* expect;
  } kCases[] = {
      {"HASH(v) INTO 4", 60, [](int i) { return i % 3; }, "gather partials"},
      {"HASH(v) INTO 8", 8000, [](int i) { return i % 200; },
       "pre-aggregate + shuffle-by-key"},
      {"ROUNDROBIN INTO 8", 1600, [](int i) { return i / 8; },
       "direct + shuffle-by-key"},
  };
  constexpr const char* kQuery =
      "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s GROUP BY k "
      "ORDER BY k";
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.expect);
    std::string insert = "INSERT INTO s VALUES ";
    for (int i = 0; i < c.rows; ++i) {
      insert += StrFormat("%s(%d, %d)", i > 0 ? ", " : "", c.key(i), i);
    }
    std::string answers[2];
    for (const bool fragmented : {false, true}) {
      MachineConfig config;
      config.pes = 8;
      PrismaDb db(config);
      MustExecute(db, std::string("CREATE TABLE s (k INT, v INT)") +
                          (fragmented ? std::string(" FRAGMENTED BY ") +
                                            c.layout + " FRAGMENTS"
                                      : ""));
      MustExecute(db, insert);
      answers[fragmented] = Rendered(MustExecute(db, kQuery));
      if (!fragmented) continue;
      const QueryResult plan =
          MustExecute(db, std::string("EXPLAIN ") + kQuery);
      std::string text;
      for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
      EXPECT_NE(text.find(std::string("group-by path: ") + c.expect),
                std::string::npos)
          << text;
    }
    EXPECT_EQ(answers[0], answers[1]);
  }
}

/// Distributed sort: EXPLAIN names the sorted runs, every fragment
/// streams its run straight to the coordinator (nothing is shuffled
/// between fragments), and a LIMIT directly on the sort makes each
/// fragment ship only its top n.
TEST(OlapDiffTest, DistributedSortMergesSortedRuns) {
  MachineConfig config;
  config.pes = 8;
  PrismaDb db(config);
  LoadEmp(db);
  const QueryResult plan = MustExecute(
      db, "EXPLAIN SELECT id, salary FROM emp ORDER BY salary DESC, id");
  std::string text;
  for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
  EXPECT_NE(text.find("sorted runs over emp, 4 fragment(s), merged at the "
                      "coordinator"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("Exchange"), std::string::npos) << text;

  const QueryResult sorted =
      MustExecute(db, "SELECT id, salary FROM emp ORDER BY salary DESC, id");
  ASSERT_EQ(sorted.tuples.size(), 60u);
  for (size_t i = 1; i < sorted.tuples.size(); ++i) {
    EXPECT_GT(sorted.tuples[i - 1].at(1).int_value(),
              sorted.tuples[i].at(1).int_value());
  }
  // The runs are the only stream; no merge consumer replies.
  EXPECT_EQ(db.metrics().CounterTotal("olap.parts"), 1u);
  EXPECT_GT(db.metrics().CounterTotal("olap.shuffle_bits"), 0u);
  EXPECT_EQ(db.metrics().CounterTotal("olap.gather_bits"), 0u);
  EXPECT_EQ(db.metrics().CounterTotal("query.tuples_gathered"), 60u);

  // Top-N: 4 fragments ship at most 5 rows each.
  const QueryResult top = MustExecute(
      db, "SELECT id, salary FROM emp ORDER BY salary DESC, id LIMIT 5");
  ASSERT_EQ(top.tuples.size(), 5u);
  for (size_t i = 0; i < top.tuples.size(); ++i) {
    EXPECT_EQ(top.tuples[i].at(0).int_value(), 59 - static_cast<int>(i));
  }
  EXPECT_EQ(db.metrics().CounterTotal("olap.parts"), 2u);
  EXPECT_EQ(db.metrics().CounterTotal("query.tuples_gathered"), 60u + 4 * 5);
}

/// Disabling the lowering removes every olap part and metric — the knob
/// is a true ablation switch (E14's baseline column).
TEST(OlapDiffTest, DisablingLoweringRestoresGatherPlan) {
  MachineConfig config;
  config.pes = 8;
  config.rules.distributed_olap = false;
  PrismaDb db(config);
  LoadEmp(db);
  const QueryResult plan =
      MustExecute(db, std::string("EXPLAIN ") + kCanonicalQuery);
  std::string text;
  for (const Tuple& t : plan.tuples) text += t.ToString() + "\n";
  EXPECT_EQ(text.find("olap group-by"), std::string::npos) << text;
  MustExecute(db, kCanonicalQuery);
  EXPECT_EQ(db.metrics().CounterTotal("olap.parts"), 0u);
  EXPECT_EQ(db.metrics().CounterTotal("olap.shuffle_bits"), 0u);
}

}  // namespace
}  // namespace prisma::core
