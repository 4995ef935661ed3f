#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/prisma_db.h"

#include "common/logging.h"
#include "common/str_util.h"

namespace prisma::core {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.pes = 16;  // 4x4 mesh keeps tests fast; benches use 64.
  return config;
}

class PrismaDbTest : public ::testing::Test {
 protected:
  PrismaDbTest() : db_(SmallMachine()) {}

  QueryResult MustExecute(const std::string& sql) {
    auto result = db_.Execute(sql);
    PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  void MakeEmp(int fragments = 4, int rows = 40) {
    MustExecute(prisma::StrFormat(
        "CREATE TABLE emp (id INT, dept STRING, salary INT) "
        "FRAGMENTED BY HASH(id) INTO %d FRAGMENTS",
        fragments));
    const char* depts[] = {"sales", "eng", "hr", "ops"};
    for (int i = 0; i < rows; ++i) {
      MustExecute(prisma::StrFormat(
          "INSERT INTO emp VALUES (%d, '%s', %d)", i, depts[i % 4],
          1000 + 10 * i));
    }
  }

  PrismaDb db_;
};

TEST_F(PrismaDbTest, CreateInsertSelectRoundTrip) {
  MakeEmp(4, 20);
  QueryResult all = MustExecute("SELECT * FROM emp");
  EXPECT_EQ(all.tuples.size(), 20u);
  EXPECT_EQ(all.schema.num_columns(), 3u);
  EXPECT_GT(all.response_time_ns, 0);

  QueryResult filtered =
      MustExecute("SELECT id FROM emp WHERE salary >= 1150 ORDER BY id");
  EXPECT_EQ(filtered.tuples.size(), 5u);
  EXPECT_EQ(filtered.tuples.front().at(0), Value::Int(15));
}

TEST_F(PrismaDbTest, DataIsActuallyFragmentedAcrossPes) {
  MakeEmp(8, 64);
  auto info = db_.gdh().dictionary().GetTable("emp");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ((*info)->fragments.size(), 8u);
  int nonempty = 0;
  std::set<net::NodeId> pes;
  uint64_t total = 0;
  for (const auto& frag : (*info)->fragments) {
    if (frag.row_count > 0) ++nonempty;
    total += frag.row_count;
    pes.insert(frag.pe);
  }
  EXPECT_EQ(total, 64u);
  EXPECT_GE(nonempty, 6);          // Hash spreads over most fragments.
  EXPECT_GE(pes.size(), 8u);       // Distinct PEs host the fragments.
}

TEST_F(PrismaDbTest, InsertSelectWithMultipleRowsStatement) {
  MustExecute("CREATE TABLE t (x INT) FRAGMENTED BY HASH(x) INTO 3 FRAGMENTS");
  QueryResult ins = MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)");
  EXPECT_EQ(ins.affected_rows, 4u);
  EXPECT_EQ(MustExecute("SELECT * FROM t").tuples.size(), 4u);
}

TEST_F(PrismaDbTest, DeleteAndUpdateAcrossFragments) {
  MakeEmp(4, 40);
  QueryResult del = MustExecute("DELETE FROM emp WHERE salary < 1100");
  EXPECT_EQ(del.affected_rows, 10u);
  EXPECT_EQ(MustExecute("SELECT * FROM emp").tuples.size(), 30u);

  QueryResult upd =
      MustExecute("UPDATE emp SET salary = salary + 1 WHERE dept = 'eng'");
  // eng ids 1,5,...,37 minus the deleted 1,5,9 leaves 7 rows.
  EXPECT_EQ(upd.affected_rows, 7u);
  QueryResult check = MustExecute(
      "SELECT COUNT(*) FROM emp WHERE salary = 1131");  // id 13: 1130 + 1.
  EXPECT_EQ(check.tuples.front().at(0), Value::Int(1));
}

TEST_F(PrismaDbTest, AggregatePushdownMatchesExpectations) {
  MakeEmp(4, 40);
  QueryResult agg = MustExecute(
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, MIN(salary), "
      "MAX(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_EQ(agg.tuples.size(), 4u);
  for (const Tuple& t : agg.tuples) {
    EXPECT_EQ(t.at(1), Value::Int(10));
  }
  // eng: ids 1,5,...,37 -> salaries 1010,1050,...,1370; sum = 11900.
  EXPECT_EQ(agg.tuples[0].at(0), Value::String("eng"));
  EXPECT_EQ(agg.tuples[0].at(2), Value::Int(11900));
  EXPECT_EQ(agg.tuples[0].at(3), Value::Int(1010));
  EXPECT_EQ(agg.tuples[0].at(4), Value::Int(1370));
  EXPECT_EQ(agg.tuples[0].at(5), Value::Double(1190.0));
}

TEST_F(PrismaDbTest, DistributedJoin) {
  MakeEmp(4, 16);
  MustExecute(
      "CREATE TABLE dept (name STRING, budget INT) "
      "FRAGMENTED BY HASH(name) INTO 2 FRAGMENTS");
  MustExecute(
      "INSERT INTO dept VALUES ('sales', 100), ('eng', 200), ('hr', 300), "
      "('ops', 400)");
  QueryResult joined = MustExecute(
      "SELECT e.id, d.budget FROM emp e JOIN dept d ON e.dept = d.name "
      "WHERE d.budget >= 300 ORDER BY e.id");
  // hr and ops employees: 8 of 16.
  EXPECT_EQ(joined.tuples.size(), 8u);
}

TEST_F(PrismaDbTest, ColocatedJoinMatchesGatheredJoinWithLessTraffic) {
  auto load = [](PrismaDb& db) {
    auto must = [&](const std::string& sql) {
      auto r = db.Execute(sql);
      PRISMA_CHECK(r.ok()) << r.status().ToString();
      return std::move(r).value();
    };
    must("CREATE TABLE fact (k INT, v INT) "
         "FRAGMENTED BY HASH(k) INTO 4 FRAGMENTS");
    must("CREATE TABLE dim (k INT, label STRING) "
         "FRAGMENTED BY HASH(k) INTO 4 FRAGMENTS");
    for (int i = 0; i < 200; ++i) {
      must(prisma::StrFormat("INSERT INTO fact VALUES (%d, %d)", i % 40, i));
    }
    // A selective dimension: only 4 of the 40 fact keys match, so the
    // join *shrinks* the data — the case co-location is built for.
    for (int i = 0; i < 4; ++i) {
      must(prisma::StrFormat("INSERT INTO dim VALUES (%d, 'l%d')", i, i));
    }
  };
  const char* query =
      "SELECT f.v, d.label FROM fact f JOIN dim d ON f.k = d.k "
      "ORDER BY f.v";

  MachineConfig on = SmallMachine();
  PrismaDb db_on(on);
  load(db_on);
  const int64_t bits_before_on = db_on.network().stats().link_bits;
  auto result_on = db_on.Execute(query);
  ASSERT_TRUE(result_on.ok()) << result_on.status().ToString();
  const int64_t traffic_on = db_on.network().stats().link_bits - bits_before_on;
  const int64_t gathered_on =
      db_on.metrics().GaugeValue("query.last_gather_bits");

  MachineConfig off = SmallMachine();
  off.rules.colocated_joins = false;
  off.rules.exchange_joins = false;  // Ship-to-coordinator baseline.
  PrismaDb db_off(off);
  load(db_off);
  const int64_t bits_before_off = db_off.network().stats().link_bits;
  auto result_off = db_off.Execute(query);
  ASSERT_TRUE(result_off.ok());
  const int64_t traffic_off =
      db_off.network().stats().link_bits - bits_before_off;
  const int64_t gathered_off =
      db_off.metrics().GaugeValue("query.last_gather_bits");

  // Same answer, substantially fewer gathered bits: the join ran inside
  // the PEs hosting both fragments, shipping only matches. Less traffic
  // overall too, though with tables this small the fixed per-message
  // headers weigh as much as the column-encoded rows.
  EXPECT_EQ(result_on->tuples, result_off->tuples);
  EXPECT_EQ(result_on->tuples.size(), 20u);
  EXPECT_LT(gathered_on, gathered_off / 2);
  EXPECT_LT(traffic_on, traffic_off);
}

TEST_F(PrismaDbTest, ColocatedJoinSurvivesFragmentRecovery) {
  MustExecute("CREATE TABLE fact (k INT, v INT) "
              "FRAGMENTED BY HASH(k) INTO 2 FRAGMENTS");
  MustExecute("CREATE TABLE dim (k INT, label STRING) "
              "FRAGMENTED BY HASH(k) INTO 2 FRAGMENTS");
  for (int i = 0; i < 20; ++i) {
    MustExecute(prisma::StrFormat("INSERT INTO fact VALUES (%d, %d)", i, i));
    MustExecute(prisma::StrFormat("INSERT INTO dim VALUES (%d, 'x')", i));
  }
  // Crash + recover one side; the registry must track the replacement.
  ASSERT_TRUE(db_.CrashFragment("dim", 0).ok());
  ASSERT_TRUE(db_.RecoverFragment("dim", 0).ok());
  db_.Run();
  QueryResult joined = MustExecute(
      "SELECT f.v FROM fact f JOIN dim d ON f.k = d.k");
  EXPECT_EQ(joined.tuples.size(), 20u);
}

TEST_F(PrismaDbTest, DistinctAndLimit) {
  MakeEmp(4, 40);
  EXPECT_EQ(MustExecute("SELECT DISTINCT dept FROM emp").tuples.size(), 4u);
  EXPECT_EQ(MustExecute("SELECT * FROM emp LIMIT 7").tuples.size(), 7u);
}

TEST_F(PrismaDbTest, ErrorsPropagateToClient) {
  EXPECT_FALSE(db_.Execute("SELECT * FROM ghost").ok());
  EXPECT_FALSE(db_.Execute("GIBBERISH").ok());
  MakeEmp(2, 4);
  EXPECT_FALSE(db_.Execute("CREATE TABLE emp (x INT)").ok());
  EXPECT_FALSE(db_.Execute("SELECT nope FROM emp").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1)").ok());
  // The machine still works afterwards.
  EXPECT_TRUE(db_.Execute("SELECT * FROM emp").ok());
}

TEST_F(PrismaDbTest, DropTable) {
  MakeEmp(2, 4);
  MustExecute("DROP TABLE emp");
  EXPECT_FALSE(db_.Execute("SELECT * FROM emp").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE emp").ok());
}

TEST_F(PrismaDbTest, RecreatedTableRecoversOnlyItsOwnRows) {
  // DROP TABLE erases the fragments' logs and checkpoints: a table
  // re-created under the same name recovers its own 23 rows, not the
  // dropped table's 20 in front of them.
  auto insert = [this](int rows, int base) {
    std::string sql = "INSERT INTO k VALUES ";
    for (int i = 0; i < rows; ++i) {
      sql += prisma::StrFormat("%s(%d, %d)", i > 0 ? ", " : "", i, base + i);
    }
    MustExecute(sql);
  };
  const char* create =
      "CREATE TABLE k (id INT, v INT) FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS";
  MustExecute(create);
  insert(20, 1000);
  MustExecute("DROP TABLE k");
  MustExecute(create);
  insert(23, 2000);
  ASSERT_TRUE(db_.CrashFragment("k", 2).ok());
  ASSERT_TRUE(db_.RecoverFragment("k", 2).ok());
  db_.Run();
  const QueryResult rows = MustExecute("SELECT id, v FROM k ORDER BY id");
  ASSERT_EQ(rows.tuples.size(), 23u);
  for (int i = 0; i < 23; ++i) {
    EXPECT_EQ(rows.tuples[i].at(0), Value::Int(i));
    EXPECT_EQ(rows.tuples[i].at(1), Value::Int(2000 + i));
  }
}

TEST_F(PrismaDbTest, CreateIndexOnFragments) {
  MakeEmp(4, 20);
  EXPECT_TRUE(db_.Execute("CREATE INDEX emp_id ON emp (id)").ok());
  EXPECT_TRUE(
      db_.Execute("CREATE ORDERED INDEX emp_sal ON emp (salary)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX emp_id ON emp (id)").ok());
  // Queries still correct with indexes present.
  EXPECT_EQ(MustExecute("SELECT * FROM emp WHERE id = 7").tuples.size(), 1u);
}

TEST_F(PrismaDbTest, CreateIndexSpeedsUpPointQueries) {
  MakeEmp(4, 200);
  // Fragmentation pruning already narrows id = k to one fragment; the
  // index then replaces that fragment's scan with a probe.
  const auto before =
      MustExecute("SELECT * FROM emp WHERE salary = 1500").response_time_ns;
  MustExecute("CREATE INDEX emp_sal ON emp (salary)");
  const auto after =
      MustExecute("SELECT * FROM emp WHERE salary = 1500").response_time_ns;
  EXPECT_LT(after, before);
  // Results stay correct through the index.
  QueryResult r = MustExecute("SELECT id FROM emp WHERE salary = 1500");
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples.front().at(0), Value::Int(50));
}

TEST_F(PrismaDbTest, ExplicitTransactionCommitAndAbort) {
  MakeEmp(2, 4);
  auto session = db_.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  EXPECT_TRUE(session.in_transaction());
  ASSERT_TRUE(session.Execute("INSERT INTO emp VALUES (100, 'tmp', 1)").ok());
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  EXPECT_FALSE(session.in_transaction());
  EXPECT_EQ(MustExecute("SELECT * FROM emp").tuples.size(), 5u);

  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO emp VALUES (101, 'tmp', 1)").ok());
  ASSERT_TRUE(session.Execute("DELETE FROM emp WHERE id = 100").ok());
  ASSERT_TRUE(session.Execute("ABORT").ok());
  // Both effects rolled back.
  QueryResult after = MustExecute("SELECT * FROM emp ORDER BY id");
  EXPECT_EQ(after.tuples.size(), 5u);
  EXPECT_EQ(after.tuples.back().at(0), Value::Int(100));
}

TEST_F(PrismaDbTest, TransactionReadsOwnFragmentWrites) {
  MakeEmp(2, 4);
  auto session = db_.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO emp VALUES (50, 'new', 9)").ok());
  auto mine = session.Execute("SELECT * FROM emp WHERE id = 50");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->tuples.size(), 1u);
  ASSERT_TRUE(session.Execute("COMMIT").ok());
}

TEST_F(PrismaDbTest, PrismalogAncestorEndToEnd) {
  MustExecute(
      "CREATE TABLE parent (p STRING, c STRING) "
      "FRAGMENTED BY HASH(p) INTO 3 FRAGMENTS");
  MustExecute(
      "INSERT INTO parent VALUES ('tom','bob'), ('tom','liz'), "
      "('bob','ann'), ('ann','sue')");
  auto result = db_.ExecutePrismalog(
      "ancestor(X, Y) :- parent(X, Y).\n"
      "ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).\n"
      "? ancestor(tom, X).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), 4u);
  EXPECT_EQ(result->schema.column(0).name, "X");
}

TEST_F(PrismaDbTest, CrashedFragmentTimesOutThenRecovers) {
  MakeEmp(2, 8);
  ASSERT_TRUE(db_.CrashFragment("emp", 0).ok());
  // Reads hit the timeout because fragment 0 is unreachable.
  auto broken = db_.Execute("SELECT * FROM emp");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kUnavailable);

  // Recovery restores the fragment from its WAL.
  ASSERT_TRUE(db_.RecoverFragment("emp", 0).ok());
  db_.Run();
  QueryResult restored = MustExecute("SELECT * FROM emp");
  EXPECT_EQ(restored.tuples.size(), 8u);
}

TEST_F(PrismaDbTest, CrashBetweenPrepareAndCommitResolvesWithCoordinator) {
  // A committed transaction survives a post-commit crash: the in-doubt
  // window is exercised by ofm_test; here we check the full machine path
  // where the GDH answers the decision request.
  MakeEmp(2, 4);
  auto session = db_.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO emp VALUES (200, 'x', 1)").ok());
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  // Crash and recover both fragments; recovered state must include the
  // committed row.
  ASSERT_TRUE(db_.CrashFragment("emp", 0).ok());
  ASSERT_TRUE(db_.CrashFragment("emp", 1).ok());
  ASSERT_TRUE(db_.RecoverFragment("emp", 0).ok());
  ASSERT_TRUE(db_.RecoverFragment("emp", 1).ok());
  db_.Run();
  EXPECT_EQ(MustExecute("SELECT * FROM emp").tuples.size(), 5u);
}

TEST_F(PrismaDbTest, ConcurrentQueriesAllComplete) {
  MakeEmp(4, 40);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    db_.Submit("SELECT COUNT(*) FROM emp", false, exec::kAutoCommit,
               [&](const gdh::ClientReply& reply, sim::SimTime) {
                 ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
                 EXPECT_EQ(reply.tuples->front().at(0), Value::Int(40));
                 ++completed;
               },
               /*delay=*/i * 1000);
  }
  db_.Run();
  EXPECT_EQ(completed, 10);
}

TEST_F(PrismaDbTest, WriteConflictsSerializeViaLocks) {
  MakeEmp(1, 1);
  int completed = 0;
  int failed = 0;
  // 20 updates race on the same single-fragment table.
  for (int i = 0; i < 20; ++i) {
    db_.Submit("UPDATE emp SET salary = salary + 1", false, exec::kAutoCommit,
               [&](const gdh::ClientReply& reply, sim::SimTime) {
                 if (reply.status.ok()) {
                   ++completed;
                 } else {
                   ++failed;
                 }
               },
               i * 10);
  }
  db_.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(failed, 0);
  QueryResult check = MustExecute("SELECT salary FROM emp");
  EXPECT_EQ(check.tuples.front().at(0), Value::Int(1020));
}

TEST_F(PrismaDbTest, ResponseTimesAreDeterministicAcrossMachines) {
  // The same workload on two identical machines takes exactly the same
  // virtual time (coordinator placement rotates *within* a machine, so
  // determinism is asserted across fresh machines).
  auto run = [] {
    PrismaDb db(SmallMachine());
    PRISMA_CHECK(db.Execute("CREATE TABLE t (x INT) FRAGMENTED BY HASH(x) "
                            "INTO 4 FRAGMENTS")
                     .ok());
    for (int i = 0; i < 12; ++i) {
      PRISMA_CHECK(
          db.Execute(prisma::StrFormat("INSERT INTO t VALUES (%d)", i)).ok());
    }
    auto result = db.Execute("SELECT COUNT(*) FROM t WHERE x >= 3");
    PRISMA_CHECK(result.ok());
    return result->response_time_ns;
  };
  const sim::SimTime a = run();
  const sim::SimTime b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

TEST_F(PrismaDbTest, ExplainDescribesTheDistributedPlan) {
  MakeEmp(4, 20);
  QueryResult plan = MustExecute(
      "EXPLAIN SELECT dept, COUNT(*) FROM emp WHERE salary > 1000 "
      "GROUP BY dept");
  ASSERT_FALSE(plan.tuples.empty());
  std::string text;
  for (const Tuple& t : plan.tuples) {
    text += t.at(0).string_value();
    text += "\n";
  }
  // Selections were pushed, the aggregate decomposed, the part fans out
  // to all 4 fragments, and nothing was executed.
  EXPECT_NE(text.find("optimizer:"), std::string::npos);
  EXPECT_NE(text.find("aggregate pushdown: yes"), std::string::npos);
  EXPECT_NE(text.find("4 fragment(s)"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("Scan emp"), std::string::npos);

  // EXPLAIN of a co-located join says so.
  MustExecute("CREATE TABLE emp2 (id INT, x INT) "
              "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS");
  QueryResult join_plan = MustExecute(
      "EXPLAIN SELECT e.id FROM emp e JOIN emp2 f ON e.id = f.id");
  std::string join_text;
  for (const Tuple& t : join_plan.tuples) {
    join_text += t.at(0).string_value();
    join_text += "\n";
  }
  EXPECT_NE(join_text.find("co-located join"), std::string::npos);

  EXPECT_FALSE(db_.Execute("EXPLAIN INSERT INTO emp VALUES (1,'x',2)").ok());
}

TEST_F(PrismaDbTest, ExplainShowsAJoinPartPreAggregating) {
  // dept_info is fragmented on the join key and emp is not: the join
  // lowers to an exchange part.
  auto load = [](PrismaDb& db) {
    for (const char* sql :
         {"CREATE TABLE emp (id INT, dept STRING, salary INT) "
          "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS",
          "CREATE TABLE dept_info (dept STRING, floor INT) "
          "FRAGMENTED BY HASH(dept) INTO 2 FRAGMENTS",
          "INSERT INTO emp VALUES (1, 'eng', 10), (2, 'hr', 20), "
          "(3, 'eng', 30), (4, 'ops', 40)",
          "INSERT INTO dept_info VALUES ('eng', 1), ('hr', 2), ('ops', 2)"}) {
      PRISMA_CHECK(db.Execute(sql).ok()) << sql;
    }
  };
  // The plan's lines, and the first line inside the exchange part.
  auto explain = [](PrismaDb& db, std::string* part_top) {
    auto plan = db.Execute(
        "EXPLAIN SELECT d.floor, COUNT(*) AS n, SUM(e.salary) AS s "
        "FROM emp e JOIN dept_info d ON e.dept = d.dept GROUP BY d.floor");
    PRISMA_CHECK(plan.ok()) << plan.status().ToString();
    std::string text;
    for (size_t i = 0; i < plan->tuples.size(); ++i) {
      const std::string& line = plan->tuples[i].at(0).string_value();
      text += line + "\n";
      if (line.find("(exchange join emp x dept_info") != std::string::npos &&
          i + 1 < plan->tuples.size()) {
        *part_top = plan->tuples[i + 1].at(0).string_value();
      }
    }
    return text;
  };

  load(db_);
  std::string part_top;
  const std::string pushed = explain(db_, &part_top);
  EXPECT_NE(pushed.find("aggregate pushdown: yes"), std::string::npos)
      << pushed;
  EXPECT_NE(pushed.find("exchange joins: 1"), std::string::npos) << pushed;
  // The partial aggregate runs inside the part, over the join; the
  // coordinator only combines.
  EXPECT_EQ(part_top.rfind("  Aggregate", 0), 0u) << pushed;

  // With the rule off, the part is the raw join again.
  MachineConfig config = SmallMachine();
  config.rules.aggregate_pushdown = false;
  PrismaDb raw_db(config);
  load(raw_db);
  part_top.clear();
  const std::string raw = explain(raw_db, &part_top);
  EXPECT_NE(raw.find("aggregate pushdown: no"), std::string::npos) << raw;
  EXPECT_EQ(part_top.rfind("  Join", 0), 0u) << raw;
}

TEST_F(PrismaDbTest, CheckpointTruncatesWalsAndRecoveryStillWorks) {
  MakeEmp(2, 30);
  // WAL bytes exist before the checkpoint...
  size_t wal_before = 0;
  for (int pe = 0; pe < db_.config().pes; ++pe) {
    auto& store = db_.stable_store(pe);
    wal_before += store.stream_bytes("emp#0.wal") +
                  store.stream_bytes("emp#1.wal");
  }
  EXPECT_GT(wal_before, 0u);

  QueryResult ckpt = MustExecute("CHECKPOINT");
  (void)ckpt;
  size_t wal_after = 0;
  bool snapshot_found = false;
  for (int pe = 0; pe < db_.config().pes; ++pe) {
    auto& store = db_.stable_store(pe);
    wal_after +=
        store.stream_bytes("emp#0.wal") + store.stream_bytes("emp#1.wal");
    if (store.ReadSnapshot("emp#0.ckpt").ok() ||
        store.ReadSnapshot("emp#1.ckpt").ok()) {
      snapshot_found = true;
    }
  }
  EXPECT_EQ(wal_after, 0u);
  EXPECT_TRUE(snapshot_found);

  // Post-checkpoint writes land in fresh WALs; crash + recover replays
  // snapshot + suffix.
  MustExecute("INSERT INTO emp VALUES (100, 'late', 9)");
  ASSERT_TRUE(db_.CrashFragment("emp", 0).ok());
  ASSERT_TRUE(db_.CrashFragment("emp", 1).ok());
  ASSERT_TRUE(db_.RecoverFragment("emp", 0).ok());
  ASSERT_TRUE(db_.RecoverFragment("emp", 1).ok());
  db_.Run();
  EXPECT_EQ(MustExecute("SELECT * FROM emp").tuples.size(), 31u);
}

TEST_F(PrismaDbTest, PeMemoryExhaustionSurfacesAsStatementError) {
  MachineConfig tiny = SmallMachine();
  tiny.pe_memory_bytes = 4 * 1024;  // 4 KB per PE.
  PrismaDb db(tiny);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT, pad STRING) "
                         "FRAGMENTED BY HASH(x) INTO 2 FRAGMENTS")
                  .ok());
  Status last;
  int inserted = 0;
  for (int i = 0; i < 500; ++i) {
    auto r = db.Execute(prisma::StrFormat(
        "INSERT INTO t VALUES (%d, 'some sixty-byte padding string to eat "
        "the PE memory quickly....')",
        i));
    if (!r.ok()) {
      last = r.status();
      break;
    }
    ++inserted;
  }
  EXPECT_GT(inserted, 0);
  // The 16 MB-per-PE budget (here shrunk) is a hard limit (§2.1/§3.2):
  // the write aborts and the error reaches the client.
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  // The machine still answers reads.
  auto count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->tuples.front().at(0), Value::Int(inserted));
}

TEST_F(PrismaDbTest, ChordalRingMachineWorks) {
  MachineConfig config;
  config.pes = 16;
  config.topology = TopologyKind::kChordalRing;
  config.chord = 4;
  PrismaDb db(config);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (x INT) FRAGMENTED BY HASH(x) INTO 4 "
                 "FRAGMENTS")
          .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  auto r = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tuples.front().at(0), Value::Int(3));
}

TEST_F(PrismaDbTest, InterpretedMachineAgreesButRunsSlower) {
  auto run = [](exec::ExprMode mode) {
    MachineConfig config = SmallMachine();
    config.expr_mode = mode;
    PrismaDb db(config);
    PRISMA_CHECK(db.Execute("CREATE TABLE t (x INT, y INT) "
                            "FRAGMENTED BY HASH(x) INTO 4 FRAGMENTS")
                     .ok());
    for (int i = 0; i < 100; ++i) {
      PRISMA_CHECK(db.Execute(prisma::StrFormat(
                                  "INSERT INTO t VALUES (%d, %d)", i, i * 3))
                       .ok());
    }
    auto r = db.Execute(
        "SELECT COUNT(*) FROM t WHERE y - x * 2 > 10 AND x < 90");
    PRISMA_CHECK(r.ok());
    return std::make_pair(r->tuples.front().at(0).int_value(),
                          r->response_time_ns);
  };
  const auto compiled = run(exec::ExprMode::kCompiled);
  const auto interpreted = run(exec::ExprMode::kInterpreted);
  EXPECT_EQ(compiled.first, interpreted.first);   // Same answer.
  EXPECT_LT(compiled.second, interpreted.second);  // E4's cost-model view.
}

TEST_F(PrismaDbTest, PrismalogWithNegationOnTheMachine) {
  MustExecute("CREATE TABLE edge (s STRING, d STRING) "
              "FRAGMENTED BY HASH(s) INTO 2 FRAGMENTS");
  MustExecute("INSERT INTO edge VALUES ('a','b'), ('b','c'), ('c','d')");
  auto result = db_.ExecutePrismalog(
      "reach(X, Y) :- edge(X, Y).\n"
      "reach(X, Z) :- edge(X, Y), reach(Y, Z).\n"
      "source(X) :- edge(X, Y), not sink_side(X).\n"
      "sink_side(Y) :- edge(X, Y).\n"
      "? source(X).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_EQ(result->tuples.front().at(0), Value::String("a"));
}

constexpr const char* kClosureProgram =
    "p(X, Y) :- edge(X, Y).\n"
    "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
    "? p(X, Y).";
constexpr const char* kEdgeProgram =
    "q(X, Y) :- edge(X, Y).\n"
    "? q(c, Y).";

TEST_F(PrismaDbTest, PrismalogExplainNamesTheFixpointOrTheStratifiedEngine) {
  MustExecute("CREATE TABLE edge (s STRING, d STRING) "
              "FRAGMENTED BY HASH(s) INTO 3 FRAGMENTS");
  auto render = [](const QueryResult& result) {
    std::string text;
    for (const Tuple& line : result.tuples) {
      text += line.at(0).string_value() + "\n";
    }
    return text;
  };
  auto closure =
      db_.ExecutePrismalog(std::string("EXPLAIN ") + kClosureProgram);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  const std::string fixpoint = render(*closure);
  EXPECT_NE(fixpoint.find("linear recursion over edge detected, evaluated "
                          "as a distributed fixpoint"),
            std::string::npos)
      << fixpoint;
  EXPECT_NE(fixpoint.find("edge relation: 3 fragment(s)"), std::string::npos)
      << fixpoint;
  auto plain = db_.ExecutePrismalog(std::string("EXPLAIN ") + kEdgeProgram);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(render(*plain),
            "prismalog: stratified semi-naive evaluation at the coordinator "
            "(no distributed fixpoint pattern detected)\n");
}

TEST_F(PrismaDbTest, PrismalogWaitsForAnOpenWriterAndSeesItsCommit) {
  MustExecute("CREATE TABLE edge (s STRING, d STRING) "
              "FRAGMENTED BY HASH(s) INTO 3 FRAGMENTS");
  MustExecute("INSERT INTO edge VALUES ('a','b'), ('b','c'), ('c','d')");
  auto session = db_.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("UPDATE edge SET d = 'e' WHERE s = 'c'").ok());

  std::optional<gdh::ClientReply> closure;
  std::optional<gdh::ClientReply> plain;
  db_.Submit(kClosureProgram, true, exec::kAutoCommit,
             [&](const gdh::ClientReply& reply, sim::SimTime) {
               closure = reply;
             });
  db_.Submit(kEdgeProgram, true, exec::kAutoCommit,
             [&](const gdh::ClientReply& reply, sim::SimTime) {
               plain = reply;
             });
  // Both programs take shared locks on every edge fragment, so both wait
  // for the writer's exclusive lock.
  db_.simulator().RunUntil(db_.simulator().now() + sim::kNanosPerSecond);
  EXPECT_FALSE(closure.has_value());
  EXPECT_FALSE(plain.has_value());

  ASSERT_TRUE(session.Execute("COMMIT").ok());
  ASSERT_TRUE(closure.has_value());
  ASSERT_TRUE(closure->status.ok()) << closure->status.ToString();
  std::set<std::pair<std::string, std::string>> pairs;
  for (const Tuple& t : *closure->tuples) {
    pairs.emplace(t.at(0).string_value(), t.at(1).string_value());
  }
  EXPECT_EQ(pairs, (std::set<std::pair<std::string, std::string>>{
                       {"a", "b"}, {"a", "c"}, {"a", "e"},
                       {"b", "c"}, {"b", "e"}, {"c", "e"}}));
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(plain->status.ok()) << plain->status.ToString();
  ASSERT_EQ(plain->tuples->size(), 1u);
  EXPECT_EQ(plain->tuples->front().at(0), Value::String("e"));
}

TEST_F(PrismaDbTest, SinglePeMachineStillWorks) {
  MachineConfig config;
  config.pes = 1;
  config.topology = TopologyKind::kRing;  // Ring needs >= 2; use mesh.
  config.topology = TopologyKind::kMesh;
  PrismaDb tiny(config);
  ASSERT_TRUE(tiny.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(tiny.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto result = tiny.Execute("SELECT * FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 2u);
}

TEST_F(PrismaDbTest, RangeAndRoundRobinFragmentation) {
  MustExecute(
      "CREATE TABLE r (k INT, v INT) FRAGMENTED BY RANGE(k) INTO 4 FRAGMENTS");
  for (int i = 0; i < 8; ++i) {
    MustExecute(prisma::StrFormat("INSERT INTO r VALUES (%d, %d)",
                          i * 125'000, i));
  }
  // Range pruning: an equality on the fragmentation key touches only one
  // fragment, but results stay correct.
  EXPECT_EQ(MustExecute("SELECT * FROM r WHERE k = 250000").tuples.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM r").tuples.size(), 8u);

  MustExecute(
      "CREATE TABLE rr (x INT) FRAGMENTED BY ROUNDROBIN INTO 3 FRAGMENTS");
  for (int i = 0; i < 9; ++i) {
    MustExecute(prisma::StrFormat("INSERT INTO rr VALUES (%d)", i));
  }
  auto info = db_.gdh().dictionary().GetTable("rr");
  ASSERT_TRUE(info.ok());
  for (const auto& frag : (*info)->fragments) {
    EXPECT_EQ(frag.row_count, 3u);  // Perfectly balanced.
  }
}

/// A table of 80 rows (id = 12,500 i, v = i) fragmented by `clause` on id,
/// loaded by one INSERT.
void MakeKeyed(PrismaDb* db, const std::string& table,
               const std::string& clause) {
  std::string insert = "INSERT INTO " + table + " VALUES ";
  for (int i = 0; i < 80; ++i) {
    if (i > 0) insert += ", ";
    insert += prisma::StrFormat("(%d, %d)", i * 12'500, i);
  }
  for (const std::string& sql :
       {"CREATE TABLE " + table + " (id INT, v INT) FRAGMENTED BY " + clause,
        insert}) {
    auto result = db->Execute(sql);
    PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
  }
}

/// Counts of the OFMs' access paths, to diff around one statement.
struct AccessCounts {
  uint64_t index_selections;
  uint64_t full_scans;
  uint64_t redo_records;  // WAL records that are not markers.
};

AccessCounts ReadAccessCounts(PrismaDb& db) {
  return {db.metrics().CounterTotal("ofm.index_selections"),
          db.metrics().CounterTotal("ofm.full_scans"),
          db.metrics().CounterTotal("ofm.wal_records") -
              db.metrics().CounterTotal("ofm.wal_markers")};
}

const char* const kKeyedClauses[] = {"HASH(id) INTO 4 FRAGMENTS",
                                     "RANGE(id) INTO 4 FRAGMENTS"};

TEST_F(PrismaDbTest, PointSelectByKeyProbesTheKeyIndex) {
  for (const char* clause : kKeyedClauses) {
    SCOPED_TRACE(clause);
    MakeKeyed(&db_, "k", clause);
    const AccessCounts before = ReadAccessCounts(db_);
    QueryResult hit = MustExecute("SELECT v FROM k WHERE id = 500000");
    ASSERT_EQ(hit.tuples.size(), 1u);
    EXPECT_EQ(hit.tuples.front().at(0), Value::Int(40));
    const AccessCounts after = ReadAccessCounts(db_);
    EXPECT_EQ(after.index_selections, before.index_selections + 1);
    EXPECT_EQ(after.full_scans, before.full_scans);
    // A key no row holds is answered by the probe too, with no rows.
    EXPECT_TRUE(MustExecute("SELECT v FROM k WHERE id = 7").tuples.empty());
    EXPECT_EQ(ReadAccessCounts(db_).full_scans, before.full_scans);
    MustExecute("DROP TABLE k");
  }
}

TEST_F(PrismaDbTest, WritesByKeyMatchWritesThroughAScan) {
  // `id + 0 = k` neither prunes nor fits an index: it scans every
  // fragment and commits in two phases, so its WAL markers differ, but
  // its rows, its answer and its redo records must not.
  for (const char* clause : kKeyedClauses) {
    SCOPED_TRACE(clause);
    MakeKeyed(&db_, "a", clause);
    MakeKeyed(&db_, "b", clause);
    for (const auto& [by_key, by_scan] :
         {std::pair{"UPDATE a SET v = v * 2 + 1 WHERE id = 250000",
                    "UPDATE b SET v = v * 2 + 1 WHERE id + 0 = 250000"},
          std::pair{"DELETE FROM a WHERE id = 612500",
                    "DELETE FROM b WHERE id + 0 = 612500"},
          std::pair{"UPDATE a SET v = 0 WHERE id = 3",
                    "UPDATE b SET v = 0 WHERE id + 0 = 3"}}) {
      SCOPED_TRACE(by_key);
      const AccessCounts start = ReadAccessCounts(db_);
      const QueryResult keyed = MustExecute(by_key);
      const AccessCounts mid = ReadAccessCounts(db_);
      const QueryResult scanned = MustExecute(by_scan);
      const AccessCounts end = ReadAccessCounts(db_);
      EXPECT_EQ(keyed.affected_rows, scanned.affected_rows);
      EXPECT_EQ(mid.redo_records - start.redo_records,
                end.redo_records - mid.redo_records);
      // Writes do not run plans: neither form counts as a selection.
      EXPECT_EQ(end.index_selections, start.index_selections);
      EXPECT_EQ(end.full_scans, start.full_scans);
      EXPECT_EQ(MustExecute("SELECT * FROM a ORDER BY id").tuples,
                MustExecute("SELECT * FROM b ORDER BY id").tuples);
    }
    EXPECT_EQ(MustExecute("SELECT * FROM a").tuples.size(), 79u);
    MustExecute("DROP TABLE a");
    MustExecute("DROP TABLE b");
  }
}

TEST_F(PrismaDbTest, RecoveredFragmentStillProbesItsKeyIndex) {
  for (const auto& [table, clause] :
       {std::pair{"h", kKeyedClauses[0]}, std::pair{"r", kKeyedClauses[1]}}) {
    SCOPED_TRACE(clause);
    MakeKeyed(&db_, table, clause);
    auto info = db_.gdh().dictionary().GetTable(table);
    ASSERT_TRUE(info.ok());
    const int home =
        (*info)->fragmenter->FragmentsForKey(Value::Int(500000)).front();
    ASSERT_TRUE(db_.CrashFragment(table, home).ok());
    ASSERT_TRUE(db_.RecoverFragment(table, home).ok());
    db_.Run();
    const AccessCounts before = ReadAccessCounts(db_);
    QueryResult hit = MustExecute(prisma::StrFormat(
        "SELECT v FROM %s WHERE id = 500000", table));
    ASSERT_EQ(hit.tuples.size(), 1u);
    EXPECT_EQ(hit.tuples.front().at(0), Value::Int(40));
    EXPECT_EQ(db_.metrics().CounterValue(
                  "ofm.index_selections",
                  {{"fragment", (*info)->fragments[home].name}}),
              1u);
    EXPECT_EQ(ReadAccessCounts(db_).full_scans, before.full_scans);
  }
}

TEST_F(PrismaDbTest, OtherColumnsAndRoundRobinTablesStillScan) {
  MakeKeyed(&db_, "k", "HASH(id) INTO 4 FRAGMENTS");
  AccessCounts before = ReadAccessCounts(db_);
  EXPECT_EQ(MustExecute("SELECT id FROM k WHERE v = 40").tuples.size(), 1u);
  AccessCounts after = ReadAccessCounts(db_);
  EXPECT_EQ(after.index_selections, before.index_selections);
  EXPECT_EQ(after.full_scans, before.full_scans + 4);

  MakeKeyed(&db_, "rr", "ROUNDROBIN INTO 4 FRAGMENTS");
  before = after;
  EXPECT_EQ(MustExecute("SELECT v FROM rr WHERE id = 500000").tuples.size(),
            1u);
  after = ReadAccessCounts(db_);
  EXPECT_EQ(after.index_selections, before.index_selections);
  EXPECT_EQ(after.full_scans, before.full_scans + 4);
}

TEST_F(PrismaDbTest, IndexMatchingTheKeyIndexIsOneStructure) {
  // `CREATE INDEX k_id` names the hash index the table already keeps on
  // its key: the OFMs build no second one, so an insert costs the same
  // with and without it. An index on another column does cost more.
  PrismaDb plain(SmallMachine());
  PrismaDb renamed(SmallMachine());
  PrismaDb other(SmallMachine());
  for (PrismaDb* db : {&plain, &renamed, &other}) {
    MakeKeyed(db, "k", "HASH(id) INTO 4 FRAGMENTS");
  }
  ASSERT_TRUE(renamed.Execute("CREATE INDEX k_id ON k (id)").ok());
  EXPECT_FALSE(renamed.Execute("CREATE INDEX k_id ON k (id)").ok());
  ASSERT_TRUE(other.Execute("CREATE INDEX k_v ON k (v)").ok());
  std::vector<sim::SimTime> insert_ns;
  for (PrismaDb* db : {&plain, &renamed, &other}) {
    db->Run();
    auto inserted = db->Execute("INSERT INTO k VALUES (3, 3), (7, 7)");
    ASSERT_TRUE(inserted.ok());
    insert_ns.push_back(inserted->response_time_ns);
  }
  EXPECT_EQ(insert_ns[1], insert_ns[0]);
  EXPECT_GT(insert_ns[2], insert_ns[0]);
}

}  // namespace
}  // namespace prisma::core
