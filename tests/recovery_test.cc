#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/replication.h"
#include "soak_repro.h"

namespace prisma::core {
namespace {

MachineConfig SoakMachine() {
  MachineConfig config;
  config.pes = 8;
  return config;
}

constexpr int kFragments = 4;

QueryResult MustExecute(PrismaDb* db, const std::string& sql) {
  auto result = db->Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
  return std::move(result).value();
}

std::set<int64_t> SelectIds(PrismaDb* db) {
  QueryResult r = MustExecute(db, "SELECT id FROM t");
  std::set<int64_t> ids;
  for (const Tuple& tuple : r.tuples) ids.insert(tuple.at(0).int_value());
  return ids;
}

void CrashAndRecoverAll(PrismaDb* db) {
  for (int f = 0; f < kFragments; ++f) {
    ASSERT_TRUE(db->CrashFragment("t", f).ok());
    ASSERT_TRUE(db->RecoverFragment("t", f).ok());
    db->Run();  // Let the respawned OFM's restart/redo pass settle.
  }
}

TEST(RecoveryTest, CommittedEffectsSurviveAbortedOnesDont) {
  PrismaDb db(SoakMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  for (int i = 0; i < 20; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i * 10));
  }

  // An explicit transaction that writes and then aborts: its tuples must
  // vanish now and must not resurrect through the WAL after a crash.
  auto session = db.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (100, 0)").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (101, 0)").ok());
  ASSERT_TRUE(session.Execute("ABORT").ok());
  EXPECT_EQ(db.metrics().CounterValue("gdh.txns_aborted"), 1u);

  CrashAndRecoverAll(&db);

  const std::set<int64_t> ids = SelectIds(&db);
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(ids.count(100), 0u);
  EXPECT_EQ(ids.count(101), 0u);

  // Metrics account for the restart work: every fragment recovered, and
  // the 20 committed inserts (one redo record each) were replayed.
  EXPECT_EQ(db.metrics().CounterTotal("ofm.recoveries"),
            static_cast<uint64_t>(kFragments));
  EXPECT_EQ(db.metrics().CounterTotal("ofm.redo_applied"), 20u);
}

TEST(RecoveryTest, CheckpointBoundsRedoWork) {
  PrismaDb db(SoakMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  for (int i = 0; i < 10; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, 0)", i));
  }
  MustExecute(&db, "CHECKPOINT");
  for (int i = 10; i < 14; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, 0)", i));
  }

  CrashAndRecoverAll(&db);

  // Only the post-checkpoint suffix replays; the first 10 rows come from
  // the snapshot.
  EXPECT_EQ(db.metrics().CounterTotal("ofm.redo_applied"), 4u);
  EXPECT_EQ(SelectIds(&db).size(), 14u);
}

/// Seeded random soak: interleaves reads, writes, explicit transactions
/// (committed and aborted), checkpoints and fragment crash/recover cycles,
/// tracking a model of the committed row set. Returns the final metrics
/// dump so callers can compare runs.
std::string RunSoak(uint64_t seed, std::set<int64_t>* final_ids,
                    uint64_t* expected_aborts, uint64_t* expected_crashes) {
  PrismaDb db(SoakMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  Rng rng(seed);
  std::set<int64_t> model;
  int64_t next_id = 0;
  uint64_t aborts = 0;
  uint64_t crashes = 0;

  for (int op = 0; op < 60; ++op) {
    const int64_t dice = rng.UniformInt(0, 9);
    if (dice < 4) {
      // Auto-commit insert.
      const int64_t id = next_id++;
      MustExecute(&db, StrFormat("INSERT INTO t VALUES (%lld, %lld)",
                                 static_cast<long long>(id),
                                 static_cast<long long>(id * 7)));
      model.insert(id);
    } else if (dice == 4 && !model.empty()) {
      // Delete one existing row by key.
      auto it = model.begin();
      std::advance(it,
                   rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
      MustExecute(&db, StrFormat("DELETE FROM t WHERE id = %lld",
                                 static_cast<long long>(*it)));
      model.erase(it);
    } else if (dice == 5) {
      // Explicit transaction with a few inserts; commit or abort.
      auto session = db.OpenSession();
      PRISMA_CHECK(session.Execute("BEGIN").ok());
      const int64_t count = rng.UniformInt(1, 3);
      std::vector<int64_t> staged;
      for (int64_t i = 0; i < count; ++i) {
        const int64_t id = next_id++;
        PRISMA_CHECK(
            session.Execute(StrFormat("INSERT INTO t VALUES (%lld, 1)",
                                      static_cast<long long>(id)))
                .ok());
        staged.push_back(id);
      }
      if (rng.NextBool(0.5)) {
        PRISMA_CHECK(session.Execute("COMMIT").ok());
        model.insert(staged.begin(), staged.end());
      } else {
        PRISMA_CHECK(session.Execute("ABORT").ok());
        ++aborts;
      }
    } else if (dice == 6) {
      MustExecute(&db, "CHECKPOINT");
    } else if (dice == 7) {
      // Crash one fragment and bring it back before the next statement.
      const int f = static_cast<int>(rng.UniformInt(0, kFragments - 1));
      PRISMA_CHECK(db.CrashFragment("t", f).ok());
      PRISMA_CHECK(db.RecoverFragment("t", f).ok());
      db.Run();
      ++crashes;
    } else {
      // Read back and verify against the model mid-soak.
      const std::set<int64_t> ids = SelectIds(&db);
      PRISMA_CHECK(ids == model)
          << "soak divergence at op " << op << ": db has " << ids.size()
          << " rows, model has " << model.size();
    }
  }

  *final_ids = SelectIds(&db);
  PRISMA_CHECK(*final_ids == model);
  *expected_aborts = aborts;
  *expected_crashes = crashes;
  return db.DumpMetrics();
}

TEST(RecoveryTest, RandomizedSoakKeepsCommittedStateAndMetricsHonest) {
  const uint64_t seed = SoakSeeds(1234, 1234).front();
  PRISMA_SEED_REPRO(
      "RecoveryTest.RandomizedSoakKeepsCommittedStateAndMetricsHonest", seed);
  std::set<int64_t> ids;
  uint64_t aborts = 0;
  uint64_t crashes = 0;
  const std::string metrics = RunSoak(seed, &ids, &aborts, &crashes);

  // The seed produced a non-trivial mix (update the seed if this fails
  // after changing the op distribution).
  EXPECT_GT(ids.size(), 5u);
  EXPECT_GT(aborts, 0u);
  EXPECT_GT(crashes, 0u);

  // The registry agrees with the ground truth the soak tracked.
  EXPECT_NE(metrics.find(StrFormat("counter gdh.txns_aborted %llu",
                                   static_cast<unsigned long long>(aborts))),
            std::string::npos)
      << metrics;

  std::set<int64_t> ids2;
  uint64_t aborts2 = 0;
  uint64_t crashes2 = 0;
  const std::string metrics2 = RunSoak(seed, &ids2, &aborts2, &crashes2);

  // Same seed, same machine: byte-identical metrics and identical state —
  // the crash/recovery path is deterministic too.
  EXPECT_EQ(ids, ids2);
  EXPECT_EQ(aborts, aborts2);
  EXPECT_EQ(crashes, crashes2);
  EXPECT_EQ(metrics, metrics2);
}

// ------------------------------------------- Fragment replication (§13)

/// Replicated machine: every permanent fragment lives on two distinct PEs,
/// coordinators are pinned to PE 0 (which never crashes) so these tests
/// observe replica failover, not coordinator loss. Tight retransmission
/// knobs make crash detection on the write path exhaust quickly.
MachineConfig ReplicatedMachine() {
  MachineConfig config;
  config.pes = 8;
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  config.rpc_attempts = 4;
  return config;
}

/// After an end-of-test CHECKPOINT both replicas of every fragment of `t`
/// must have byte-identical snapshots on their PEs' stable stores — the
/// resync convergence criterion.
void ExpectReplicasByteIdentical(PrismaDb* db) {
  const auto table = db->gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (const gdh::FragmentInfo& frag : (*table)->fragments) {
    ASSERT_TRUE(frag.replicated);
    const auto home = db->stable_store(frag.pe).ReadSnapshot(
        frag.name + ".ckpt");
    const auto backup = db->stable_store(frag.backup_pe).ReadSnapshot(
        gdh::BackupFragmentName(frag.name) + ".ckpt");
    ASSERT_TRUE(home.ok()) << frag.name;
    ASSERT_TRUE(backup.ok()) << frag.name;
    EXPECT_EQ(*home, *backup) << frag.name;
  }
}

TEST(RecoveryTest, ReplicatedCrashFailoverServesReadsAndResyncConverges) {
  PrismaDb db(ReplicatedMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  std::set<int64_t> model;
  for (int i = 0; i < 20; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i * 10));
    model.insert(i);
  }

  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  ASSERT_TRUE(frag.replicated);
  ASSERT_NE(frag.pe, frag.backup_pe);  // Anti-affinity placement.

  // Crash the home PE of fragment 0. Reads must keep being answered —
  // correctly and without a single Unavailable — from the backups.
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  EXPECT_EQ(SelectIds(&db), model);

  // Writes keep committing too: the GDH sheds the dead replica from 2PC
  // once its retransmission budget exhausts.
  for (int i = 100; i < 105; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, 0)", i));
    model.insert(i);
  }
  EXPECT_EQ(SelectIds(&db), model);
  EXPECT_GT(db.metrics().CounterTotal("replica.stale_marks"), 0u);

  // Restart: the stale replicas resync (snapshot bulk + WAL delta +
  // cutover) from their surviving peers and return to service.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  EXPECT_GT(db.metrics().CounterTotal("replica.resyncs_completed"), 0u);
  EXPECT_EQ(SelectIds(&db), model);

  // The crash window never surfaced an Unavailable to a read.
  EXPECT_EQ(db.metrics().CounterTotal("query.unavailable"), 0u);

  MustExecute(&db, "CHECKPOINT");
  ExpectReplicasByteIdentical(&db);
}

TEST(RecoveryTest, ResyncedReplicaStillProbesItsKeyIndex) {
  PrismaDb db(ReplicatedMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  MustExecute(&db, "INSERT INTO t VALUES (0, 0), (1, 10), (2, 20), (3, 30), "
                   "(4, 40), (5, 50), (6, 60), (7, 70), (8, 80), (9, 90)");
  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  // A key whose fragment has neither replica on PE 0 (CrashPe refuses it).
  int64_t key = -1;
  int home = -1;
  for (int64_t id = 0; id < 10 && key < 0; ++id) {
    const int f = (*table)->fragmenter->FragmentsForKey(Value::Int(id))[0];
    const gdh::FragmentInfo& frag = (*table)->fragments[f];
    if (frag.pe != 0 && frag.backup_pe != 0) {
      key = id;
      home = f;
    }
  }
  ASSERT_GE(key, 0);
  const gdh::FragmentInfo frag = (*table)->fragments[home];

  // The home replica goes stale while its PE is down, then resyncs.
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  MustExecute(&db, StrFormat("UPDATE t SET v = v + 1 WHERE id = %lld",
                             static_cast<long long>(key)));
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  ASSERT_GT(db.metrics().CounterTotal("replica.resyncs_completed"), 0u);

  // With the backup's PE down the resynced home replica serves the read,
  // through the key index it rebuilt at the cutover.
  ASSERT_GT(db.CrashPe(frag.backup_pe), 0u);
  const obs::Labels home_labels = {{"fragment", frag.name}};
  const uint64_t probes =
      db.metrics().CounterValue("ofm.index_selections", home_labels);
  const uint64_t scans =
      db.metrics().CounterValue("ofm.full_scans", home_labels);
  QueryResult hit = MustExecute(
      &db, StrFormat("SELECT v FROM t WHERE id = %lld",
                     static_cast<long long>(key)));
  ASSERT_EQ(hit.tuples.size(), 1u);
  EXPECT_EQ(hit.tuples.front().at(0), Value::Int(key * 10 + 1));
  EXPECT_EQ(db.metrics().CounterValue("ofm.index_selections", home_labels),
            probes + 1);
  EXPECT_EQ(db.metrics().CounterValue("ofm.full_scans", home_labels), scans);
}

TEST(RecoveryTest, ResyncBulkStreamIsFramedByTheMachinesBatchRows) {
  MachineConfig config = ReplicatedMachine();
  config.exchange_batch_rows = 4;
  PrismaDb db(config);
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  for (int i = 0; i < 100; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
  }
  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  ASSERT_TRUE(frag.replicated);
  ASSERT_NE(frag.pe, 0);

  // Only fragment 0's primary lives on its PE, so the restart resyncs
  // one stale replica, from the backup.
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  MustExecute(&db, "INSERT INTO t VALUES (1000, 0), (1001, 0), (1002, 0)");
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  ASSERT_EQ(db.metrics().CounterTotal("replica.resyncs_completed"), 1u);

  // The bulk copy of N rows leaves the source in batches of at most 4.
  const uint64_t rows =
      db.metrics().CounterTotal("replica.resync_bulk_tuples");
  ASSERT_GT(rows, 8u);
  const uint64_t sent = db.metrics().CounterValue(
      "exchange.batches_sent",
      {{"fragment", gdh::BackupFragmentName(frag.name)}});
  EXPECT_GE(sent, (rows + 3) / 4);
  // The target counts each batch it received once, as the source counted
  // it sent.
  EXPECT_EQ(db.metrics().CounterValue("exchange.batches_received",
                                      {{"fragment", frag.name}}),
            sent);
}

TEST(RecoveryTest, FixpointFollowsReadRoutingAfterAPrimaryCrash) {
  const MachineConfig config = ReplicatedMachine();
  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY "
                   "HASH(src) INTO 3 FRAGMENTS");
  MustExecute(&db, "INSERT INTO edge VALUES (1, 2), (2, 3), (3, 4), "
                   "(4, 5), (5, 6), (6, 1), (7, 8), (8, 9), (9, 7)");
  constexpr char kClosure[] =
      "p(X, Y) :- edge(X, Y).\n"
      "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
      "? p(X, Y).";
  auto before = db.ExecutePrismalog(kClosure);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->tuples.size(), 6u * 6u + 3u * 3u);

  const auto table = db.gdh().dictionary().GetTable("edge");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[1];
  ASSERT_TRUE(frag.replicated);
  const net::NodeId primary_pe = frag.ReplicaPe(frag.primary_replica);
  ASSERT_NE(primary_pe, 0);  // CrashPe refuses PE 0.
  ASSERT_GT(db.CrashPe(primary_pe), 0u);

  // The edge producer and the partition of fragment 1 go straight to its
  // backup: the closure does not wait out an RPC timeout on the dead
  // primary before failing over.
  auto after = db.ExecutePrismalog(kClosure);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->tuples, before->tuples);
  EXPECT_LT(after->response_time_ns, config.rpc_timeout_ns);
  EXPECT_EQ(db.metrics().CounterTotal("query.unavailable"), 0u);
}

TEST(RecoveryTest, CrashDuringResyncNeverServesWrongAnswers) {
  PrismaDb db(ReplicatedMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  std::set<int64_t> model;
  for (int i = 0; i < 30; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
    model.insert(i);
  }

  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  ASSERT_GT(db.CrashPe(frag.pe), 0u);

  // Writes while the PE is down: the replicas left behind go stale.
  for (int i = 100; i < 110; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, 1)", i));
    model.insert(i);
  }
  MustExecute(&db, "DELETE FROM t WHERE id = 3");
  model.erase(3);

  // Restart the PE but crash it again mid-resync: step the simulation
  // just until the first resync has started, then kill the target again.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  while (db.metrics().CounterTotal("replica.resyncs_started") == 0) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before any resync began";
  }
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  db.Run();

  // The interrupted resync must not have published the half-filled
  // replica: reads still come from the survivors, still exact.
  EXPECT_EQ(SelectIds(&db), model);
  EXPECT_EQ(db.metrics().CounterTotal("query.unavailable"), 0u);

  // Second restart completes a fresh resync and converges for real.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  EXPECT_GT(db.metrics().CounterTotal("replica.resyncs_completed"), 0u);
  EXPECT_EQ(SelectIds(&db), model);

  MustExecute(&db, "CHECKPOINT");
  ExpectReplicasByteIdentical(&db);
}

TEST(RecoveryTest, ResyncConvergesWhileAnsweredCommitsDeliverTheirMarkers) {
  PrismaDb db(ReplicatedMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  std::set<int64_t> model;
  for (int i = 0; i < 30; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
    model.insert(i);
  }
  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  for (int i = 100; i < 110; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, 1)", i));
    model.insert(i);
  }

  // Restart the PE while a chain of multi-fragment inserts keeps
  // committing. Each is answered at its decision, so the resyncs' bulk
  // snapshots and cutovers keep meeting transactions whose commit
  // markers are still on their way to the sources.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  int batch = 0;
  std::function<void()> next = [&] {
    if (batch == 60) return;
    const int base = 1000 + 4 * batch++;
    db.Submit(StrFormat("INSERT INTO t VALUES (%d, 2), (%d, 2), (%d, 2), "
                        "(%d, 2)",
                        base, base + 1, base + 2, base + 3),
              /*prismalog=*/false, exec::kAutoCommit,
              [&, base](const gdh::ClientReply& reply, sim::SimTime) {
                ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
                for (int id = base; id < base + 4; ++id) model.insert(id);
                next();
              });
  };
  next();
  db.Run();
  ASSERT_EQ(batch, 60);
  EXPECT_GT(db.metrics().CounterTotal("replica.resyncs_completed"), 0u);
  EXPECT_EQ(SelectIds(&db), model);

  MustExecute(&db, "CHECKPOINT");
  ExpectReplicasByteIdentical(&db);
}

TEST(RecoveryTest, DoubleFailureDegradesToTypedUnavailableNeverWrongAnswers) {
  PrismaDb db(ReplicatedMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  for (int i = 0; i < 20; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
  }

  const auto table = db.gdh().dictionary().GetTable("t");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];

  // Lose BOTH replicas of fragment 0: replication degree 2 is exhausted.
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  ASSERT_GT(db.CrashPe(frag.backup_pe), 0u);

  // The read must degrade to a typed Unavailable naming the crashed PE and
  // fragment — never hang, never return a partial (wrong) answer.
  auto severed = db.Execute("SELECT id FROM t");
  ASSERT_FALSE(severed.ok());
  EXPECT_EQ(severed.status().code(), StatusCode::kUnavailable)
      << severed.status().ToString();
  const std::string message = severed.status().ToString();
  EXPECT_NE(message.find("fragment t#0"), std::string::npos) << message;
  EXPECT_NE(message.find("on PE"), std::string::npos) << message;

  // Degradation is accounted: the labeled counter named the same PE/table.
  EXPECT_GT(db.metrics().CounterTotal("query.unavailable"), 0u);
  EXPECT_NE(db.DumpMetrics().find("query.unavailable{"), std::string::npos);

  // A write to the fragment degrades the same way: the requests to both
  // replicas exhaust their budgets and the statement aborts, typed.
  int64_t id = 100;
  while (*(*table)->fragmenter->FragmentOf(
             Tuple({Value::Int(id), Value::Int(0)})) != 0) {
    ++id;
  }
  auto write = db.Execute(
      StrFormat("INSERT INTO t VALUES (%lld, 0)", static_cast<long long>(id)));
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kUnavailable)
      << write.status().ToString();
  // Every member of the write's and the abort's fan-outs settled.
  EXPECT_EQ(db.gdh().unsettled_members(), 0u);

  // Both PEs back: resync runs both ways and full service resumes.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  ASSERT_TRUE(db.RecoverPe(frag.backup_pe).ok());
  db.Run();
  EXPECT_EQ(SelectIds(&db).size(), 20u);

  MustExecute(&db, "CHECKPOINT");
  ExpectReplicasByteIdentical(&db);
}

TEST(RecoveryTest, SoakMetricsCountRecoveries) {
  PrismaDb db(SoakMachine());
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  MustExecute(&db, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)");
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(db.CrashFragment("t", 0).ok());
    ASSERT_TRUE(db.RecoverFragment("t", 0).ok());
    db.Run();
  }
  EXPECT_EQ(db.metrics().CounterTotal("ofm.recoveries"), 3u);
  EXPECT_EQ(SelectIds(&db).size(), 3u);
}

}  // namespace
}  // namespace prisma::core
