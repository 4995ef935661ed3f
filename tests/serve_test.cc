// Serving-layer units (DESIGN.md §15): statement normalization, the
// shared plan cache, the admission dispatcher's hysteresis / FIFO /
// concurrency-cap / typed-shedding contracts, and the workload
// generator's determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"
#include "gdh/plan_cache.h"
#include "obs/metrics.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"
#include "sql/normalize.h"

namespace prisma {
namespace {

using core::MachineConfig;
using core::PrismaDb;
using gdh::PlanCache;
using serve::AdmitState;
using serve::ArrivalEvent;
using serve::Dispatcher;
using serve::DispatcherOptions;
using serve::WorkloadGenerator;
using serve::WorkloadProfile;

// ----------------------------------------------------------- Normalization

TEST(NormalizeTest, FormattingAndCaseFoldIntoOneFingerprint) {
  auto a = sql::NormalizeStatement(
      "select  name FROM emp WHERE dept = 'sales'");
  auto b = sql::NormalizeStatement("SELECT name FROM emp WHERE dept='eng'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, "SELECT NAME FROM EMP WHERE DEPT = ?");
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  ASSERT_EQ(a->params.size(), 1u);
  ASSERT_EQ(b->params.size(), 1u);
  EXPECT_NE(a->params[0], b->params[0]);
}

TEST(NormalizeTest, LiteralsExtractInOrderWithTypeTags) {
  auto n = sql::NormalizeStatement(
      "SELECT v FROM t WHERE id = 42 AND name = '42' AND w > 1.5");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->fingerprint,
            "SELECT V FROM T WHERE ID = ? AND NAME = ? AND W > ?");
  ASSERT_EQ(n->params.size(), 3u);
  EXPECT_EQ(n->params[0], "42");
  // The string literal is quote-prefixed so '42' never collides with 42.
  EXPECT_EQ(n->params[1], "'42");
  EXPECT_NE(n->params[0], n->params[1]);
}

TEST(NormalizeTest, ExplainFingerprintsDoNotStartWithSelect) {
  auto n = sql::NormalizeStatement("EXPLAIN SELECT v FROM t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->fingerprint.rfind("SELECT", 0), std::string::npos);
}

// -------------------------------------------------------------- Plan cache

PlanCache::Key MakeKey(const std::string& fingerprint,
                       std::vector<std::string> params = {}) {
  PlanCache::Key key;
  key.fingerprint = fingerprint;
  key.params = std::move(params);
  return key;
}

std::shared_ptr<PlanCache::Entry> MakeEntry() {
  // Insert drops entries without a split plan (nothing worth caching), so
  // the fixture carries an empty-but-present one.
  auto entry = std::make_shared<PlanCache::Entry>();
  entry->split = std::make_shared<const gdh::DistributedPlan>();
  return entry;
}

TEST(PlanCacheTest, HitMissAndCounters) {
  obs::MetricsRegistry metrics;
  PlanCache cache(/*capacity=*/4);
  cache.AttachMetrics(&metrics);
  const PlanCache::Key key = MakeKey("SELECT V FROM T WHERE ID = ?", {"1"});
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, MakeEntry());
  EXPECT_NE(cache.Lookup(key), nullptr);
  // Same shape, different literal: distinct plan, distinct entry.
  EXPECT_EQ(cache.Lookup(MakeKey("SELECT V FROM T WHERE ID = ?", {"2"})),
            nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(metrics.CounterValue("query.plan_cache.hit"), 1u);
  EXPECT_EQ(metrics.CounterValue("query.plan_cache.miss"), 2u);
}

TEST(PlanCacheTest, FifoEvictionAtCapacity) {
  PlanCache cache(/*capacity=*/2);
  cache.Insert(MakeKey("A"), MakeEntry());
  cache.Insert(MakeKey("B"), MakeEntry());
  cache.Insert(MakeKey("C"), MakeEntry());  // Evicts A (oldest).
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(MakeKey("A")), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey("B")), nullptr);
  EXPECT_NE(cache.Lookup(MakeKey("C")), nullptr);
}

TEST(PlanCacheTest, InvalidateClearsAndBumpsEpoch) {
  obs::MetricsRegistry metrics;
  PlanCache cache(/*capacity=*/4);
  cache.AttachMetrics(&metrics);
  cache.Insert(MakeKey("A"), MakeEntry());
  cache.Insert(MakeKey("B"), MakeEntry());
  EXPECT_EQ(cache.epoch(), 0u);
  cache.Invalidate("ddl");
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(MakeKey("A")), nullptr);
  EXPECT_EQ(metrics.CounterValue("query.plan_cache.invalidate",
                                 {{"reason", "ddl"}}),
            2u);
}

TEST(PlanCacheTest, CapacityZeroDisables) {
  PlanCache cache(/*capacity=*/0);
  cache.Insert(MakeKey("A"), MakeEntry());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(MakeKey("A")), nullptr);
}

TEST(PlanCacheTest, ResidencyRecordsDieWithTheirEntry) {
  PlanCache cache(/*capacity=*/2);
  const auto a = cache.Insert(MakeKey("A"), MakeEntry());
  const auto b = cache.Insert(MakeKey("B"), MakeEntry());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_LT(a->id, b->id);  // Monotonic.
  // A concurrent fill of a live key is dropped: nothing to record under.
  EXPECT_EQ(cache.Insert(MakeKey("A"), MakeEntry()), nullptr);
  const gdh::PlanRef ref_a{a->id, 0, 0};
  const gdh::PlanRef ref_b{b->id, 0, 1};
  cache.NoteResident(ref_a, /*ofm=*/7);
  cache.NoteResident(ref_b, /*ofm=*/7);
  EXPECT_TRUE(cache.Resident(ref_a, 7));
  EXPECT_FALSE(cache.Resident(ref_a, 8));  // Per OFM process...
  EXPECT_FALSE(cache.Resident({a->id, 0, 1}, 7));  // ...and per side.
  cache.ForgetResident(ref_a, 7);
  EXPECT_FALSE(cache.Resident(ref_a, 7));
  cache.NoteResident(ref_a, 7);
  // FIFO eviction drops A and its record; B's survives.
  const auto c = cache.Insert(MakeKey("C"), MakeEntry());
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(cache.Resident(ref_a, 7));
  EXPECT_TRUE(cache.Resident(ref_b, 7));
  // A coordinator still running A's plan cannot record it again.
  cache.NoteResident(ref_a, 7);
  EXPECT_FALSE(cache.Resident(ref_a, 7));
  // Invalidation drops every record; ids are never reused.
  cache.Invalidate("ddl");
  EXPECT_FALSE(cache.Resident(ref_b, 7));
  const auto b2 = cache.Insert(MakeKey("B"), MakeEntry());
  ASSERT_NE(b2, nullptr);
  EXPECT_GT(b2->id, c->id);
}

// ------------------------------------------------------ Admission hysteresis

TEST(DispatcherTest, HysteresisHoldsInsideTheDeadBand) {
  DispatcherOptions options;
  options.backlog_high = 100;
  options.backlog_low = 20;
  // Rising through the dead band: still open.
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kOpen, 0, options),
            AdmitState::kOpen);
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kOpen, 99, options),
            AdmitState::kOpen);
  // At/above high: sheds.
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kOpen, 100, options),
            AdmitState::kShedding);
  // Falling back into the dead band: STAYS shedding — no flap.
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kShedding, 99, options),
            AdmitState::kShedding);
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kShedding, 21, options),
            AdmitState::kShedding);
  // Only at/below low does admission reopen.
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kShedding, 20, options),
            AdmitState::kOpen);
  // And the reopened state tolerates the dead band again.
  EXPECT_EQ(Dispatcher::NextState(AdmitState::kOpen, 21, options),
            AdmitState::kOpen);
}

// --------------------------------------------------- Dispatcher end-to-end

std::unique_ptr<PrismaDb> MakeServingDb(MachineConfig config = {}) {
  config.pes = 4;
  auto db = std::make_unique<PrismaDb>(config);
  EXPECT_TRUE(WorkloadGenerator::SetupSchema(db.get(), /*rows=*/64,
                                             /*fragments=*/2)
                  .ok());
  return db;
}

TEST(DispatcherTest, EveryStatementResolves) {
  auto db = MakeServingDb();
  Dispatcher dispatcher(db.get(), DispatcherOptions());
  int replies = 0;
  for (int i = 0; i < 20; ++i) {
    dispatcher.Submit(
        StrFormat("SELECT v FROM item WHERE id = %d", i % 64),
        exec::kAutoCommit,
        [&](const gdh::ClientReply& reply, sim::SimTime) {
          EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
          ++replies;
        },
        /*delay=*/i * 100'000);
  }
  dispatcher.Run();
  EXPECT_EQ(replies, 20);
  EXPECT_EQ(dispatcher.stats().completed, 20u);
  EXPECT_EQ(dispatcher.stats().shed, 0u);
  EXPECT_EQ(dispatcher.latency().count(), 20u);
  EXPECT_EQ(db->metrics().CounterValue("serve.admitted"), 20u);
  EXPECT_EQ(db->metrics().CounterValue("serve.completed"), 20u);
}

TEST(DispatcherTest, FullQueueShedsWithTypedOverloaded) {
  auto db = MakeServingDb();
  // Schema setup already ran statements; shed traffic must add none.
  const uint64_t statements_before =
      db->metrics().CounterValue("gdh.statements");
  DispatcherOptions options;
  options.queue_capacity = 0;  // Every auto-commit arrival finds it full.
  Dispatcher dispatcher(db.get(), options);
  int shed = 0;
  dispatcher.Submit("SELECT v FROM item WHERE id = 1", exec::kAutoCommit,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      EXPECT_EQ(reply.status.code(), StatusCode::kOverloaded);
                      ++shed;
                    });
  dispatcher.Run();
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(dispatcher.stats().shed, 1u);
  EXPECT_EQ(dispatcher.stats().completed, 0u);
  EXPECT_EQ(db->metrics().CounterValue("serve.shed"), 1u);
  // Shed statements never reach the database.
  EXPECT_EQ(db->metrics().CounterValue("gdh.statements"), statements_before);
}

TEST(DispatcherTest, ConcurrencyCapIsHonoredAndQueueIsFifo) {
  MachineConfig config;
  config.coordinator_pes = {0};  // One coordinator PE...
  auto db = MakeServingDb(config);
  DispatcherOptions options;
  options.per_pe_concurrency = 1;  // ...times one = a cap of exactly 1.
  Dispatcher dispatcher(db.get(), options);
  std::vector<int> completion_order;
  for (int i = 0; i < 6; ++i) {
    dispatcher.Submit("SELECT grp, COUNT(*) AS n FROM item GROUP BY grp",
                      exec::kAutoCommit,
                      [&, i](const gdh::ClientReply& reply, sim::SimTime) {
                        EXPECT_TRUE(reply.status.ok());
                        completion_order.push_back(i);
                      });
  }
  dispatcher.Run();
  EXPECT_EQ(dispatcher.stats().peak_in_flight, 1u);
  // The first arrival dispatched straight through; the other five queued.
  EXPECT_EQ(dispatcher.stats().peak_queue, 5u);
  // FIFO: simultaneous arrivals complete in submission order.
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(DispatcherTest, DefaultCapCountsEveryPe) {
  // Coordinators default to the client's PE, but the machine-wide cap
  // stays per_pe_concurrency x pes: admission does not shrink with them.
  auto db = MakeServingDb();
  ASSERT_TRUE(db->config().coordinator_pes.empty());
  DispatcherOptions options;
  options.per_pe_concurrency = 2;
  Dispatcher dispatcher(db.get(), options);
  int replies = 0;
  for (int i = 0; i < 12; ++i) {
    dispatcher.Submit("SELECT grp, COUNT(*) AS n FROM item GROUP BY grp",
                      exec::kAutoCommit,
                      [&](const gdh::ClientReply& reply, sim::SimTime) {
                        EXPECT_TRUE(reply.status.ok());
                        ++replies;
                      });
  }
  dispatcher.Run();
  EXPECT_EQ(replies, 12);
  // Simultaneous arrivals: the first 2 x 4 dispatch, the rest queue.
  EXPECT_EQ(dispatcher.stats().peak_in_flight, 2u * 4u);
  EXPECT_EQ(dispatcher.stats().peak_queue, 4u);
}

TEST(DispatcherTest, InTransactionStatementsBypassShedding) {
  auto db = MakeServingDb();
  auto begun = db->Execute("BEGIN");
  ASSERT_TRUE(begun.ok());
  const exec::TxnId txn = begun->txn;
  ASSERT_NE(txn, exec::kAutoCommit);

  DispatcherOptions options;
  options.queue_capacity = 0;  // Sheds every new statement...
  Dispatcher dispatcher(db.get(), options);
  int replies = 0;
  dispatcher.Submit("UPDATE item SET v = v + 1 WHERE id = 3", txn,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      EXPECT_TRUE(reply.status.ok())
                          << reply.status.ToString();
                      ++replies;
                    });
  dispatcher.Run();
  dispatcher.Submit("COMMIT", txn,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      EXPECT_TRUE(reply.status.ok());
                      ++replies;
                    });
  dispatcher.Run();
  // ...but the in-transaction statements went through: locks were held,
  // refusing them could only delay 2PC settlement.
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(dispatcher.stats().shed, 0u);
  EXPECT_EQ(dispatcher.stats().completed, 2u);
  auto check = db->Execute("SELECT v FROM item WHERE id = 3");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->tuples.size(), 1u);
  EXPECT_EQ(check->tuples[0].at(0).int_value(), 3 % 100 + 1);
}

// ------------------------------------------------------- Plan residency

/// Fragment plans of cached statements stay at the OFMs (DESIGN.md §15.4):
/// after the first execution a cached SELECT names its plans by id.
class PlanResidencyTest : public ::testing::Test {
 protected:
  static constexpr int64_t kByIdBits = gdh::kControlBits + gdh::kPlanIdBits;
  /// Both fragments of item (fan-out 2).
  static constexpr char kScan[] = "SELECT id, v FROM item WHERE v > 40";

  struct Shipped {
    uint64_t mails = 0;
    uint64_t bits = 0;
  };

  Shipped Ship(PrismaDb& db, const char* kind) {
    const obs::Labels labels = {{"kind", kind}};
    return {db.metrics().CounterValue("pool.mail_sent", labels),
            db.metrics().CounterValue("pool.mail_bits", labels)};
  }

  /// Runs `sql` and returns what its plan requests of `kind` cost.
  Shipped RunAndShip(PrismaDb& db, const std::string& sql,
                     const char* kind = gdh::kMailExecPlan) {
    const Shipped before = Ship(db, kind);
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (result.ok()) last_answer_ = Render(*result);
    const Shipped after = Ship(db, kind);
    return {after.mails - before.mails, after.bits - before.bits};
  }

  /// Gathers arrive in fragment-reply order, which timing may change.
  static std::string Render(std::vector<Tuple> tuples) {
    std::sort(tuples.begin(), tuples.end());
    std::string out;
    for (const Tuple& t : tuples) out += t.ToString() + "\n";
    return out;
  }
  static std::string Render(const core::QueryResult& result) {
    return Render(result.tuples);
  }

  static uint64_t Hits(PrismaDb& db) {
    return db.metrics().CounterTotal("ofm.plan_resident_hits");
  }
  static uint64_t Misses(PrismaDb& db) {
    return db.metrics().CounterTotal("ofm.plan_resident_misses");
  }

  std::string last_answer_;
};

TEST_F(PlanResidencyTest, SecondRunOfACachedSelectShipsIdsOnly) {
  auto db = MakeServingDb();
  const Shipped cold = RunAndShip(*db, kScan);
  const std::string reference = last_answer_;
  EXPECT_EQ(cold.mails, 2u);
  EXPECT_GT(cold.bits, 2u * kByIdBits);
  for (int run = 0; run < 2; ++run) {
    const Shipped warm = RunAndShip(*db, kScan);
    EXPECT_EQ(warm.mails, 2u);
    EXPECT_EQ(warm.bits, 2u * kByIdBits);
    EXPECT_EQ(last_answer_, reference);
  }
  EXPECT_EQ(Hits(*db), 4u);
  EXPECT_EQ(Misses(*db), 0u);

  // Stream producers too: a sorted run's producers go by id. (The
  // group-by on grp's few groups gathers its partials, as kScan does.)
  const char* kSorted = "SELECT id, v FROM item ORDER BY v, id";
  const Shipped shuffle_cold =
      RunAndShip(*db, kSorted, gdh::kMailShufflePlan);
  ASSERT_EQ(shuffle_cold.mails, 2u);
  EXPECT_GT(shuffle_cold.bits, 2u * kByIdBits);
  const Shipped shuffle_warm =
      RunAndShip(*db, kSorted, gdh::kMailShufflePlan);
  EXPECT_EQ(shuffle_warm.mails, 2u);
  EXPECT_EQ(shuffle_warm.bits, 2u * kByIdBits);

  // An uncached statement shape ships whole every time.
  MachineConfig uncached;
  uncached.plan_cache_capacity = 0;
  auto cold_db = MakeServingDb(uncached);
  EXPECT_EQ(RunAndShip(*cold_db, kScan).bits, cold.bits);
  EXPECT_EQ(RunAndShip(*cold_db, kScan).bits, cold.bits);
  EXPECT_EQ(Hits(*cold_db) + Misses(*cold_db), 0u);
}

TEST_F(PlanResidencyTest, DdlBringsBackWholeShipping) {
  auto db = MakeServingDb();
  const Shipped cold = RunAndShip(*db, kScan);
  EXPECT_EQ(RunAndShip(*db, kScan).bits, 2u * kByIdBits);
  ASSERT_TRUE(db->Execute("CREATE TABLE scratch (id INT)").ok());
  // A new epoch: a new entry id, which no OFM holds.
  EXPECT_EQ(RunAndShip(*db, kScan).bits, cold.bits);
  EXPECT_EQ(RunAndShip(*db, kScan).bits, 2u * kByIdBits);
  EXPECT_EQ(Misses(*db), 0u);
}

TEST_F(PlanResidencyTest, RespawnedOfmGetsTheWholePlan) {
  auto db = MakeServingDb();
  const Shipped cold = RunAndShip(*db, kScan);
  const std::string reference = last_answer_;
  ASSERT_EQ(RunAndShip(*db, kScan).bits, 2u * kByIdBits);
  ASSERT_TRUE(db->CrashFragment("item", 0).ok());
  ASSERT_TRUE(db->RecoverFragment("item", 0).ok());
  db->Run();
  // The new OFM has a new pid, on no record: fragment 0 ships whole,
  // fragment 1 still by id, and nothing asks the empty OFM by id.
  const Shipped after = RunAndShip(*db, kScan);
  EXPECT_EQ(after.mails, 2u);
  EXPECT_EQ(after.bits, cold.bits / 2 + kByIdBits);
  EXPECT_EQ(last_answer_, reference);
  EXPECT_EQ(Misses(*db), 0u);
  EXPECT_EQ(RunAndShip(*db, kScan).bits, 2u * kByIdBits);
  EXPECT_EQ(last_answer_, reference);
}

TEST_F(PlanResidencyTest, OfmEvictionCostsOneNotResidentRoundTrip) {
  // Two entries fit the cache and each OFM. A respawn reorders fragment
  // 0's FIFO against the cache's, so a later insert evicts at the OFM a
  // plan the cache still has on record there.
  MachineConfig config;
  config.plan_cache_capacity = 2;
  auto db = MakeServingDb(config);
  const std::string a = "SELECT id, v FROM item WHERE v > 10";
  const std::string b = "SELECT id, v FROM item WHERE v > 20";
  const std::string c = "SELECT id, v FROM item WHERE v > 30";
  RunAndShip(*db, a);
  RunAndShip(*db, b);
  const std::string reference_b = last_answer_;
  ASSERT_TRUE(db->CrashFragment("item", 0).ok());
  ASSERT_TRUE(db->RecoverFragment("item", 0).ok());
  db->Run();
  RunAndShip(*db, b);  // Fragment 0 now holds [B].
  RunAndShip(*db, a);  // [B, A], while the cache holds [A, B].
  RunAndShip(*db, c);  // The cache evicts A; fragment 0 evicts B.
  const uint64_t misses = Misses(*db);
  const Shipped replies0 = Ship(*db, gdh::kMailExecPlanReply);
  const Shipped again = RunAndShip(*db, b);
  const Shipped replies = Ship(*db, gdh::kMailExecPlanReply);
  EXPECT_EQ(last_answer_, reference_b);
  EXPECT_EQ(Misses(*db) - misses, 1u);
  // Two ids, then fragment 0's plan whole: one extra request and reply.
  EXPECT_EQ(again.mails, 3u);
  EXPECT_GT(again.bits, 3u * kByIdBits);
  EXPECT_EQ(replies.mails - replies0.mails, 3u);
  // The whole re-send is on record again.
  EXPECT_EQ(RunAndShip(*db, b).bits, 2u * kByIdBits);
}

TEST_F(PlanResidencyTest, ReplicaFailoverShipsTheRenamedPlanWhole) {
  MachineConfig config;
  config.pes = 8;
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  config.rpc_attempts = 4;
  PrismaDb db(config);
  ASSERT_TRUE(WorkloadGenerator::SetupSchema(&db, /*rows=*/64,
                                             /*fragments=*/3)
                  .ok());
  ASSERT_EQ(RunAndShip(db, kScan).mails, 3u);
  const std::string reference = last_answer_;
  ASSERT_EQ(RunAndShip(db, kScan).bits, 3u * kByIdBits);

  // Every plan request delivered from here on: its target, whether it
  // carried the plan, and the replica its scan names.
  struct Delivery {
    pool::ProcessId to;
    std::string scan;
  };
  std::vector<Delivery> whole;
  uint64_t by_id = 0;
  db.runtime().SetMailTap([&](pool::Mail& mail) {
    if (mail.kind != gdh::kMailExecPlan) return;
    const auto& request =
        *std::any_cast<std::shared_ptr<gdh::ExecPlanRequest>>(mail.body);
    if (request.plan == nullptr) {
      ++by_id;
      return;
    }
    const algebra::Plan* scan = request.plan.get();
    while (scan->num_children() > 0) scan = scan->child();
    whole.push_back(
        {mail.to, static_cast<const algebra::ScanPlan&>(*scan).table()});
  });
  // Crash fragment 0's primary once the three id-only requests are out:
  // its request is lost, and the retransmission re-aims at the peer.
  const auto table = db.gdh().dictionary().GetTable("item");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  const int peer = 1 - frag.primary_replica;
  const obs::Labels exec_plan = {{"kind", gdh::kMailExecPlan}};
  const uint64_t sent0 = db.metrics().CounterValue("pool.mail_sent", exec_plan);
  std::string answer;
  Dispatcher dispatcher(&db, DispatcherOptions());
  dispatcher.Submit(kScan, exec::kAutoCommit,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      EXPECT_TRUE(reply.status.ok())
                          << reply.status.ToString();
                      if (reply.tuples != nullptr) {
                        answer = Render(*reply.tuples);
                      }
                    });
  while (db.metrics().CounterValue("pool.mail_sent", exec_plan) < sent0 + 3) {
    ASSERT_TRUE(db.simulator().Step());
  }
  ASSERT_GT(db.CrashPe(frag.ReplicaPe(frag.primary_replica)), 0u);
  dispatcher.Run();
  db.runtime().SetMailTap(nullptr);
  EXPECT_EQ(answer, reference);
  EXPECT_GT(by_id, 0u);
  // The re-aimed request itself carried the plan: the peer never had to
  // answer that it lacks one.
  EXPECT_EQ(Misses(db), 0u);
  // The surviving replica got the plan whole, renamed to itself.
  bool peer_got_it = false;
  for (const Delivery& d : whole) {
    if (d.to == frag.ReplicaOfm(peer)) {
      peer_got_it = true;
      EXPECT_EQ(d.scan, frag.ReplicaName(peer));
    }
  }
  EXPECT_TRUE(peer_got_it);
}

TEST_F(PlanResidencyTest, ExplainAnalyzeOfAResidentPlanKeepsItsProfile) {
  auto db = MakeServingDb();
  auto analyze = [&] {
    auto result = db->Execute(std::string("EXPLAIN ANALYZE ") + kScan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string text;
    if (result.ok()) {
      for (const Tuple& t : result->tuples) {
        text += t.at(0).string_value() + "\n";
      }
    }
    return text;
  };
  // Nothing cached yet: planned afresh, shipped whole.
  const std::string cold = analyze();
  EXPECT_NE(cold.find("plans shipped: 2 whole ("), std::string::npos) << cold;
  EXPECT_NE(cold.find(", 0 by id"), std::string::npos) << cold;
  const uint64_t hits = db->plan_cache().hits();
  const uint64_t misses = db->plan_cache().misses();
  RunAndShip(*db, kScan);
  RunAndShip(*db, kScan);
  // The SELECT's plan is cached and resident: EXPLAIN ANALYZE runs it by
  // id, and the profile still comes back.
  const std::string warm = analyze();
  EXPECT_NE(warm.find("plans shipped: 0 whole (0 bits), 2 by id"),
            std::string::npos)
      << warm;
  EXPECT_NE(warm.find("rows="), std::string::npos) << warm;
  EXPECT_NE(warm.find("x2"), std::string::npos) << warm;
  // EXPLAIN ANALYZE peeks: the SELECT's hit rate did not move.
  EXPECT_EQ(db->plan_cache().hits(), hits + 1);
  EXPECT_EQ(db->plan_cache().misses(), misses + 1);
}

TEST_F(PlanResidencyTest, FaultFreeServingNeverMissesAfterWarmUp) {
  auto db = MakeServingDb();
  WorkloadProfile profile;
  profile.sessions = 8;
  profile.offered_qps = 400;
  profile.duration_ns = sim::kNanosPerSecond / 4;
  profile.mix = {0.7, 0, 0.2, 0.1};  // Reads only.
  profile.key_domain = 16;
  Dispatcher dispatcher(db.get(), DispatcherOptions());
  for (const ArrivalEvent& event : WorkloadGenerator(3, profile).Generate()) {
    dispatcher.Submit(event.sql, exec::kAutoCommit,
                      [](const gdh::ClientReply& reply, sim::SimTime) {
                        EXPECT_TRUE(reply.status.ok())
                            << reply.status.ToString();
                      },
                      event.at_ns);
  }
  dispatcher.Run();
  EXPECT_GT(Hits(*db), 0u);
  EXPECT_EQ(Misses(*db), 0u);
}

// ------------------------------------------------------- Workload generator

TEST(WorkloadTest, SameSeedSameSchedule) {
  WorkloadProfile profile;
  profile.sessions = 16;
  profile.offered_qps = 2000;
  profile.duration_ns = sim::kNanosPerSecond / 10;
  const WorkloadGenerator a(7, profile);
  const WorkloadGenerator b(7, profile);
  const std::vector<ArrivalEvent> sa = a.Generate();
  const std::vector<ArrivalEvent> sb = b.Generate();
  ASSERT_FALSE(sa.empty());
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].at_ns, sb[i].at_ns);
    EXPECT_EQ(sa[i].session, sb[i].session);
    EXPECT_EQ(sa[i].sql, sb[i].sql);
  }
  const std::vector<ArrivalEvent> sc = WorkloadGenerator(8, profile).Generate();
  bool differs = sc.size() != sa.size();
  for (size_t i = 0; !differs && i < sa.size(); ++i) {
    differs = sa[i].at_ns != sc[i].at_ns || sa[i].sql != sc[i].sql;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same schedule";
}

TEST(WorkloadTest, SchedulesAreSortedAndBounded) {
  for (const auto arrival :
       {serve::ArrivalProcess::kPoisson, serve::ArrivalProcess::kBursty}) {
    WorkloadProfile profile;
    profile.sessions = 8;
    profile.arrival = arrival;
    profile.offered_qps = 4000;
    profile.duration_ns = sim::kNanosPerSecond / 10;
    const std::vector<ArrivalEvent> schedule =
        WorkloadGenerator(3, profile).Generate();
    ASSERT_FALSE(schedule.empty());
    for (size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_GE(schedule[i].at_ns, 0);
      EXPECT_LT(schedule[i].at_ns, profile.duration_ns);
      if (i > 0) {
        EXPECT_GE(schedule[i].at_ns, schedule[i - 1].at_ns);
      }
      EXPECT_FALSE(schedule[i].sql.empty());
    }
  }
}

TEST(WorkloadTest, MixWeightsSelectStatementShapes) {
  WorkloadProfile profile;
  profile.sessions = 4;
  profile.offered_qps = 4000;
  profile.duration_ns = sim::kNanosPerSecond / 10;
  profile.mix = {0, 0, 1.0, 0};  // Group-by only.
  for (const ArrivalEvent& event : WorkloadGenerator(5, profile).Generate()) {
    EXPECT_EQ(event.kind, serve::QueryKind::kGroupBy);
    EXPECT_NE(event.sql.find("GROUP BY"), std::string::npos);
  }
}

}  // namespace
}  // namespace prisma
