// Serving-layer units (DESIGN.md §15): statement normalization, the
// shared plan cache, the admission dispatcher's hysteresis / FIFO /
// concurrency-cap / typed-shedding contracts, and the workload
// generator's determinism.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/prisma_db.h"
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

std::shared_ptr<const PlanCache::Entry> MakeEntry() {
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
  // Same shape + literal, different exec mode: distinct entry.
  PlanCache::Key vectorized = key;
  vectorized.exec_mode = exec::ExecMode::kVectorized;
  EXPECT_EQ(cache.Lookup(vectorized), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(metrics.CounterValue("query.plan_cache.hit"), 1u);
  EXPECT_EQ(metrics.CounterValue("query.plan_cache.miss"), 3u);
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
