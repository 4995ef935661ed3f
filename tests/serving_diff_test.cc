// Serving differential suite (DESIGN.md §15.4): the shared plan cache
// must be answer-invisible. Across 50 seeds x {1,3,7} fragments, every
// workload statement is executed cold (fresh epoch, cache miss) and again
// cached (hit) — the rendered answers must be byte-identical. A second
// test interleaves DDL, replica failover and resync with cached traffic
// and asserts the invalidation contract: the epoch bumps on each of
// them, and answers stay correct throughout.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "core/prisma_db.h"
#include "serve/workload.h"

namespace prisma {
namespace {

using core::MachineConfig;
using core::PrismaDb;
using core::QueryResult;
using serve::ArrivalEvent;
using serve::WorkloadGenerator;
using serve::WorkloadProfile;

constexpr int kSeeds = 50;
constexpr int kRows = 48;

/// Byte-stable rendering of an answer (everything the client sees except
/// the response time, which legitimately differs between cold and cached
/// executions — that difference is the cache's entire point).
std::string Render(const QueryResult& result) {
  std::string out;
  for (const auto& col : result.schema.columns()) out += col.name + "|";
  out += StrFormat("/%llu\n",
                   static_cast<unsigned long long>(result.affected_rows));
  for (const Tuple& t : result.tuples) out += t.ToString() + "\n";
  return out;
}

/// A seed's worth of read-only statements (dedup'd, first few).
std::vector<std::string> SeedStatements(uint64_t seed) {
  WorkloadProfile profile;
  profile.sessions = 4;
  profile.offered_qps = 2000;
  profile.duration_ns = sim::kNanosPerSecond / 20;
  // Reads only: answers are interleaving-independent.
  profile.mix = {0.6, 0, 0.25, 0.15};
  profile.key_domain = kRows;
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const ArrivalEvent& event : WorkloadGenerator(seed, profile).Generate()) {
    if (seen.insert(event.sql).second) out.push_back(event.sql);
    if (out.size() == 5) break;
  }
  return out;
}

TEST(ServingDiffTest, ColdVsCachedByteIdenticalAcrossSeedsAndFragments) {
  for (const int fragments : {1, 3, 7}) {
    MachineConfig config;
    config.pes = 4;
    PrismaDb db(config);
    ASSERT_TRUE(WorkloadGenerator::SetupSchema(&db, kRows, fragments).ok());
    uint64_t cold_misses = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      // Fresh epoch: the first execution of each statement is cold.
      db.plan_cache().Invalidate("test");
      const uint64_t hits_before = db.plan_cache().hits();
      for (const std::string& sql : SeedStatements(seed)) {
        auto cold = db.Execute(sql);
        ASSERT_TRUE(cold.ok()) << sql << ": " << cold.status().ToString();
        auto cached = db.Execute(sql);
        ASSERT_TRUE(cached.ok());
        EXPECT_EQ(Render(*cold), Render(*cached))
            << "cached answer differs (seed " << seed << ", fragments "
            << fragments << "): " << sql;
      }
      // Every repeat execution hit the cache.
      EXPECT_GT(db.plan_cache().hits(), hits_before);
      cold_misses = db.plan_cache().misses();
    }
    EXPECT_GT(cold_misses, 0u);
  }
}

TEST(ServingDiffTest, DdlFailoverAndResyncInvalidateCorrectly) {
  MachineConfig config;
  config.pes = 8;
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  config.rpc_attempts = 4;
  PrismaDb db(config);
  ASSERT_TRUE(WorkloadGenerator::SetupSchema(&db, kRows, 3).ok());
  // Schema setup ends with DDL+inserts; note the epoch and warm the cache.
  const std::string group_by =
      "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM item "
      "GROUP BY grp ORDER BY grp";
  auto reference = db.Execute(group_by);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(db.plan_cache().size(), 0u);
  const uint64_t epoch0 = db.plan_cache().epoch();

  // --- DDL invalidates (a fragment-count change is a DDL too).
  ASSERT_TRUE(db.Execute("CREATE TABLE scratch (id INT) FRAGMENTED BY "
                         "HASH(id) INTO 5 FRAGMENTS")
                  .ok());
  EXPECT_EQ(db.plan_cache().epoch(), epoch0 + 1);
  EXPECT_EQ(db.plan_cache().size(), 0u);
  EXPECT_GT(db.metrics().CounterValue("query.plan_cache.invalidate",
                                      {{"reason", "ddl"}}),
            0u);

  // --- After the DDL the statement plans once more, then hits again.
  auto cold = db.Execute(group_by);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Render(*reference), Render(*cold));
  EXPECT_EQ(db.plan_cache().size(), 1u);
  const uint64_t hits_before = db.plan_cache().hits();
  auto hit = db.Execute(group_by);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(db.plan_cache().hits(), hits_before + 1);
  EXPECT_EQ(db.plan_cache().epoch(), epoch0 + 1);
  EXPECT_EQ(Render(*reference), Render(*hit));

  // --- Replica failover invalidates: when the GDH sheds a dead replica
  // from 2PC, placement changed and the epoch must move. (The read path
  // re-picks its replica per execution, so it is a write that detects the
  // crash.) The no-op UPDATE touches every fragment without changing any
  // value, so the reference answer survives the crash window.
  const auto table = db.gdh().dictionary().GetTable("item");
  ASSERT_TRUE(table.ok());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  ASSERT_TRUE(frag.replicated);
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  const uint64_t epoch_before_crash = db.plan_cache().epoch();
  ASSERT_TRUE(db.Execute("UPDATE item SET v = v + 0").ok());
  auto after_crash = db.Execute(group_by);
  ASSERT_TRUE(after_crash.ok());
  EXPECT_EQ(Render(*reference), Render(*after_crash));
  EXPECT_GT(db.plan_cache().epoch(), epoch_before_crash);
  EXPECT_GT(db.metrics().CounterValue("query.plan_cache.invalidate",
                                      {{"reason", "failover"}}),
            0u);

  // --- Resync cutover invalidates: the restarted replica re-enters
  // service, changing routing again.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  EXPECT_GT(db.metrics().CounterTotal("replica.resyncs_completed"), 0u);
  EXPECT_GT(db.metrics().CounterValue("query.plan_cache.invalidate",
                                      {{"reason", "resync"}}),
            0u);
  auto after_resync = db.Execute(group_by);
  ASSERT_TRUE(after_resync.ok());
  EXPECT_EQ(Render(*reference), Render(*after_resync));
}

}  // namespace
}  // namespace prisma
