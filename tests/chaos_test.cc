#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "exec/transitive_closure.h"
#include "gdh/messages.h"
#include "gdh/ofm_process.h"
#include "gdh/replication.h"
#include "net/network.h"
#include "pool/runtime.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"
#include "soak_repro.h"

namespace prisma::core {
namespace {

constexpr int kFragments = 4;

/// Virtual-time watchdog: no statement may take longer than this, even
/// through the worst retransmission backoff + coordinator-reap path.
constexpr sim::SimTime kWatchdogNs = 10 * sim::kNanosPerSecond;

/// Builds a machine whose fault plan — loss/duplication rates, jitter and
/// one scheduled PE crash/restart — derives deterministically from `seed`.
MachineConfig ChaosMachine(uint64_t seed) {
  MachineConfig config;
  config.pes = 4;
  // Coordinators round-robin over every PE, so the soaks keep running
  // them on the PEs they crash (by default they would sit on PE 0).
  config.coordinator_pes = {0, 1, 2, 3};
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  net::FaultPlan& plan = config.fault_plan;
  plan.seed = seed;
  plan.link.drop_probability = 0.01 + 0.04 * rng.NextDouble();  // <= 5%.
  plan.link.duplicate_probability = 0.03 * rng.NextDouble();
  plan.link.max_extra_delay_ns = rng.UniformInt(0, 200'000);
  net::PeCrashEvent crash;
  crash.pe = static_cast<net::NodeId>(rng.UniformInt(1, config.pes - 1));
  crash.at_ns = rng.UniformInt(10, 30) * sim::kNanosPerMilli;
  crash.restart_at_ns =
      crash.at_ns + rng.UniformInt(10, 60) * sim::kNanosPerMilli;
  plan.pe_crashes.push_back(crash);
  return config;
}

/// Chained asynchronous workload: each reply schedules the next statement,
/// so virtual time flows through the fault plan's crash window while
/// statements are in flight. (A synchronous Execute drains the whole event
/// queue, which would fire the scheduled crash before any data existed.)
///
/// The driver tracks a model of the committed row set: a statement's
/// effects enter the model iff its reply is OK, which is exactly the
/// guarantee the commit protocol owes the client. After every OK write or
/// COMMIT it reads each touched id back through a fresh statement
/// (read-your-writes): the answer must match the model.
class ChaosDriver {
 public:
  /// With `reads_must_succeed` every Audit read is REQUIRED to come back
  /// OK (the replicated machine's availability guarantee); without it a
  /// read may legitimately degrade while a PE is down.
  ChaosDriver(PrismaDb* db, uint64_t seed, int ops,
              bool reads_must_succeed = false)
      : db_(db),
        rng_(seed ^ 0xda3e39cb94b95bdbULL),
        ops_left_(ops),
        reads_must_succeed_(reads_must_succeed) {}

  void Run() {
    Submit(StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                     "HASH(id) INTO %d FRAGMENTS",
                     kFragments),
           exec::kAutoCommit, [this](const gdh::ClientReply& reply) {
             PRISMA_CHECK(reply.status.ok()) << reply.status.ToString();
             NextOp();
           });
    db_->Run();
    PRISMA_CHECK(done_) << "chaos workload stalled before finishing";
  }

  const std::set<int64_t>& model() const { return model_; }
  uint64_t failed_statements() const { return failed_; }
  uint64_t audits() const { return audits_; }

 private:
  using Handler = std::function<void(const gdh::ClientReply&)>;

  struct TxnPlan {
    exec::TxnId txn = exec::kAutoCommit;
    bool commit = false;
    int64_t remaining = 0;
  };

  void Submit(const std::string& sql, exec::TxnId txn, Handler handler) {
    // A little think time spreads the workload across virtual time so the
    // crash window overlaps in-flight statements.
    const sim::SimTime think = rng_.UniformInt(0, 2 * sim::kNanosPerMilli);
    db_->Submit(sql, /*prismalog=*/false, txn,
                [this, handler = std::move(handler)](
                    const gdh::ClientReply& reply, sim::SimTime response_ns) {
                  PRISMA_CHECK(response_ns <= kWatchdogNs)
                      << "statement exceeded the virtual-time watchdog ("
                      << response_ns << " ns)";
                  if (!reply.status.ok()) ++failed_;
                  handler(reply);
                },
                think);
  }

  void NextOp() {
    if (ops_left_-- <= 0) {
      done_ = true;
      return;
    }
    const int64_t dice = rng_.UniformInt(0, 9);
    if (dice < 4 || model_.empty()) {
      const int64_t id = next_id_++;
      Submit(InsertSql(id), exec::kAutoCommit,
             [this, id](const gdh::ClientReply& reply) {
               if (!reply.status.ok()) {
                 NextOp();
                 return;
               }
               model_.insert(id);
               ReadBack({id});
             });
    } else if (dice < 6) {
      auto it = model_.begin();
      std::advance(
          it, rng_.UniformInt(0, static_cast<int64_t>(model_.size()) - 1));
      const int64_t id = *it;
      Submit(StrFormat("DELETE FROM t WHERE id = %lld",
                       static_cast<long long>(id)),
             exec::kAutoCommit, [this, id](const gdh::ClientReply& reply) {
               if (!reply.status.ok()) {
                 NextOp();
                 return;
               }
               model_.erase(id);
               ReadBack({id});
             });
    } else if (dice < 8) {
      BeginTxn();
    } else {
      Audit();
    }
  }

  void BeginTxn() {
    Submit("BEGIN", exec::kAutoCommit, [this](const gdh::ClientReply& reply) {
      if (!reply.status.ok()) {
        NextOp();
        return;
      }
      TxnPlan plan;
      plan.txn = reply.txn;
      plan.commit = rng_.NextBool(0.5);
      plan.remaining = rng_.UniformInt(1, 3);
      TxnStep(plan, {});
    });
  }

  void TxnStep(TxnPlan plan, std::vector<int64_t> staged) {
    if (plan.remaining == 0) {
      const bool commit = plan.commit;
      Submit(commit ? "COMMIT" : "ABORT", plan.txn,
             [this, staged = std::move(staged),
              commit](const gdh::ClientReply& reply) {
               // Effects are committed iff COMMIT returned OK; an abort
               // (explicit or forced by the machine) leaves no trace.
               if (commit && reply.status.ok()) {
                 model_.insert(staged.begin(), staged.end());
                 ReadBack(staged);
                 return;
               }
               NextOp();
             });
      return;
    }
    const int64_t id = next_id_++;
    --plan.remaining;
    Submit(InsertSql(id), plan.txn,
           [this, plan, staged = std::move(staged),
            id](const gdh::ClientReply& reply) mutable {
             if (!reply.status.ok()) {
               // The GDH aborts the whole transaction when one of its
               // statements fails; a best-effort ABORT cleans up in case
               // it survived.
               Submit("ABORT", plan.txn,
                      [this](const gdh::ClientReply&) { NextOp(); });
               return;
             }
             staged.push_back(id);
             TxnStep(plan, std::move(staged));
           });
  }

  /// Reads the table back and compares against the model mid-soak. A read
  /// may legitimately fail while a PE is down (Unavailable); it must never
  /// succeed with the wrong answer.
  void Audit() {
    Submit("SELECT id FROM t", exec::kAutoCommit,
           [this](const gdh::ClientReply& reply) {
             if (reads_must_succeed_) {
               PRISMA_CHECK(reply.status.ok())
                   << "replicated read degraded: "
                   << reply.status.ToString();
             }
             if (reply.status.ok()) {
               ++audits_;
               std::set<int64_t> ids;
               if (reply.tuples != nullptr) {
                 for (const Tuple& tuple : *reply.tuples) {
                   ids.insert(tuple.at(0).int_value());
                 }
               }
               PRISMA_CHECK(ids == model_)
                   << "audit divergence: db has " << ids.size()
                   << " rows, model has " << model_.size();
             }
             NextOp();
           });
  }

  /// Read-your-writes: reads `ids` back one fresh statement at a time and
  /// checks each is present iff the model holds it, then goes on with the
  /// workload. These reads are checks, not workload: they draw nothing
  /// from the seeded stream and do not count as failed statements. A read
  /// may degrade while a PE is down (unless reads must succeed); it must
  /// never disagree.
  void ReadBack(std::vector<int64_t> ids) {
    if (ids.empty()) {
      NextOp();
      return;
    }
    const int64_t id = ids.back();
    ids.pop_back();
    db_->Submit(StrFormat("SELECT id FROM t WHERE id = %lld",
                          static_cast<long long>(id)),
                /*prismalog=*/false, exec::kAutoCommit,
                [this, id, ids = std::move(ids)](
                    const gdh::ClientReply& reply,
                    sim::SimTime response_ns) mutable {
                  PRISMA_CHECK(response_ns <= kWatchdogNs)
                      << "read-back exceeded the virtual-time watchdog";
                  if (reads_must_succeed_) {
                    PRISMA_CHECK(reply.status.ok())
                        << "replicated read-back degraded: "
                        << reply.status.ToString();
                  }
                  if (reply.status.ok()) {
                    const bool present =
                        reply.tuples != nullptr && !reply.tuples->empty();
                    PRISMA_CHECK(present == model_.contains(id))
                        << "read-your-writes violated for id " << id
                        << ": read " << (present ? "present" : "absent")
                        << ", model " << (present ? "absent" : "present");
                  }
                  ReadBack(std::move(ids));
                });
  }

  static std::string InsertSql(int64_t id) {
    return StrFormat("INSERT INTO t VALUES (%lld, %lld)",
                     static_cast<long long>(id),
                     static_cast<long long>(id * 7));
  }

  PrismaDb* db_;
  Rng rng_;
  int ops_left_;
  bool reads_must_succeed_ = false;
  bool done_ = false;
  std::set<int64_t> model_;
  int64_t next_id_ = 0;
  uint64_t failed_ = 0;
  uint64_t audits_ = 0;
};

struct SoakOutcome {
  std::set<int64_t> ids;
  uint64_t failed = 0;
  uint64_t audits = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t crashes = 0;
  std::string metrics;
  std::string trace;  // Chrome-trace JSON (empty unless tracing was on).
};

SoakOutcome RunChaosSoak(uint64_t seed, bool trace = false) {
  MachineConfig config = ChaosMachine(seed);
  config.enable_tracing = trace;
  PrismaDb db(config);
  ChaosDriver driver(&db, seed, 40);
  driver.Run();

  // The event queue is drained: the scheduled crash and restart have both
  // fired. The final read-back must now succeed and match the model.
  auto result = db.Execute("SELECT id FROM t");
  PRISMA_CHECK(result.ok()) << result.status().ToString();
  SoakOutcome out;
  for (const Tuple& tuple : result->tuples) {
    out.ids.insert(tuple.at(0).int_value());
  }
  PRISMA_CHECK(out.ids == driver.model())
      << "committed state diverged from the model: db has " << out.ids.size()
      << " rows, model has " << driver.model().size();
  out.failed = driver.failed_statements();
  out.audits = driver.audits();
  out.dropped = db.network().stats().dropped;
  out.duplicated = db.network().stats().duplicated;
  out.crashes = db.metrics().CounterTotal("pe.crashes");
  out.metrics = db.DumpMetrics();
  if (trace) out.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, SoakSurvives25Seeds) {
  uint64_t total_dropped = 0;
  uint64_t total_duplicated = 0;
  uint64_t total_audits = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.SoakSurvives25Seeds", seed);
    const SoakOutcome out = RunChaosSoak(seed);
    // Every plan schedules exactly one PE crash, and it fired.
    EXPECT_EQ(out.crashes, 1u);
    total_dropped += out.dropped;
    total_duplicated += out.duplicated;
    total_audits += out.audits;
  }
  if (SingleSeedMode()) return;
  // The soak was not a fair-weather run: messages were actually lost and
  // duplicated across the 25 plans, and mid-soak audits did land.
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_duplicated, 0u);
  EXPECT_GT(total_audits, 0u);
}

TEST(ChaosTest, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  const SoakOutcome a = RunChaosSoak(7);
  const SoakOutcome b = RunChaosSoak(7);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.metrics, b.metrics);  // Byte-identical dump.

  const SoakOutcome c = RunChaosSoak(8);
  EXPECT_NE(a.metrics, c.metrics);  // A different plan leaves a different trail.
}

/// The determinism regression gate: the full observable trail — every
/// metric line AND every Chrome-trace span, including handler order and
/// virtual-time stamps — must replay byte-for-byte for the same seed in
/// the same binary. Any nondeterminism source (wall clock, unordered
/// iteration reaching a send, address-dependent ordering) shifts a span
/// or a counter and fails this diff; prisma_lint guards the same
/// invariants statically.
TEST(ChaosTest, SameSeedReplayIsByteIdenticalIncludingTraces) {
  const SoakOutcome a = RunChaosSoak(11, /*trace=*/true);
  const SoakOutcome b = RunChaosSoak(11, /*trace=*/true);
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_FALSE(a.trace.empty());
  // Compare sizes first for a readable failure; the full diff follows.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);

  // The trace is not vacuous: the crash/recovery window left spans.
  EXPECT_EQ(a.crashes, 1u);
  EXPECT_NE(a.trace.find("\"ph\""), std::string::npos);
}

QueryResult MustExecute(PrismaDb* db, const std::string& sql) {
  auto result = db->Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
  return std::move(result).value();
}

// --------------------------------- Replicated machine under chaos (§13)

/// Outcome of one replicated soak: the base SoakOutcome plus the
/// replication trail the assertions key on.
struct ReplicatedSoakOutcome {
  SoakOutcome base;
  uint64_t unavailable = 0;
  uint64_t failovers = 0;
  uint64_t stale_marks = 0;
  uint64_t resyncs_completed = 0;
};

/// The tentpole availability soak: the same lossy/crashing machine as
/// RunChaosSoak, but with every fragment replicated on two PEs and the
/// coordinators pinned to PE 0. EVERY audit read — including those inside
/// the crash window — must return the model-exact answer; zero reads may
/// degrade to Unavailable. After the drain, the restarted PE's replicas
/// must have resynced to byte-identical checkpoint snapshots.
ReplicatedSoakOutcome RunReplicatedChaosSoak(uint64_t seed,
                                             bool trace = false) {
  MachineConfig config = ChaosMachine(seed);
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.enable_tracing = trace;
  // Stretch the down window past the write-retransmission budget: a write
  // touching a dead replica must EXHAUST its retries and shed the replica
  // (marking it stale) instead of merely stalling until the restart —
  // that is what makes the restart exercise the full resync path.
  config.rpc_attempts = 4;  // Exhausts after 250ms + 500ms + 1s retries.
  net::PeCrashEvent& crash = config.fault_plan.pe_crashes[0];
  crash.restart_at_ns = crash.at_ns + 3 * sim::kNanosPerSecond +
                        static_cast<sim::SimTime>(seed % 4) * 250 *
                            sim::kNanosPerMilli;
  PrismaDb db(config);
  ChaosDriver driver(&db, seed, 40, /*reads_must_succeed=*/true);
  driver.Run();

  ReplicatedSoakOutcome out;
  auto result = db.Execute("SELECT id FROM t");
  PRISMA_CHECK(result.ok()) << result.status().ToString();
  for (const Tuple& tuple : result->tuples) {
    out.base.ids.insert(tuple.at(0).int_value());
  }
  PRISMA_CHECK(out.base.ids == driver.model())
      << "committed state diverged from the model: db has "
      << out.base.ids.size() << " rows, model has " << driver.model().size();

  // Resync convergence: after a checkpoint both replicas of every
  // fragment hold byte-identical snapshots on their PEs' stable stores.
  MustExecute(&db, "CHECKPOINT");
  const auto table = db.gdh().dictionary().GetTable("t");
  PRISMA_CHECK(table.ok());
  for (const gdh::FragmentInfo& frag : (*table)->fragments) {
    const auto home = db.stable_store(frag.pe).ReadSnapshot(
        frag.name + ".ckpt");
    const auto backup = db.stable_store(frag.backup_pe).ReadSnapshot(
        gdh::BackupFragmentName(frag.name) + ".ckpt");
    PRISMA_CHECK(home.ok() && backup.ok())
        << frag.name << " missing a replica checkpoint (home="
        << gdh::ReplicaStateName(frag.state)
        << ", backup=" << gdh::ReplicaStateName(frag.backup_state) << ")";
    PRISMA_CHECK(*home == *backup)
        << "replicas of " << frag.name << " diverged after resync";
  }

  out.base.failed = driver.failed_statements();
  out.base.audits = driver.audits();
  out.base.dropped = db.network().stats().dropped;
  out.base.duplicated = db.network().stats().duplicated;
  out.base.crashes = db.metrics().CounterTotal("pe.crashes");
  out.unavailable = db.metrics().CounterTotal("query.unavailable");
  out.failovers = db.metrics().CounterTotal("replica.failovers");
  out.stale_marks = db.metrics().CounterTotal("replica.stale_marks");
  out.resyncs_completed =
      db.metrics().CounterTotal("replica.resyncs_completed");
  out.base.metrics = db.DumpMetrics();
  if (trace) out.base.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, ReplicatedSoakServesEveryReadAcross25Seeds) {
  uint64_t total_audits = 0;
  uint64_t total_dropped = 0;
  uint64_t total_failovers = 0;
  uint64_t total_resyncs = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.ReplicatedSoakServesEveryReadAcross25Seeds",
                      seed);
    const ReplicatedSoakOutcome out = RunReplicatedChaosSoak(seed);
    EXPECT_EQ(out.base.crashes, 1u);  // The scheduled PE crash fired...
    EXPECT_EQ(out.unavailable, 0u);   // ...and nothing degraded through it.
    // Every replica shed during the window rejoined via resync. (Seeds
    // whose window sheds nothing recover in place from WAL; the byte-
    // identical snapshot check inside the soak covers both paths.)
    if (out.stale_marks > 0) {
      EXPECT_GT(out.resyncs_completed, 0u);
    }
    total_audits += out.base.audits;
    total_dropped += out.base.dropped;
    total_failovers += out.failovers;
    total_resyncs += out.resyncs_completed;
  }
  if (SingleSeedMode()) return;
  // Not a fair-weather run: reads really landed inside crash windows
  // (failovers fired), messages were lost, and resyncs rebuilt replicas.
  EXPECT_GT(total_audits, 0u);
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_failovers, 0u);
  EXPECT_GT(total_resyncs, 0u);
}

TEST(ChaosTest, ReplicatedSameSeedReplayIsByteIdenticalIncludingTraces) {
  const ReplicatedSoakOutcome a = RunReplicatedChaosSoak(5, /*trace=*/true);
  const ReplicatedSoakOutcome b = RunReplicatedChaosSoak(5, /*trace=*/true);
  EXPECT_EQ(a.base.ids, b.base.ids);
  EXPECT_EQ(a.base.metrics, b.base.metrics);  // Byte-identical dump.
  ASSERT_FALSE(a.base.trace.empty());
  ASSERT_EQ(a.base.trace.size(), b.base.trace.size());
  EXPECT_EQ(a.base.trace, b.base.trace);
}

// ------------------------------------------- Exchange shuffles under chaos

/// Two tables whose equi-join is NOT colocated: fact is fragmented on a
/// non-key column, so the planner must lower the join to a streaming
/// exchange whose tuple batches and acks cross the faulty interconnect.
void CreateExchangeTables(PrismaDb* db) {
  MustExecute(db, "CREATE TABLE fact (k INT, v INT) FRAGMENTED BY "
                  "HASH(v) INTO 4 FRAGMENTS");
  MustExecute(db, "CREATE TABLE dim (k INT, label STRING) FRAGMENTED BY "
                  "HASH(k) INTO 2 FRAGMENTS");
  for (int i = 0; i < 30; ++i) {
    MustExecute(db, StrFormat("INSERT INTO fact VALUES (%d, %d)", i % 10, i));
  }
  for (int i = 0; i < 10; ++i) {
    MustExecute(db, StrFormat("INSERT INTO dim VALUES (%d, 'd%d')", i, i));
  }
}

constexpr char kExchangeJoinSql[] =
    "SELECT f.v, d.label FROM fact f JOIN dim d ON f.k = d.k";

struct ExchangeSoakOutcome {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t retransmits = 0;
  uint64_t dup_batches = 0;
  uint64_t batches_sent = 0;
  std::string metrics;
};

/// One non-colocated join under a seeded lossy/duplicating/jittery
/// interconnect. Small batches and a tight credit window turn the 30-row
/// shuffle into many batch/ack round trips, each a chance for the fault
/// plan to misbehave.
ExchangeSoakOutcome RunExchangeChaos(uint64_t seed) {
  MachineConfig config;
  config.pes = 4;
  config.exchange_batch_rows = 4;
  config.exchange_credit_window = 2;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  config.fault_plan.seed = seed;
  config.fault_plan.link.drop_probability = 0.01 + 0.04 * rng.NextDouble();
  config.fault_plan.link.duplicate_probability = 0.05 * rng.NextDouble();
  config.fault_plan.link.max_extra_delay_ns = rng.UniformInt(0, 200'000);

  PrismaDb db(config);
  CreateExchangeTables(&db);
  QueryResult joined = MustExecute(&db, kExchangeJoinSql);
  // Every fact key (i % 10) matches exactly one dim row: losses and
  // duplicates may slow the shuffle down but never change the answer.
  PRISMA_CHECK(joined.tuples.size() == 30)
      << joined.tuples.size() << " rows under seed " << seed;

  ExchangeSoakOutcome out;
  out.dropped = db.network().stats().dropped;
  out.duplicated = db.network().stats().duplicated;
  out.retransmits = db.metrics().CounterTotal("exchange.retransmits");
  out.dup_batches = db.metrics().CounterTotal("exchange.dup_batches");
  out.batches_sent = db.metrics().CounterTotal("exchange.batches_sent");
  out.metrics = db.DumpMetrics();
  return out;
}

TEST(ChaosTest, ExchangeSoakSurvives25Seeds) {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t recovered = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.ExchangeSoakSurvives25Seeds", seed);
    const ExchangeSoakOutcome out = RunExchangeChaos(seed);
    EXPECT_GT(out.batches_sent, 0u);  // The join really used the exchange.
    dropped += out.dropped;
    duplicated += out.duplicated;
    recovered += out.retransmits + out.dup_batches;
  }
  if (SingleSeedMode()) return;
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  // The faults hit the shuffle itself, not just the RPC plane: lost
  // batches/acks forced producer retransmissions, and duplicated ones
  // landed in the consumers' sequence-number dedup.
  EXPECT_GT(recovered, 0u);
}

TEST(ChaosTest, ExchangeSameSeedReplayIsByteIdentical) {
  const ExchangeSoakOutcome a = RunExchangeChaos(13);
  const ExchangeSoakOutcome b = RunExchangeChaos(13);
  EXPECT_EQ(a.metrics, b.metrics);  // Byte-identical, exchanges included.
  EXPECT_NE(a.metrics.find("exchange.batches_sent"), std::string::npos);
  EXPECT_NE(a.metrics.find("exchange.wire_bits"), std::string::npos);
}

// --------------------------------------- Multi-stage OLAP under chaos

struct OlapSoakOutcome {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t recovered = 0;   // Retransmits + deduplicated batches/replies.
  uint64_t olap_parts = 0;
  std::string metrics;
};

/// A distributed group-by (pre-aggregate + shuffle-by-key) and a sort
/// lowered to sorted runs under the same seeded lossy/duplicating/jittery
/// interconnect as the exchange soak (DESIGN.md §14): the shuffle
/// batches, the runs streaming to the coordinator, their acks and the
/// merge replies all cross the faulty links, and the exact answer must
/// come back every time. The group column has 200 groups, each in most
/// of the 8 fragments, so the cost model shuffles the partials rather
/// than gathering them.
OlapSoakOutcome RunOlapChaos(uint64_t seed) {
  MachineConfig config;
  config.pes = 4;
  config.exchange_batch_rows = 4;
  config.exchange_credit_window = 2;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  config.fault_plan.seed = seed;
  config.fault_plan.link.drop_probability = 0.01 + 0.04 * rng.NextDouble();
  config.fault_plan.link.duplicate_probability = 0.05 * rng.NextDouble();
  config.fault_plan.link.max_extra_delay_ns = rng.UniformInt(0, 200'000);

  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE sales (id INT, g INT, v INT) "
                   "FRAGMENTED BY HASH(id) INTO 8 FRAGMENTS");
  std::string insert = "INSERT INTO sales VALUES ";
  for (int i = 0; i < 1600; ++i) {
    insert += StrFormat("%s(%d, %d, %d)", i > 0 ? ", " : "", i, i % 200, i);
  }
  MustExecute(&db, insert);

  const QueryResult grouped = MustExecute(
      &db, "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM sales "
           "GROUP BY g ORDER BY g");
  PRISMA_CHECK(grouped.tuples.size() == 200)
      << grouped.tuples.size() << " groups under seed " << seed;
  for (int k = 0; k < 200; ++k) {
    // Group k holds i = k, k+200, ..., k+1400: 8 rows summing 8k + 5600.
    PRISMA_CHECK(grouped.tuples[k].at(1) == Value::Int(8));
    PRISMA_CHECK(grouped.tuples[k].at(2) == Value::Int(8 * k + 5600))
        << "group " << k << " under seed " << seed;
  }
  const QueryResult sorted = MustExecute(
      &db, "SELECT id, v FROM sales WHERE v < 40 ORDER BY v DESC, id");
  PRISMA_CHECK(sorted.tuples.size() == 40);
  for (int i = 0; i < 40; ++i) {
    PRISMA_CHECK(sorted.tuples[i].at(1) == Value::Int(39 - i))
        << "rank " << i << " under seed " << seed;
  }

  OlapSoakOutcome out;
  out.dropped = db.network().stats().dropped;
  out.duplicated = db.network().stats().duplicated;
  out.recovered = db.metrics().CounterTotal("exchange.retransmits") +
                  db.metrics().CounterTotal("exchange.dup_batches") +
                  db.metrics().CounterTotal("gdh.rpc_retries") +
                  db.metrics().CounterTotal("gdh.dup_replies");
  out.olap_parts = db.metrics().CounterTotal("olap.parts");
  out.metrics = db.DumpMetrics();
  return out;
}

TEST(ChaosTest, OlapSoakSurvives25Seeds) {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t recovered = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.OlapSoakSurvives25Seeds", seed);
    const OlapSoakOutcome out = RunOlapChaos(seed);
    // Both statements really took the OLAP path (one group-by part + one
    // sorted-run part).
    EXPECT_EQ(out.olap_parts, 2u);
    dropped += out.dropped;
    duplicated += out.duplicated;
    recovered += out.recovered;
  }
  if (SingleSeedMode()) return;
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  // Lost shuffle or run batches, acks or merge replies forced
  // retransmissions somewhere — and every answer still came back exact.
  EXPECT_GT(recovered, 0u);
}

TEST(ChaosTest, OlapSameSeedReplayIsByteIdentical) {
  const OlapSoakOutcome a = RunOlapChaos(19);
  const OlapSoakOutcome b = RunOlapChaos(19);
  EXPECT_EQ(a.metrics, b.metrics);  // Byte-identical, olap.* included.
  EXPECT_NE(a.metrics.find("olap.shuffle_bits"), std::string::npos);
}

TEST(ChaosTest, LinkDownMidShuffleDegradesToUnavailableNotAHang) {
  MachineConfig config;
  config.pes = 4;
  // Direct links between all PEs: the down windows below cut exactly the
  // inter-fragment pairs, with no detour route around them.
  config.topology = TopologyKind::kFullyConnected;
  config.exchange_batch_rows = 4;
  // Tight retry knobs so the attempt budgets exhaust within seconds of
  // virtual time instead of the fault-free 10-second windows.
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  // A zero-length placeholder window turns fault mode on from the start
  // (the snappy fault-mode timers are chosen at construction); the real
  // outage is installed mid-run, once the tables exist.
  config.fault_plan.down_windows.push_back({1, 2, 0, 0});

  PrismaDb db(config);
  CreateExchangeTables(&db);

  // Cut every link among PEs 1-3 (which host all fragments, producers and
  // consumers) for longer than any retransmission budget survives; PE 0
  // keeps the client and the GDH reachable so the failure can be reported.
  const sim::SimTime from = db.simulator().now();
  const sim::SimTime until = from + 60 * sim::kNanosPerSecond;
  net::FaultPlan outage;
  outage.down_windows = {
      {1, 2, from, until}, {1, 3, from, until}, {2, 3, from, until}};
  db.network().SetFaultPlan(outage);

  // The shuffle cannot complete: batches and acks between fragments are
  // all lost. The statement must come back as a typed Unavailable — not
  // hang — once a producer's batch-attempt budget (or the coordinator's
  // RPC budget, whichever path dies first) runs out.
  auto severed = db.Execute(kExchangeJoinSql);
  ASSERT_FALSE(severed.ok());
  EXPECT_EQ(severed.status().code(), StatusCode::kUnavailable)
      << severed.status().ToString();

  // Once the window passes the machine is whole again: the same join
  // completes normally with the full answer.
  db.simulator().RunUntil(until);
  EXPECT_EQ(MustExecute(&db, kExchangeJoinSql).tuples.size(), 30u);
}

// --------------------------------------- Recursive queries under chaos

/// Seeded graph for the recursive workload: a chain with a cycle splice,
/// so the fixpoint needs several rounds and the closure saturates inside
/// the cycle.
std::vector<std::pair<int, int>> ChaosGraph(uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  std::vector<std::pair<int, int>> edges;
  const int nodes = static_cast<int>(rng.UniformInt(5, 10));
  for (int i = 0; i + 1 < nodes; ++i) edges.push_back({i, i + 1});
  // Back edge creating a cycle somewhere in the chain.
  const int back_from = static_cast<int>(rng.UniformInt(1, nodes - 1));
  edges.push_back({back_from, static_cast<int>(rng.Uniform(back_from))});
  // A couple of random shortcuts (possible duplicates).
  for (int i = 0; i < 2; ++i) {
    edges.push_back({static_cast<int>(rng.Uniform(nodes)),
                     static_cast<int>(rng.Uniform(nodes))});
  }
  return edges;
}

constexpr char kFixpointProgram[] =
    "p(X, Y) :- edge(X, Y).\n"
    "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
    "? p(X, Y).";

struct FixpointSoakOutcome {
  bool ok = false;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t retransmits = 0;
  uint64_t dup_batches = 0;
  std::string metrics;
  std::string trace;
};

/// One distributed fixpoint under a seeded lossy/duplicating/jittery
/// interconnect: small batches + tight credit turn every round's
/// all-to-all delta shuffle into many batch/ack round trips. The query
/// must terminate with the exact closure or a typed Unavailable — never
/// hang, never a duplicated derived tuple.
FixpointSoakOutcome RunFixpointChaos(uint64_t seed, bool trace = false) {
  MachineConfig config;
  config.pes = 4;
  config.exchange_batch_rows = 4;
  config.exchange_credit_window = 2;
  config.enable_tracing = trace;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  config.fault_plan.seed = seed;
  config.fault_plan.link.drop_probability = 0.01 + 0.04 * rng.NextDouble();
  config.fault_plan.link.duplicate_probability = 0.05 * rng.NextDouble();
  config.fault_plan.link.max_extra_delay_ns = rng.UniformInt(0, 200'000);

  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY "
                   "HASH(src) INTO 3 FRAGMENTS");
  const std::vector<std::pair<int, int>> edges = ChaosGraph(seed);
  std::string sql = "INSERT INTO edge VALUES ";
  std::vector<Tuple> oracle_in;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += StrFormat("(%d, %d)", edges[i].first, edges[i].second);
    oracle_in.push_back(
        Tuple({Value::Int(edges[i].first), Value::Int(edges[i].second)}));
  }
  MustExecute(&db, sql);

  auto answered = db.ExecutePrismalog(kFixpointProgram);
  FixpointSoakOutcome out;
  if (answered.ok()) {
    out.ok = true;
    auto oracle = exec::TransitiveClosure(oracle_in,
                                          exec::TcAlgorithm::kSeminaive);
    PRISMA_CHECK(oracle.ok());
    PRISMA_CHECK(answered->tuples.size() == oracle->size())
        << "closure diverged under seed " << seed << ": got "
        << answered->tuples.size() << " pairs, want " << oracle->size();
    for (size_t i = 0; i < oracle->size(); ++i) {
      PRISMA_CHECK(answered->tuples[i] == (*oracle)[i])
          << "pair " << i << " diverged under seed " << seed;
    }
  } else {
    // Degradation must be typed, not a hang or a wrong answer.
    PRISMA_CHECK(answered.status().code() == StatusCode::kUnavailable)
        << answered.status().ToString();
  }
  out.dropped = db.network().stats().dropped;
  out.duplicated = db.network().stats().duplicated;
  out.retransmits = db.metrics().CounterTotal("fixpoint.retransmits") +
                    db.metrics().CounterTotal("exchange.retransmits");
  out.dup_batches = db.metrics().CounterTotal("fixpoint.dup_batches") +
                    db.metrics().CounterTotal("exchange.dup_batches");
  out.metrics = db.DumpMetrics();
  if (trace) out.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, FixpointSoakSurvives25Seeds) {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t recovered = 0;
  uint64_t answered = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.FixpointSoakSurvives25Seeds", seed);
    const FixpointSoakOutcome out = RunFixpointChaos(seed);
    if (out.ok) ++answered;
    dropped += out.dropped;
    duplicated += out.duplicated;
    recovered += out.retransmits + out.dup_batches;
  }
  if (SingleSeedMode()) return;
  // Not a fair-weather run: faults landed on the wire, the recursion's
  // batch streams recovered from them, and most seeds still produced the
  // exact closure.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(answered, 20u);
}

TEST(ChaosTest, FixpointSameSeedReplayIsByteIdenticalIncludingTraces) {
  const FixpointSoakOutcome a = RunFixpointChaos(19, /*trace=*/true);
  const FixpointSoakOutcome b = RunFixpointChaos(19, /*trace=*/true);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.metrics, b.metrics);  // Byte-identical, fixpoint included.
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_NE(a.metrics.find("fixpoint.batches_sent"), std::string::npos);
}

// --------------------------------------- Serving layer under chaos (§15)

struct ServingSoakOutcome {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t unavailable = 0;
  uint64_t crashes = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t plans_by_id = 0;  // Id-only plan requests an OFM served.
  std::string latency_line;
  std::string metrics;
  std::string trace;
};

/// Open-loop serving workload through the admission dispatcher on the
/// lossy/crashing ChaosMachine, offered well past the machine's fault-free
/// saturation (bench_serving's sweep knees near ~100 qps at this scale).
/// The contract under fire: EVERY session statement resolves — an answer,
/// a typed Unavailable from the RPC layer, or a typed Overloaded shed at
/// admission — never a hang, and the same seed replays byte-identically.
/// Repeated SELECTs name their cached plans by id (DESIGN.md §15.4), so
/// id-only requests meet the drops and duplicates too; a PE crashes and
/// restarts between the warm-up that ships the plans whole and the
/// workload that reuses them, so its respawned OFMs hold none.
ServingSoakOutcome RunServingChaosSoak(uint64_t seed, bool trace = false) {
  MachineConfig config = ChaosMachine(seed);
  config.enable_tracing = trace;
  PrismaDb db(config);
  PRISMA_CHECK(
      serve::WorkloadGenerator::SetupSchema(&db, /*rows=*/48, kFragments)
          .ok());

  serve::WorkloadProfile profile;
  profile.sessions = 40;
  // Well past 2x this machine's saturation for an analytics-heavy mix
  // (the dispatcher queue must actually fill): overload, not fair weather.
  profile.offered_qps = 1500;
  profile.duration_ns = sim::kNanosPerSecond / 2;
  profile.mix = {0.4, 0.1, 0.4, 0.1};
  serve::WorkloadGenerator generator(seed, profile);
  const std::vector<serve::ArrivalEvent> events = generator.Generate();

  // Warm-up: the first few distinct SELECTs ship their plans whole.
  std::set<std::string> warmed;
  for (const serve::ArrivalEvent& event : events) {
    if (warmed.size() == 6) break;
    if (event.sql.rfind("SELECT", 0) != 0 || !warmed.insert(event.sql).second) {
      continue;
    }
    auto result = db.Execute(event.sql);
    PRISMA_CHECK(result.ok() ||
                 result.status().code() == StatusCode::kUnavailable)
        << result.status().ToString();
  }
  const net::NodeId victim =
      static_cast<net::NodeId>(1 + seed % (config.pes - 1));
  PRISMA_CHECK(db.CrashPe(victim) > 0);
  PRISMA_CHECK(db.RecoverPe(victim).ok());
  db.Run();

  serve::Dispatcher dispatcher(&db, serve::DispatcherOptions());
  for (const serve::ArrivalEvent& event : events) {
    dispatcher.Submit(
        event.sql, exec::kAutoCommit,
        [](const gdh::ClientReply& reply, sim::SimTime) {
          // Typed resolution only: success, shed at admission, or an RPC
          // budget exhausted against a crashed PE. Anything else (a lexer
          // error, a wrong-answer shape) is a bug, not degradation.
          PRISMA_CHECK(reply.status.ok() ||
                       reply.status.code() == StatusCode::kOverloaded ||
                       reply.status.code() == StatusCode::kUnavailable)
              << reply.status.ToString();
        },
        event.at_ns);
  }
  dispatcher.Run();

  const serve::Dispatcher::Stats& stats = dispatcher.stats();
  PRISMA_CHECK(stats.submitted == stats.completed + stats.shed)
      << "serving soak hang under seed " << seed << ": " << stats.submitted
      << " submitted, " << stats.completed << " completed, " << stats.shed
      << " shed";
  ServingSoakOutcome out;
  out.submitted = stats.submitted;
  out.completed = stats.completed;
  out.shed = stats.shed;
  out.unavailable = stats.unavailable;
  out.crashes = db.metrics().CounterTotal("pe.crashes");
  out.dropped = db.network().stats().dropped;
  out.duplicated = db.network().stats().duplicated;
  out.plans_by_id = db.metrics().CounterTotal("ofm.plan_resident_hits");
  out.latency_line = dispatcher.latency().DumpLine();
  out.metrics = db.DumpMetrics();
  if (trace) out.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, ServingSoakShedsButNeverHangsAcross25Seeds) {
  uint64_t total_shed = 0;
  uint64_t total_completed = 0;
  uint64_t total_dropped = 0;
  uint64_t total_by_id = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.ServingSoakShedsButNeverHangsAcross25Seeds",
                      seed);
    const ServingSoakOutcome out = RunServingChaosSoak(seed);
    // The scheduled PE crash fired, and so did the one after warm-up.
    EXPECT_EQ(out.crashes, 2u);
    EXPECT_GT(out.completed, 0u);
    total_shed += out.shed;
    total_completed += out.completed;
    total_dropped += out.dropped;
    total_by_id += out.plans_by_id;
  }
  if (SingleSeedMode()) return;
  // Overload was real (admission shed), faults were real (drops landed),
  // plans went by id through them, and the machine still served the bulk
  // of the offered statements.
  EXPECT_GT(total_shed, 0u);
  EXPECT_GT(total_dropped, 0u);
  EXPECT_GT(total_by_id, 0u);
  EXPECT_GT(total_completed, total_shed / 10);
}

TEST(ChaosTest, ServingSameSeedReplayIsByteIdenticalIncludingTraces) {
  const ServingSoakOutcome a = RunServingChaosSoak(9, /*trace=*/true);
  const ServingSoakOutcome b = RunServingChaosSoak(9, /*trace=*/true);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.unavailable, b.unavailable);
  EXPECT_EQ(a.latency_line, b.latency_line);  // Exact quantiles replay too.
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
}

// ---------------------------- Result delivery under a crash (§15.5)

struct StreamCrashOutcome {
  StatusCode code = StatusCode::kOk;
  size_t rows = 0;
  uint64_t frames_at_crash = 0;  // Train frames the client held.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  std::string metrics;
  std::string trace;
};

/// A 1,200-row distributed sort (19 frames) whose coordinator is pinned to
/// PE 1: the merged runs reach the client as frames while the runs are
/// still streaming in. The simulator is stepped until the client holds
/// part of the frame train while the coordinator is still forwarding,
/// then PE 1 crashes. The GDH reaps the coordinator and answers
/// kUnavailable; the client must discard the partial train.
StreamCrashOutcome RunStreamCrash(bool trace) {
  MachineConfig config;
  config.pes = 8;
  config.coordinator_pes = {1};
  config.enable_tracing = trace;
  // A zero-length placeholder window turns fault mode (coordinator
  // supervision) on without faulting anything.
  config.fault_plan.down_windows.push_back({1, 2, 0, 0});
  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE big (id INT, k INT) FRAGMENTED BY "
                   "HASH(id) INTO 7 FRAGMENTS");
  for (int i = 0; i < 1200; i += 200) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int j = i; j < i + 200; ++j) {
      if (j > i) sql += ", ";
      sql += StrFormat("(%d, %d)", j, (j * 37) % 101);
    }
    MustExecute(&db, sql);
  }

  StreamCrashOutcome out;
  bool answered = false;
  serve::Dispatcher dispatcher(&db, serve::DispatcherOptions());
  dispatcher.Submit("SELECT id, k FROM big ORDER BY k DESC, id",
                    exec::kAutoCommit,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      PRISMA_CHECK(!answered) << "answered twice";
                      answered = true;
                      out.code = reply.status.code();
                      out.rows = reply.tuples ? reply.tuples->size() : 0;
                    });
  const uint64_t frames0 = db.metrics().CounterValue("query.reply_frames");
  auto frames = [&] {
    return db.metrics().CounterValue("query.reply_frames") - frames0;
  };
  // query.reply_streamed ticks when the coordinator sends its last frame.
  while (frames() == 0 ||
         db.metrics().CounterValue("query.reply_streamed") > 0) {
    PRISMA_CHECK(!answered && db.simulator().Step())
        << "the train was never caught in flight";
  }
  out.frames_at_crash = frames();
  db.CrashPe(1);
  dispatcher.Run();
  PRISMA_CHECK(answered);
  const serve::Dispatcher::Stats& stats = dispatcher.stats();
  out.submitted = stats.submitted;
  out.completed = stats.completed;
  out.shed = stats.shed;
  out.metrics = db.DumpMetrics();
  if (trace) out.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, CoordinatorCrashMidTrainIsUnavailableNeverTruncated) {
  const StreamCrashOutcome out = RunStreamCrash(/*trace=*/false);
  // The client held part of the train when the coordinator died...
  EXPECT_GT(out.frames_at_crash, 0u);
  EXPECT_LT(out.frames_at_crash, 19u);
  // ...and the session saw a typed error, not the partial rows.
  EXPECT_EQ(out.code, StatusCode::kUnavailable);
  EXPECT_EQ(out.rows, 0u);
  EXPECT_EQ(out.submitted, out.completed + out.shed);
  EXPECT_EQ(out.submitted, 1u);
}

TEST(ChaosTest, CoordinatorCrashMidTrainReplaysByteIdenticallyWithTraces) {
  const StreamCrashOutcome a = RunStreamCrash(/*trace=*/true);
  const StreamCrashOutcome b = RunStreamCrash(/*trace=*/true);
  EXPECT_EQ(a.frames_at_crash, b.frames_at_crash);
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

struct SortedRunSoakOutcome {
  uint64_t dropped = 0;
  uint64_t retransmits = 0;
  uint64_t olap_parts = 0;
  std::string metrics;
};

/// Sorted runs (DESIGN.md §14.3) under a 4-batch credit window, so every
/// run has several batches in flight, across seeded drops, duplicates
/// and jitter: a lost run batch leaves gaps and duplicates at the
/// coordinator, and the producer must still learn of every batch that
/// arrived. 200 rows over 4 fragments in 4-row batches give each run
/// about 13 batches. Both the bare sort and its Top-N form must come
/// back in exact order. Per-hop drops are drawn from [drop_min, drop_max).
SortedRunSoakOutcome RunSortedRunChaos(uint64_t seed, double drop_min = 0.01,
                                       double drop_max = 0.05,
                                       int rows = 200) {
  MachineConfig config;
  config.pes = 4;
  config.exchange_batch_rows = 4;
  config.exchange_credit_window = 4;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 31);
  config.fault_plan.seed = seed;
  config.fault_plan.link.drop_probability =
      drop_min + (drop_max - drop_min) * rng.NextDouble();
  config.fault_plan.link.duplicate_probability = 0.05 * rng.NextDouble();
  config.fault_plan.link.max_extra_delay_ns = rng.UniformInt(0, 200'000);

  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE r (id INT, k INT) "
                   "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS");
  for (int i = 0; i < rows; i += 50) {
    std::string sql = "INSERT INTO r VALUES ";
    for (int j = i; j < i + 50; ++j) {
      if (j > i) sql += ", ";
      sql += StrFormat("(%d, %d)", j, (j * 37) % 101);
    }
    MustExecute(&db, sql);
  }
  std::vector<std::pair<int, int>> expected;  // (k, id): k DESC, id.
  for (int j = 0; j < rows; ++j) expected.emplace_back((j * 37) % 101, j);
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  const QueryResult sorted =
      MustExecute(&db, "SELECT id, k FROM r ORDER BY k DESC, id");
  PRISMA_CHECK(sorted.tuples.size() == expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    PRISMA_CHECK(sorted.tuples[i].at(0) == Value::Int(expected[i].second))
        << "rank " << i << " under seed " << seed;
  }
  const QueryResult top =
      MustExecute(&db, "SELECT id, k FROM r ORDER BY k DESC, id LIMIT 30");
  PRISMA_CHECK(top.tuples.size() == 30);
  for (size_t i = 0; i < 30; ++i) {
    PRISMA_CHECK(top.tuples[i].at(0) == Value::Int(expected[i].second))
        << "top rank " << i << " under seed " << seed;
  }

  SortedRunSoakOutcome out;
  out.dropped = db.network().stats().dropped;
  out.retransmits = db.metrics().CounterTotal("exchange.retransmits");
  out.olap_parts = db.metrics().CounterTotal("olap.parts");
  out.metrics = db.DumpMetrics();
  return out;
}

TEST(ChaosTest, SortedRunSoakWithAWideCreditWindowSurvives25Seeds) {
  uint64_t dropped = 0;
  uint64_t retransmits = 0;
  for (const uint64_t seed : SoakSeeds(1, 25)) {
    PRISMA_SEED_REPRO("ChaosTest.SortedRunSoakWithAWideCreditWindowSurvives"
                      "25Seeds",
                      seed);
    const SortedRunSoakOutcome out = RunSortedRunChaos(seed);
    EXPECT_EQ(out.olap_parts, 2u);  // Both statements streamed runs.
    dropped += out.dropped;
    retransmits += out.retransmits;
  }
  if (SingleSeedMode()) return;
  EXPECT_GT(dropped, 0u);
  // Lost run batches or acks were resent, and every answer stayed exact.
  EXPECT_GT(retransmits, 0u);
}

/// A run that outlasts its producer's plan RPC budget (6 sends, about
/// 7.75 s) under heavy loss is not failed while its batches still
/// arrive: every fresh batch renews the budget. 1,600 rows (100 batches
/// a run) on seed 8 at 2-8 % per-hop drops used to fail the sort with
/// kUnavailable mid-stream.
TEST(ChaosTest, SortedRunUnderHeavyLossOutlivesItsPlanRpcBudget) {
  const SortedRunSoakOutcome out =
      RunSortedRunChaos(8, 0.02, 0.08, /*rows=*/1600);
  EXPECT_EQ(out.olap_parts, 2u);
  EXPECT_GT(out.retransmits, 0u);
}

TEST(ChaosTest, SortedRunSameSeedReplayIsByteIdentical) {
  const SortedRunSoakOutcome a = RunSortedRunChaos(7);
  const SortedRunSoakOutcome b = RunSortedRunChaos(7);
  EXPECT_EQ(a.metrics, b.metrics);
}

// ----------------------------- Sorted runs under a producer crash (§14.3)

struct RunCrashOutcome {
  StatusCode code = StatusCode::kOk;
  std::string rendered;  // The answer, one tuple per line.
  uint64_t frames_at_crash = 0;
  net::NodeId victim = 0;
  std::string metrics;
  std::string trace;
};

std::string RenderedTuples(const std::vector<Tuple>& tuples) {
  std::string out;
  for (const Tuple& t : tuples) out += t.ToString() + "\n";
  return out;
}

/// The 1,200-row sort of big(id, k) in its exact order: k DESC, id.
std::string ExpectedRunOrder() {
  std::vector<std::pair<int, int>> rows;  // (k, id)
  for (int j = 0; j < 1200; ++j) rows.emplace_back((j * 37) % 101, j);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<Tuple> tuples;
  for (const auto& [k, id] : rows) {
    tuples.push_back(Tuple({Value::Int(id), Value::Int(k)}));
  }
  return RenderedTuples(tuples);
}

/// A 1,200-row sort over 7 fragments streamed as sorted runs in 4-row
/// batches under a 4-batch credit window, its coordinator on the
/// client's PE 0 (which never crashes). Once the client holds part of the frame
/// train, the PE of a fragment whose run is still streaming crashes;
/// with `recover` it restarts 5 ms later, and the coordinator's
/// retransmitted plan makes the respawned OFM stream the run again.
RunCrashOutcome RunProducerCrash(bool recover, bool trace) {
  MachineConfig config;
  config.pes = 8;
  config.coordinator_pes = {0};
  config.exchange_batch_rows = 4;
  config.exchange_credit_window = 4;
  config.enable_tracing = trace;
  // A zero-length placeholder window turns fault mode (snappy RPC timers)
  // on without faulting anything.
  config.fault_plan.down_windows.push_back({1, 2, 0, 0});
  PrismaDb db(config);
  MustExecute(&db, "CREATE TABLE big (id INT, k INT) FRAGMENTED BY "
                   "HASH(id) INTO 7 FRAGMENTS");
  for (int i = 0; i < 1200; i += 200) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int j = i; j < i + 200; ++j) {
      if (j > i) sql += ", ";
      sql += StrFormat("(%d, %d)", j, (j * 37) % 101);
    }
    MustExecute(&db, sql);
  }

  // Runs whose final batch reached the coordinator (run r = fragment r).
  std::set<size_t> finished;
  db.runtime().SetMailTap([&finished](pool::Mail& mail) {
    if (mail.kind != gdh::kMailTupleBatch) return;
    const auto& msg = *std::any_cast<std::shared_ptr<gdh::TupleBatchMsg>>(
        mail.body);
    if (msg.eos) finished.insert(msg.producer);
  });
  RunCrashOutcome out;
  bool answered = false;
  serve::Dispatcher dispatcher(&db, serve::DispatcherOptions());
  dispatcher.Submit("SELECT id, k FROM big ORDER BY k DESC, id",
                    exec::kAutoCommit,
                    [&](const gdh::ClientReply& reply, sim::SimTime) {
                      PRISMA_CHECK(!answered) << "answered twice";
                      answered = true;
                      out.code = reply.status.code();
                      if (reply.tuples != nullptr) {
                        out.rendered = RenderedTuples(*reply.tuples);
                      }
                    });
  const uint64_t frames0 = db.metrics().CounterValue("query.reply_frames");
  while (db.metrics().CounterValue("query.reply_frames") == frames0) {
    PRISMA_CHECK(!answered && db.simulator().Step())
        << "the train was never caught in flight";
  }
  out.frames_at_crash =
      db.metrics().CounterValue("query.reply_frames") - frames0;
  const auto& fragments =
      db.gdh().dictionary().GetTable("big").value()->fragments;
  for (size_t f = 0; f < fragments.size(); ++f) {
    if (!finished.contains(f) && fragments[f].pe != 0) {
      out.victim = fragments[f].pe;
      break;
    }
  }
  PRISMA_CHECK(out.victim != 0) << "every run had finished";
  db.CrashPe(out.victim);
  if (recover) {
    db.simulator().RunUntil(db.simulator().now() + 5 * sim::kNanosPerMilli);
    PRISMA_CHECK(db.RecoverPe(out.victim).ok());
  }
  dispatcher.Run();
  db.runtime().SetMailTap(nullptr);
  PRISMA_CHECK(answered);
  out.metrics = db.DumpMetrics();
  if (trace) out.trace = db.DumpTrace();
  return out;
}

TEST(ChaosTest, ProducerCrashMidRunIsExactOrTypedNeverTruncated) {
  const std::string expected = ExpectedRunOrder();
  for (const bool recover : {false, true}) {
    SCOPED_TRACE(recover ? "PE restarts" : "PE stays down");
    const RunCrashOutcome out = RunProducerCrash(recover, /*trace=*/false);
    // The client held part of the train when the producer's PE died.
    EXPECT_GT(out.frames_at_crash, 0u);
    if (out.code == StatusCode::kOk) {
      EXPECT_EQ(out.rendered, expected);  // Exact order, every row.
    } else {
      EXPECT_EQ(out.code, StatusCode::kUnavailable);
      EXPECT_TRUE(out.rendered.empty());  // The partial train is dropped.
    }
    // Without the PE the run can never finish; with it back, the
    // respawned OFM streams the run again and the merge completes.
    EXPECT_EQ(out.code == StatusCode::kOk, recover);
  }
}

TEST(ChaosTest, ProducerCrashMidRunReplaysByteIdenticallyWithTraces) {
  const RunCrashOutcome a = RunProducerCrash(/*recover=*/true, true);
  const RunCrashOutcome b = RunProducerCrash(/*recover=*/true, true);
  EXPECT_EQ(a.victim, b.victim);
  EXPECT_EQ(a.frames_at_crash, b.frames_at_crash);
  EXPECT_EQ(a.rendered, b.rendered);
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

// ------------------------------------------------- Presumed-abort details

/// Opens a session, BEGINs and inserts one row per id into `t`; returns
/// the session (its transaction still open).
PrismaDb::Session OpenTxnWithInserts(PrismaDb* db, int rows) {
  auto session = db->OpenSession();
  PRISMA_CHECK(session.Execute("BEGIN").ok());
  for (int i = 0; i < rows; ++i) {
    PRISMA_CHECK(
        session.Execute(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i))
            .ok());
  }
  return session;
}

void CreateChaosTable(PrismaDb* db) {
  MustExecute(db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                            "HASH(id) INTO %d FRAGMENTS",
                            kFragments));
}

size_t DecisionRecords(PrismaDb& db, char kind) {
  size_t n = 0;
  for (const std::string& record : db.stable_store(0).ReadStream("gdh.2pc")) {
    if (record[0] == kind) ++n;
  }
  return n;
}

/// `txn`'s commit marker as exec::Ofm logs it: opcode 4, then the id.
std::string CommitMarker(exec::TxnId txn) {
  BinaryWriter w;
  w.PutU8(4);
  w.PutI64(txn);
  return w.Take();
}

/// Fragments of `t` whose WAL holds `txn`'s commit marker.
size_t CommitMarkersOnDisk(PrismaDb& db, exec::TxnId txn) {
  const std::string marker = CommitMarker(txn);
  size_t n = 0;
  for (const gdh::FragmentInfo& frag :
       db.gdh().dictionary().GetTable("t").value()->fragments) {
    const std::vector<std::string>& wal =
        db.stable_store(frag.pe).ReadStream(frag.name + ".wal");
    if (std::find(wal.begin(), wal.end(), marker) != wal.end()) ++n;
  }
  return n;
}

TEST(ChaosTest, CommitDecisionIsPersistedBeforePhase2AndAnsweredAtIt) {
  MachineConfig config;
  // One fragment per PE, so no prepare queues behind another on a disk.
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const exec::TxnId txn = session.txn();

  // Step COMMIT event by event. The moment the first phase-2 message
  // (txn_control after the prepares) is sent, the commit decision must
  // already be durable on the GDH's disk.
  const uint64_t prepares =
      db.gdh().dictionary().GetTable("t").value()->fragments.size();
  auto txn_control_sent = [&db] {
    return db.metrics().CounterValue("pool.mail_sent",
                                     {{"kind", "txn_control"}});
  };
  const uint64_t before = txn_control_sent();
  bool replied = false;
  Status outcome;
  sim::SimTime response_ns = 0;
  db.Submit("COMMIT", /*prismalog=*/false, txn,
            [&](const gdh::ClientReply& reply, sim::SimTime response) {
              replied = true;
              outcome = reply.status;
              response_ns = response;
            });
  bool phase2_seen = false;
  while (!replied) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the reply";
    if (!phase2_seen && txn_control_sent() > before + prepares) {
      phase2_seen = true;
      EXPECT_EQ(DecisionRecords(db, 'C'), 1u)
          << "phase 2 started before the commit decision was durable";
    }
  }
  ASSERT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_TRUE(phase2_seen);

  // Answered at the decision: the client waited for the prepare force and
  // the C force, not for the participants' commit markers — phase 2 is
  // still in flight, so the decision is not retired yet.
  const sim::SimTime access_ns = storage::DiskModel().access_ns;
  EXPECT_GE(response_ns, 2 * access_ns);
  EXPECT_LT(response_ns, 3 * access_ns) << "the reply waited for a third force";
  EXPECT_TRUE(db.gdh().committed_decisions().contains(txn));

  // Phase 2 settles without a force: every participant applied the
  // decision and answered, but its commit marker waits in memory for the
  // OFM's next write. So no marker is on disk and the decision is held.
  db.Run();
  EXPECT_EQ(db.gdh().unsettled_members(), 0u);
  EXPECT_EQ(CommitMarkersOnDisk(db, txn), 0u);
  EXPECT_TRUE(db.gdh().committed_decisions().contains(txn));
  ASSERT_EQ(DecisionRecords(db, 'C'), 1u);
  EXPECT_EQ(DecisionRecords(db, 'E'), 0u);

  // The next transaction over the same fragments carries the markers on
  // its prepares, and its yes-votes list them. The decision is retired
  // only once every participant's marker is on disk and the GDH has heard
  // so from each of them (the tap collects the fragments whose replies
  // listed it). And it is retired at the last of those votes: that vote
  // completes phase 1, and the E rides on the decision force it starts.
  auto next = OpenTxnWithInserts(&db, 8);
  std::set<std::string> listed;
  db.runtime().SetMailTap([&listed, txn](pool::Mail& mail) {
    if (mail.kind != gdh::kMailTxnControlReply) return;
    const auto& reply =
        *std::any_cast<std::shared_ptr<gdh::TxnControlReply>>(mail.body);
    const auto& landed = reply.commits_landed;
    if (std::find(landed.begin(), landed.end(), txn) != landed.end()) {
      listed.insert(reply.fragment);
    }
  });
  bool next_replied = false;
  db.Submit("COMMIT", /*prismalog=*/false, next.txn(),
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
              next_replied = true;
            });
  bool retired = false;
  while (db.simulator().Step()) {
    if (retired || db.gdh().committed_decisions().contains(txn)) continue;
    retired = true;
    EXPECT_EQ(CommitMarkersOnDisk(db, txn), prepares)
        << "retired before every commit marker landed";
    EXPECT_EQ(listed.size(), prepares)
        << "retired before every participant listed its marker";
  }
  db.runtime().SetMailTap(nullptr);
  EXPECT_TRUE(next_replied);
  EXPECT_TRUE(retired);
  const auto& log = db.stable_store(0).ReadStream("gdh.2pc");
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "C " + std::to_string(txn));
  EXPECT_EQ(log[1], "E " + std::to_string(txn));
  EXPECT_EQ(log[2], "C " + std::to_string(next.txn()));
}

TEST(ChaosTest, EndRecordRidesOnTheNextForcedWrite) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto first = OpenTxnWithInserts(&db, 8);
  const exec::TxnId first_txn = first.txn();
  ASSERT_TRUE(first.Execute("COMMIT").ok());  // Drains the machine.
  // Every participant applied the decision, yet no E reached the disk:
  // the commit markers wait in the OFMs for their next writes, and the E
  // is unforced.
  EXPECT_EQ(DecisionRecords(db, 'C'), 1u);
  EXPECT_EQ(DecisionRecords(db, 'E'), 0u);

  // PE 0's disk also serves the fragment placed there, so count only the
  // GDH's own forced writes: the landings that grow its decision log.
  // One physical write lands in one simulator event.
  auto second = OpenTxnWithInserts(&db, 8);
  const exec::TxnId second_txn = second.txn();
  auto log_size = [&db] {
    return db.stable_store(0).ReadStream("gdh.2pc").size();
  };
  bool replied = false;
  db.Submit("COMMIT", /*prismalog=*/false, second_txn,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
              replied = true;
            });
  std::vector<size_t> landings;
  size_t seen = log_size();
  while (db.simulator().Step()) {
    if (log_size() != seen) {
      seen = log_size();
      landings.push_back(seen);
    }
  }
  ASSERT_TRUE(replied);
  // The second transaction's prepares carried the first one's markers,
  // its votes listed them, and the last vote retired the first decision
  // and started the second decision's force, which carried the first end
  // record: one physical write took the log from C1 to C1, E1, C2.
  EXPECT_EQ(landings, std::vector<size_t>{3});
  const auto& log = db.stable_store(0).ReadStream("gdh.2pc");
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "C " + std::to_string(first_txn));
  EXPECT_EQ(log[1], "E " + std::to_string(first_txn));
  EXPECT_EQ(log[2], "C " + std::to_string(second_txn));
}

// ---------------------------------------------------- One-phase commits

/// Fragment (index) of `t` that holds id `id`.
int FragmentOfId(PrismaDb& db, int64_t id) {
  auto fragment =
      db.gdh().dictionary().GetTable("t").value()->fragmenter->FragmentOf(
          Tuple({Value::Int(id), Value::Int(0)}));
  PRISMA_CHECK(fragment.ok()) << fragment.status().ToString();
  return *fragment;
}

TEST(ChaosTest, SingleFragmentWriteCommitsInOnePhaseWithOneForce) {
  MachineConfig config;
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  const int target = FragmentOfId(db, 1);
  ASSERT_GE(target, 0);
  const gdh::FragmentInfo frag =
      db.gdh().dictionary().GetTable("t").value()->fragments[target];
  const std::string wal = frag.name + ".wal";
  const size_t wal_before = db.stable_store(frag.pe).ReadStream(wal).size();
  const uint64_t one_phase = db.metrics().CounterValue("gdh.one_phase_commits");

  auto result = db.Execute("INSERT INTO t VALUES (1, 7)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One force before the reply: the sole participant wrote its redo record
  // and its commit marker as one write, and the GDH logged nothing.
  const sim::SimTime access_ns = storage::DiskModel().access_ns;
  EXPECT_GE(result->response_time_ns, access_ns);
  EXPECT_LT(result->response_time_ns, 2 * access_ns);
  EXPECT_EQ(db.stable_store(frag.pe).ReadStream(wal).size(), wal_before + 2);
  EXPECT_EQ(db.metrics().CounterValue("gdh.one_phase_commits"),
            one_phase + 1);
  EXPECT_TRUE(db.stable_store(0).ReadStream("gdh.2pc").empty());
  EXPECT_EQ(MustExecute(&db, "SELECT v FROM t WHERE id = 1").tuples.size(),
            1u);
}

TEST(ChaosTest, ReplicatedPointWriteWaitsForTwoForces) {
  MachineConfig config;
  config.pes = kFragments + 1;
  config.replicate_fragments = true;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto result = db.Execute("INSERT INTO t VALUES (1, 7)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Two participants (the replicas): prepare force, then the C force; the
  // commit markers land after the reply.
  const sim::SimTime access_ns = storage::DiskModel().access_ns;
  EXPECT_GE(result->response_time_ns, 2 * access_ns);
  EXPECT_LT(result->response_time_ns, 3 * access_ns);
  EXPECT_EQ(db.metrics().CounterValue("gdh.one_phase_commits"), 0u);
  EXPECT_EQ(DecisionRecords(db, 'C'), 1u);
}

TEST(ChaosTest, ReadAfterTheDecisionSeesTheWriteAndWritersWaitForPhase2) {
  MachineConfig config;
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const exec::TxnId txn = session.txn();
  auto writes_sent = [&db] {
    return db.metrics().CounterValue("pool.mail_sent", {{"kind", "write"}});
  };
  bool committed = false;
  db.Submit("COMMIT", /*prismalog=*/false, txn,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              ASSERT_TRUE(reply.status.ok());
              committed = true;
            });
  while (!committed) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the reply";
  }
  // The client heard "committed" while phase 2 is still on its way: a
  // read granted now sees every row (the writes are applied in place),
  // and a writer of the same fragments waits until its fragment has
  // applied the decision: no write mail reaches an OFM before that OFM's
  // phase-2 reply reached the GDH. (From here on every txn_control reply
  // to the GDH is a phase-2 reply until the writer's own commit, which
  // follows its write.)
  ASSERT_TRUE(db.gdh().committed_decisions().contains(txn));
  std::set<pool::ProcessId> applied;
  size_t writes_delivered = 0;
  db.runtime().SetMailTap([&](pool::Mail& mail) {
    if (mail.kind == gdh::kMailTxnControlReply) applied.insert(mail.from);
    if (mail.kind == gdh::kMailWrite) {
      ++writes_delivered;
      EXPECT_TRUE(applied.contains(mail.to))
          << "a writer reached a fragment before its phase-2 reply";
    }
  });
  size_t rows_seen = 0;
  bool read_done = false;
  db.Submit("SELECT id FROM t", /*prismalog=*/false, exec::kAutoCommit,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              ASSERT_TRUE(reply.status.ok());
              rows_seen = reply.tuples != nullptr ? reply.tuples->size() : 0;
              read_done = true;
            });
  const uint64_t writes_before = writes_sent();
  bool updated = false;
  db.Submit("UPDATE t SET v = 100 WHERE id = 3", /*prismalog=*/false,
            exec::kAutoCommit,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              ASSERT_TRUE(reply.status.ok());
              updated = true;
            });
  // The writer does not wait for a force: its write leaves while every
  // commit marker is still in its OFM's buffer.
  while (writes_sent() == writes_before) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the write left";
  }
  EXPECT_EQ(CommitMarkersOnDisk(db, txn), 0u);
  db.Run();
  db.runtime().SetMailTap(nullptr);
  EXPECT_EQ(writes_delivered, 1u);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(rows_seen, 8u);
  EXPECT_TRUE(updated);
  EXPECT_EQ(MustExecute(&db, "SELECT v FROM t WHERE id = 3")
                .tuples.at(0)
                .at(0)
                .int_value(),
            100);
  // The writer's one-phase commit carried its fragment's marker ahead of
  // its own records: the WAL ends with that marker, the update's redo
  // record and its commit marker. The other participants' markers still
  // wait, so the decision is held.
  const gdh::FragmentInfo frag = db.gdh().dictionary().GetTable("t").value()
                                     ->fragments[FragmentOfId(db, 3)];
  const auto& wal = db.stable_store(frag.pe).ReadStream(frag.name + ".wal");
  ASSERT_GE(wal.size(), 3u);
  EXPECT_EQ(wal[wal.size() - 3], CommitMarker(txn));
  EXPECT_EQ(CommitMarkersOnDisk(db, txn), 1u);
  EXPECT_TRUE(db.gdh().committed_decisions().contains(txn));
}

TEST(ChaosTest, OfmCrashBeforeItsUnforcedCommitMarkerLandsRecoversCommitted) {
  MachineConfig config;
  // One fragment per PE, none on PE 0 (which cannot crash).
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const exec::TxnId txn = session.txn();
  ASSERT_TRUE(session.Execute("COMMIT").ok());  // Drains the machine.
  EXPECT_EQ(CommitMarkersOnDisk(db, txn), 0u);
  EXPECT_TRUE(db.gdh().committed_decisions().contains(txn));

  // Crash a participant's PE with its marker still in memory, and restart
  // it. The replacement finds the prepare without an outcome, so it
  // recovers in doubt, stalls and asks the GDH, which still holds the C:
  // the read below waits for that answer and then sees every row.
  const gdh::FragmentInfo frag =
      db.gdh().dictionary().GetTable("t").value()->fragments[0];
  ASSERT_NE(frag.pe, 0);
  auto mail_sent = [&db](const char* kind) {
    return db.metrics().CounterValue("pool.mail_sent", {{"kind", kind}});
  };
  ASSERT_EQ(mail_sent(gdh::kMailDecisionRequest), 0u);
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  size_t rows_seen = 0;
  uint64_t decisions_before_read = 0;
  db.Submit("SELECT id FROM t", /*prismalog=*/false, exec::kAutoCommit,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
              rows_seen = reply.tuples != nullptr ? reply.tuples->size() : 0;
              decisions_before_read = mail_sent(gdh::kMailDecisionReply);
            });
  db.Run();
  EXPECT_EQ(db.metrics().CounterValue("ofm.recoveries",
                                      {{"fragment", frag.name}}),
            1u);
  EXPECT_GE(mail_sent(gdh::kMailDecisionRequest), 1u);
  EXPECT_GE(decisions_before_read, 1u) << "the read did not wait";
  EXPECT_EQ(rows_seen, 8u);
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 8u);
  // The resolved marker waits in the replacement's buffer like the
  // others: the decision is still held.
  EXPECT_EQ(CommitMarkersOnDisk(db, txn), 0u);
  EXPECT_TRUE(db.gdh().committed_decisions().contains(txn));

  // A checkpoint round lands every buffered marker (ahead of the snapshot
  // that truncates the WAL), and its replies list them: the decision
  // retires, and its unforced E rides on the GDH's next forced write.
  MustExecute(&db, "CHECKPOINT");
  EXPECT_TRUE(db.gdh().committed_decisions().empty());
  EXPECT_EQ(DecisionRecords(db, 'E'), 0u);
  auto next = OpenTxnWithInserts(&db, 8);
  const exec::TxnId next_txn = next.txn();
  ASSERT_TRUE(next.Execute("COMMIT").ok());
  const auto& log = db.stable_store(0).ReadStream("gdh.2pc");
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "C " + std::to_string(txn));
  EXPECT_EQ(log[1], "E " + std::to_string(txn));
  EXPECT_EQ(log[2], "C " + std::to_string(next_txn));
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 16u);

  // The other window: the participant's next write (a one-phase UPDATE)
  // lands next_txn's marker, and the PE crashes before the reply that
  // lists it reaches the GDH. The replacement replays the marker, so
  // nothing is in doubt, and its first durable reply lists it again: the
  // decision still retires.
  int id = 0;
  while (FragmentOfId(db, id) != 0) ++id;
  auto marker_landed = [&] {
    const auto& wal = db.stable_store(frag.pe).ReadStream(frag.name + ".wal");
    return std::find(wal.begin(), wal.end(), CommitMarker(next_txn)) !=
           wal.end();
  };
  ASSERT_FALSE(marker_landed());
  size_t lists = 0;
  db.runtime().SetMailTap([&](pool::Mail& mail) {
    const std::vector<exec::TxnId>* landed = nullptr;
    if (mail.kind == gdh::kMailWriteReply) {
      auto reply = std::any_cast<std::shared_ptr<gdh::WriteReply>>(mail.body);
      if (reply->fragment == frag.name) landed = &reply->commits_landed;
    } else if (mail.kind == gdh::kMailTxnControlReply) {
      auto reply =
          std::any_cast<std::shared_ptr<gdh::TxnControlReply>>(mail.body);
      if (reply->fragment == frag.name) landed = &reply->commits_landed;
    }
    if (landed != nullptr &&
        std::find(landed->begin(), landed->end(), next_txn) != landed->end()) {
      ++lists;
    }
  });
  bool updated = false;
  db.Submit(StrFormat("UPDATE t SET v = 100 WHERE id = %d", id),
            /*prismalog=*/false, exec::kAutoCommit,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
              updated = true;
            });
  while (!marker_landed()) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the marker landed";
  }
  const uint64_t inquiries = mail_sent(gdh::kMailDecisionRequest);
  ASSERT_GT(db.CrashPe(frag.pe), 0u);
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  EXPECT_TRUE(updated);
  EXPECT_EQ(mail_sent(gdh::kMailDecisionRequest), inquiries);
  EXPECT_TRUE(marker_landed());
  MustExecute(&db, "CHECKPOINT");
  db.runtime().SetMailTap(nullptr);
  EXPECT_EQ(lists, 1u);
  EXPECT_TRUE(db.gdh().committed_decisions().empty());
  EXPECT_EQ(MustExecute(&db, StrFormat("SELECT v FROM t WHERE id = %d", id))
                .tuples.size(),
            2u);
}

TEST(ChaosTest, AbortsAreNeverLogged) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  auto session = db.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(session.Execute("ABORT").ok());

  // An aborted transaction writes no decision record: absence means abort.
  EXPECT_TRUE(db.stable_store(0).ReadStream("gdh.2pc").empty());
  EXPECT_TRUE(db.gdh().committed_decisions().empty());
}

// ------------------------------------------- Crash points on the disk
//
// Stable-storage writes are I/O requests that land later (pool::Disk).
// Each test below crashes between a write's enqueue and its completion.

/// Spawns a second GDH over PE 0's disk, as a restarted coordinator would
/// be; its OnStart replays the decision log and the id reservations.
gdh::GdhProcess* RestartGdh(PrismaDb* db, pool::ProcessId* pid) {
  gdh::GdhProcess::Config gdh_config;
  gdh_config.fragment_pes = {1, 2, 3};
  gdh_config.coordinator_pes = {1, 2, 3};
  auto restarted = std::make_unique<gdh::GdhProcess>(std::move(gdh_config));
  gdh::GdhProcess* raw = restarted.get();
  *pid = db->runtime().Spawn(0, std::move(restarted));
  db->Run();
  return raw;
}

TEST(ChaosTest, GdhCrashDuringTheCommitForceLosesTheDecisionEverywhere) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const exec::TxnId txn = session.txn();
  // Copied now: the GDH process (and its dictionary) dies below.
  const gdh::TableInfo* info = db.gdh().dictionary().GetTable("t").value();
  const Schema schema = info->schema;
  const std::vector<gdh::FragmentInfo> frags = info->fragments;
  bool replied = false;
  Status outcome;
  db.Submit("COMMIT", /*prismalog=*/false, txn,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              replied = true;
              outcome = reply.status;
            });
  // Every participant voted yes; the GDH has queued its C record.
  pool::Disk* gdh_disk = db.runtime().disk(0);
  while (!gdh_disk->busy()) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the C force";
  }
  ASSERT_EQ(DecisionRecords(db, 'C'), 0u);
  // The GDH crashes mid-force. (The client endpoint on the same PE models
  // the host interface and stays up, so it can prove it heard nothing.)
  db.runtime().Kill(db.gdh().self());
  db.Run();
  EXPECT_FALSE(replied && outcome.ok()) << "client told committed";
  EXPECT_EQ(DecisionRecords(db, 'C'), 0u) << "the lost force landed";

  // Restart: the replayed log has no decision, so it is presumed aborted.
  pool::ProcessId gdh_pid = pool::kNoProcess;
  gdh::GdhProcess* restarted = RestartGdh(&db, &gdh_pid);
  EXPECT_FALSE(restarted->committed_decisions().contains(txn));

  // Every participant is prepared; restarted ones inquire and must all
  // resolve the same way — abort, with nothing applied.
  std::vector<gdh::OfmProcess*> participants;
  for (const gdh::FragmentInfo& frag : frags) {
    db.runtime().Kill(frag.ofm);
    gdh::OfmProcess::Config ofm_config;
    ofm_config.fragment_name = frag.name;
    ofm_config.schema = schema;
    ofm_config.recover = true;
    ofm_config.gdh = gdh_pid;
    auto ofm = std::make_unique<gdh::OfmProcess>(std::move(ofm_config));
    participants.push_back(ofm.get());
    db.runtime().Spawn(frag.pe, std::move(ofm));
  }
  db.Run();
  for (gdh::OfmProcess* participant : participants) {
    EXPECT_TRUE(participant->ofm().recovered_undecided().empty());
    EXPECT_EQ(participant->ofm().num_tuples(), 0u);
  }
}

TEST(ChaosTest, GdhCrashDuringAnIdReservationNeverReusesAnId) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  CreateChaosTable(&db);
  // A burst of BEGINs, each taking a transaction id. (BEGIN runs in the
  // GDH itself: no query coordinator outlives the GDH crash below.)
  for (int i = 0; i < 100; ++i) {
    db.Submit("BEGIN", /*prismalog=*/false, exec::kAutoCommit,
              [](const gdh::ClientReply&, sim::SimTime) {});
  }
  // Step until a chunk's worth of ids went out and the next reservation
  // is in flight.
  pool::Disk* gdh_disk = db.runtime().disk(0);
  while (!(db.gdh().next_txn() > 64 && gdh_disk->busy())) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before a reservation";
  }
  const exec::TxnId handed_out = db.gdh().next_txn() - 1;
  const std::vector<std::string>& marks =
      db.stable_store(0).ReadStream("gdh.txnids");
  ASSERT_FALSE(marks.empty());
  const size_t landed = marks.size();
  // Ids are handed out only below the durable mark.
  EXPECT_LT(handed_out, std::stoll(marks.back()));

  db.runtime().Kill(db.gdh().self());
  db.Run();
  EXPECT_EQ(db.stable_store(0).ReadStream("gdh.txnids").size(), landed)
      << "the reservation in flight should have been lost";
  pool::ProcessId gdh_pid = pool::kNoProcess;
  gdh::GdhProcess* restarted = RestartGdh(&db, &gdh_pid);
  EXPECT_GT(restarted->next_txn(), handed_out);
}

TEST(ChaosTest, OfmCrashDuringThePrepareForceSendsNoYesAndAborts) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const std::vector<gdh::FragmentInfo> frags =
      db.gdh().dictionary().GetTable("t").value()->fragments;
  auto votes_sent = [&db] {
    return db.metrics().CounterValue("pool.mail_sent",
                                     {{"kind", "txn_control_reply"}});
  };
  const uint64_t votes_at_commit = votes_sent();
  bool replied = false;
  Status outcome;
  db.Submit("COMMIT", /*prismalog=*/false, session.txn(),
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              replied = true;
              outcome = reply.status;
            });
  // Step until a participant's prepare write is on its PE's disk. PE 0
  // hosts the GDH and never crashes, so its fragment is no victim.
  int victim = -1;
  while (victim < 0) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before any prepare";
    for (size_t i = 0; i < frags.size(); ++i) {
      if (frags[i].pe != 0 && db.runtime().disk(frags[i].pe)->busy()) {
        victim = static_cast<int>(i);
      }
    }
  }
  const gdh::FragmentInfo& frag = frags[victim];
  const std::string wal = frag.name + ".wal";
  const size_t wal_before = db.stable_store(frag.pe).ReadStream(wal).size();
  // No prepare record has landed anywhere yet, so no vote may have left.
  EXPECT_EQ(votes_sent(), votes_at_commit) << "a vote left before its force";

  db.CrashPe(frag.pe);
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();

  // The prepare record never landed, the replacement knows nothing of
  // the transaction and votes no: the commit aborts everywhere.
  EXPECT_EQ(db.stable_store(frag.pe).ReadStream(wal).size(), wal_before);
  ASSERT_TRUE(replied);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(DecisionRecords(db, 'C'), 0u);
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 0u);
}

/// Stand-in coordinator: records every 2PC vote it receives.
class VoteRecorder : public pool::Process {
 public:
  explicit VoteRecorder(
      std::vector<std::shared_ptr<gdh::TxnControlReply>>* votes)
      : votes_(votes) {}
  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == gdh::kMailTxnControlReply) {
      votes_->push_back(
          std::any_cast<std::shared_ptr<gdh::TxnControlReply>>(mail.body));
    }
  }

 private:
  std::vector<std::shared_ptr<gdh::TxnControlReply>>* votes_;
};

TEST(ChaosTest, DuplicatePrepareDuringTheForceGetsNoEarlyYes) {
  sim::Simulator sim;
  net::Network network(&sim, net::Topology::FullyConnected(2));
  pool::Runtime runtime(&sim, &network);
  storage::StableStore store;
  runtime.AttachDisk(1, &store);
  std::vector<std::shared_ptr<gdh::TxnControlReply>> votes;
  const pool::ProcessId coordinator =
      runtime.Spawn(0, std::make_unique<VoteRecorder>(&votes));
  gdh::OfmProcess::Config ofm_config;
  ofm_config.fragment_name = "t#0";
  ofm_config.schema = Schema({{"id", DataType::kInt64}});
  ofm_config.gdh = coordinator;
  const pool::ProcessId ofm =
      runtime.Spawn(1, std::make_unique<gdh::OfmProcess>(ofm_config));
  sim.Run();
  auto send = [&](const char* kind, std::any body) {
    pool::Mail mail;
    mail.from = coordinator;
    mail.to = ofm;
    mail.kind = kind;
    mail.body = std::move(body);
    runtime.Send(std::move(mail));
  };
  auto write = std::make_shared<gdh::WriteRequest>();
  write->request_id = 1;
  write->txn = 5;
  write->rows = gdh::EncodeRows(std::vector<Tuple>{Tuple({Value::Int(1)})});
  send(gdh::kMailWrite, write);
  sim.Run();

  auto prepare = std::make_shared<gdh::TxnControlRequest>();
  prepare->request_id = 2;
  prepare->txn = 5;
  send(gdh::kMailTxnControl, prepare);
  send(gdh::kMailTxnControl, prepare);  // Duplicate: lands mid-force.
  size_t wal_at_first_vote = 0;
  while (sim.Step()) {
    if (!votes.empty() && wal_at_first_vote == 0) {
      wal_at_first_vote = store.ReadStream("t#0.wal").size();
    }
  }
  ASSERT_EQ(votes.size(), 1u) << "the duplicate was answered mid-force";
  EXPECT_TRUE(votes[0]->status.ok());
  EXPECT_EQ(wal_at_first_vote, 2u);  // Redo record + prepare marker.
  // Once durable, a duplicate is answered from the reply cache.
  send(gdh::kMailTxnControl, prepare);
  sim.Run();
  EXPECT_EQ(votes.size(), 2u);
}

TEST(ChaosTest, DuplicateOnePhaseRequestDuringTheForceGetsNoEarlyAnswer) {
  sim::Simulator sim;
  net::Network network(&sim, net::Topology::FullyConnected(2));
  pool::Runtime runtime(&sim, &network);
  storage::StableStore store;
  runtime.AttachDisk(1, &store);
  std::vector<std::shared_ptr<gdh::TxnControlReply>> replies;
  const pool::ProcessId coordinator =
      runtime.Spawn(0, std::make_unique<VoteRecorder>(&replies));
  gdh::OfmProcess::Config ofm_config;
  ofm_config.fragment_name = "t#0";
  ofm_config.schema = Schema({{"id", DataType::kInt64}});
  ofm_config.gdh = coordinator;
  pool::ProcessId ofm =
      runtime.Spawn(1, std::make_unique<gdh::OfmProcess>(ofm_config));
  sim.Run();
  auto send = [&](const char* kind, std::any body) {
    pool::Mail mail;
    mail.from = coordinator;
    mail.to = ofm;
    mail.kind = kind;
    mail.body = std::move(body);
    runtime.Send(std::move(mail));
  };
  auto write = std::make_shared<gdh::WriteRequest>();
  write->request_id = 1;
  write->txn = 5;
  write->rows = gdh::EncodeRows(std::vector<Tuple>{Tuple({Value::Int(1)})});
  send(gdh::kMailWrite, write);
  sim.Run();

  auto commit = std::make_shared<gdh::TxnControlRequest>();
  commit->request_id = 2;
  commit->op = gdh::TxnControlRequest::Op::kCommitOnePhase;
  commit->txn = 5;
  send(gdh::kMailTxnControl, commit);
  send(gdh::kMailTxnControl, commit);  // Duplicate: lands mid-force.
  size_t wal_at_first_reply = 0;
  while (sim.Step()) {
    if (!replies.empty() && wal_at_first_reply == 0) {
      wal_at_first_reply = store.ReadStream("t#0.wal").size();
    }
  }
  ASSERT_EQ(replies.size(), 1u) << "the duplicate was answered mid-force";
  EXPECT_TRUE(replies[0]->status.ok());
  EXPECT_EQ(wal_at_first_reply, 2u);  // Redo record + commit marker.

  // A respawned OFM holds no reply cache and never saw the writes; a
  // retransmission reaching it is answered from its WAL: committed, not
  // "lost state".
  runtime.Kill(ofm);
  ofm_config.recover = true;
  ofm = runtime.Spawn(1, std::make_unique<gdh::OfmProcess>(ofm_config));
  sim.Run();
  send(gdh::kMailTxnControl, commit);
  sim.Run();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[1]->status.ok()) << replies[1]->status.ToString();
}

TEST(ChaosTest, CrashAfterPrepareWithVoteInFlightAbortsInsteadOfLosingWrites) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  auto session = db.OpenSession();
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        session.Execute(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i))
            .ok());
  }

  // Submit COMMIT asynchronously and stop the simulation the instant the
  // first participant's prepare (redo records + marker) reaches its WAL.
  // Its yes-vote is then committed to delivery, but the coordinator has
  // not decided yet.
  const std::vector<gdh::FragmentInfo> frags =
      db.gdh().dictionary().GetTable("t").value()->fragments;
  std::vector<size_t> wal_before;
  for (const gdh::FragmentInfo& frag : frags) {
    wal_before.push_back(
        db.stable_store(frag.pe).ReadStream(frag.name + ".wal").size());
  }
  bool replied = false;
  Status outcome;
  db.Submit("COMMIT", /*prismalog=*/false, session.txn(),
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              replied = true;
              outcome = reply.status;
            });
  int prepared = -1;
  while (prepared < 0) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before any prepare";
    for (size_t i = 0; i < frags.size(); ++i) {
      if (db.stable_store(frags[i].pe)
              .ReadStream(frags[i].name + ".wal")
              .size() > wal_before[i]) {
        prepared = static_cast<int>(i);
        break;
      }
    }
  }
  ASSERT_FALSE(replied);

  // Crash the prepared participant and respawn it mid-2PC. The replacement
  // recovers in doubt and inquires; the coordinator must neither answer
  // "abort" while phase 1 could still decide commit, nor log a commit
  // decision for the now-doomed transaction — either would let the client
  // see "committed" while the fragment's updates are gone.
  ASSERT_TRUE(db.CrashFragment("t", prepared).ok());
  ASSERT_TRUE(db.RecoverFragment("t", prepared).ok());
  db.Run();

  ASSERT_TRUE(replied);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(db.metrics().CounterValue("gdh.txns_doomed"), 1u);
  // No commit decision was ever logged, and no fragment kept any insert.
  EXPECT_TRUE(db.stable_store(0).ReadStream("gdh.2pc").empty());
  EXPECT_TRUE(db.gdh().committed_decisions().empty());
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 0u);
}

// ------------------------------------------ Crash points of one phase
//
// A one-phase commit's outcome is decided at its sole participant, by
// whether the write carrying its redo records and commit marker landed.
// The GDH never presumes abort for it: it waits for the participant (or
// its respawned successor) to answer.

/// Submits a one-row insert into `t` (a single-fragment, one-phase
/// transaction) and steps until the participant's commit force is on its
/// PE's disk. Returns the participant's fragment.
gdh::FragmentInfo StepIntoOnePhaseForce(PrismaDb* db, bool* replied,
                                        Status* outcome) {
  const int target = FragmentOfId(*db, 1);
  PRISMA_CHECK(target >= 0);
  const gdh::FragmentInfo frag =
      db->gdh().dictionary().GetTable("t").value()->fragments[target];
  db->Submit("INSERT INTO t VALUES (1, 7)", /*prismalog=*/false,
             exec::kAutoCommit,
             [replied, outcome](const gdh::ClientReply& reply, sim::SimTime) {
               *replied = true;
               *outcome = reply.status;
             });
  // Transactional writes only buffer their redo records, so the first
  // write on the participant's disk is the one-phase commit.
  while (!db->runtime().disk(frag.pe)->busy()) {
    PRISMA_CHECK(db->simulator().Step()) << "drained before the commit force";
  }
  return frag;
}

TEST(ChaosTest, OfmCrashDuringTheOnePhaseForceIsNotCommitted) {
  MachineConfig config;
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  bool replied = false;
  Status outcome;
  const gdh::FragmentInfo frag = StepIntoOnePhaseForce(&db, &replied, &outcome);
  const std::string wal = frag.name + ".wal";
  const size_t wal_before = db.stable_store(frag.pe).ReadStream(wal).size();

  db.CrashPe(frag.pe);
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();

  // The commit write died with the PE: the successor finds no commit in
  // its WAL and answers that it lost the transaction.
  EXPECT_EQ(db.stable_store(frag.pe).ReadStream(wal).size(), wal_before);
  ASSERT_TRUE(replied);
  EXPECT_EQ(outcome.code(), StatusCode::kAborted) << outcome.ToString();
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 0u);
}

TEST(ChaosTest, CheckpointWithAParticipantDownStopsNoOtherWriter) {
  MachineConfig config;
  config.pes = kFragments + 1;
  PrismaDb db(config);
  CreateChaosTable(&db);
  bool replied = false;
  Status outcome;
  const gdh::FragmentInfo frag = StepIntoOnePhaseForce(&db, &replied, &outcome);
  int other_id = 2;
  while (FragmentOfId(db, other_id) == FragmentOfId(db, 1)) ++other_id;

  // The participant's PE goes down mid-force and stays down: the GDH
  // cannot learn the one-phase outcome, so that commit stays unsettled.
  db.CrashPe(frag.pe);
  std::map<std::string, Status> answers;
  auto record = [&answers](const std::string& name) {
    return [&answers, name](const gdh::ClientReply& reply, sim::SimTime) {
      answers[name] = reply.status;
    };
  };
  db.Submit("CHECKPOINT", /*prismalog=*/false, exec::kAutoCommit,
            record("checkpoint"));
  db.Submit(StrFormat("INSERT INTO t VALUES (%d, 8)", other_id),
            /*prismalog=*/false, exec::kAutoCommit, record("write"));
  db.Run();

  // The checkpoint leaves the dead fragment out and reports it; a
  // single-fragment write elsewhere commits. Only the parked commit waits.
  ASSERT_TRUE(answers.contains("checkpoint"));
  EXPECT_EQ(answers["checkpoint"].code(), StatusCode::kUnavailable)
      << answers["checkpoint"].ToString();
  ASSERT_TRUE(answers.contains("write"));
  EXPECT_TRUE(answers["write"].ok()) << answers["write"].ToString();
  EXPECT_FALSE(replied);

  // Once the PE is back the parked commit learns its outcome (its write
  // died in the crash) and a checkpoint covers every fragment again.
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();
  ASSERT_TRUE(replied);
  EXPECT_EQ(outcome.code(), StatusCode::kAborted) << outcome.ToString();
  MustExecute(&db, "CHECKPOINT");
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 1u);
}

/// A machine whose links can be cut mid-run: direct links only (a cut
/// between the GDH and a participant has no detour), snappy retry timers,
/// and fault mode on from the start (its timers are chosen at
/// construction).
MachineConfig CuttableMachine() {
  MachineConfig config;
  config.pes = kFragments + 1;
  config.topology = TopologyKind::kFullyConnected;
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  config.fault_plan.down_windows.push_back({1, 2, 0, 0});
  return config;
}

/// Cuts the link between the GDH's PE and `pe` for `length` from now.
void CutGdhLink(PrismaDb* db, net::NodeId pe, sim::SimTime length) {
  const sim::SimTime from = db->simulator().now();
  net::FaultPlan outage;
  outage.down_windows = {{0, pe, from, from + length}};
  db->network().SetFaultPlan(outage);
}

TEST(ChaosTest, RespawnedOfmAnswersALostOnePhaseReplyFromItsWal) {
  PrismaDb db(CuttableMachine());
  CreateChaosTable(&db);
  bool replied = false;
  Status outcome;
  const gdh::FragmentInfo frag = StepIntoOnePhaseForce(&db, &replied, &outcome);
  const std::string wal = frag.name + ".wal";
  const size_t wal_before = db.stable_store(frag.pe).ReadStream(wal).size();
  // The commit write lands and the reply leaves into a cut link.
  CutGdhLink(&db, frag.pe, sim::kNanosPerSecond);
  while (db.network().stats().dropped == 0) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the reply left";
  }
  ASSERT_EQ(db.stable_store(frag.pe).ReadStream(wal).size(), wal_before + 2);
  // The participant's PE restarts before the link heals: the GDH's next
  // retransmission reaches a successor with no reply cache and no memory
  // of the writes, only the WAL.
  db.CrashPe(frag.pe);
  ASSERT_TRUE(db.RecoverPe(frag.pe).ok());
  db.Run();

  // It answers committed. (Presuming abort here would tell the client
  // "aborted" about a row that is durably there.)
  ASSERT_TRUE(replied);
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 1u);
}

TEST(ChaosTest, LinkDownPastTheRetryBudgetStillAnswersTheDurableOutcome) {
  const MachineConfig config = CuttableMachine();
  PrismaDb db(config);
  CreateChaosTable(&db);
  bool replied = false;
  Status outcome;
  const gdh::FragmentInfo frag = StepIntoOnePhaseForce(&db, &replied, &outcome);
  // The request arrived and its force is running; now the link goes down
  // for far longer than a retry budget lasts (6 attempts: under 2 s), so
  // the reply is lost and every retransmission with it.
  CutGdhLink(&db, frag.pe, 10 * sim::kNanosPerSecond);
  const uint64_t retries_before =
      db.metrics().CounterValue("gdh.rpc_retries");
  db.Run();

  // The client's answer is the durable outcome: committed.
  ASSERT_TRUE(replied);
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_GT(db.metrics().CounterValue("gdh.rpc_retries") - retries_before,
            static_cast<uint64_t>(config.rpc_attempts));
  EXPECT_EQ(db.metrics().CounterValue("gdh.rpc_failures"), 0u);
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 1u);
}

TEST(ChaosTest, ReadFailsOverToTheBackupOnPeZeroWhileThePrimaryPeIsDown) {
  // A 4-way table on 4 PEs is dealt over PEs 1, 2, 3 and 0, so the backup
  // of the fragment on PE 3 lives on PE 0, next to the coordinator.
  MachineConfig config = CuttableMachine();
  config.pes = 4;
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  PrismaDb db(config);
  CreateChaosTable(&db);
  for (int id = 0; id < 16; ++id) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", id, 10 * id));
  }
  const auto& fragments =
      db.gdh().dictionary().GetTable("t").value()->fragments;
  int target = -1;
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (fragments[i].backup_pe == 0) target = static_cast<int>(i);
  }
  ASSERT_GE(target, 0) << "no backup on PE 0";
  const net::NodeId down = fragments[target].pe;
  ASSERT_NE(down, 0);
  int id = 0;
  while (FragmentOfId(db, id) != target) ++id;

  // The primary's PE goes down: nothing reaches it for far longer than a
  // read's retry budget. Its process lives on, as a replica spawned on a
  // PE inside its crash window does, so the dictionary still lists both
  // replicas as in sync and alive.
  const sim::SimTime from = db.simulator().now();
  const sim::SimTime until = from + 60 * sim::kNanosPerSecond;
  net::FaultPlan outage;
  for (net::NodeId pe = 0; pe < config.pes; ++pe) {
    if (pe != down) outage.down_windows.push_back({pe, down, from, until});
  }
  db.network().SetFaultPlan(outage);

  // The primary stays silent, so the first retransmission goes to the
  // backup on PE 0, which answers.
  auto result = db.Execute(StrFormat("SELECT v FROM t WHERE id = %d", id));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_EQ(result->tuples[0].at(0).int_value(), 10 * id);
  EXPECT_LT(result->response_time_ns, 2 * config.rpc_timeout_ns)
      << "the read waited past its first retransmission";
  EXPECT_EQ(db.metrics().CounterTotal("query.unavailable"), 0u);
}

TEST(ChaosTest, GdhCrashBetweenTheDecisionAndPhase2KeepsTheCommit) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  CreateChaosTable(&db);
  auto session = OpenTxnWithInserts(&db, 8);
  const exec::TxnId txn = session.txn();
  const gdh::TableInfo* info = db.gdh().dictionary().GetTable("t").value();
  const Schema schema = info->schema;
  const std::vector<gdh::FragmentInfo> frags = info->fragments;
  bool replied = false;
  Status outcome;
  db.Submit("COMMIT", /*prismalog=*/false, txn,
            [&](const gdh::ClientReply& reply, sim::SimTime) {
              replied = true;
              outcome = reply.status;
            });
  // The client hears "committed" at the decision, with phase 2 just sent.
  while (!replied) {
    ASSERT_TRUE(db.simulator().Step()) << "drained before the reply";
  }
  ASSERT_TRUE(outcome.ok()) << outcome.ToString();
  ASSERT_EQ(DecisionRecords(db, 'C'), 1u);
  db.runtime().Kill(db.gdh().self());
  db.Run();

  // A restarted coordinator still holds the decision (no end record was
  // logged: the acks went to the dead one), and participants that recover
  // in doubt learn "commit": every row the client was promised is there.
  pool::ProcessId gdh_pid = pool::kNoProcess;
  gdh::GdhProcess* restarted = RestartGdh(&db, &gdh_pid);
  EXPECT_TRUE(restarted->committed_decisions().contains(txn));
  std::vector<gdh::OfmProcess*> participants;
  for (const gdh::FragmentInfo& frag : frags) {
    db.runtime().Kill(frag.ofm);
    gdh::OfmProcess::Config ofm_config;
    ofm_config.fragment_name = frag.name;
    ofm_config.schema = schema;
    ofm_config.recover = true;
    ofm_config.gdh = gdh_pid;
    auto ofm = std::make_unique<gdh::OfmProcess>(std::move(ofm_config));
    participants.push_back(ofm.get());
    db.runtime().Spawn(frag.pe, std::move(ofm));
  }
  db.Run();
  size_t rows = 0;
  for (gdh::OfmProcess* participant : participants) {
    EXPECT_TRUE(participant->ofm().recovered_undecided().empty());
    rows += participant->ofm().num_tuples();
  }
  EXPECT_EQ(rows, 8u);
}

TEST(ChaosTest, TxnIdsAreNotReusedAfterCoordinatorRestart) {
  MachineConfig config;
  config.pes = 4;
  PrismaDb db(config);
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  exec::TxnId max_txn = 0;
  for (int i = 0; i < 3; ++i) {
    auto session = db.OpenSession();
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (1, 1)").ok());
    max_txn = std::max(max_txn, session.txn());
    ASSERT_TRUE(session.Execute("ABORT").ok());
  }
  ASSERT_GT(max_txn, 0);
  // Aborts leave no decision record; only the id-reservation stream
  // remembers that these ids were handed out.
  ASSERT_TRUE(db.stable_store(0).ReadStream("gdh.2pc").empty());

  // A restarted coordinator replaying the same stable store must not hand
  // out ids again: participants' terminated-transaction records would
  // refuse the fresh transaction's writes as duplicates.
  gdh::GdhProcess::Config gdh_config;
  gdh_config.fragment_pes = {1, 2, 3};
  gdh_config.coordinator_pes = {1, 2, 3};
  // It logs to PE 0's disk, the one the first GDH wrote.
  auto restarted = std::make_unique<gdh::GdhProcess>(std::move(gdh_config));
  gdh::GdhProcess* raw = restarted.get();
  db.runtime().Spawn(0, std::move(restarted));
  db.Run();  // OnStart replays the decision log and the id reservations.
  EXPECT_GT(raw->next_txn(), max_txn);
}

TEST(ChaosTest, DuplicatedRequestsAreAnsweredFromTheReplyCache) {
  MachineConfig config;
  config.pes = 4;
  config.fault_plan.seed = 3;
  config.fault_plan.link.duplicate_probability = 0.3;  // No drops/jitter.
  PrismaDb db(config);
  MustExecute(&db, StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                             "HASH(id) INTO %d FRAGMENTS",
                             kFragments));
  for (int i = 0; i < 30; ++i) {
    MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d, %d)", i, i));
  }
  EXPECT_EQ(MustExecute(&db, "SELECT id FROM t").tuples.size(), 30u);

  // Duplicated requests were replayed from the OFM reply caches instead of
  // re-executing (no row appeared twice above), and duplicated replies
  // were swallowed by the GDH's request accounting.
  EXPECT_GT(db.network().stats().duplicated, 0u);
  EXPECT_GT(db.metrics().CounterTotal("ofm.dup_requests"), 0u);
}

TEST(ChaosTest, InertFaultPlanLeavesMetricsIdentical) {
  auto run = [](const MachineConfig& config) {
    PrismaDb db(config);
    MustExecute(&db, "CREATE TABLE t (id INT) FRAGMENTED BY HASH(id) "
                     "INTO 2 FRAGMENTS");
    for (int i = 0; i < 10; ++i) {
      MustExecute(&db, StrFormat("INSERT INTO t VALUES (%d)", i));
    }
    MustExecute(&db, "SELECT id FROM t");
    return db.DumpMetrics();
  };
  MachineConfig plain;
  plain.pes = 4;
  MachineConfig inert = plain;
  inert.fault_plan = net::FaultPlan();  // All defaults: no faults.
  // A default-constructed plan is indistinguishable from no plan at all.
  EXPECT_EQ(run(plain), run(inert));
}

}  // namespace
}  // namespace prisma::core
