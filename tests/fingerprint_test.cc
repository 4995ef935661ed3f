// Byte identity with the committed fingerprints: each scenario below runs a
// fixed, seeded workload on the simulated machine and hashes three outputs
// with FNV-1a 64: the answers its clients saw, DumpMetrics() and
// DumpTrace(). The hashes must equal the line of tests/fingerprints.txt
// that names the scenario, so a refactor that means to change nothing
// proves it here, and a change to any virtual figure shows up as a moved
// hash. A change that means to move figures regenerates the file with
//
//   PRISMA_WRITE_FINGERPRINTS=1 build/tests/fingerprint_test
//
// and names the moved scenarios and the reason in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"

namespace prisma::core {
namespace {

/// FNV-1a 64 over a sequence of records; each record ends with a newline
/// so adjacent records cannot run together.
class Fnv1a {
 public:
  void Add(const std::string& record) {
    for (const char c : record) Mix(static_cast<uint8_t>(c));
    Mix('\n');
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

struct Fingerprint {
  uint64_t answers = 0;
  uint64_t metrics = 0;
  uint64_t trace = 0;
};

/// What one scenario's clients saw, in a fixed order.
class Answers {
 public:
  void Add(const StatusOr<QueryResult>& result) {
    if (!result.ok()) {
      hash_.Add(result.status().ToString());
      return;
    }
    Add(Status::OK(), result->affected_rows, result->txn, &result->tuples);
  }
  void Add(const gdh::ClientReply& reply) {
    Add(reply.status, reply.affected_rows, reply.txn, reply.tuples.get());
  }
  void Add(const std::string& record) { hash_.Add(record); }

  Fingerprint Finish(PrismaDb& db) const {
    Fnv1a metrics;
    metrics.Add(db.DumpMetrics());
    Fnv1a trace;
    trace.Add(db.DumpTrace());
    return {hash_.value(), metrics.value(), trace.value()};
  }

 private:
  void Add(const Status& status, uint64_t affected, exec::TxnId txn,
           const std::vector<Tuple>* tuples) {
    hash_.Add(StrFormat("%s affected=%llu txn=%lld rows=%zu",
                        status.ToString().c_str(),
                        static_cast<unsigned long long>(affected),
                        static_cast<long long>(txn),
                        tuples == nullptr ? size_t{0} : tuples->size()));
    if (tuples == nullptr) return;
    for (const Tuple& tuple : *tuples) hash_.Add(tuple.ToString());
  }

  Fnv1a hash_;
};

MachineConfig TracedMachine(int pes) {
  MachineConfig config;
  config.pes = pes;
  config.enable_tracing = true;
  return config;
}

/// The replicated machine of the recovery tests: short RPC budgets, so a
/// request to a dead PE exhausts within a few hundred virtual ms.
MachineConfig ReplicatedMachine() {
  MachineConfig config = TracedMachine(8);
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.rpc_timeout_ns = 50 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * sim::kNanosPerMilli;
  config.rpc_attempts = 4;
  return config;
}

void Run(PrismaDb& db, Answers& answers, const std::string& sql) {
  answers.Add(db.Execute(sql));
}

std::string Rows(int from, int to, const std::function<std::string(int)>& row) {
  std::string out;
  for (int i = from; i < to; ++i) {
    if (i > from) out += ", ";
    out += row(i);
  }
  return out;
}

// ------------------------------------------------------------- Scenarios

/// The observability test's golden statements.
Fingerprint ObsGolden() {
  PrismaDb db(TracedMachine(8));
  Answers answers;
  for (const char* sql :
       {"CREATE TABLE emp (id INT, dept STRING, salary INT) "
        "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS",
        "INSERT INTO emp VALUES (1, 'eng', 1000), (2, 'hr', 1200)",
        "INSERT INTO emp VALUES (3, 'eng', 1400)",
        "SELECT dept, SUM(salary) FROM emp GROUP BY dept",
        "SELECT * FROM emp WHERE id = 2"}) {
    Run(db, answers, sql);
  }
  return answers.Finish(db);
}

/// Open-loop point reads, point writes, group-bys and joins through the
/// dispatcher on 8 PEs, as vbench's serve_mix runs them (analytics on the
/// gather path).
Fingerprint ServeMix() {
  MachineConfig config = TracedMachine(8);
  config.rules.distributed_olap = false;
  config.rules.exchange_joins = false;
  PrismaDb db(config);
  PRISMA_CHECK_OK(serve::WorkloadGenerator::SetupSchema(&db, 400, 8));
  serve::WorkloadProfile profile;
  profile.sessions = 40;
  profile.offered_qps = 300;
  profile.duration_ns = sim::kNanosPerSecond;
  profile.key_domain = 400;
  const std::vector<serve::ArrivalEvent> schedule =
      serve::WorkloadGenerator(7, profile).Generate();
  serve::DispatcherOptions admission;
  admission.backlog_high = std::numeric_limits<int>::max();
  admission.backlog_low = std::numeric_limits<int>::max();
  serve::Dispatcher dispatcher(&db, admission);
  std::vector<gdh::ClientReply> replies(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    dispatcher.Submit(
        schedule[i].sql, exec::kAutoCommit,
        [&replies, i](const gdh::ClientReply& reply, sim::SimTime) {
          replies[i] = reply;
        },
        schedule[i].at_ns);
  }
  dispatcher.Run();
  Answers answers;
  answers.Add(StrFormat("statements=%zu", schedule.size()));
  for (const gdh::ClientReply& reply : replies) answers.Add(reply);
  return answers.Finish(db);
}

/// A closed-loop client repeating TPC-H-lite q1-q8 and an ancestor
/// closure over small seeded tables on 8 PEs, as vbench's analytic_suite
/// runs them (exchange joins and shuffled group-bys on).
Fingerprint AnalyticMix() {
  PrismaDb db(TracedMachine(8));
  Answers answers;
  Rng rng(11);
  const char* modes[] = {"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"};
  const char* statuses[] = {"F", "O", "P"};
  const char* priorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
  const char* segments[] = {"AUTOMOBILE", "BUILDING", "MACHINERY"};
  const char* nations[] = {"BRAZIL", "CANADA", "FRANCE", "JAPAN", "KENYA"};
  Run(db, answers,
      "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_quantity INT, "
      "l_price INT, l_discount INT, l_shipmode STRING, l_status STRING) "
      "FRAGMENTED BY HASH(l_orderkey) INTO 8 FRAGMENTS");
  Run(db, answers,
      "CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_status STRING, "
      "o_total INT, o_priority STRING) "
      "FRAGMENTED BY HASH(o_orderkey) INTO 8 FRAGMENTS");
  Run(db, answers,
      "CREATE TABLE customer (c_custkey INT, c_nation STRING, "
      "c_segment STRING) FRAGMENTED BY HASH(c_custkey) INTO 8 FRAGMENTS");
  Run(db, answers,
      "CREATE TABLE edge (src INT, dst INT) "
      "FRAGMENTED BY HASH(src) INTO 8 FRAGMENTS");
  for (int base = 0; base < 800; base += 100) {
    const std::string rows = Rows(base, base + 100, [&](int i) {
      return StrFormat("(%d, %d, %d, %d, %d, '%s', '%s')", i / 4,
                       static_cast<int>(rng.Uniform(50)),
                       static_cast<int>(rng.UniformInt(1, 50)),
                       static_cast<int>(rng.UniformInt(100, 10000)),
                       static_cast<int>(rng.Uniform(11)),
                       modes[rng.Uniform(5)], statuses[rng.Uniform(3)]);
    });
    Run(db, answers, "INSERT INTO lineitem VALUES " + rows);
  }
  Run(db, answers, "INSERT INTO orders VALUES " + Rows(0, 200, [&](int i) {
        return StrFormat("(%d, %d, '%s', %d, '%s')", i,
                         static_cast<int>(rng.Uniform(40)),
                         statuses[rng.Uniform(3)],
                         static_cast<int>(rng.UniformInt(1000, 90000)),
                         priorities[rng.Uniform(4)]);
      }));
  Run(db, answers, "INSERT INTO customer VALUES " + Rows(0, 40, [&](int i) {
        return StrFormat("(%d, '%s', '%s')", i, nations[rng.Uniform(5)],
                         segments[rng.Uniform(3)]);
      }));
  // A forest: every node but the roots points at a lower-numbered parent.
  Run(db, answers, "INSERT INTO edge VALUES " + Rows(1, 60, [&](int i) {
        return StrFormat("(%d, %d)", static_cast<int>(rng.Uniform(i)), i);
      }));
  const char* queries[] = {
      "SELECT l_status, COUNT(*) AS n, SUM(l_quantity) AS qty, "
      "SUM(l_price) AS price, AVG(l_price) AS mean_price "
      "FROM lineitem GROUP BY l_status ORDER BY l_status",
      "SELECT l_shipmode, COUNT(*) AS n, SUM(l_price) AS price FROM lineitem "
      "WHERE l_quantity >= 25 GROUP BY l_shipmode ORDER BY l_shipmode",
      "SELECT o_priority, COUNT(*) AS n FROM orders "
      "GROUP BY o_priority ORDER BY o_priority",
      "SELECT c_nation, COUNT(*) AS n FROM customer "
      "GROUP BY c_nation ORDER BY c_nation",
      "SELECT l_orderkey, l_price FROM lineitem "
      "ORDER BY l_price DESC, l_orderkey",
      "SELECT o_orderkey, o_total FROM orders "
      "ORDER BY o_total DESC, o_orderkey LIMIT 10",
      "SELECT SUM(l_price) AS revenue, COUNT(*) AS n FROM lineitem "
      "WHERE l_discount >= 5 AND l_quantity < 30",
      "SELECT c_segment, SUM(o_total) AS total FROM orders o "
      "JOIN customer c ON o.o_custkey = c.c_custkey "
      "GROUP BY c_segment ORDER BY c_segment",
  };
  for (int round = 0; round < 25; ++round) {
    for (const char* sql : queries) Run(db, answers, sql);
    answers.Add(db.ExecutePrismalog(
        "p(X, Y) :- edge(X, Y).\n"
        "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
        "? p(X, Y)."));
  }
  return answers.Finish(db);
}

/// A chained workload on a replicated 4-PE machine whose fault plan drops
/// and duplicates messages and crashes PE 3 for longer than a request's
/// retry budget: requests to its replicas shed them at a retry or on a
/// spent budget, and each shed sweeps the other requests (prepares,
/// decisions and a dual-replica write) still addressed to the replica.
Fingerprint FaultPlan() {
  MachineConfig config = TracedMachine(4);
  config.replicate_fragments = true;
  config.coordinator_pes = {0};
  config.rpc_timeout_ns = 20 * sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 80 * sim::kNanosPerMilli;
  config.rpc_attempts = 3;
  net::FaultPlan& plan = config.fault_plan;
  plan.seed = 3;
  plan.link.drop_probability = 0.04;
  plan.link.duplicate_probability = 0.03;
  plan.link.max_extra_delay_ns = 100'000;
  net::PeCrashEvent crash;
  crash.pe = 3;
  crash.at_ns = 40 * sim::kNanosPerMilli;
  crash.restart_at_ns = crash.at_ns + 700 * sim::kNanosPerMilli;
  plan.pe_crashes.push_back(crash);
  PrismaDb db(config);

  Answers answers;
  Rng rng(5);
  int ops_left = 90;
  int next_id = 0;
  std::function<void()> next;
  auto submit = [&](const std::string& sql, exec::TxnId txn,
                    std::function<void(const gdh::ClientReply&)> then) {
    db.Submit(sql, /*prismalog=*/false, txn,
              [&answers, sql, then = std::move(then)](
                  const gdh::ClientReply& reply, sim::SimTime) {
                answers.Add(sql);
                answers.Add(reply);
                then(reply);
              },
              static_cast<sim::SimTime>(rng.Uniform(3 * sim::kNanosPerMilli)));
  };
  auto after = [&](const gdh::ClientReply&) { next(); };
  next = [&] {
    if (ops_left-- <= 0) return;
    const int id = next_id;
    switch (rng.Uniform(7)) {
      case 0:  // Several fragments: two-phase commit.
        next_id += 3;
        submit(StrFormat("INSERT INTO t VALUES (%d, 1), (%d, 2), (%d, 3)", id,
                         id + 1, id + 2),
               exec::kAutoCommit, after);
        return;
      case 1:  // One fragment: one-phase commit.
        next_id += 1;
        submit(StrFormat("INSERT INTO t VALUES (%d, 4)", id),
               exec::kAutoCommit, after);
        return;
      case 2:
        submit(StrFormat("DELETE FROM t WHERE id = %d",
                         static_cast<int>(rng.Uniform(next_id + 1))),
               exec::kAutoCommit, after);
        return;
      case 3:  // Every fragment.
        submit("UPDATE t SET v = v + 1", exec::kAutoCommit, after);
        return;
      case 4:
        submit("SELECT id, v FROM t ORDER BY id", exec::kAutoCommit, after);
        return;
      default:  // An explicit transaction that commits or aborts.
        submit("BEGIN", exec::kAutoCommit, [&](const gdh::ClientReply& begun) {
          const exec::TxnId txn = begun.txn;
          const int row = next_id++;
          submit(StrFormat("INSERT INTO t VALUES (%d, 5)", row), txn,
                 [&, txn](const gdh::ClientReply&) {
                   submit(rng.NextBool(0.5) ? "COMMIT" : "ABORT", txn, after);
                 });
        });
        return;
    }
  };
  submit("CREATE TABLE t (id INT, v INT) FRAGMENTED BY HASH(id) INTO 4 "
         "FRAGMENTS",
         exec::kAutoCommit, after);
  db.Run();
  Run(db, answers, "SELECT id, v FROM t ORDER BY id");
  Run(db, answers, "CHECKPOINT");
  return answers.Finish(db);
}

/// A stale replica rebuilt from its peer, then a double failure: a write
/// to the fragment whose replicas are both down exhausts its budget and
/// degrades to kUnavailable, and both replicas resync once back.
Fingerprint Resync() {
  PrismaDb db(ReplicatedMachine());
  Answers answers;
  Run(db, answers,
      "CREATE TABLE t (id INT, v INT) FRAGMENTED BY HASH(id) INTO 4 "
      "FRAGMENTS");
  Run(db, answers,
      "INSERT INTO t VALUES " +
          Rows(0, 40, [](int i) { return StrFormat("(%d, %d)", i, i); }));
  const auto table = db.gdh().dictionary().GetTable("t");
  PRISMA_CHECK_OK(table.status());
  const gdh::FragmentInfo frag = (*table)->fragments[0];
  db.CrashPe(frag.pe);
  for (int i = 100; i < 108; ++i) {
    Run(db, answers, StrFormat("INSERT INTO t VALUES (%d, 1)", i));
  }
  Run(db, answers, "UPDATE t SET v = v + 1");
  PRISMA_CHECK_OK(db.RecoverPe(frag.pe));
  db.Run();
  Run(db, answers, "SELECT id, v FROM t ORDER BY id");

  db.CrashPe(frag.pe);
  db.CrashPe(frag.backup_pe);
  Run(db, answers, "UPDATE t SET v = 0");
  Run(db, answers, "SELECT id FROM t");
  PRISMA_CHECK_OK(db.RecoverPe(frag.pe));
  db.Run();
  PRISMA_CHECK_OK(db.RecoverPe(frag.backup_pe));
  db.Run();
  Run(db, answers, "SELECT id, v FROM t ORDER BY id");
  Run(db, answers, "CHECKPOINT");
  return answers.Finish(db);
}

/// CHECKPOINT, CREATE INDEX and explicit transactions, one aborted.
Fingerprint CheckpointIndexAbort() {
  PrismaDb db(TracedMachine(8));
  Answers answers;
  auto run = [&](const std::string& sql, exec::TxnId txn) {
    std::optional<gdh::ClientReply> got;
    db.Submit(sql, /*prismalog=*/false, txn,
              [&got](const gdh::ClientReply& reply, sim::SimTime) {
                got = reply;
              });
    db.Run();
    PRISMA_CHECK(got.has_value()) << sql;
    answers.Add(*got);
    return got->txn;
  };
  run("CREATE TABLE t (id INT, v INT) FRAGMENTED BY HASH(id) INTO 4 "
      "FRAGMENTS",
      exec::kAutoCommit);
  run("INSERT INTO t VALUES " +
          Rows(0, 30, [](int i) { return StrFormat("(%d, %d)", i, i % 5); }),
      exec::kAutoCommit);
  run("CREATE INDEX t_v ON t (v)", exec::kAutoCommit);
  run("CHECKPOINT", exec::kAutoCommit);
  exec::TxnId txn = run("BEGIN", exec::kAutoCommit);
  run("INSERT INTO t VALUES (100, 1), (101, 2), (102, 3)", txn);
  run("UPDATE t SET v = 9 WHERE id = 3", txn);
  run("ABORT", txn);
  txn = run("BEGIN", exec::kAutoCommit);
  run("DELETE FROM t WHERE v = 4", txn);
  run("COMMIT", txn);
  run("SELECT id, v FROM t WHERE v = 2 ORDER BY id", exec::kAutoCommit);
  run("CHECKPOINT", exec::kAutoCommit);
  run("SELECT COUNT(*) FROM t", exec::kAutoCommit);
  return answers.Finish(db);
}

/// One write across every fragment: prepare, logged decision, phase 2.
Fingerprint TwoPhaseWrite() {
  PrismaDb db(TracedMachine(8));
  Answers answers;
  Run(db, answers,
      "CREATE TABLE t (id INT, v INT) FRAGMENTED BY HASH(id) INTO 4 "
      "FRAGMENTS");
  Run(db, answers,
      "INSERT INTO t VALUES " +
          Rows(0, 12, [](int i) { return StrFormat("(%d, %d)", i, i); }));
  Run(db, answers, "SELECT id, v FROM t ORDER BY id");
  return answers.Finish(db);
}

struct Scenario {
  const char* name;
  Fingerprint (*run)();
};
constexpr Scenario kScenarios[] = {
    {"obs_golden", ObsGolden},
    {"serve_mix", ServeMix},
    {"analytic_mix", AnalyticMix},
    {"fault_plan", FaultPlan},
    {"resync", Resync},
    {"checkpoint_index_abort", CheckpointIndexAbort},
    {"two_phase_write", TwoPhaseWrite},
};

/// tests/fingerprints.txt: "<scenario> <answers> <metrics> <trace>" per
/// line, hashes in hex; '#' starts a comment.
std::map<std::string, std::vector<std::string>> ReadFingerprints() {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream in(PRISMA_FINGERPRINTS_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::vector<std::string> hashes(3);
    fields >> name >> hashes[0] >> hashes[1] >> hashes[2];
    out[name] = hashes;
  }
  return out;
}

TEST(FingerprintTest, EveryScenarioMatchesItsCommittedHashes) {
  if (std::getenv("PRISMA_WRITE_FINGERPRINTS") != nullptr) {
    std::ofstream out(PRISMA_FINGERPRINTS_FILE);
    out << "# Written by PRISMA_WRITE_FINGERPRINTS=1 "
           "build/tests/fingerprint_test\n"
           "# (tests/fingerprint_test.cc).\n"
           "# scenario answers metrics trace (FNV-1a 64)\n";
    for (const auto& [name, run] : kScenarios) {
      const Fingerprint got = run();
      out << name << ' ' << Hex(got.answers) << ' ' << Hex(got.metrics) << ' '
          << Hex(got.trace) << '\n';
    }
    GTEST_SKIP() << "wrote " << PRISMA_FINGERPRINTS_FILE;
  }
  const auto want = ReadFingerprints();
  for (const auto& [name, run] : kScenarios) {
    auto it = want.find(name);
    if (it == want.end()) {
      ADD_FAILURE() << "scenario " << name << " has no line in "
                    << PRISMA_FINGERPRINTS_FILE;
      continue;
    }
    const Fingerprint got = run();
    const std::string parts[] = {"answers", "metrics", "trace"};
    const uint64_t hashes[] = {got.answers, got.metrics, got.trace};
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(Hex(hashes[i]), it->second[i])
          << "scenario " << name << ": the " << parts[i] << " moved";
    }
  }
}

}  // namespace
}  // namespace prisma::core
