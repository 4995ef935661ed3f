// Differential harness for the distributed semi-naive fixpoint
// (DESIGN.md §11): random graphs run both through the single-node
// exec::TransitiveClosure() oracle and through the full machine
// (PRISMAlog front end -> fixpoint coordinator -> partitioned rounds over
// exchange channels), and the two answers must be byte-identical — for
// every seed, fragment count and join strategy.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "exec/transitive_closure.h"
#include "soak_repro.h"

namespace prisma::core {
namespace {

constexpr const char* kTcProgram =
    "p(X, Y) :- edge(X, Y).\n"
    "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
    "? p(X, Y).";

/// One edge; null endpoints are modelled with sentinel < 0.
struct Edge {
  int from;
  int to;
};
constexpr int kNullEndpoint = -1;

/// Seeded generator covering the shapes the closure operator must get
/// right: chains, cycles, cliques, disconnected components, self-loops,
/// and NULL endpoints (plus duplicate edges from overlapping motifs).
std::vector<Edge> RandomGraph(uint64_t seed) {
  Rng rng(seed * 2654435761u + 1);
  std::vector<Edge> edges;
  const int nodes = static_cast<int>(rng.UniformInt(2, 12));
  auto node = [&]() { return static_cast<int>(rng.Uniform(nodes)); };
  const int motifs = static_cast<int>(rng.UniformInt(1, 4));
  for (int m = 0; m < motifs; ++m) {
    switch (rng.Uniform(5)) {
      case 0: {  // Chain (a disconnected component when nodes differ).
        const int len = static_cast<int>(rng.UniformInt(1, 5));
        int at = node();
        for (int i = 0; i < len; ++i) {
          const int next = node();
          edges.push_back({at, next});
          at = next;
        }
        break;
      }
      case 1: {  // Cycle: the closure saturates within it.
        const int len = static_cast<int>(rng.UniformInt(2, 5));
        std::vector<int> ring;
        for (int i = 0; i < len; ++i) ring.push_back(node());
        for (int i = 0; i < len; ++i) {
          edges.push_back({ring[i], ring[(i + 1) % len]});
        }
        break;
      }
      case 2: {  // Small clique (dense duplicates across motifs).
        const int size = static_cast<int>(rng.UniformInt(2, 4));
        std::vector<int> members;
        for (int i = 0; i < size; ++i) members.push_back(node());
        for (const int a : members) {
          for (const int b : members) {
            if (a != b) edges.push_back({a, b});
          }
        }
        break;
      }
      case 3:  // Self-loop.
        edges.push_back({node(), node()});
        edges.back().to = edges.back().from;
        break;
      default: {  // Random sprinkle, sometimes with NULL endpoints.
        const int count = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < count; ++i) {
          Edge e{node(), node()};
          if (rng.Uniform(6) == 0) e.from = kNullEndpoint;
          if (rng.Uniform(6) == 0) e.to = kNullEndpoint;
          edges.push_back(e);
        }
        break;
      }
    }
  }
  return edges;
}

std::vector<Tuple> AsTuples(const std::vector<Edge>& edges) {
  std::vector<Tuple> tuples;
  tuples.reserve(edges.size());
  for (const Edge& e : edges) {
    std::vector<Value> values(2);  // NULL endpoints stay NULL.
    if (e.from != kNullEndpoint) values[0] = Value::Int(e.from);
    if (e.to != kNullEndpoint) values[1] = Value::Int(e.to);
    tuples.push_back(Tuple(std::move(values)));
  }
  return tuples;
}

std::string InsertSql(const std::vector<Edge>& edges) {
  std::string sql = "INSERT INTO edge VALUES ";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += '(';
    sql += edges[i].from == kNullEndpoint ? std::string("NULL")
                                          : std::to_string(edges[i].from);
    sql += ", ";
    sql += edges[i].to == kNullEndpoint ? std::string("NULL")
                                        : std::to_string(edges[i].to);
    sql += ')';
  }
  return sql;
}

struct DistributedRun {
  QueryResult result;
  int64_t rounds = 0;
  int64_t delta_tuples = 0;
  int64_t pairs_derived = 0;
};

DistributedRun RunDistributed(const std::vector<Edge>& edges, int fragments,
                              exec::TcAlgorithm algorithm,
                              net::FaultPlan faults = {},
                              const std::string& program = kTcProgram) {
  MachineConfig config;
  config.pes = 8;
  config.fixpoint_algorithm = algorithm;
  config.fault_plan = faults;
  PrismaDb db(config);
  auto created = db.Execute(
      StrFormat("CREATE TABLE edge (src INT, dst INT) "
                "FRAGMENTED BY HASH(src) INTO %d FRAGMENTS",
                fragments));
  PRISMA_CHECK(created.ok()) << created.status().ToString();
  if (!edges.empty()) {
    auto inserted = db.Execute(InsertSql(edges));
    PRISMA_CHECK(inserted.ok()) << inserted.status().ToString();
  }
  auto answered = db.ExecutePrismalog(program);
  PRISMA_CHECK(answered.ok()) << answered.status().ToString();
  DistributedRun run;
  run.result = std::move(answered).value();
  run.rounds = db.metrics().GaugeValue("fixpoint.last_rounds");
  run.delta_tuples = db.metrics().GaugeValue("fixpoint.last_delta_tuples");
  run.pairs_derived = db.metrics().GaugeValue("fixpoint.last_pairs_derived");
  return run;
}

std::string Render(const std::vector<Tuple>& tuples) {
  std::string out;
  for (const Tuple& t : tuples) {
    out += t.ToString();
    out += '\n';
  }
  return out;
}

/// Core differential check: distributed answer and round/stat figures
/// must reproduce the single-node operator exactly.
void CheckSeed(uint64_t seed, int fragments, exec::TcAlgorithm algorithm) {
  SCOPED_TRACE(StrFormat("seed=%llu fragments=%d algorithm=%s",
                         static_cast<unsigned long long>(seed), fragments,
                         exec::TcAlgorithmName(algorithm)));
  const std::vector<Edge> edges = RandomGraph(seed);
  exec::TcStats oracle_stats;
  auto oracle =
      exec::TransitiveClosure(AsTuples(edges), algorithm, &oracle_stats);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  const DistributedRun run = RunDistributed(edges, fragments, algorithm);
  // Byte-identical answers, including order (both sides are sorted by
  // Tuple::Compare after duplicate elimination).
  ASSERT_EQ(Render(run.result.tuples), Render(*oracle));
  EXPECT_EQ(run.result.schema.num_columns(), 2u);
  // The aggregated per-round figures match the single-node run: total
  // absorbed delta tuples = |closure|, join products identical, and — on
  // non-empty inputs — the distributed round count equals the single-node
  // iteration count for every strategy. (On an all-NULL input the
  // distributed fixpoint does 0 rounds for every strategy while the
  // single-node naive/smart loops run one no-growth pass; only seminaive
  // agrees there.)
  EXPECT_EQ(static_cast<uint64_t>(run.delta_tuples), oracle_stats.result_size);
  EXPECT_EQ(static_cast<uint64_t>(run.pairs_derived),
            oracle_stats.pairs_derived);
  if (oracle_stats.result_size > 0) {
    EXPECT_EQ(static_cast<uint64_t>(run.rounds), oracle_stats.iterations);
  } else if (algorithm == exec::TcAlgorithm::kSeminaive) {
    EXPECT_EQ(run.rounds, 0);
    EXPECT_EQ(oracle_stats.iterations, 0u);
  }
}

constexpr int kFragmentCounts[] = {1, 3, 7};
constexpr exec::TcAlgorithm kAlgorithms[] = {exec::TcAlgorithm::kNaive,
                                             exec::TcAlgorithm::kSeminaive,
                                             exec::TcAlgorithm::kSmart};

TEST(FixpointDiffTest, SeminaiveMatchesOracleAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(1, 50)) {
    PRISMA_SEED_REPRO("FixpointDiffTest.SeminaiveMatchesOracleAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckSeed(seed, fragments, exec::TcAlgorithm::kSeminaive);
    }
  }
}

TEST(FixpointDiffTest, NaiveMatchesOracleAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(1, 50)) {
    PRISMA_SEED_REPRO("FixpointDiffTest.NaiveMatchesOracleAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckSeed(seed, fragments, exec::TcAlgorithm::kNaive);
    }
  }
}

TEST(FixpointDiffTest, SmartMatchesOracleAcrossSeeds) {
  for (const uint64_t seed : SoakSeeds(1, 50)) {
    PRISMA_SEED_REPRO("FixpointDiffTest.SmartMatchesOracleAcrossSeeds", seed);
    for (const int fragments : kFragmentCounts) {
      CheckSeed(seed, fragments, exec::TcAlgorithm::kSmart);
    }
  }
}

// ------------------------------------------------- Goals with a constant

/// `? p(a, Y)` and `? p(X, b)` answer the closure filtered on one
/// endpoint and projected onto the other, distinct and sorted: the
/// single-node operator plus that filter is the oracle. `? p(X, X)`, a
/// repeated variable, answers the nodes on a cycle: the closure filtered
/// on equal endpoints.
TEST(FixpointDiffTest, GoalsWithAConstantMatchTheFilteredOracle) {
  for (const uint64_t seed : SoakSeeds(1, 20)) {
    PRISMA_SEED_REPRO(
        "FixpointDiffTest.GoalsWithAConstantMatchTheFilteredOracle", seed);
    const std::vector<Edge> edges = RandomGraph(seed);
    auto closure =
        exec::TransitiveClosure(AsTuples(edges), exec::TcAlgorithm::kSeminaive);
    ASSERT_TRUE(closure.ok()) << closure.status().ToString();
    auto expect_goal = [&edges](const std::string& goal,
                                const std::set<Tuple>& expected) {
      const std::string program =
          StrFormat("p(X, Y) :- edge(X, Y).\n"
                    "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
                    "? p(%s).",
                    goal.c_str());
      for (const int fragments : {1, 3, 7}) {
        SCOPED_TRACE(StrFormat("fragments=%d goal=%s", fragments,
                               program.c_str()));
        const DistributedRun run = RunDistributed(
            edges, fragments, exec::TcAlgorithm::kSeminaive, {}, program);
        EXPECT_EQ(run.result.schema.num_columns(), 1u);
        EXPECT_EQ(Render(run.result.tuples),
                  Render(std::vector<Tuple>(expected.begin(), expected.end())));
      }
    };
    // One constant that starts a path and one that ends one (or a node
    // absent from the graph, when every endpoint is NULL).
    int a = 99;
    int b = 99;
    for (const Edge& e : edges) {
      if (e.from != kNullEndpoint && a == 99) a = e.from;
      if (e.to != kNullEndpoint) b = e.to;
    }
    for (const bool bound_first : {true, false}) {
      const int constant = bound_first ? a : b;
      std::set<Tuple> expected;
      for (const Tuple& pair : *closure) {
        const Value& bound = pair.at(bound_first ? 0 : 1);
        if (!bound.is_null() && bound == Value::Int(constant)) {
          expected.insert(Tuple({pair.at(bound_first ? 1 : 0)}));
        }
      }
      expect_goal(bound_first ? StrFormat("%d, Y", constant)
                              : StrFormat("X, %d", constant),
                  expected);
    }
    // The closure holds no NULL endpoint (the operator drops such edges).
    std::set<Tuple> on_cycle;
    for (const Tuple& pair : *closure) {
      if (pair.at(0) == pair.at(1)) on_cycle.insert(Tuple({pair.at(0)}));
    }
    expect_goal("X, X", on_cycle);
  }
}

// ------------------------------------------------- Termination edge cases

TEST(FixpointTerminationTest, EmptyEdgeRelationStopsAfterSeedRound) {
  for (const exec::TcAlgorithm algorithm : kAlgorithms) {
    const DistributedRun run = RunDistributed({}, 3, algorithm);
    EXPECT_TRUE(run.result.tuples.empty());
    // Seed round absorbs nothing anywhere -> harvest immediately.
    EXPECT_EQ(run.rounds, 0);
    EXPECT_EQ(run.delta_tuples, 0);
    EXPECT_EQ(run.pairs_derived, 0);
  }
}

TEST(FixpointTerminationTest, SingleFragmentStillRunsTheBarrier) {
  // One partition: the all-to-all degenerates to self-sends, but the
  // vote/round protocol is identical. Chain 0->1->2: two rounds.
  const std::vector<Edge> chain = {{0, 1}, {1, 2}};
  for (const exec::TcAlgorithm algorithm : kAlgorithms) {
    const DistributedRun run = RunDistributed(chain, 1, algorithm);
    EXPECT_EQ(run.result.tuples.size(), 3u);
    EXPECT_EQ(run.rounds, 2);
  }
}

TEST(FixpointTerminationTest, DeltaEmptyOnRoundOne) {
  // A single edge derives nothing in round 1: exactly one join round.
  const std::vector<Edge> single = {{0, 1}};
  for (const exec::TcAlgorithm algorithm : kAlgorithms) {
    const DistributedRun run = RunDistributed(single, 3, algorithm);
    EXPECT_EQ(run.result.tuples.size(), 1u);
    EXPECT_EQ(run.rounds, 1);
  }
}

TEST(FixpointTerminationTest, DuplicatedVotesDoNotSkewTheBarrier) {
  // A duplicating interconnect retransmits votes and round directives;
  // the barrier must admit each (round, pe) vote once, so the round
  // count and the aggregated stats stay exact.
  net::FaultPlan faults;
  faults.seed = 77;
  faults.link.duplicate_probability = 0.35;
  const std::vector<Edge> chain = {{0, 1}, {1, 2}, {2, 3}};
  exec::TcStats oracle_stats;
  auto oracle = exec::TransitiveClosure(
      AsTuples(chain), exec::TcAlgorithm::kSeminaive, &oracle_stats);
  ASSERT_TRUE(oracle.ok());
  const DistributedRun run =
      RunDistributed(chain, 3, exec::TcAlgorithm::kSeminaive, faults);
  EXPECT_EQ(Render(run.result.tuples), Render(*oracle));
  EXPECT_EQ(static_cast<uint64_t>(run.rounds), oracle_stats.iterations);
  EXPECT_EQ(static_cast<uint64_t>(run.delta_tuples),
            oracle_stats.result_size);
  EXPECT_EQ(static_cast<uint64_t>(run.pairs_derived),
            oracle_stats.pairs_derived);
}

TEST(FixpointTerminationTest, ALongClosureUnderLossOutlivesTheWatchdog) {
  // A 96-round closure under 5% loss and 20% duplication runs for more
  // than 30 s of virtual time, but every round makes progress: the
  // coordinator's watchdog bounds a stretch without progress, not the
  // statement, so it answers the oracle's closure.
  std::vector<Edge> edges;
  for (int i = 0; i < 120; ++i) edges.push_back({(i * 37 + 11) % 97, i});
  exec::TcStats oracle_stats;
  auto oracle = exec::TransitiveClosure(
      AsTuples(edges), exec::TcAlgorithm::kSeminaive, &oracle_stats);
  ASSERT_TRUE(oracle.ok());
  for (const uint64_t seed : {5, 11}) {
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    net::FaultPlan faults;
    faults.seed = seed;
    faults.link.drop_probability = 0.05;
    faults.link.duplicate_probability = 0.2;
    const DistributedRun run =
        RunDistributed(edges, 5, exec::TcAlgorithm::kSeminaive, faults);
    EXPECT_EQ(Render(run.result.tuples), Render(*oracle));
    EXPECT_EQ(static_cast<uint64_t>(run.rounds), oracle_stats.iterations);
    EXPECT_GT(run.result.response_time_ns, 30 * sim::kNanosPerSecond);
  }
}

/// A closure over a 999-edge random forest on 8 PEs and 8 fragments,
/// with what the result streams to the coordinator must keep.
struct ForestRun {
  std::string answer;
  std::string oracle;
  uint64_t tuples_gathered = 0;  // By the closure statement.
  int64_t delta_tuples = 0;
  uint64_t mail_dropped = 0;  // From the statement's start to the drain.
  uint64_t retransmits = 0;
};

/// A random forest of 999 edges: every node but the root hangs off an
/// earlier node.
std::vector<Edge> Forest() {
  Rng rng(15);
  std::vector<Edge> forest;
  for (int node = 1; node < 1000; ++node) {
    forest.push_back({static_cast<int>(rng.Uniform(node)), node});
  }
  return forest;
}

MachineConfig ForestMachine(net::FaultPlan faults) {
  MachineConfig config;
  config.pes = 8;
  config.fault_plan = faults;
  return config;
}

constexpr char kCreateForestEdge[] =
    "CREATE TABLE edge (src INT, dst INT) "
    "FRAGMENTED BY HASH(src) INTO 8 FRAGMENTS";

ForestRun RunForest(net::FaultPlan faults) {
  PrismaDb db(ForestMachine(faults));
  PRISMA_CHECK(db.Execute(kCreateForestEdge).ok());
  const std::vector<Edge> forest = Forest();
  PRISMA_CHECK(db.Execute(InsertSql(forest)).ok());
  db.Run();
  const uint64_t gathered = db.metrics().CounterTotal("query.tuples_gathered");
  const uint64_t dropped = db.metrics().CounterValue("pool.mail_dropped");

  auto answered = db.ExecutePrismalog(kTcProgram);
  PRISMA_CHECK(answered.ok()) << answered.status().ToString();
  db.Run();
  auto oracle =
      exec::TransitiveClosure(AsTuples(forest), exec::TcAlgorithm::kSeminaive);
  PRISMA_CHECK(oracle.ok());
  ForestRun run;
  run.answer = Render(answered->tuples);
  run.oracle = Render(*oracle);
  run.tuples_gathered =
      db.metrics().CounterTotal("query.tuples_gathered") - gathered;
  run.delta_tuples = db.metrics().GaugeValue("fixpoint.last_delta_tuples");
  run.mail_dropped = db.metrics().CounterValue("pool.mail_dropped") - dropped;
  run.retransmits = db.metrics().CounterTotal("fixpoint.retransmits");
  return run;
}

TEST(FixpointTerminationTest, FinishedStreamsLeaveNoTimerBehind) {
  // Fault-free: every round stream and every result stream is fully
  // acknowledged before the harvest, so no stream resend timer may
  // outlive the statement. A live one fires into its reaped partition and
  // shows up as a dropped mail.
  const ForestRun run = RunForest({});
  EXPECT_EQ(run.answer, run.oracle);
  EXPECT_EQ(run.mail_dropped, 0u);
  EXPECT_EQ(run.retransmits, 0u);
  // Each pair of the closure reached the coordinator exactly once.
  EXPECT_EQ(run.tuples_gathered, static_cast<uint64_t>(run.delta_tuples));
  EXPECT_GT(run.delta_tuples, 999);
}

TEST(FixpointResultStreamTest, LossAndDuplicatesDeliverEachPairOnce) {
  // Under 5% loss and 20% duplication the result streams retransmit and
  // duplicate, and the coordinator's receiver absorbs the copies: the
  // answer is the oracle's, and each pair is gathered exactly once.
  net::FaultPlan faults;
  faults.seed = 5;
  faults.link.drop_probability = 0.05;
  faults.link.duplicate_probability = 0.2;
  const ForestRun run = RunForest(faults);
  EXPECT_EQ(run.answer, run.oracle);
  EXPECT_EQ(run.tuples_gathered, static_cast<uint64_t>(run.delta_tuples));
  EXPECT_GT(run.delta_tuples, 999);
  EXPECT_GT(run.retransmits, 0u);
}

TEST(BulkInsertTest, ForestInsertCommitsUnderLossOnEveryFaultSeed) {
  // The forest's 999-row INSERT under 5% loss and 20% duplication: each
  // fragment's rows travel as one write request with one retry budget, so
  // the statement commits, whole, on every fault seed.
  const std::string insert = InsertSql(Forest());
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    net::FaultPlan faults;
    faults.seed = seed;
    faults.link.drop_probability = 0.05;
    faults.link.duplicate_probability = 0.2;
    PrismaDb db(ForestMachine(faults));
    ASSERT_TRUE(db.Execute(kCreateForestEdge).ok());
    auto inserted = db.Execute(insert);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    EXPECT_EQ(inserted->affected_rows, 999u);
    auto info = db.gdh().dictionary().GetTable("edge");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ((*info)->TotalRows(), 999u);
  }
}

TEST(FixpointResultStreamTest, HarvestWaitsForTheResultStreams) {
  // c -> a -> b_i for 1,000 nodes b_i: round 1 derives 1,000 fresh pairs
  // c -> b_i, and round 2 derives nothing and ends at once. The round-1
  // result streams (one batch in flight) are still arriving when the
  // final barrier is reached, so the harvest must wait for them, or the
  // partitions close their streams and the answer loses pairs.
  std::vector<Edge> star = {{0, 1}};
  for (int node = 2; node < 1002; ++node) star.push_back({1, node});
  exec::TcStats oracle_stats;
  auto oracle = exec::TransitiveClosure(
      AsTuples(star), exec::TcAlgorithm::kSeminaive, &oracle_stats);
  ASSERT_TRUE(oracle.ok());
  for (const int fragments : {1, 3}) {
    SCOPED_TRACE(StrFormat("fragments=%d", fragments));
    const DistributedRun run =
        RunDistributed(star, fragments, exec::TcAlgorithm::kSeminaive);
    EXPECT_EQ(Render(run.result.tuples), Render(*oracle));
    EXPECT_EQ(run.rounds, 2);
  }
}

}  // namespace
}  // namespace prisma::core
