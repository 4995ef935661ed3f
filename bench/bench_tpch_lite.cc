// E14 — TPC-H-lite: distributed OLAP over the exchange layer
// (DESIGN.md §14).
//
// Harness: a scaled-down TPC-H-shaped schema (lineitem / orders /
// customer, integral values so every aggregate is exact) on machines of
// increasing PE count, running eight analytic queries twice per machine
// shape — once with the OLAP lowering (pre-aggregate + shuffle-by-key
// group-bys, sorts as per-fragment sorted runs merged at the coordinator,
// Top-N under LIMIT) and once on the gather baseline (distributed_olap
// and aggregate_pushdown off: the coordinator pulls base tuples and does
// everything itself).
// Every answer is self-checked byte-for-byte against a single-fragment
// reference machine before any number is reported.
//
// Each machine shape also runs q5 with the coordinator pinned to the PE
// nearest the client and to the PE farthest from it: the spread is what
// result delivery (DESIGN.md §15.5) costs per hop, gated below one
// serialization of the result at every PE count.
//
// Emits BENCH_tpch_lite.json — per-PE-count, per-query response times
// and wire volumes for both strategies, plus the q5 coordinator spread —
// so OLAP and delivery regressions are visible PR-over-PR.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "gdh/messages.h"

using prisma::Rng;
using prisma::StrFormat;
using prisma::Tuple;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;
using prisma::core::QueryResult;

namespace {

// Scale (smoke shrinks these): TPC-H's 4:1 lineitem:orders row ratio.
int kLineitems = 1200;
int kOrders = 300;
int kCustomers = 60;

const char* kShipmodes[] = {"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"};
const char* kStatuses[] = {"F", "O", "P"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "MACHINERY"};
const char* kNations[] = {"BRAZIL", "CANADA", "FRANCE", "JAPAN", "KENYA"};

/// The eight queries: four single-table group-bys (every aggregate,
/// AVG included so partial SUM+COUNT merge is priced), two distributed
/// sorts (one under LIMIT), one global aggregate without group keys and
/// one join + group-by whose exchange-join consumers pre-aggregate
/// before the gather (DESIGN.md §10) — the mixed-path case.
struct Query {
  const char* name;
  const char* sql;
};
const Query kQueries[] = {
    {"q1_pricing_summary",
     "SELECT l_status, COUNT(*) AS n, SUM(l_quantity) AS qty, "
     "SUM(l_price) AS price, AVG(l_price) AS mean_price "
     "FROM lineitem GROUP BY l_status ORDER BY l_status"},
    {"q2_shipmode_counts",
     "SELECT l_shipmode, COUNT(*) AS n, SUM(l_price) AS price FROM lineitem "
     "WHERE l_quantity >= 25 GROUP BY l_shipmode ORDER BY l_shipmode"},
    {"q3_order_priority",
     "SELECT o_priority, COUNT(*) AS n FROM orders "
     "GROUP BY o_priority ORDER BY o_priority"},
    {"q4_nation_distribution",
     "SELECT c_nation, COUNT(*) AS n FROM customer "
     "GROUP BY c_nation ORDER BY c_nation"},
    {"q5_price_rank",
     "SELECT l_orderkey, l_price FROM lineitem "
     "ORDER BY l_price DESC, l_orderkey"},
    {"q6_top_orders",
     "SELECT o_orderkey, o_total FROM orders "
     "ORDER BY o_total DESC, o_orderkey LIMIT 10"},
    {"q7_revenue_filter",
     "SELECT SUM(l_price) AS revenue, COUNT(*) AS n FROM lineitem "
     "WHERE l_discount >= 5 AND l_quantity < 30"},
    {"q8_segment_totals",
     "SELECT c_segment, SUM(o_total) AS total FROM orders o "
     "JOIN customer c ON o.o_custkey = c.c_custkey "
     "GROUP BY c_segment ORDER BY c_segment"},
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

QueryResult MustExecute(PrismaDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  PRISMA_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
  return std::move(result).value();
}

void InsertBatched(PrismaDb& db, const std::string& table,
                   const std::vector<std::string>& rows) {
  for (size_t i = 0; i < rows.size(); i += 100) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < rows.size() && j < i + 100; ++j) {
      if (j > i) sql += ", ";
      sql += rows[j];
    }
    MustExecute(db, sql);
  }
}

/// Loads the deterministic dataset; `fragments` <= 1 creates unfragmented
/// tables (the single-node reference).
void LoadTpchLite(PrismaDb& db, int fragments) {
  const char* frag_l =
      fragments > 1 ? " FRAGMENTED BY HASH(l_orderkey) INTO %d FRAGMENTS" : "";
  const char* frag_o =
      fragments > 1 ? " FRAGMENTED BY HASH(o_orderkey) INTO %d FRAGMENTS" : "";
  const char* frag_c =
      fragments > 1 ? " FRAGMENTED BY HASH(c_custkey) INTO %d FRAGMENTS" : "";
  MustExecute(db, StrFormat("CREATE TABLE lineitem (l_orderkey INT, "
                            "l_partkey INT, l_quantity INT, l_price INT, "
                            "l_discount INT, l_shipmode STRING, "
                            "l_status STRING)%s",
                            StrFormat(frag_l, fragments).c_str()));
  MustExecute(db, StrFormat("CREATE TABLE orders (o_orderkey INT, "
                            "o_custkey INT, o_status STRING, o_total INT, "
                            "o_priority STRING)%s",
                            StrFormat(frag_o, fragments).c_str()));
  MustExecute(db, StrFormat("CREATE TABLE customer (c_custkey INT, "
                            "c_name STRING, c_segment STRING, "
                            "c_nation STRING)%s",
                            StrFormat(frag_c, fragments).c_str()));

  Rng rng(0x7c9b1ed1ULL);
  std::vector<std::string> rows;
  for (int i = 0; i < kLineitems; ++i) {
    rows.push_back(StrFormat(
        "(%d, %d, %d, %d, %d, '%s', '%s')", i % kOrders,
        static_cast<int>(rng.UniformInt(0, 200)),
        static_cast<int>(rng.UniformInt(1, 50)),
        static_cast<int>(rng.UniformInt(100, 10000)),
        static_cast<int>(rng.UniformInt(0, 10)),
        kShipmodes[rng.UniformInt(0, 4)], kStatuses[rng.UniformInt(0, 2)]));
  }
  InsertBatched(db, "lineitem", rows);
  rows.clear();
  for (int i = 0; i < kOrders; ++i) {
    rows.push_back(StrFormat(
        "(%d, %d, '%s', %d, '%s')", i,
        static_cast<int>(rng.UniformInt(0, kCustomers - 1)),
        kStatuses[rng.UniformInt(0, 2)],
        static_cast<int>(rng.UniformInt(1000, 100000)),
        kPriorities[rng.UniformInt(0, 3)]));
  }
  InsertBatched(db, "orders", rows);
  rows.clear();
  for (int i = 0; i < kCustomers; ++i) {
    rows.push_back(StrFormat("(%d, 'customer%d', '%s', '%s')", i, i,
                             kSegments[rng.UniformInt(0, 2)],
                             kNations[rng.UniformInt(0, 4)]));
  }
  InsertBatched(db, "customer", rows);
}

std::string Rendered(const QueryResult& result) {
  std::string out;
  for (const Tuple& t : result.tuples) {
    out += t.ToString();
    out += '\n';
  }
  return out;
}

struct QueryMeasure {
  double ms = 0;                 ///< Virtual response time.
  uint64_t tuples_gathered = 0;  ///< Rows pulled to the coordinator.
  uint64_t olap_parts = 0;
  uint64_t shuffle_bits = 0;     ///< olap.shuffle_bits delta.
  uint64_t olap_gather_bits = 0; ///< olap.gather_bits delta.
  uint64_t gather_bits = 0;      ///< Plain fragment-reply bits (gauge).
  /// exchange.wire_bits delta: every producer stream batch, join and
  /// OLAP shuffles alike (so it includes shuffle_bits).
  uint64_t exchange_bits = 0;

  /// Stream batches plus gathered replies: the statement's bits on the
  /// wire between PEs.
  uint64_t wire_bits() const {
    return exchange_bits + olap_gather_bits + gather_bits;
  }
};

/// q5 with the coordinator pinned 1 hop from the client (PE 1; the
/// client is on PE 0) and to the PE farthest from it. A store-and-forward
/// reply pays one full serialization of the result per extra hop; frame
/// trains fed by the merge of the sorted runs (DESIGN.md §15.5) pipeline
/// those hops. A coordinator on the client's PE itself (the default
/// placement) sends no train across a link and merges over every inbound
/// link of PE 0, so it is measured apart and must beat the 1-hop one.
struct SpreadMeasure {
  int near_pe = 1;
  int far_pe = 0;
  double near_ms = 0;
  double far_ms = 0;
  double default_ms = 0;  ///< Coordinator on the client's PE.
  double serialization_ms = 0;  ///< One hop of the whole result.
  double spread_ms() const { return far_ms - near_ms; }
};

struct SweepCell {
  int pes = 0;
  int fragments = 0;
  QueryMeasure olap[kNumQueries];
  QueryMeasure gather[kNumQueries];
  SpreadMeasure q5_spread;
};

/// Runs all queries on one machine shape; `lowered` picks the strategy.
/// Answers are checked against `reference` (the single-fragment run).
/// Lowered runs also check the sorts' shape: q5 and q6 (its LIMIT inside
/// every fragment's run) are lowered to sorted runs.
void RunShape(int pes, int fragments, bool lowered,
              const std::vector<std::string>& reference,
              QueryMeasure* measures) {
  MachineConfig config;
  config.pes = pes;
  if (!lowered) {
    config.rules.distributed_olap = false;
    config.rules.aggregate_pushdown = false;
  }
  PrismaDb db(config);
  LoadTpchLite(db, fragments);
  for (size_t q = 0; q < kNumQueries; ++q) {
    const uint64_t gathered0 =
        db.metrics().CounterTotal("query.tuples_gathered");
    const uint64_t parts0 = db.metrics().CounterTotal("olap.parts");
    const uint64_t shuffle0 = db.metrics().CounterTotal("olap.shuffle_bits");
    const uint64_t ogather0 = db.metrics().CounterTotal("olap.gather_bits");
    const uint64_t exchange0 = db.metrics().CounterTotal("exchange.wire_bits");
    const QueryResult result = MustExecute(db, kQueries[q].sql);
    PRISMA_CHECK(Rendered(result) == reference[q])
        << kQueries[q].name << " diverged from the single-node reference "
        << "(pes=" << pes << ", lowered=" << lowered << ")";
    QueryMeasure& m = measures[q];
    m.ms = static_cast<double>(result.response_time_ns) / 1e6;
    m.tuples_gathered =
        db.metrics().CounterTotal("query.tuples_gathered") - gathered0;
    m.olap_parts = db.metrics().CounterTotal("olap.parts") - parts0;
    m.shuffle_bits = db.metrics().CounterTotal("olap.shuffle_bits") - shuffle0;
    m.olap_gather_bits =
        db.metrics().CounterTotal("olap.gather_bits") - ogather0;
    m.gather_bits = static_cast<uint64_t>(
        db.metrics().GaugeValue("query.last_gather_bits"));
    m.exchange_bits =
        db.metrics().CounterTotal("exchange.wire_bits") - exchange0;
  }
  if (lowered) {
    for (const size_t q : {size_t{4}, size_t{5}}) {
      std::string plan;
      for (const Tuple& t :
           MustExecute(db, std::string("EXPLAIN ") + kQueries[q].sql).tuples) {
        plan += t.ToString() + "\n";
      }
      PRISMA_CHECK(plan.find("sorted runs over") != std::string::npos &&
                   (q != 5 || plan.find("Limit 10") != std::string::npos))
          << kQueries[q].name << " was not lowered to sorted runs at pes="
          << pes << ":\n"
          << plan;
    }
    prisma::bench::PrintCounterSeries(
        db.metrics(), {"olap.parts", "olap.shuffle_bits", "olap.gather_bits",
                       "exchange.batches_sent", "query.tuples_gathered"});
  }
}

SpreadMeasure MeasureCoordinatorSpread(int pes, int fragments,
                                       const std::string& reference) {
  constexpr size_t kQ5 = 4;
  SpreadMeasure m;
  for (int i = 0; i < 3; ++i) {
    MachineConfig config;
    config.pes = pes;
    if (i < 2) config.coordinator_pes = {i == 0 ? m.near_pe : m.far_pe};
    PrismaDb db(config);
    if (i == 0) {
      const prisma::net::Topology& topology = db.network().topology();
      for (int pe = 1; pe < topology.num_nodes(); ++pe) {
        if (topology.Distance(pe, 0) > topology.Distance(m.far_pe, 0)) {
          m.far_pe = pe;
        }
      }
    }
    LoadTpchLite(db, fragments);
    const QueryResult result = MustExecute(db, kQueries[kQ5].sql);
    PRISMA_CHECK(Rendered(result) == reference)
        << "q5 diverged with the coordinator on PE "
        << (i < 2 ? config.coordinator_pes[0] : 0);
    const double ms = static_cast<double>(result.response_time_ns) / 1e6;
    (i == 0 ? m.near_ms : i == 1 ? m.far_ms : m.default_ms) = ms;
    prisma::gdh::ClientReply whole;
    whole.rows = prisma::gdh::EncodeRows(result.tuples);
    m.serialization_ms = static_cast<double>(whole.WireBits()) * 1e3 /
                         static_cast<double>(config.link.bandwidth_bps);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  std::vector<int> pe_counts = {4, 8, 16};
  if (smoke) {
    kLineitems = 240;
    kOrders = 60;
    kCustomers = 20;
    pe_counts = {4};
  }

  // Single-fragment reference answers (no distributed plans at all).
  std::vector<std::string> reference;
  {
    MachineConfig config;
    config.pes = 2;
    PrismaDb db(config);
    LoadTpchLite(db, /*fragments=*/1);
    for (const Query& q : kQueries) {
      reference.push_back(Rendered(MustExecute(db, q.sql)));
    }
  }

  std::vector<SweepCell> sweep;
  for (const int pes : pe_counts) {
    SweepCell cell;
    cell.pes = pes;
    cell.fragments = pes;
    std::printf("== pes=%d fragments=%d ==\n", pes, cell.fragments);
    RunShape(pes, cell.fragments, /*lowered=*/true, reference, cell.olap);
    RunShape(pes, cell.fragments, /*lowered=*/false, reference, cell.gather);
    std::printf("\n%-22s %12s %12s %10s %14s %14s\n", "query", "olap_ms",
                "gather_ms", "speedup", "olap_bits", "gather_bits");
    for (size_t q = 0; q < kNumQueries; ++q) {
      const QueryMeasure& o = cell.olap[q];
      const QueryMeasure& g = cell.gather[q];
      std::printf("%-22s %12.3f %12.3f %9.2fx %14llu %14llu\n",
                  kQueries[q].name, o.ms, g.ms, g.ms / o.ms,
                  static_cast<unsigned long long>(
                      o.shuffle_bits + o.olap_gather_bits + o.gather_bits),
                  static_cast<unsigned long long>(g.gather_bits));
    }
    sweep.push_back(cell);

    // Contract: the pure group-bys (q1..q4) took the multi-stage path
    // and the sorts (q5, q6) were lowered to sorted runs (RunShape checks
    // their plans), and the canonical group-by (q1) moved strictly fewer
    // wire bits than its base-tuple gather baseline.
    for (size_t q = 0; q < 6; ++q) {
      PRISMA_CHECK(cell.olap[q].olap_parts > 0)
          << kQueries[q].name << " was not lowered at pes=" << pes;
    }
    // Top-N: every fragment ships at most q6's LIMIT 10 rows.
    constexpr size_t kQ6 = 5;
    PRISMA_CHECK(cell.olap[kQ6].tuples_gathered <=
                 10 * static_cast<uint64_t>(cell.fragments))
        << "q6 gathered " << cell.olap[kQ6].tuples_gathered
        << " rows at pes=" << pes;
    PRISMA_CHECK(cell.olap[0].shuffle_bits + cell.olap[0].olap_gather_bits <
                 cell.gather[0].gather_bits)
        << "q1 wire bits not below the gather baseline at pes=" << pes;
    PRISMA_CHECK(cell.olap[0].tuples_gathered < cell.gather[0].tuples_gathered)
        << "q1 gathered as many tuples as the baseline at pes=" << pes;
    // q8's join consumers pre-aggregate: at most one partial row per
    // segment per consumer reaches the coordinator, and the statement
    // moves strictly fewer bits than gathering its joined rows.
    constexpr size_t kQ8 = 7;
    const uint64_t segments = sizeof(kSegments) / sizeof(kSegments[0]);
    PRISMA_CHECK(cell.olap[kQ8].tuples_gathered <=
                 segments * static_cast<uint64_t>(cell.fragments))
        << "q8 gathered " << cell.olap[kQ8].tuples_gathered
        << " rows at pes=" << pes;
    PRISMA_CHECK(cell.olap[kQ8].wire_bits() < cell.gather[kQ8].wire_bits())
        << "q8 wire bits not below the gather baseline at pes=" << pes;

    const SpreadMeasure& spread = sweep.back().q5_spread =
        MeasureCoordinatorSpread(pes, cell.fragments, reference[4]);
    std::printf("\nq5 coordinator on PE %d: %.3f ms, on PE %d: %.3f ms; "
                "spread %.3f ms, one result serialization %.3f ms; "
                "on the client's PE: %.3f ms\n",
                spread.near_pe, spread.near_ms, spread.far_pe, spread.far_ms,
                spread.spread_ms(), spread.serialization_ms,
                spread.default_ms);
    // Gate: the coordinator's hop distance to the client may not cost a
    // full extra serialization of the result.
    PRISMA_CHECK(spread.spread_ms() < spread.serialization_ms)
        << "q5 coordinator spread " << spread.spread_ms()
        << " ms is not below one result serialization ("
        << spread.serialization_ms << " ms) at pes=" << pes;
    // The default placement (the client's PE) beats the 1-hop coordinator.
    PRISMA_CHECK(spread.default_ms < spread.near_ms)
        << "q5 on the client's PE took " << spread.default_ms
        << " ms, not below PE " << spread.near_pe << "'s " << spread.near_ms
        << " ms at pes=" << pes;
  }

  // JSON trajectory artifact.
  std::string json = StrFormat(
      "{\n  \"bench\": \"tpch_lite\",\n  \"smoke\": %s,\n"
      "  \"scale\": {\"lineitem\": %d, \"orders\": %d, \"customer\": %d},\n"
      "  \"sweep\": [\n",
      smoke ? "true" : "false", kLineitems, kOrders, kCustomers);
  for (size_t c = 0; c < sweep.size(); ++c) {
    const SweepCell& cell = sweep[c];
    json += StrFormat(
        "    {\"pes\": %d, \"fragments\": %d, "
        "\"q5_coordinator_spread_ms\": %.3f, \"q5_near_pe\": %d, "
        "\"q5_near_ms\": %.3f, \"q5_far_pe\": %d, \"q5_far_ms\": %.3f, "
        "\"q5_result_serialization_ms\": %.3f, \"q5_default_ms\": %.3f, "
        "\"queries\": [\n",
        cell.pes, cell.fragments, cell.q5_spread.spread_ms(),
        cell.q5_spread.near_pe, cell.q5_spread.near_ms, cell.q5_spread.far_pe,
        cell.q5_spread.far_ms, cell.q5_spread.serialization_ms,
        cell.q5_spread.default_ms);
    for (size_t q = 0; q < kNumQueries; ++q) {
      const QueryMeasure& o = cell.olap[q];
      const QueryMeasure& g = cell.gather[q];
      json += StrFormat(
          "      {\"name\": \"%s\", \"olap_ms\": %.3f, \"gather_ms\": %.3f, "
          "\"olap_parts\": %llu, \"olap_shuffle_bits\": %llu, "
          "\"olap_gather_bits\": %llu, \"olap_tuples_gathered\": %llu, "
          "\"olap_wire_bits\": %llu, \"baseline_gather_bits\": %llu, "
          "\"baseline_tuples_gathered\": %llu, "
          "\"baseline_wire_bits\": %llu}%s\n",
          kQueries[q].name, o.ms, g.ms,
          static_cast<unsigned long long>(o.olap_parts),
          static_cast<unsigned long long>(o.shuffle_bits),
          static_cast<unsigned long long>(o.olap_gather_bits),
          static_cast<unsigned long long>(o.tuples_gathered),
          static_cast<unsigned long long>(o.wire_bits()),
          static_cast<unsigned long long>(g.gather_bits),
          static_cast<unsigned long long>(g.tuples_gathered),
          static_cast<unsigned long long>(g.wire_bits()),
          q + 1 < kNumQueries ? "," : "");
    }
    json += StrFormat("    ]}%s\n", c + 1 < sweep.size() ? "," : "");
  }
  json += "  ]\n}\n";
  const char* path = "BENCH_tpch_lite.json";
  std::FILE* f = std::fopen(path, "w");
  PRISMA_CHECK(f != nullptr) << "cannot write " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
