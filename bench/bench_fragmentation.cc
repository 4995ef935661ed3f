// E9 — Fragmentation strategies and the data-allocation manager
// (paper §2.2).
//
// Paper claim: the GDH contains a data allocation manager; how relations
// are fragmented and placed determines how much of the machine a
// statement must touch.
//
// Harness: a 20,000-row relation fragmented 16 ways by HASH(id),
// RANGE(id) and ROUNDROBIN; a batch of point lookups and point updates
// measures fragments contacted (via pruning), network traffic and
// simulated response time per strategy.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "core/prisma_db.h"

using prisma::StrFormat;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;

namespace {

int kRows = 20'000;
int kLookups = 30;

struct Outcome {
  double lookup_ms_avg = 0;
  double update_ms_avg = 0;
  double full_scan_ms = 0;
  double lookup_mbits = 0;  // Link traffic for the lookup batch.
};

Outcome RunStrategy(const char* clause) {
  PrismaDb db{MachineConfig()};
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute(StrFormat(
      "CREATE TABLE item (id INT, v INT) FRAGMENTED BY %s INTO 16 FRAGMENTS",
      clause)));
  for (int base = 0; base < kRows; base += 500) {
    std::string sql = "INSERT INTO item VALUES ";
    for (int i = 0; i < 500; ++i) {
      const int id = base + i;
      if (i > 0) sql += ", ";
      // Spread ids over the default RANGE domain [0, 1e6).
      sql += StrFormat("(%d, %d)", id * 50, id % 97);
    }
    must(db.Execute(sql));
  }

  Outcome out;
  // Link traffic from the registry series the network maintains.
  const int64_t bits_before =
      static_cast<int64_t>(db.metrics().CounterValue("net.link_bits"));
  double lookup_ns = 0;
  for (int i = 0; i < kLookups; ++i) {
    const int id = ((i * 997) % kRows) * 50;
    lookup_ns += static_cast<double>(
        must(db.Execute(StrFormat("SELECT v FROM item WHERE id = %d", id)))
            .response_time_ns);
  }
  out.lookup_mbits =
      static_cast<double>(
          static_cast<int64_t>(db.metrics().CounterValue("net.link_bits")) -
          bits_before) /
      1e6;
  out.lookup_ms_avg = lookup_ns / kLookups / 1e6;

  double update_ns = 0;
  for (int i = 0; i < kLookups; ++i) {
    const int id = ((i * 991) % kRows) * 50;
    update_ns += static_cast<double>(
        must(db.Execute(
                 StrFormat("UPDATE item SET v = v + 1 WHERE id = %d", id)))
            .response_time_ns);
  }
  out.update_ms_avg = update_ns / kLookups / 1e6;

  out.full_scan_ms =
      static_cast<double>(
          must(db.Execute("SELECT COUNT(*), SUM(v) FROM item"))
              .response_time_ns) /
      1e6;
  return out;
}

}  // namespace

namespace {

/// Join of two co-partitioned tables under the three physical executions:
/// inside the PEs (aligned placement + co-located scheduling), via the
/// streaming exchange layer (colocation off, so the join must repartition
/// at query time), or by gathering both inputs at the coordinator.
void JoinPlacementExperiment() {
  struct Mode {
    const char* name;
    bool colocated;
    bool exchanges;
  };
  const Mode modes[] = {
      {"co-located (join inside the PEs)", true, true},
      {"shuffled (exchange streams)", false, true},
      {"gathered (join at the coordinator)", false, false},
  };
  std::printf("\n-- join of co-partitioned tables: fact(20000) x dim(50) --\n");
  std::printf("%-36s %14s %18s %16s\n", "execution", "join ms",
              "join traffic Mb", "shuffle batches");
  for (const Mode& mode : modes) {
    MachineConfig config;
    config.rules.colocated_joins = mode.colocated;
    config.rules.exchange_joins = mode.exchanges;
    PrismaDb db(config);
    auto must = [](auto&& r) {
      PRISMA_CHECK(r.ok()) << r.status().ToString();
      return std::forward<decltype(r)>(r).value();
    };
    must(db.Execute("CREATE TABLE fact (k INT, v INT) "
                    "FRAGMENTED BY HASH(k) INTO 16 FRAGMENTS"));
    must(db.Execute("CREATE TABLE dim (k INT, label STRING) "
                    "FRAGMENTED BY HASH(k) INTO 16 FRAGMENTS"));
    for (int base = 0; base < kRows; base += 500) {
      std::string sql = "INSERT INTO fact VALUES ";
      for (int i = 0; i < 500; ++i) {
        const int id = base + i;
        if (i > 0) sql += ", ";
        sql += StrFormat("(%d, %d)", id % 1000, id);
      }
      must(db.Execute(sql));
    }
    // A selective dimension: 50 of 1000 fact keys match.
    std::string dim_sql = "INSERT INTO dim VALUES ";
    for (int i = 0; i < 50; ++i) {
      if (i > 0) dim_sql += ", ";
      dim_sql += StrFormat("(%d, 'd%d')", i * 20, i);
    }
    must(db.Execute(dim_sql));

    const int64_t bits_before =
        static_cast<int64_t>(db.metrics().CounterValue("net.link_bits"));
    const uint64_t batches_before =
        db.metrics().CounterTotal("exchange.batches_sent");
    auto joined = must(db.Execute(
        "SELECT f.v, d.label FROM fact f JOIN dim d ON f.k = d.k"));
    const double traffic_mb =
        static_cast<double>(
            static_cast<int64_t>(db.metrics().CounterValue("net.link_bits")) -
            bits_before) /
        1e6;
    const uint64_t batches =
        db.metrics().CounterTotal("exchange.batches_sent") - batches_before;
    std::printf("%-36s %14.2f %18.2f %16llu\n", mode.name,
                static_cast<double>(joined.response_time_ns) / 1e6,
                traffic_mb, static_cast<unsigned long long>(batches));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (smoke) {
    kRows = 2'000;
    kLookups = 5;
  }
  std::printf("E9: fragmentation strategy vs statement footprint%s\n",
              smoke ? " (smoke)" : "");
  std::printf("relation: %d rows, 16 fragments, 64-PE machine; %d point "
              "lookups + %d point updates\n\n",
              kRows, kLookups, kLookups);
  std::printf("%-14s %14s %14s %14s %16s\n", "strategy", "lookup ms",
              "update ms", "full scan ms", "lookup traffic Mb");
  struct Strategy {
    const char* name;
    const char* clause;
  };
  const Strategy strategies[] = {
      {"hash(id)", "HASH(id)"},
      {"range(id)", "RANGE(id)"},
      {"roundrobin", "ROUNDROBIN"},
  };
  for (const Strategy& s : strategies) {
    const Outcome o = RunStrategy(s.clause);
    std::printf("%-14s %14.2f %14.2f %14.2f %16.2f\n", s.name, o.lookup_ms_avg,
                o.update_ms_avg, o.full_scan_ms, o.lookup_mbits);
  }
  JoinPlacementExperiment();
  std::printf(
      "\nreading: key-based strategies let the coordinator prune a point "
      "query to the\none fragment that can hold the key — half the response "
      "time and ~10x less\nnetwork traffic than round-robin's broadcast. "
      "Point updates are dominated by\ndisk forces, and pruning halves "
      "them too: a pruned update has one\nparticipant and commits in "
      "one phase, round-robin's runs 2PC on every\nfragment. Full scans "
      "cost the same everywhere — fragmentation is a workload\ndecision, "
      "which is why PRISMA gives it to the data allocation manager\n(§2.2). "
      "A join of co-partitioned tables runs inside the PEs that host "
      "both\nfragments, shipping only matches — the payoff of the allocation "
      "manager's\naligned placement. When co-location is off the streaming "
      "exchange\nrepartitions one side between the PEs, still far cheaper "
      "than gathering\nboth inputs at the coordinator.\n");
  return 0;
}
