// E7 — OFM types (paper §2.5).
//
// Paper claim: "Several OFM types are envisioned, each equipped with the
// right amount of tools. For example, OFMs needed for query processing
// only, do not require extensive crash recovery facilities."
//
// Harness: the same insert/update workload against a machine whose base
// fragments use full OFMs (write-ahead logging to stable storage) versus
// query-only OFMs (no durability machinery), reporting simulated
// statement latency, total time, and WAL volume.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "core/prisma_db.h"

using prisma::StrFormat;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;

namespace {

int kInserts = 2'000;
int kUpdates = 200;

struct Outcome {
  double insert_ms_avg;
  double update_ms_avg;
  double total_ms;
  size_t wal_bytes;
  /// WAL records, from the per-fragment ofm.wal_records registry series,
  /// and the prepare/commit/abort markers among them (ofm.wal_markers),
  /// split by workload phase; the rest are redo (data) records.
  uint64_t wal_records;
  uint64_t insert_markers;
  uint64_t update_markers;

  uint64_t redo_records() const {
    return wal_records - insert_markers - update_markers;
  }
};

Outcome RunWorkload(prisma::exec::OfmType type, bool replicated = false) {
  MachineConfig config;
  config.pes = 16;
  config.base_ofm_type = type;
  config.replicate_fragments = replicated;
  PrismaDb db(config);
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute("CREATE TABLE log (id INT, payload STRING, hits INT) "
                  "FRAGMENTED BY HASH(id) INTO 8 FRAGMENTS"));

  Outcome out{0, 0, 0, 0, 0, 0, 0};
  const prisma::sim::SimTime begin = db.simulator().now();
  double insert_ns = 0;
  for (int base = 0; base < kInserts; base += 100) {
    std::string sql = "INSERT INTO log VALUES ";
    for (int i = 0; i < 100; ++i) {
      const int id = base + i;
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, 'event payload %d', 0)", id, id);
    }
    insert_ns += static_cast<double>(must(db.Execute(sql)).response_time_ns);
  }
  out.insert_markers = db.metrics().CounterTotal("ofm.wal_markers");
  double update_ns = 0;
  for (int i = 0; i < kUpdates; ++i) {
    update_ns += static_cast<double>(
        must(db.Execute(StrFormat(
                 "UPDATE log SET hits = hits + 1 WHERE id = %d",
                 (i * 37) % kInserts)))
            .response_time_ns);
  }
  out.total_ms =
      static_cast<double>(db.simulator().now() - begin) / 1e6;
  out.insert_ms_avg = insert_ns / (kInserts / 100) / 1e6;
  out.update_ms_avg = update_ns / kUpdates / 1e6;
  for (int pe = 0; pe < config.pes; ++pe) {
    out.wal_bytes += db.stable_store(pe).total_bytes();
  }
  out.wal_records = db.metrics().CounterTotal("ofm.wal_records");
  out.update_markers =
      db.metrics().CounterTotal("ofm.wal_markers") - out.insert_markers;
  return out;
}

}  // namespace

/// --replicated: write amplification of dual-replica 2PC (DESIGN.md §13)
/// against the single-copy baseline, on the same full-OFM workload.
int RunReplicatedComparison(bool smoke) {
  std::printf("E7b: single-copy vs replicated (dual-replica 2PC) writes%s\n",
              smoke ? " (smoke)" : "");
  std::printf("workload: %d inserts (batches of 100) + %d point updates, "
              "8 fragments, full OFMs\n\n",
              kInserts, kUpdates);
  std::printf("%-14s %16s %16s %12s %12s %12s\n", "placement",
              "insert ms/stmt", "update ms/stmt", "total ms", "WAL bytes",
              "WAL records");
  const Outcome single = RunWorkload(prisma::exec::OfmType::kFull);
  const Outcome dual =
      RunWorkload(prisma::exec::OfmType::kFull, /*replicated=*/true);
  std::printf("%-14s %16.2f %16.2f %12.1f %12zu %12llu\n", "single-copy",
              single.insert_ms_avg, single.update_ms_avg, single.total_ms,
              single.wal_bytes,
              static_cast<unsigned long long>(single.wal_records));
  std::printf("%-14s %16.2f %16.2f %12.1f %12zu %12llu\n", "replicated",
              dual.insert_ms_avg, dual.update_ms_avg, dual.total_ms,
              dual.wal_bytes,
              static_cast<unsigned long long>(dual.wal_records));
  std::printf("%-14s %15.1fx %15.1fx %11.1fx %11.1fx %11.1fx\n",
              "amplification", dual.insert_ms_avg / single.insert_ms_avg,
              dual.update_ms_avg / single.update_ms_avg,
              dual.total_ms / single.total_ms,
              static_cast<double>(dual.wal_bytes) /
                  static_cast<double>(single.wal_bytes),
              static_cast<double>(dual.wal_records) /
                  static_cast<double>(single.wal_records));
  // The contract the smoke enforces: every write lands on both replicas
  // (2x redo records), and latency overhead stays bounded — the backup is
  // just one more 2PC participant, not a serial second round-trip. The
  // markers follow the commit protocol: a single-copy point update has one
  // participant and commits in one phase (one C marker); replicated, it
  // has two, each logging P and C. The 100-row inserts span every
  // fragment, so both placements run 2PC there (P and C per replica).
  PRISMA_CHECK(dual.redo_records() == 2 * single.redo_records())
      << "replicated workload must WAL every write twice, got "
      << dual.redo_records() << " vs single-copy " << single.redo_records()
      << " redo records";
  PRISMA_CHECK(single.update_markers == static_cast<uint64_t>(kUpdates))
      << "single-copy point updates must commit in one phase, got "
      << single.update_markers << " markers for " << kUpdates;
  PRISMA_CHECK(dual.update_markers == 4 * static_cast<uint64_t>(kUpdates))
      << "replicated point updates must prepare and commit both replicas, "
         "got "
      << dual.update_markers << " markers for " << kUpdates;
  PRISMA_CHECK(dual.insert_markers == 2 * single.insert_markers)
      << "replicated inserts must mark both replicas, got "
      << dual.insert_markers << " vs single-copy " << single.insert_markers;
  PRISMA_CHECK(dual.total_ms < 3.0 * single.total_ms)
      << "dual-replica 2PC should piggyback on the commit round, not "
         "double-serialize it";
  std::printf(
      "\nreading: the backup replica is one more presumed-abort 2PC "
      "participant, so the\nwrite path pays 2x redo volume and two forces "
      "(prepare, then C) where the\nsingle copy commits in one phase with "
      "one — a parallel participant, not a\nserial second round-trip "
      "(§13).\n");
  return 0;
}

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (smoke) {
    kInserts = 200;
    kUpdates = 20;
  }
  if (prisma::bench::HasFlag(argc, argv, "--replicated")) {
    return RunReplicatedComparison(smoke);
  }
  std::printf("E7: full vs query-only One-Fragment Managers%s\n",
              smoke ? " (smoke)" : "");
  std::printf("workload: %d inserts (batches of 100) + %d point updates, "
              "8 fragments\n\n",
              kInserts, kUpdates);
  std::printf("%-14s %16s %16s %12s %12s %12s\n", "OFM type",
              "insert ms/stmt", "update ms/stmt", "total ms", "WAL bytes",
              "WAL records");
  const Outcome full = RunWorkload(prisma::exec::OfmType::kFull);
  const Outcome query_only = RunWorkload(prisma::exec::OfmType::kQueryOnly);
  std::printf("%-14s %16.2f %16.2f %12.1f %12zu %12llu\n", "full",
              full.insert_ms_avg, full.update_ms_avg, full.total_ms,
              full.wal_bytes,
              static_cast<unsigned long long>(full.wal_records));
  std::printf("%-14s %16.2f %16.2f %12.1f %12zu %12llu\n", "query_only",
              query_only.insert_ms_avg, query_only.update_ms_avg,
              query_only.total_ms, query_only.wal_bytes,
              static_cast<unsigned long long>(query_only.wal_records));
  std::printf("%-14s %15.1fx %15.1fx %11.1fx\n", "ratio",
              full.insert_ms_avg / query_only.insert_ms_avg,
              full.update_ms_avg / query_only.update_ms_avg,
              full.total_ms / query_only.total_ms);
  std::printf(
      "\nreading: durability costs a forced group-committed WAL write per "
      "transaction\nper touched fragment. Intermediate results never need "
      "that, so PRISMA equips\nquery-processing OFMs without it (§2.5).\n");
  return 0;
}
