// E13 — availability through a single-PE crash (DESIGN.md §13).
//
// Harness: the same point-read stream driven through a scheduled PE
// crash/restart window, on a machine with and without fragment
// replication. The replicated machine must answer EVERY read (failover to
// the backup replica); the single-copy machine degrades to typed
// Unavailable for fragments on the dead PE. A separate steady-state write
// workload (no faults) prices the dual-replica 2PC overhead.
//
// Emits BENCH_replication.json — failover latency, resync wire volume,
// answered fractions and write overhead — so robustness regressions are
// visible PR-over-PR.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"

using prisma::Rng;
using prisma::StrFormat;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;

namespace {

int kRows = 200;
int kReads = 400;
int kWrites = 400;

constexpr int kFragments = 4;
constexpr int kClients = 4;
constexpr prisma::net::NodeId kCrashPe = 2;
// PE kCrashPe crashes as the op stream starts, so the window opens inside
// the stream whatever the load costs, and the restart leaves a tail of
// the op stream still inside the down window.
constexpr prisma::sim::SimTime kDownNs = 2'000 * prisma::sim::kNanosPerMilli;

/// One availability run: load, then kClients concurrent chained streams
/// of point reads with writes mixed in (1 in 4), their virtual-time span
/// covering the crash window (a synchronous Execute would drain the crash
/// event before any statement was in flight). Reads route around a dead
/// primary at plan time; writes are what discover the dead replica the
/// hard way — a retry finding its host process gone — and shed it, so the
/// mix prices both sides of failover. Multiple clients keep reads flowing
/// through the window even while one client is stuck behind a stalled
/// write.
struct AvailabilityOutcome {
  prisma::sim::SimTime crash_at_ns = 0;
  prisma::sim::SimTime restart_at_ns = 0;
  uint64_t reads = 0;
  uint64_t answered = 0;
  /// Reads whose [submit, reply] interval overlaps the crash window: the
  /// denominator of the availability fraction. A read that stalls through
  /// the whole outage and is only served at restart overlapped the window
  /// but was not answered inside it.
  uint64_t window_reads = 0;
  uint64_t window_answered = 0;  ///< OK replies landing inside the window.
  uint64_t writes = 0;
  uint64_t writes_answered = 0;
  double worst_read_ms = 0;      ///< Read-side route-around cost.
  double worst_write_ms = 0;     ///< Failover latency: the shedding write.
  double steady_read_ms = 0;     ///< Mean over answered reads.
  uint64_t unavailable = 0;      ///< query.unavailable counter.
  uint64_t failovers = 0;
  uint64_t resyncs_completed = 0;
  uint64_t resync_wire_bits = 0;
};

AvailabilityOutcome RunAvailability(bool replicated) {
  MachineConfig config;
  config.pes = 4;
  config.replicate_fragments = replicated;
  config.coordinator_pes = {0};
  // Tight retransmission budget so a read stalled on the dead primary
  // exhausts and fails over quickly: retries at 50/100/200ms.
  config.rpc_timeout_ns = 50 * prisma::sim::kNanosPerMilli;
  config.rpc_backoff_cap_ns = 400 * prisma::sim::kNanosPerMilli;
  config.rpc_attempts = 4;
  // A zero-length placeholder window turns fault mode on from the start
  // (its timers are chosen at construction); the crash itself is
  // scheduled once the load is done.
  config.fault_plan.down_windows.push_back({1, 2, 0, 0});
  PrismaDb db(config);

  AvailabilityOutcome out;
  Rng rng(0x5eedULL);
  double answered_ns_sum = 0;
  int loaded = 0;
  int ops_left = kReads;
  std::function<void()> next_op = [&] {
    const int op = ops_left--;
    if (op <= 0) return;
    const int id = rng.UniformInt(0, kRows - 1);
    const bool is_write = op % 4 == 0;
    const std::string sql =
        is_write ? StrFormat("UPDATE t SET v = v + 1 WHERE id = %d", id)
                 : StrFormat("SELECT v FROM t WHERE id = %d", id);
    db.Submit(sql, /*prismalog=*/false, prisma::exec::kAutoCommit,
              [&, is_write, id](const prisma::gdh::ClientReply& reply,
                                prisma::sim::SimTime response_ns) {
                const double ms = static_cast<double>(response_ns) / 1e6;
                if (is_write) {
                  ++out.writes;
                  if (reply.status.ok()) {
                    ++out.writes_answered;
                    if (ms > out.worst_write_ms) out.worst_write_ms = ms;
                  }
                  next_op();
                  return;
                }
                ++out.reads;
                const prisma::sim::SimTime now = db.simulator().now();
                const prisma::sim::SimTime submitted = now - response_ns;
                if (submitted <= out.restart_at_ns &&
                    now >= out.crash_at_ns) {
                  ++out.window_reads;
                }
                const bool in_window =
                    now >= out.crash_at_ns && now <= out.restart_at_ns;
                if (reply.status.ok()) {
                  ++out.answered;
                  if (in_window) ++out.window_answered;
                  answered_ns_sum += static_cast<double>(response_ns);
                  if (ms > out.worst_read_ms) out.worst_read_ms = ms;
                }
                next_op();
              },
              /*delay=*/rng.UniformInt(0, 10 * prisma::sim::kNanosPerMilli));
  };
  std::function<void()> next_load = [&] {
    if (loaded >= kRows) {
      out.crash_at_ns = db.simulator().now();
      out.restart_at_ns = out.crash_at_ns + kDownNs;
      db.simulator().ScheduleAt(out.crash_at_ns, [&] { db.CrashPe(kCrashPe); });
      db.simulator().ScheduleAt(out.restart_at_ns, [&] {
        PRISMA_CHECK(db.RecoverPe(kCrashPe).ok());
      });
      for (int c = 0; c < kClients; ++c) next_op();
      return;
    }
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < 20; ++i, ++loaded) {
      if (i > 0) sql += ", ";
      sql += StrFormat("(%d, %d)", loaded, loaded * 7);
    }
    db.Submit(sql, /*prismalog=*/false, prisma::exec::kAutoCommit,
              [&](const prisma::gdh::ClientReply& reply,
                  prisma::sim::SimTime) {
                PRISMA_CHECK(reply.status.ok()) << reply.status.ToString();
                next_load();
              });
  };
  db.Submit(StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                      "HASH(id) INTO %d FRAGMENTS",
                      kFragments),
            /*prismalog=*/false, prisma::exec::kAutoCommit,
            [&](const prisma::gdh::ClientReply& reply, prisma::sim::SimTime) {
              PRISMA_CHECK(reply.status.ok()) << reply.status.ToString();
              next_load();
            });
  db.Run();  // Drains the stream, the crash, the restart and the resync.

  out.steady_read_ms = out.answered == 0
                           ? 0
                           : answered_ns_sum / static_cast<double>(
                                                   out.answered) / 1e6;
  out.unavailable = db.metrics().CounterTotal("query.unavailable");
  out.failovers = db.metrics().CounterTotal("replica.failovers");
  out.resyncs_completed =
      db.metrics().CounterTotal("replica.resyncs_completed");
  out.resync_wire_bits =
      db.metrics().CounterTotal("replica.resync_wire_bits");
  return out;
}

/// Steady-state write pricing (no faults): total virtual time and WAL
/// records for the same insert/update stream, replicated vs single-copy.
struct WriteOutcome {
  double total_ms = 0;
  uint64_t wal_records = 0;
  /// Prepare/commit/abort markers among them (ofm.wal_markers); the rest
  /// are redo (data) records.
  uint64_t wal_markers = 0;

  uint64_t redo_records() const { return wal_records - wal_markers; }
};

WriteOutcome RunWriteWorkload(bool replicated) {
  MachineConfig config;
  config.pes = 4;
  config.replicate_fragments = replicated;
  config.coordinator_pes = {0};
  PrismaDb db(config);
  auto must = [](auto&& r) {
    PRISMA_CHECK(r.ok()) << r.status().ToString();
    return std::forward<decltype(r)>(r).value();
  };
  must(db.Execute(StrFormat("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                            "HASH(id) INTO %d FRAGMENTS",
                            kFragments)));
  WriteOutcome out;
  const prisma::sim::SimTime begin = db.simulator().now();
  for (int i = 0; i < kWrites; ++i) {
    if (i % 2 == 0) {
      must(db.Execute(StrFormat("INSERT INTO t VALUES (%d, %d)", i, i)));
    } else {
      must(db.Execute(
          StrFormat("UPDATE t SET v = v + 1 WHERE id = %d", i - 1)));
    }
  }
  out.total_ms = static_cast<double>(db.simulator().now() - begin) / 1e6;
  out.wal_records = db.metrics().CounterTotal("ofm.wal_records");
  out.wal_markers = db.metrics().CounterTotal("ofm.wal_markers");
  return out;
}

double Fraction(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (smoke) {
    kRows = 100;
    kReads = 250;
    kWrites = 60;
  }
  std::printf("E13: availability through a single-PE crash%s\n",
              smoke ? " (smoke)" : "");
  const AvailabilityOutcome rep = RunAvailability(/*replicated=*/true);
  const AvailabilityOutcome single = RunAvailability(/*replicated=*/false);
  std::printf("stream of %d ops (3:1 point SELECT:UPDATE); PE %d down "
              "%lldms from the end of the load (replicated %lld-%lldms, "
              "single-copy %lld-%lldms); %d-row table, %d fragments\n\n",
              kReads, kCrashPe, static_cast<long long>(kDownNs / 1'000'000),
              static_cast<long long>(rep.crash_at_ns / 1'000'000),
              static_cast<long long>(rep.restart_at_ns / 1'000'000),
              static_cast<long long>(single.crash_at_ns / 1'000'000),
              static_cast<long long>(single.restart_at_ns / 1'000'000),
              kRows, kFragments);
  const WriteOutcome wrep = RunWriteWorkload(/*replicated=*/true);
  const WriteOutcome wsingle = RunWriteWorkload(/*replicated=*/false);

  std::printf("%-14s %10s %12s %14s %14s %12s\n", "placement", "answered",
              "in-window", "worst read ms", "steady read ms", "unavailable");
  std::printf("%-14s %6llu/%-3llu %8llu/%-3llu %14.1f %14.2f %12llu\n",
              "replicated",
              static_cast<unsigned long long>(rep.answered),
              static_cast<unsigned long long>(rep.reads),
              static_cast<unsigned long long>(rep.window_answered),
              static_cast<unsigned long long>(rep.window_reads),
              rep.worst_read_ms, rep.steady_read_ms,
              static_cast<unsigned long long>(rep.unavailable));
  std::printf("%-14s %6llu/%-3llu %8llu/%-3llu %14.1f %14.2f %12llu\n",
              "single-copy",
              static_cast<unsigned long long>(single.answered),
              static_cast<unsigned long long>(single.reads),
              static_cast<unsigned long long>(single.window_answered),
              static_cast<unsigned long long>(single.window_reads),
              single.worst_read_ms, single.steady_read_ms,
              static_cast<unsigned long long>(single.unavailable));
  std::printf("%-14s writes answered %llu/%llu, worst write %.1fms "
              "(the shedding write pays the\nfailover: the first retry that "
              "finds the host process dead sheds the replica)\n",
              "replicated",
              static_cast<unsigned long long>(rep.writes_answered),
              static_cast<unsigned long long>(rep.writes),
              rep.worst_write_ms);
  std::printf("\nresync after restart: %llu completed, %llu wire bits\n",
              static_cast<unsigned long long>(rep.resyncs_completed),
              static_cast<unsigned long long>(rep.resync_wire_bits));
  std::printf("steady-state writes:  %.1fms replicated vs %.1fms "
              "single-copy (%.2fx), WAL records %llu vs %llu\n",
              wrep.total_ms, wsingle.total_ms,
              wrep.total_ms / wsingle.total_ms,
              static_cast<unsigned long long>(wrep.wal_records),
              static_cast<unsigned long long>(wsingle.wal_records));

  // The §13 contract this bench enforces (and the smoke gates on):
  // replication answers every read through the window; the single copy
  // provably degrades (otherwise the window never exercised failover);
  // the resync actually moved bytes; writes land on both replicas.
  PRISMA_CHECK(rep.answered == rep.reads)
      << "replicated machine dropped reads: " << rep.answered << "/"
      << rep.reads;
  PRISMA_CHECK(rep.writes_answered == rep.writes)
      << "replicated machine dropped writes: " << rep.writes_answered
      << "/" << rep.writes;
  PRISMA_CHECK(rep.unavailable == 0);
  PRISMA_CHECK(rep.failovers > 0)
      << "crash window never forced a failover — widen the window";
  PRISMA_CHECK(single.unavailable > 0)
      << "single-copy machine degraded nowhere — the bench is vacuous";
  PRISMA_CHECK(rep.resyncs_completed > 0 && rep.resync_wire_bits > 0);
  // Every write is a point write: single-copy it commits in one phase at
  // its fragment (one C marker); replicated, both replicas prepare and
  // commit (P and C each).
  PRISMA_CHECK(wrep.redo_records() == 2 * wsingle.redo_records())
      << "replicated writes must WAL on both replicas";
  PRISMA_CHECK(wsingle.wal_markers == static_cast<uint64_t>(kWrites))
      << "single-copy writes must commit in one phase, got "
      << wsingle.wal_markers << " markers for " << kWrites;
  PRISMA_CHECK(wrep.wal_markers == 4 * static_cast<uint64_t>(kWrites))
      << "replicated writes must prepare and commit both replicas, got "
      << wrep.wal_markers << " markers for " << kWrites;
  // A replicated point write drains after two forces (the replicas'
  // prepares, then the C), a single-copy one after one: the replicas'
  // commit markers ride on their next writes (DESIGN.md §8.1). A third
  // force per write would put the ratio near 3.
  PRISMA_CHECK(wrep.total_ms / wsingle.total_ms < 2.5)
      << "replicated writes cost " << wrep.total_ms / wsingle.total_ms
      << "x single-copy ones: a force came back into the write path";

  const std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"replication\",\n"
      "  \"smoke\": %s,\n"
      "  \"availability\": {\n"
      "    \"reads\": %llu,\n"
      "    \"answered_fraction_replicated\": %.4f,\n"
      "    \"answered_fraction_single_copy\": %.4f,\n"
      "    \"window_answered_fraction_replicated\": %.4f,\n"
      "    \"window_answered_fraction_single_copy\": %.4f,\n"
      "    \"failover_latency_ms\": %.3f,\n"
      "    \"worst_read_ms\": %.3f,\n"
      "    \"steady_read_ms\": %.3f,\n"
      "    \"failovers\": %llu\n"
      "  },\n"
      "  \"resync\": {\n"
      "    \"completed\": %llu,\n"
      "    \"wire_bits\": %llu\n"
      "  },\n"
      "  \"write_overhead\": {\n"
      "    \"replicated_total_ms\": %.3f,\n"
      "    \"single_copy_total_ms\": %.3f,\n"
      "    \"latency_ratio\": %.4f,\n"
      "    \"wal_records_replicated\": %llu,\n"
      "    \"wal_records_single_copy\": %llu\n"
      "  }\n"
      "}\n",
      smoke ? "true" : "false",
      static_cast<unsigned long long>(rep.reads),
      Fraction(rep.answered, rep.reads),
      Fraction(single.answered, single.reads),
      Fraction(rep.window_answered, rep.window_reads),
      Fraction(single.window_answered, single.window_reads),
      rep.worst_write_ms, rep.worst_read_ms, rep.steady_read_ms,
      static_cast<unsigned long long>(rep.failovers),
      static_cast<unsigned long long>(rep.resyncs_completed),
      static_cast<unsigned long long>(rep.resync_wire_bits),
      wrep.total_ms, wsingle.total_ms, wrep.total_ms / wsingle.total_ms,
      static_cast<unsigned long long>(wrep.wal_records),
      static_cast<unsigned long long>(wsingle.wal_records));
  const char* path = "BENCH_replication.json";
  std::FILE* f = std::fopen(path, "w");
  PRISMA_CHECK(f != nullptr) << "cannot write " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
