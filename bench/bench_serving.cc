// E15 — Serving layer: open-loop sessions through admission control and
// the shared plan cache (DESIGN.md §15).
//
// Harness: a seeded open-loop workload (serve::WorkloadGenerator) drives
// thousands of simulated client sessions against one machine through the
// serving dispatcher. Three axes are measured:
//
//   1. Load sweep — offered rate vs achieved throughput and the exact
//      p50/p99/p999 latency, locating the saturation knee. ≥3 points,
//      starting below the knee so the unloaded regime is reported too.
//      Throughput counts completions up to the last one, not the lazy
//      work (commit markers) the machine drains after it.
//   2. Overload — offered 2x the measured saturation throughput: every
//      statement must resolve (answer, typed Unavailable or typed
//      Overloaded — never a hang), and the same seed must replay to
//      byte-identical metrics.
//   3. Plan cache — the identical read-only workload with the cache on
//      vs off: the cached run must show hits, a strictly lower p50 and
//      byte-identical answers. Its p99 must stay below one disk access:
//      no point read waits behind a transaction-id reservation force.
//
// Every point runs on a fault-free machine, so no RPC may be retried and
// no exchange batch retransmitted.
//
// Emits BENCH_serving.json — the latency/saturation trajectory plus the
// cache contrast — so serving regressions are visible PR-over-PR.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"
#include "storage/stable_store.h"

using prisma::StrFormat;
using prisma::Tuple;
using prisma::core::MachineConfig;
using prisma::core::PrismaDb;
using prisma::serve::Dispatcher;
using prisma::serve::DispatcherOptions;
using prisma::serve::WorkloadGenerator;
using prisma::serve::WorkloadProfile;

namespace {

// Scale (smoke shrinks these).
int kRows = 2000;
int kFragments = 8;
int kPes = 8;
int kSessions = 400;
prisma::sim::SimTime kDurationNs = prisma::sim::kNanosPerSecond / 2;
uint64_t kSeed = 42;

struct PointResult {
  double offered_qps = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t unavailable = 0;
  uint64_t failed = 0;
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
  double throughput_qps = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Concatenated replies in submission order (read-only runs only).
  std::string digest;
  /// Metrics dump for same-seed replay comparison.
  std::string metrics;
};

/// Runs one load point end to end on a fresh machine.
PointResult RunPoint(uint64_t seed, double offered_qps, size_t cache_capacity,
                     bool read_only, bool collect_digest,
                     bool collect_metrics) {
  MachineConfig config;
  config.pes = kPes;
  config.plan_cache_capacity = cache_capacity;
  PrismaDb db(config);
  PRISMA_CHECK(WorkloadGenerator::SetupSchema(&db, kRows, kFragments).ok());

  WorkloadProfile profile;
  profile.sessions = kSessions;
  profile.offered_qps = offered_qps;
  profile.duration_ns = kDurationNs;
  if (read_only) {
    // Pure parameterized point reads: answers are interleaving-independent
    // (no writes), the per-statement cost is far below saturation at the
    // cache load point, and the small key domain re-parameterizes the same
    // normalized statement often — the plan cache's target traffic.
    profile.mix = {1.0, 0, 0, 0};
    profile.key_domain = 128;
  }
  WorkloadGenerator generator(seed, profile);
  const std::vector<prisma::serve::ArrivalEvent> schedule =
      generator.Generate();

  Dispatcher dispatcher(&db, DispatcherOptions());
  PointResult out;
  out.offered_qps = offered_qps;
  const prisma::sim::SimTime start_ns = db.simulator().now();
  prisma::sim::SimTime last_completion_ns = start_ns;
  std::vector<std::string> replies(collect_digest ? schedule.size() : 0);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const prisma::serve::ArrivalEvent& event = schedule[i];
    dispatcher.Submit(
        event.sql, prisma::exec::kAutoCommit,
        [i, collect_digest, &replies, &db, &last_completion_ns](
            const prisma::gdh::ClientReply& reply, prisma::sim::SimTime) {
          if (reply.status.code() != prisma::StatusCode::kOverloaded) {
            last_completion_ns = db.simulator().now();
          }
          if (!collect_digest) return;
          std::string& line = replies[i];
          line = reply.status.ok() ? "ok" : reply.status.ToString();
          if (reply.tuples != nullptr) {
            for (const Tuple& t : *reply.tuples) {
              line += ' ';
              line += t.ToString();
            }
          }
        },
        event.at_ns);
  }
  dispatcher.Run();

  const Dispatcher::Stats& stats = dispatcher.stats();
  // The zero-hang contract: every submitted statement resolved.
  PRISMA_CHECK(stats.submitted == stats.completed + stats.shed)
      << "hang: " << stats.submitted << " submitted, " << stats.completed
      << " completed, " << stats.shed << " shed";
  // Fault-free machine: nothing may fail outright (a broken workload
  // statement shape would otherwise hide inside the failed count).
  PRISMA_CHECK(stats.failed == 0 && stats.unavailable == 0)
      << stats.failed << " failed, " << stats.unavailable << " unavailable";
  // ...and nothing is repaired: a retransmission here is a timer that
  // outlived its message (or a dropped batch), not a fault.
  const uint64_t rpc_retries = db.metrics().CounterTotal("gdh.rpc_retries");
  const uint64_t retransmits =
      db.metrics().CounterTotal("exchange.retransmits");
  PRISMA_CHECK(rpc_retries == 0 && retransmits == 0)
      << rpc_retries << " gdh.rpc_retries, " << retransmits
      << " exchange.retransmits on a fault-free machine";
  out.submitted = stats.submitted;
  out.completed = stats.completed;
  out.shed = stats.shed;
  out.unavailable = stats.unavailable;
  out.failed = stats.failed;
  out.p50 = dispatcher.latency().P50();
  out.p99 = dispatcher.latency().P99();
  out.p999 = dispatcher.latency().P999();
  const prisma::sim::SimTime makespan_ns = last_completion_ns - start_ns;
  out.throughput_qps =
      makespan_ns > 0 ? static_cast<double>(stats.completed) *
                            prisma::sim::kNanosPerSecond / makespan_ns
                      : 0;
  out.cache_hits = db.plan_cache().hits();
  out.cache_misses = db.plan_cache().misses();
  for (const std::string& line : replies) {
    out.digest += line;
    out.digest += '\n';
  }
  if (collect_metrics) out.metrics = db.DumpMetrics();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = prisma::bench::SmokeMode(argc, argv);
  if (smoke) {
    kRows = 400;
    kFragments = 4;
    kPes = 4;
    kSessions = 60;
    kDurationNs = prisma::sim::kNanosPerSecond / 5;
  }

  // ------------------------------------------------------------ Load sweep
  std::vector<double> loads =
      smoke ? std::vector<double>{500, 2000, 8000}
            : std::vector<double>{50, 100, 200, 400, 1600, 6400, 25600};
  std::printf("== load sweep: %d sessions, %d rows, %d fragments, %d PEs\n",
              kSessions, kRows, kFragments, kPes);
  std::printf("%10s %10s %10s %8s %10s %10s %10s\n", "offered", "tput",
              "completed", "shed", "p50_us", "p99_us", "p999_us");
  std::vector<PointResult> sweep;
  double saturation_qps = 0;
  for (double qps : loads) {
    PointResult r = RunPoint(kSeed, qps, /*cache_capacity=*/256,
                             /*read_only=*/false, /*collect_digest=*/false,
                             /*collect_metrics=*/false);
    std::printf("%10.0f %10.0f %10llu %8llu %10.1f %10.1f %10.1f\n",
                r.offered_qps, r.throughput_qps,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.shed), r.p50 / 1e3,
                r.p99 / 1e3, r.p999 / 1e3);
    saturation_qps = std::max(saturation_qps, r.throughput_qps);
    sweep.push_back(std::move(r));
  }
  std::printf("saturation throughput: %.0f qps\n", saturation_qps);

  // ------------------------------------------- Overload at 2x saturation
  // Same seed twice: zero hangs (checked inside RunPoint) and a
  // byte-identical replay, metrics included.
  const double overload_qps = 2 * saturation_qps;
  PointResult over_a = RunPoint(kSeed, overload_qps, 256, false, false,
                                /*collect_metrics=*/true);
  PointResult over_b = RunPoint(kSeed, overload_qps, 256, false, false,
                                /*collect_metrics=*/true);
  PRISMA_CHECK(over_a.metrics == over_b.metrics)
      << "same-seed overload replay diverged";
  PRISMA_CHECK(over_a.completed == over_b.completed &&
               over_a.shed == over_b.shed && over_a.p999 == over_b.p999);
  std::printf(
      "\n== overload at 2x saturation (%.0f qps): %llu completed, "
      "%llu shed, %llu unavailable, p99 %.1f us — deterministic replay ok\n",
      overload_qps, static_cast<unsigned long long>(over_a.completed),
      static_cast<unsigned long long>(over_a.shed),
      static_cast<unsigned long long>(over_a.unavailable), over_a.p99 / 1e3);

  // ------------------------------------------------- Plan-cache contrast
  // Read-only mix so answers are interleaving-independent; a load point
  // well under saturation so nothing is shed and the digests line up
  // statement for statement.
  const double cache_qps = smoke ? 500 : 1600;
  PointResult cache_on = RunPoint(kSeed, cache_qps, 256, /*read_only=*/true,
                                  /*collect_digest=*/true, false);
  PointResult cache_off = RunPoint(kSeed, cache_qps, 0, /*read_only=*/true,
                                   /*collect_digest=*/true, false);
  PRISMA_CHECK(cache_on.shed == 0 && cache_off.shed == 0)
      << "cache contrast must run below saturation (shed " << cache_on.shed
      << " on, " << cache_off.shed << " off)";
  PRISMA_CHECK(cache_on.cache_hits > 0) << "plan cache never hit";
  PRISMA_CHECK(cache_off.cache_hits == 0);
  PRISMA_CHECK(cache_on.digest == cache_off.digest)
      << "cached answers differ from uncached answers";
  PRISMA_CHECK(cache_on.p50 < cache_off.p50)
      << "plan cache did not lower p50: " << cache_on.p50
      << " !< " << cache_off.p50;
  // Transaction ids are reserved ahead of need, off the GDH's CPU: a read
  // never stalls behind a gdh.txnids force.
  const prisma::sim::SimTime disk_access_ns =
      prisma::storage::DiskModel().access_ns;
  PRISMA_CHECK(cache_on.p99 < disk_access_ns && cache_off.p99 < disk_access_ns)
      << "point-read p99 " << cache_on.p99 << " ns (cache on) / "
      << cache_off.p99 << " ns (off) reaches a disk access ("
      << disk_access_ns << " ns): reads wait behind id forces";
  const double hit_rate =
      static_cast<double>(cache_on.cache_hits) /
      static_cast<double>(cache_on.cache_hits + cache_on.cache_misses);
  std::printf(
      "\n== plan cache at %.0f qps: hit rate %.3f, p50 %.1f us (on) vs "
      "%.1f us (off), p99 %.1f vs %.1f — answers byte-identical\n",
      cache_qps, hit_rate, cache_on.p50 / 1e3, cache_off.p50 / 1e3,
      cache_on.p99 / 1e3, cache_off.p99 / 1e3);

  std::printf("cache-on: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(cache_on.cache_hits),
              static_cast<unsigned long long>(cache_on.cache_misses));

  // JSON trajectory artifact.
  std::string json = StrFormat(
      "{\n  \"bench\": \"serving\",\n  \"smoke\": %s,\n"
      "  \"scale\": {\"rows\": %d, \"fragments\": %d, \"pes\": %d, "
      "\"sessions\": %d},\n"
      "  \"saturation_qps\": %.0f,\n  \"sweep\": [\n",
      smoke ? "true" : "false", kRows, kFragments, kPes, kSessions,
      saturation_qps);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& r = sweep[i];
    json += StrFormat(
        "    {\"offered_qps\": %.0f, \"throughput_qps\": %.0f, "
        "\"completed\": %llu, \"shed\": %llu, \"unavailable\": %llu, "
        "\"p50_ns\": %lld, \"p99_ns\": %lld, \"p999_ns\": %lld}%s\n",
        r.offered_qps, r.throughput_qps,
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.unavailable),
        static_cast<long long>(r.p50), static_cast<long long>(r.p99),
        static_cast<long long>(r.p999), i + 1 < sweep.size() ? "," : "");
  }
  json += StrFormat(
      "  ],\n  \"overload\": {\"offered_qps\": %.0f, \"completed\": %llu, "
      "\"shed\": %llu, \"unavailable\": %llu, \"p99_ns\": %lld},\n",
      overload_qps, static_cast<unsigned long long>(over_a.completed),
      static_cast<unsigned long long>(over_a.shed),
      static_cast<unsigned long long>(over_a.unavailable),
      static_cast<long long>(over_a.p99));
  json += StrFormat(
      "  \"plan_cache\": {\"hit_rate\": %.4f, \"p50_on_ns\": %lld, "
      "\"p50_off_ns\": %lld, \"p99_on_ns\": %lld, \"p99_off_ns\": %lld}\n}\n",
      hit_rate, static_cast<long long>(cache_on.p50),
      static_cast<long long>(cache_off.p50),
      static_cast<long long>(cache_on.p99),
      static_cast<long long>(cache_off.p99));
  const char* path = "BENCH_serving.json";
  std::FILE* f = std::fopen(path, "w");
  PRISMA_CHECK(f != nullptr) << "cannot write " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return 0;
}
