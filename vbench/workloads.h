#ifndef PRISMA_VBENCH_WORKLOADS_H_
#define PRISMA_VBENCH_WORKLOADS_H_

// The benchmark's three workloads (README.md in this directory): each
// builds an 8-PE machine, loads it, drives it through the public entry
// points, checks every answer and returns what happened, statement by
// statement, plus the machine counters read after the run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prisma::vbench {

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Shortest measured window, in virtual seconds (the workloads run
  /// longer when they need it for their sample counts).
  int seconds = 10;
  /// Record a Chrome trace of the run (after set-up). The tracer's
  /// contents go to `trace_sink` as Tracer::DumpJson chunks, one per
  /// 100,000 events and one at the end; the tracer is cleared after
  /// each, so the sink sees every event exactly once.
  bool traced = false;
  std::function<void(const std::string&)> trace_sink;
};

/// One named figure with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One statement's life on the virtual clock (absolute ns).
struct StmtRecord {
  std::string kind;
  /// Query name (analytic_suite) or the kind again (serving workloads).
  std::string label;
  int session = 0;
  int64_t arrival_ns = 0;  ///< When it was due (open loop) or sent.
  int64_t submit_ns = 0;   ///< Handed to PrismaDb (after admission).
  int64_t reply_ns = 0;
  bool measured = false;  ///< Arrived after the warm-up.
  bool ok = false;
  bool shed = false;
  bool unavailable = false;
  uint64_t rows = 0;  ///< Tuples in the reply.
};

struct RunResult {
  std::vector<StmtRecord> stmts;
  /// Virtual and host seconds of each set-up repetition.
  std::vector<double> setup_virtual_s;
  std::vector<double> setup_host_s;
  double run_host_s = 0;
  /// Measurement window on the virtual clock: from the end of the
  /// warm-up to the last reply of a measured statement.
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  size_t pe_mem_high_water_bytes = 0;
  size_t host_heap_bytes = 0;
  uint64_t sim_events = 0;
  /// Per-layer figures read from the machine after the run.
  std::vector<Metric> layer;
  /// Generated statement texts (for timing the SQL front end).
  std::vector<std::string> sql_texts;
  /// Process id of the GDH (names its handler spans in the trace).
  int64_t gdh_pid = -1;
  /// Failed output checks and invariants; empty when all hold.
  std::vector<std::string> errors;
};

RunResult RunWorkload(const RunOptions& options);

/// Host steady-clock seconds (informational timings only).
double HostSeconds();

}  // namespace prisma::vbench

#endif  // PRISMA_VBENCH_WORKLOADS_H_
