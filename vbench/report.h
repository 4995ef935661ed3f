#ifndef PRISMA_VBENCH_REPORT_H_
#define PRISMA_VBENCH_REPORT_H_

// Turns RunResults into the benchmark's named metrics: the end-to-end set
// (virtual clock, untraced run) and the per-layer set (machine counters,
// the traced run's spans, host timings), and prints them.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workloads.h"

namespace prisma::vbench {

/// The end-to-end metrics, all read on the virtual clock except
/// host_heap_mb. Same names for every workload; metrics that only some
/// workloads can have (per-kind medians, fail_frac) are per-layer.
std::vector<Metric> EndToEnd(const RunResult& run);

/// Per-layer figures of a traced run, accumulated chunk by chunk from
/// Tracer::DumpJson output (see RunOptions::trace_sink).
class TraceSummary {
 public:
  /// Adds one chunk; returns its event count, or -1 if it is malformed.
  int64_t Add(const std::string& json);

  int64_t events() const { return events_; }
  /// Handler self time summed by process group ("gdh", "coordinator",
  /// "ofm", "exchange_olap", "fixpoint", "client", "other"). Handler
  /// spans carry the process id, not its name, so each process is
  /// grouped by the mail kinds it handled; the GDH by its id.
  std::map<std::string, int64_t> GroupNs(int64_t gdh_pid) const;
  int64_t net_ns() const { return net_ns_; }
  int64_t twopc_ns() const { return twopc_ns_; }
  /// Self time of the statements' "stmt" spans: arrival to reply minus
  /// the enclosed "db" span, i.e. the wait before PrismaDb saw them.
  int64_t admission_ns() const { return admission_ns_; }
  int64_t statements() const { return statements_; }

 private:
  struct Process {
    std::set<std::string> kinds;
    int64_t ns = 0;
  };
  std::map<int64_t, Process> processes_;
  int64_t events_ = 0;
  int64_t net_ns_ = 0;
  int64_t twopc_ns_ = 0;
  int64_t admission_ns_ = 0;
  int64_t statements_ = 0;
};

/// The per-layer metrics. `run` is the untraced run, `traced` the traced
/// rerun of the same workload and seed, `trace` its spans.
std::vector<Metric> PerLayer(const RunResult& run, const RunResult& traced,
                             const TraceSummary& trace);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Shortest decimal that reads back as `value`.
std::string FormatNumber(double value);

}  // namespace prisma::vbench

#endif  // PRISMA_VBENCH_REPORT_H_
