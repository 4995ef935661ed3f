// Repository benchmark of the simulated PRISMA machine (README.md here).
//
//   vbench --workload <serve_mix|point_lookup|analytic_suite> --seed <n>
//          --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a table of every metric by name and unit, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, read on the virtual
// clock of an untraced run. With --trace 1 the same run is repeated with
// tracing on, its virtual end-to-end figures must equal the untraced
// ones exactly, its Chrome trace is written under --out, and the metrics
// are the per-layer set. Exits non-zero on any failed output check or
// invariant.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace {

using prisma::vbench::Metric;

/// Events kept in the Chrome trace file (the per-layer figures use all):
/// enough for several seconds of every workload, small enough to open.
constexpr int64_t kTraceFileEvents = 300'000;

int Usage(const char* message) {
  std::fprintf(stderr,
               "vbench: %s\nusage: vbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               message);
  return 2;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("-- %s --\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16s %s\n", m.name.c_str(),
                prisma::vbench::FormatNumber(m.value).c_str(), m.unit.c_str());
  }
}

/// Per-statement table for readers: count, median and p99 by label.
void PrintStatements(const prisma::vbench::RunResult& run) {
  std::map<std::string, std::vector<int64_t>> by_label;
  for (const auto& s : run.stmts) {
    if (!s.measured || !s.ok) continue;
    by_label[s.label].push_back(s.reply_ns - s.arrival_ns);
  }
  std::printf("-- statements (measured, answered; virtual ms) --\n");
  for (const auto& [label, ns] : by_label) {
    std::printf("  %-16s n=%-7zu p50 %10.3f  p99 %10.3f\n", label.c_str(),
                ns.size(), prisma::vbench::NearestRank(ns, 0.5) / 1e6,
                prisma::vbench::NearestRank(ns, 0.99) / 1e6);
  }
}

bool Report(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "vbench: check failed: %s\n", e.c_str());
  }
  return errors.empty();
}

}  // namespace

int main(int argc, char** argv) {
  prisma::vbench::RunOptions options;
  int trace = -1;
  std::string out_dir = ".bench_out";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  bool known = false;
  for (const std::string& name : prisma::vbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown --workload");
  if (!have_seed || options.seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage("--seed, --seconds >= 1 and --trace 0|1 are required");
  }

  std::printf("vbench %s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace);
  const prisma::vbench::RunResult run = prisma::vbench::RunWorkload(options);
  bool correct = Report(run.errors);
  const std::vector<Metric> e2e = prisma::vbench::EndToEnd(run);
  uint64_t failed = 0;
  for (const auto& s : run.stmts) failed += s.ok ? 0 : 1;
  PrintStatements(run);
  PrintTable("end to end (virtual clock, untraced)", e2e);

  std::vector<Metric> printed = e2e;
  if (trace == 1 && correct) {
    // The traced rerun streams its spans into the summary and into a
    // Chrome trace file, which keeps only the first kTraceFileEvents.
    const std::string path =
        out_dir + "/vbench_" + options.workload + ".trace.json";
    std::error_code ignored;
    std::filesystem::create_directories(out_dir, ignored);
    std::ofstream file(path, std::ios::binary);
    file << "{\"traceEvents\":[";
    prisma::vbench::TraceSummary summary;
    int64_t written = 0;
    bool parsed = true;
    options.traced = true;
    options.trace_sink = [&](const std::string& chunk) {
      const int64_t events = summary.Add(chunk);
      parsed = parsed && events >= 0;
      if (events <= 0 || written >= kTraceFileEvents) return;
      // Splice the chunk's event list into the file's.
      const size_t open = chunk.find('[');
      const size_t close = chunk.rfind(']');
      if (written > 0) file << ',';
      file.write(chunk.data() + open + 1,
                 static_cast<std::streamsize>(close - open - 1));
      written += events;
    };
    const prisma::vbench::RunResult traced =
        prisma::vbench::RunWorkload(options);
    file << "]}";
    correct = Report(traced.errors) && correct;
    if (!parsed) correct = Report({"trace does not parse"}) && correct;
    if (!file.good()) correct = Report({"cannot write " + path}) && correct;
    // Tracing only observes: every virtual figure must repeat exactly.
    const std::vector<Metric> e2e_traced = prisma::vbench::EndToEnd(traced);
    for (size_t i = 0; i < e2e.size(); ++i) {
      if (e2e[i].name == "host_heap_mb") continue;
      if (e2e[i].value != e2e_traced[i].value) {
        correct = false;
        Report({"traced run changed " + e2e[i].name + " from " +
                prisma::vbench::FormatNumber(e2e[i].value) + " to " +
                prisma::vbench::FormatNumber(e2e_traced[i].value)});
      }
    }
    std::printf("chrome trace: %s (%lld of %lld events)\n", path.c_str(),
                static_cast<long long>(written),
                static_cast<long long>(summary.events()));
    printed = prisma::vbench::PerLayer(run, traced, summary);
    PrintTable("per layer (traced rerun)", printed);
  }
  if (!correct) return 1;
  std::printf("%s\n", prisma::vbench::ResultJson(correct, run.stmts.size(),
                                                 failed, printed)
                          .c_str());
  return 0;
}
