#ifndef PRISMA_TOOLS_PRISMA_LINT_LINT_H_
#define PRISMA_TOOLS_PRISMA_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

// prisma-lint: the project's invariant checker (see DESIGN.md "Invariants").
//
// The analyzer is deliberately freestanding (standard library only, no
// dependency on the prisma libraries) so it builds in seconds, cannot be
// broken by the code it checks, and can be reused by tests/lint_test.cc
// against a fixture corpus.
//
// Enforced rules:
//   D0  annotation hygiene: unknown "prisma-lint:" tags, unknown PRISMA_*
//       protocol markers and reason-less annotations are themselves
//       findings (a typo'd silence must not silently do nothing).
//   D1  no nondeterminism sources outside src/sim (wall clocks, rand,
//       random_device, threads, mutexes, pointer-keyed ordered containers).
//   D2  no iteration over unordered containers in files that (transitively)
//       touch the message/metrics/trace surface, unless the site carries a
//       "// prisma-lint: ordered" annotation.
//   D3  no pointers/references to another POOL-X process class outside that
//       class's own translation unit — cross-process state moves by Message.
//   D4  a "(void)" discard of a result must carry a trailing reason comment.
//   D5  mail-handler totality: every kMail* wire constant is consumed by
//       exactly the files that declare it via "// PRISMA_HANDLES(kinds)",
//       each dispatch chain is exhaustive over its declared set, and no
//       kind is left unclaimed tree-wide.
//   D6  RPC lifecycle: every registration into a PendingRpc container has a
//       declared "// PRISMA_SETTLES(map: success=Fn, exhaustion=Fn,
//       shed=Fn)" triad whose functions exist and visibly settle.
//   D7  state-machine conformance: lifecycle enums with a
//       "// PRISMA_STATE_MACHINE(Enum: from->to, ...)" table require a
//       "// PRISMA_TRANSITION(from, to, reason)" at every assignment site;
//       undeclared transitions AND unreachable declared transitions fail.
//   D8  metric-name registry: every literal GetCounter/LazyCounter name and
//       tracer span category/name must appear in obs/metric_names.h, and
//       every registry entry must be used.
//   D9  one wire format: no WireBits() in gdh/messages.h calls ByteSize()
//       — a row set's modelled size is its column frame's byte length,
//       down to a single row.
//   D10 one receiver: exec::InboundChannel is named only in
//       exec/exchange.{h,cc} and gdh/transport.{h,cc} — every batch
//       stream is received through gdh::StreamReceiver — and no gdh/*.h
//       declares a second StreamReceiver or StreamSender member.
//   D12 one copy of the machine's settings: no `struct Config` under gdh/
//       declares a CostModel, RetransmitPolicy, OptimizerRules,
//       TcAlgorithm, MetricsRegistry*, Tracer*, PlanCache* or
//       PeLocalRegistry* member — it carries one gdh::MachineParams.
//       (D11 is reserved.)
//
// D5–D12 are structural rules implemented in protocol.cc over
// the extraction layer in structure.h; the annotation grammar is specified
// in DESIGN.md §9.
//
// Annotation grammar (silences one finding on the same or the next line):
//   // prisma-lint: <tag> - <reason>
// with <tag> one of: nondet (D1), ordered (D2), cross-process (D3),
// unused-status (D4). The reason is free text and is required (D0).

namespace prisma::lint {

/// One source file handed to the analyzer. `path` is relative to the scan
/// root and uses '/' separators (it is what diagnostics and include
/// resolution are keyed on).
struct SourceFile {
  std::string path;
  std::string content;
};

struct Diagnostic {
  std::string path;
  int line = 0;  // 1-based.
  std::string rule;  // "D0".."D12".
  std::string message;
  std::string snippet;  // Trimmed source line the finding points at.

  /// Set when an allowlist entry matched.
  bool allowlisted = false;
  std::string justification;

  /// "path:line: [rule] message".
  std::string Format() const;
};

/// One entry of the checked-in allowlist. Matching is content-based (rule +
/// path suffix + a substring of the flagged line) rather than line-number
/// based, so entries survive unrelated edits.
struct AllowlistEntry {
  std::string rule;
  std::string path_suffix;
  std::string needle;
  std::string justification;
  int source_line = 0;  // Line in the allowlist file (for error messages).
};

/// Parses the "rule | path-suffix | needle | justification" format.
/// Malformed lines (fewer than four fields, empty justification) are
/// reported in `errors` and skipped. '#' starts a comment.
std::vector<AllowlistEntry> ParseAllowlist(const std::string& content,
                                           std::vector<std::string>* errors);

/// Runs every rule over the file set (cross-file state — include closure,
/// process-class registry — is built internally). Diagnostics are sorted by
/// (path, line, rule).
std::vector<Diagnostic> AnalyzeSources(const std::vector<SourceFile>& files);

struct LintReport {
  std::vector<Diagnostic> diagnostics;  // Allowlisted ones included.
  /// Indexes into the allowlist of entries that matched nothing: a stale
  /// entry is itself a finding (the allowlist must shrink, not rot).
  std::vector<AllowlistEntry> unused_allowlist;
  size_t violations = 0;  // Diagnostics not covered by the allowlist.

  bool clean() const { return violations == 0 && unused_allowlist.empty(); }
};

/// Applies the allowlist to raw diagnostics and computes the verdict.
LintReport ApplyAllowlist(std::vector<Diagnostic> diagnostics,
                          const std::vector<AllowlistEntry>& allowlist);

/// Machine-readable report (uploaded as a CI artifact so diagnostics diff
/// cleanly PR-over-PR). Stable key order; diagnostics in their sorted
/// (path, line, rule) order.
std::string ReportToJson(const LintReport& report, size_t file_count);

/// Loads every *.h / *.cc / *.cpp under `root` (sorted, so diagnostics are
/// stable) and returns them with root-relative paths. Returns false when
/// `root` is not a directory.
bool LoadTree(const std::string& root, std::vector<SourceFile>* files,
              std::string* error);

}  // namespace prisma::lint

#endif  // PRISMA_TOOLS_PRISMA_LINT_LINT_H_
