#ifndef PRISMA_OBS_QUERY_PROFILE_H_
#define PRISMA_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace prisma::obs {

/// Per-operator execution profile of one plan (sub)tree, filled by the
/// executor when profiling is on and attached to EXPLAIN ANALYZE results.
///
/// total_ns is inclusive of children (the virtual CPU charged while the
/// operator and everything below it ran); renderers derive self time as
/// total_ns minus the children's totals.
struct OperatorProfile {
  std::string op;  // "Scan(emp#3)", "Join", ...
  uint64_t rows = 0;
  uint64_t bytes = 0;  // Byte size of the operator's output tuples.
  uint64_t batches = 0;  // ColumnBatches produced.
  sim::SimTime total_ns = 0;
  uint64_t invocations = 1;  // > 1 after merging fragment profiles.
  std::vector<OperatorProfile> children;
};

/// Sums `from` into `into` node by node. The trees must have the same
/// shape (fragment-local plans of one part are structurally identical);
/// mismatched shapes merge the common prefix and keep `into`'s labels.
void MergeProfile(OperatorProfile* into, const OperatorProfile& from);

/// Renders the tree as indented text lines:
///   Join rows=12 bytes=480 total=1.234ms self=0.200ms x4
void RenderProfile(const OperatorProfile& profile, int indent,
                   std::vector<std::string>* lines);

/// Formats virtual ns compactly and deterministically (integer math):
/// "875ns", "12.345us", "3.210ms", "1.500s".
std::string FormatNs(sim::SimTime ns);

}  // namespace prisma::obs

#endif  // PRISMA_OBS_QUERY_PROFILE_H_
