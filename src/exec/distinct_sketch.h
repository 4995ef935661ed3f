#ifndef PRISMA_EXEC_DISTINCT_SKETCH_H_
#define PRISMA_EXEC_DISTINCT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace prisma::exec {

/// Distinct-value estimate of one column of a fragment (DESIGN.md §14.2):
/// a K-minimum-values sketch holding the kSketchValues smallest 64-bit
/// Value::Hash()es seen. Below kSketchValues distinct hashes it is exact;
/// above, it estimates (k - 1) / (k-th smallest hash as a fraction of the
/// hash space). Deterministic: the same values give the same estimate in
/// any insertion order. Values only enter, so after deletes it
/// over-estimates until rebuilt from the relation.
class DistinctSketch {
 public:
  /// k of the sketch: the relative error of a full sketch is about
  /// 1 / sqrt(k - 2), 13% here, and a group-by picks its path on far
  /// coarser differences.
  static constexpr size_t kSketchValues = 64;

  void Add(const Value& value);

  uint64_t Estimate() const;
  void Clear() { hashes_.clear(); }

 private:
  std::vector<uint64_t> hashes_;  // Ascending, at most kSketchValues.
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_DISTINCT_SKETCH_H_
