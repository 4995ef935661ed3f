#include "exec/distinct_sketch.h"

#include <algorithm>
#include <cmath>

namespace prisma::exec {

void DistinctSketch::Add(const Value& value) {
  const uint64_t hash = value.Hash();
  if (hashes_.size() == kSketchValues && hash >= hashes_.back()) return;
  auto at = std::lower_bound(hashes_.begin(), hashes_.end(), hash);
  if (at != hashes_.end() && *at == hash) return;
  hashes_.insert(at, hash);
  if (hashes_.size() > kSketchValues) hashes_.pop_back();
}

uint64_t DistinctSketch::Estimate() const {
  if (hashes_.size() < kSketchValues) return hashes_.size();
  // The k-th smallest of n uniform hashes sits near k / n of the space.
  const double kth = std::ldexp(static_cast<double>(hashes_.back()) + 1.0, -64);
  return std::max<uint64_t>(
      kSketchValues,
      static_cast<uint64_t>(
          std::llround(static_cast<double>(kSketchValues - 1) / kth)));
}

}  // namespace prisma::exec
