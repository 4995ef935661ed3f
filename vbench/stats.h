#ifndef PRISMA_VBENCH_STATS_H_
#define PRISMA_VBENCH_STATS_H_

// Statistics of the repository benchmark: nearest-rank quantiles over
// virtual-time samples, quartiles of repeated host timings, span self
// time, and per-statement-kind bucketing. Header-only so the unit test
// (stats_test.cc) needs no machine.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace prisma::vbench {

/// Nearest-rank quantile: the smallest sample v such that at least
/// ceil(q * n) samples are <= v. Exact (never interpolated), so a virtual
/// latency distribution yields the same figure on every host. 0 if empty.
inline int64_t NearestRank(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

/// Median and quartiles of repeated host measurements, with Python's
/// statistics.quantiles(values, n=4) "exclusive" method, so figures match
/// what a reader recomputes from the printed samples.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // Exclusive method: position j = i * (n + 1) / 4, 1-based, linearly
  // interpolated and clamped to the sample range.
  auto at = [&](int i) {
    const double pos = static_cast<double>(i) * static_cast<double>(n + 1) / 4;
    const double j = std::floor(pos);
    const double frac = pos - j;
    const auto lo = static_cast<size_t>(std::clamp(j, 1.0, double(n)));
    const auto hi = static_cast<size_t>(std::clamp(j + 1, 1.0, double(n)));
    return values[lo - 1] + (values[hi - 1] - values[lo - 1]) * frac;
  };
  out.q1 = at(1);
  out.median = at(2);
  out.q3 = at(3);
  return out;
}

/// One recorded span. `parent` indexes the enclosing span in the same
/// vector, or is -1 for a root.
struct SpanRec {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// sticking out of its parent counts only inside it).
inline std::vector<int64_t> SelfTimes(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent < 0) continue;
    const SpanRec& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Statement kinds the benchmark reports a median for, in report order.
inline const std::vector<std::string>& StatementKinds() {
  static const std::vector<std::string> kinds = {
      "point_read", "point_write", "group_by",
      "join_group_by", "sort", "recursive"};
  return kinds;
}

/// Latency samples bucketed by statement kind.
class KindBuckets {
 public:
  void Add(const std::string& kind, int64_t latency_ns) {
    buckets_[kind].push_back(latency_ns);
  }
  /// Nearest-rank median of one kind; 0 when the kind never ran.
  int64_t P50(const std::string& kind) const {
    auto it = buckets_.find(kind);
    return it == buckets_.end() ? 0 : NearestRank(it->second, 0.5);
  }
  size_t Count(const std::string& kind) const {
    auto it = buckets_.find(kind);
    return it == buckets_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<int64_t>> buckets_;
};

}  // namespace prisma::vbench

#endif  // PRISMA_VBENCH_STATS_H_
