// Unit tests of the benchmark's statistics (stats.h): nearest-rank
// quantiles on known distributions, quartiles, span self time and
// per-kind bucketing. Exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                   \
  do {                                                                    \
    const auto va = (a);                                                  \
    const auto vb = (b);                                                  \
    if (!(va == vb)) {                                                    \
      std::fprintf(stderr, "%s:%d: %s != %s\n", __FILE__, __LINE__, #a,   \
                   #b);                                                   \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

using prisma::vbench::KindBuckets;
using prisma::vbench::NearestRank;
using prisma::vbench::QuartilesOf;
using prisma::vbench::SelfTimes;
using prisma::vbench::SpanRec;

void TestNearestRank() {
  // 1..100: p50 is the 50th value, p99 the 99th, p100 the max.
  std::vector<int64_t> uniform;
  for (int i = 100; i >= 1; --i) uniform.push_back(i);  // Unsorted input.
  EXPECT_EQ(NearestRank(uniform, 0.50), 50);
  EXPECT_EQ(NearestRank(uniform, 0.99), 99);
  EXPECT_EQ(NearestRank(uniform, 1.0), 100);
  EXPECT_EQ(NearestRank(uniform, 0.0), 1);
  // 1..1000: ten samples lie beyond p99.
  std::vector<int64_t> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(NearestRank(thousand, 0.99), 990);
  // Bimodal: 98 fast, 2 slow — p99 lands in the slow mode, p50 fast.
  std::vector<int64_t> bimodal(98, 1);
  bimodal.push_back(25);
  bimodal.push_back(27);
  EXPECT_EQ(NearestRank(bimodal, 0.50), 1);
  EXPECT_EQ(NearestRank(bimodal, 0.99), 25);
  // Never interpolated: the answer is always a sample.
  EXPECT_EQ(NearestRank({10, 20}, 0.5), 10);
  EXPECT_EQ(NearestRank({10, 20}, 0.51), 20);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
}

void TestQuartiles() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const auto q = QuartilesOf(v);
  EXPECT_EQ(q.q1, 2.75);
  EXPECT_EQ(q.median, 5.5);
  EXPECT_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0].
  const auto three = QuartilesOf({3, 1, 2});
  EXPECT_EQ(three.q1, 1.0);
  EXPECT_EQ(three.median, 2.0);
  EXPECT_EQ(three.q3, 3.0);
}

void TestSelfTimes() {
  // Root [0,100] with children [10,30] and [20,50] (overlapping: the
  // union covers 40) and a grandchild [15,20] of the first child.
  std::vector<SpanRec> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {15, 20, 1}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  // A child sticking out of its parent counts only inside it; disjoint
  // children add up.
  std::vector<SpanRec> edge = {{100, 200, -1}, {50, 120, 0}, {150, 160, 0},
                               {190, 300, 0}};
  EXPECT_EQ(SelfTimes(edge)[0], 100 - 20 - 10 - 10);
  // Statement span: arrival 0, submit 7, reply 10 -> 7 of admission wait.
  std::vector<SpanRec> stmt = {{0, 10, -1}, {7, 10, 0}};
  EXPECT_EQ(SelfTimes(stmt)[0], 7);
  EXPECT_EQ(SelfTimes(stmt)[1], 3);
}

void TestKindBuckets() {
  KindBuckets buckets;
  for (int i = 1; i <= 9; ++i) buckets.Add("point_read", i);
  buckets.Add("sort", 500);
  buckets.Add("sort", 100);
  EXPECT_EQ(buckets.P50("point_read"), 5);
  EXPECT_EQ(buckets.P50("sort"), 100);
  EXPECT_EQ(buckets.Count("point_read"), size_t{9});
  // A kind the workload never issued reads 0, not another kind's value.
  EXPECT_EQ(buckets.P50("recursive"), 0);
  EXPECT_EQ(buckets.Count("recursive"), size_t{0});
}

}  // namespace

int main() {
  TestNearestRank();
  TestQuartiles();
  TestSelfTimes();
  TestKindBuckets();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("vbench_test: all checks passed\n");
  return 0;
}
