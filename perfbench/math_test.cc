// Tests for the benchmark's own arithmetic (perfbench/bench_math.h).
// Run with: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "perfbench/bench_math.h"

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesBeyond) {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_FALSE(PercentileReportable(999, 99.0));
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_TRUE(PercentileReportable(1000, 99.0));
  // p50 needs 20 samples; p90 needs 100.
  EXPECT_FALSE(PercentileReportable(19, 50.0));
  EXPECT_TRUE(PercentileReportable(20, 50.0));
  EXPECT_FALSE(PercentileReportable(99, 90.0));
  EXPECT_TRUE(PercentileReportable(100, 90.0));
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(PercentileTest, NearestRankValue) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, unsorted
  EXPECT_DOUBLE_EQ(TailPercentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(TailPercentile(v, 50.0), 500.0);
  v.pop_back();  // 999 samples: p99 has only 9 beyond it
  EXPECT_TRUE(std::isnan(TailPercentile(v, 99.0)));
}

Span Timed(const char* layer, double start, double end, int parent) {
  Span s;
  s.layer = layer;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

Span Untimed(const char* layer, double duration, int parent) {
  Span s;
  s.layer = layer;
  s.timed = false;
  s.duration = duration;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, NestedTimedSpans) {
  // root [0,10) > a [1,5) > b [2,3); root > c [4,8) overlapping a.
  std::vector<Span> spans = {Timed("root", 0, 10, -1), Timed("a", 1, 5, 0),
                             Timed("b", 2, 3, 1), Timed("c", 4, 8, 0)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0);  // children cover [1,8)
  EXPECT_DOUBLE_EQ(self[1], 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  std::vector<Span> spans = {Timed("root", 0, 4, -1), Timed("a", 3, 6, 0)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
}

TEST(SelfTimeTest, DurationOnlyChildrenFillAndScale) {
  // A pass of 4 s whose node spans sum to 3 s: 1 s of pass self time.
  std::vector<Span> serial = {Timed("core", 0, 4, -1),
                              Untimed("ops", 1.0, 0),
                              Untimed("solvers", 2.0, 0)};
  std::vector<double> self = SelfTimes(serial);
  EXPECT_DOUBLE_EQ(self[0], 1.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);

  // Overlapping branches: 6 s of node wall in a 3 s pass are scaled by 1/2.
  std::vector<Span> parallel = {Timed("core", 0, 3, -1),
                                Untimed("ops", 4.0, 0),
                                Untimed("solvers", 2.0, 0)};
  self = SelfTimes(parallel);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);

  const auto layers = LayerSelfTimes(parallel);
  EXPECT_DOUBLE_EQ(layers.at("ops") + layers.at("solvers") + layers.at("core"),
                   3.0);
}

TEST(SelfTimeTest, TimedAndUntimedChildrenShareTheParent) {
  // [0,10) with a timed child [0,6) leaves 4 s for 5 s of node spans.
  std::vector<Span> spans = {Timed("core", 0, 10, -1),
                             Timed("optimizer", 0, 6, 0),
                             Untimed("ops", 5.0, 0)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 6.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(OverlapTest, Ratio) {
  EXPECT_DOUBLE_EQ(OverlapRatio(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(OverlapRatio(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(OverlapRatio(1.0, 0.0), 0.0);
}

TEST(FlopsTest, KernelShapes) {
  // SolveSpd: d^3/3 Cholesky + two triangular solves of d^2 k each.
  EXPECT_DOUBLE_EQ(SolveSpdFlops(3.0, 1.0), 9.0 + 18.0);
  EXPECT_DOUBLE_EQ(SolveSpdFlops(1500.0, 2.0),
                   1500.0 * 1500.0 * 1500.0 / 3.0 + 4.0 * 1500.0 * 1500.0);
  // Gram: upper triangle of a^T a, d(d+1)/2 dot products of length n.
  EXPECT_DOUBLE_EQ(GramFlops(10.0, 4.0), 10.0 * 4.0 * 5.0);
  // Gemm: 2 m k n.
  EXPECT_DOUBLE_EQ(GemmFlops(2.0, 3.0, 4.0), 48.0);
}

}  // namespace
}  // namespace perfbench
