#ifndef KEYSTONE_PERFBENCH_BENCH_MATH_H_
#define KEYSTONE_PERFBENCH_BENCH_MATH_H_

// The benchmark's own arithmetic: medians, tail percentiles with a sample
// floor, span self time, branch overlap, and nominal flop counts of the
// dense kernels it probes. Header-only so math_test.cc can check it without
// linking the keystone library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t kTailSamples = 10;

/// Samples strictly above the nearest-rank `pct`-th percentile of `n`
/// samples (the rank itself is ceil(pct/100 * n)).
inline size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  const size_t r = static_cast<size_t>(std::max(1.0, rank));
  return r >= n ? 0 : n - r;
}

/// True when the `pct`-th percentile of `n` samples has at least
/// kTailSamples samples beyond it, i.e. when it may be reported.
inline bool PercentileReportable(size_t n, double pct) {
  return SamplesBeyond(n, pct) >= kTailSamples;
}

/// Nearest-rank percentile; NaN when the sample floor is not met.
inline double TailPercentile(std::vector<double> v, double pct) {
  if (!PercentileReportable(v.size(), pct)) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  return v[static_cast<size_t>(std::max(1.0, rank)) - 1];
}

/// One benchmark span. Spans timed by the harness carry start/end; spans
/// read back from the program's TraceRecorder carry only a duration
/// (`timed == false`) and are placed under the harness span that enclosed
/// the call which produced them.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  double duration = 0.0;  // used when !timed
  bool timed = true;
  int parent = -1;
  std::string workload;

  double Length() const { return timed ? end - start : duration; }
};

/// Length of the union of [start, end) intervals.
inline double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Self time of every span: its length minus the part its children cover.
/// Timed children cover the union of their intervals (clipped to the
/// parent). Duration-only children fill the parent's remaining time; when
/// they overlap each other (parallel branches) and their sum exceeds what
/// remains, each is scaled down in proportion, so self times of a tree
/// never sum to more than its root's length. The returned vector holds, at
/// the index of each duration-only span, its attributed (scaled) length.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  const size_t n = spans.size();
  std::vector<std::vector<std::pair<double, double>>> timed_children(n);
  std::vector<double> untimed_sum(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const int p = spans[i].parent;
    if (p < 0 || static_cast<size_t>(p) >= n) continue;
    if (spans[i].timed) {
      const double s = std::max(spans[i].start, spans[p].start);
      const double e = std::min(spans[i].end, spans[p].end);
      timed_children[p].push_back({s, e});
    } else {
      untimed_sum[p] += spans[i].duration;
    }
  }
  std::vector<double> covered(n, 0.0);
  std::vector<double> scale(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const double len = spans[i].Length();
    const double timed_cover = std::min(len, UnionLength(timed_children[i]));
    const double room = std::max(0.0, len - timed_cover);
    if (untimed_sum[i] > room && untimed_sum[i] > 0.0) {
      scale[i] = room / untimed_sum[i];
    }
    covered[i] = timed_cover + std::min(room, untimed_sum[i]);
  }
  std::vector<double> self(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double len = spans[i].Length();
    if (!spans[i].timed && spans[i].parent >= 0) len *= scale[spans[i].parent];
    self[i] = std::max(0.0, len - covered[i]);
  }
  return self;
}

/// Self time summed per layer.
inline std::map<std::string, double> LayerSelfTimes(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].layer] += self[i];
  return out;
}

/// Kernel wall summed over a pass's node spans divided by the pass's wall:
/// above 1 only when branches ran concurrently.
inline double OverlapRatio(double kernel_sum_seconds, double pass_seconds) {
  return pass_seconds > 0.0 ? kernel_sum_seconds / pass_seconds : 0.0;
}

/// Nominal flop counts (one multiply and one add count as two flops) of
/// the kernels the benchmark times directly. They are computed from the
/// shapes, not measured.
///
/// SolveSpd(a: d x d, b: d x k): Cholesky (d^3 / 3) plus a forward and a
/// back substitution over k right-hand sides (d^2 * k each).
inline double SolveSpdFlops(double d, double k) {
  return d * d * d / 3.0 + 2.0 * d * d * k;
}

/// Gram(a: n x d): the upper triangle of a^T a, d(d+1)/2 dot products of
/// length n.
inline double GramFlops(double n, double d) { return n * d * (d + 1.0); }

/// Gemm(a: m x k, b: k x n).
inline double GemmFlops(double m, double k, double n) {
  return 2.0 * m * k * n;
}

}  // namespace perfbench

#endif  // KEYSTONE_PERFBENCH_BENCH_MATH_H_
