// The estimator behind the self-perf overhead guards (request timeline,
// flight recorder, energy ledger): how much slower a run gets with one
// observability feature on.
//
// Each guard runs interleaved (off, on) pairs and reports the median of the
// per-pair ratios on/off - 1, with every run timed in thread CPU seconds.
// Pairing cancels slow drifts in machine speed, since both runs of a pair
// see the same conditions; the median drops the pairs a burst of noise hit;
// and thread CPU time leaves out the time the thread sat descheduled, which
// on a shared host is most of the wall-clock noise. Pairs alternate which
// side runs first, so warm-cache order effects cancel too.
#pragma once

#include <algorithm>
#include <ctime>
#include <vector>

namespace capgpu::bench {

/// CPU seconds the calling thread has consumed (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct PairedOverhead {
  int pairs{0};
  double off_s{0.0};  ///< median thread CPU seconds of a feature-off run
  double on_s{0.0};   ///< median thread CPU seconds of a feature-on run
  double overhead_frac{0.0};  ///< median over pairs of on/off - 1
};

/// Runs `pairs` interleaved (off, on) pairs. Each callable performs one run
/// and returns the thread CPU seconds of its timed region.
template <typename OffRun, typename OnRun>
PairedOverhead paired_overhead(int pairs, OffRun&& off_run, OnRun&& on_run) {
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> frac;
  for (int i = 0; i < pairs; ++i) {
    double off_s = 0.0;
    double on_s = 0.0;
    if (i % 2 == 0) {
      off_s = off_run();
      on_s = on_run();
    } else {
      on_s = on_run();
      off_s = off_run();
    }
    off.push_back(off_s);
    on.push_back(on_s);
    frac.push_back(on_s / off_s - 1.0);
  }
  return {pairs, median(off), median(on), median(frac)};
}

}  // namespace capgpu::bench
