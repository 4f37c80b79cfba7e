// Small helpers: quantiles over samples, CPU clocks and the process memory
// counters.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// CPU seconds on `clock`: CLOCK_PROCESS_CPUTIME_ID (every thread, user
/// and system) or CLOCK_THREAD_CPUTIME_ID (the calling thread). Time the
/// hypervisor steals from a vCPU is not counted, so on a shared host these
/// repeat where wall time does not.
[[nodiscard]] inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
[[nodiscard]] inline double process_cpu_s() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
[[nodiscard]] inline double thread_cpu_s() {
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

/// A /proc/self/status field in kB (VmRSS, VmHWM); 0 when unreadable.
[[nodiscard]] inline double proc_status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Resets VmHWM to the current RSS so the next read is this phase's peak.
/// Returns false where the kernel does not allow it.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
