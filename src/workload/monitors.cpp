#include "workload/monitors.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace capgpu::workload {

void SampleRing::grow() {
  const std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
  std::vector<Entry> next(cap);
  for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
  buf_ = std::move(next);
  head_ = 0;
  mask_ = cap - 1;
}

void SampleRing::trim(sim::SimTime now, double horizon) {
  const double cutoff = now - horizon;
  // Samples arrive in time order, so the ones to drop are a prefix: find
  // its end by bisection (an unread monitor drops a whole period of
  // samples every trim).
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid].time <= cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  head_ = (head_ + lo) & mask_;
  size_ -= lo;
  if (cutoff > trimmed_to_) trimmed_to_ = cutoff;
}

ThroughputMonitor::ThroughputMonitor(double max_rate) : max_rate_(max_rate) {
  CAPGPU_REQUIRE(max_rate > 0.0, "max_rate must be positive");
}

double ThroughputMonitor::rate(sim::SimTime now, double window) const {
  CAPGPU_REQUIRE(window > 0.0, "window must be positive");
  const double cutoff = events_.admit_read(now, window);
  double sum = 0.0;
  for (std::size_t i = events_.size(); i-- > 0;) {
    const SampleRing::Entry& e = events_[i];
    if (e.time <= cutoff) break;
    sum += e.value;
  }
  return sum / window;
}

double ThroughputMonitor::normalized_rate(sim::SimTime now,
                                          double window) const {
  return std::clamp(rate(now, window) / max_rate_, 0.0, 1.0);
}

double LatencyMonitor::mean(sim::SimTime now, double window) const {
  const double cutoff = samples_.admit_read(now, window);
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    sum += s.value;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double LatencyMonitor::max(sim::SimTime now, double window) const {
  const double cutoff = samples_.admit_read(now, window);
  double m = 0.0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    m = std::max(m, s.value);
  }
  return m;
}

std::size_t LatencyMonitor::count(sim::SimTime now, double window) const {
  const double cutoff = samples_.admit_read(now, window);
  std::size_t n = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    if (samples_[i].time <= cutoff) break;
    ++n;
  }
  return n;
}

double LatencyMonitor::miss_rate(sim::SimTime now, double window,
                                 double threshold) const {
  const double cutoff = samples_.admit_read(now, window);
  std::size_t n = 0;
  std::size_t misses = 0;
  for (std::size_t i = samples_.size(); i-- > 0;) {
    const SampleRing::Entry& s = samples_[i];
    if (s.time <= cutoff) break;
    ++n;
    if (s.value > threshold) ++misses;
  }
  return n ? static_cast<double>(misses) / static_cast<double>(n) : 0.0;
}

void LatencyMonitor::visit(sim::SimTime now, double window,
                           const std::function<void(double)>& fn) const {
  const double cutoff = samples_.admit_read(now, window);
  // Find the oldest in-window sample, then iterate forward.
  std::size_t first = samples_.size();
  while (first > 0 && samples_[first - 1].time > cutoff) --first;
  for (std::size_t i = first; i < samples_.size(); ++i) {
    fn(samples_[i].value);
  }
}

}  // namespace capgpu::workload
