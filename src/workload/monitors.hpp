// Throughput and latency monitors (paper Sec 3.1, loop step 2).
//
// Each device's monitor reports the average throughput over the last control
// period; the controller normalizes it by the device's maximum throughput to
// drive weight assignment.
//
// Retention contract: a monitor remembers the longest window any reader has
// asked of it (a windowed read, or watch()). trim(now) keeps exactly that
// much history — nothing at all for a monitor nobody reads — so a trimmed
// monitor answers every such read bit-identically to an untrimmed one, and
// its storage is bounded by one read window of samples instead of growing
// with simulated time. A read reaching back past the last trim throws
// InvalidArgument instead of silently missing the dropped samples.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace capgpu::workload {

/// Flat ring of (time, value) samples backing the monitors, plus the
/// retention bookkeeping of the contract above. Samples are pushed in time
/// order (monitors record at the engine's current time).
///
/// trim() advances the head without releasing storage, so steady-state
/// record()s land in warm, already-mapped memory and the rolling window
/// cycles through one power-of-two allocation. Scans visit the same
/// elements in the same order as an untrimmed sample list, so every
/// windowed statistic is bit-identical to unbounded storage.
///
/// Reads are const but widen the remembered window, so concurrent reads of
/// one monitor from several threads need external synchronization (the
/// simulator reads each rig's monitors from one thread at a time).
class SampleRing {
 public:
  struct Entry {
    sim::SimTime time;
    double value;
  };

  [[nodiscard]] std::size_t size() const { return size_; }

  /// i-th live entry, oldest first (i < size()).
  [[nodiscard]] const Entry& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(sim::SimTime time, double value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask_] = Entry{time, value};
    ++size_;
  }

  /// Registers a read of (now - window, now] and returns its cutoff
  /// (now - window). Throws InvalidArgument when the window reaches into
  /// history an earlier trim dropped.
  double admit_read(sim::SimTime now, double window) const {
    watch(window);
    const double cutoff = now - window;
    CAPGPU_REQUIRE(cutoff >= trimmed_to_,
                   "monitor read reaches into trimmed history");
    return cutoff;
  }

  /// Widens the remembered window without reading.
  void watch(double window) const {
    if (window > window_) window_ = window;
  }
  /// Longest window read or watched so far (0 before the first).
  [[nodiscard]] double read_window() const { return window_; }

  /// Drops samples at or before now - horizon; reads reaching past that
  /// point throw from now on.
  void trim(sim::SimTime now, double horizon);

 private:
  void grow();

  std::vector<Entry> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t mask_{0};  // buf_.size() - 1 (capacity is a power of two)
  mutable double window_{0.0};
  double trimmed_to_{-std::numeric_limits<double>::infinity()};
};

/// Counts completion events and reports a windowed rate.
class ThroughputMonitor {
 public:
  /// `max_rate` is the device's nominal peak throughput, used for
  /// normalization (e.g. batch_size / e_min for a GPU stream at f_max).
  explicit ThroughputMonitor(double max_rate);

  /// Records `count` completions at simulated time `now`.
  void record(sim::SimTime now, double count = 1.0) {
    CAPGPU_ASSERT(count >= 0.0);
    events_.push_back(now, count);
    total_ += count;
  }

  /// Completions per second over (now - window, now].
  [[nodiscard]] double rate(sim::SimTime now, double window) const;

  /// rate / max_rate, clamped to [0, 1].
  [[nodiscard]] double normalized_rate(sim::SimTime now, double window) const;

  [[nodiscard]] double max_rate() const { return max_rate_; }
  [[nodiscard]] double total() const { return total_; }

  /// Declares a reader's window ahead of its first read, so trims before
  /// that read keep its history.
  void watch(double window) { events_.watch(window); }

  /// Keeps the longest window read so far (none when never read).
  void trim(sim::SimTime now) { events_.trim(now, events_.read_window()); }
  /// Keeps `horizon` seconds before `now`.
  void trim(sim::SimTime now, double horizon) { events_.trim(now, horizon); }

  /// Events currently held (retention diagnostic).
  [[nodiscard]] std::size_t retained() const { return events_.size(); }

 private:
  double max_rate_;
  double total_{0.0};
  SampleRing events_;
};

/// Collects latency samples within a rolling window.
class LatencyMonitor {
 public:
  void record(sim::SimTime now, double latency_s) {
    samples_.push_back(now, latency_s);
  }

  /// Mean latency of samples in (now - window, now]; 0 when none.
  [[nodiscard]] double mean(sim::SimTime now, double window) const;
  /// Max latency in the window; 0 when none.
  [[nodiscard]] double max(sim::SimTime now, double window) const;
  /// Number of samples in the window.
  [[nodiscard]] std::size_t count(sim::SimTime now, double window) const;
  /// Fraction of samples in the window exceeding `threshold`; 0 when none.
  [[nodiscard]] double miss_rate(sim::SimTime now, double window,
                                 double threshold) const;

  /// Invokes `fn(latency)` for every sample in (now - window, now], oldest
  /// first (percentile extraction, custom aggregation).
  void visit(sim::SimTime now, double window,
             const std::function<void(double)>& fn) const;

  /// Keeps the longest window read so far (none when never read).
  void trim(sim::SimTime now) { samples_.trim(now, samples_.read_window()); }
  /// Keeps `horizon` seconds before `now`.
  void trim(sim::SimTime now, double horizon) { samples_.trim(now, horizon); }

  /// Samples currently held (retention diagnostic).
  [[nodiscard]] std::size_t retained() const { return samples_.size(); }

 private:
  SampleRing samples_;
};

}  // namespace capgpu::workload
