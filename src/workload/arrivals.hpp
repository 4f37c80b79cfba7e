// Open-loop request arrivals.
//
// The paper's experiments run saturated (closed-loop) pipelines; real
// serving load is open-loop and time-varying — the paper's own motivation
// for changing set points and SLOs is a request surge. This Poisson
// arrival process with a piecewise-constant rate schedule feeds an
// InferenceStream running in open-loop mode, enabling experiments where
// demand, not hardware, is the bottleneck.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace capgpu::workload {

/// Rate change point: from `time_s` on, arrivals follow `rate_per_s`.
struct RatePoint {
  double time_s{0.0};
  double rate_per_s{0.0};
};

/// Poisson arrivals with a piecewise-constant rate schedule.
class ArrivalProcess {
 public:
  /// `schedule` must be non-empty with strictly increasing times; the
  /// first entry applies from its time onward (before that: no arrivals).
  /// A rate of 0 pauses arrivals until the next schedule point.
  ArrivalProcess(sim::Engine& engine, Rng rng, std::vector<RatePoint> schedule);
  ~ArrivalProcess();

  ArrivalProcess(const ArrivalProcess&) = delete;
  ArrivalProcess& operator=(const ArrivalProcess&) = delete;

  /// Invoked once per arrival.
  std::function<void()> on_arrival;
  /// Bulk delivery: invoked with a block of ascending arrival timestamps
  /// (seconds). When set it takes precedence over on_arrival — whole
  /// inter-arrival chunks are drawn ahead of sim time in one go (the gap
  /// sequence is time-deterministic, so the RNG stream is consumed exactly
  /// as the per-event path would) and only one engine event per chunk
  /// re-arms generation. The receiver owns time-gating consumption
  /// (InferenceStream::submit_arrivals).
  std::function<void(const double*, std::size_t)> on_arrivals;

  void start();
  void stop();

  /// The schedule rate in force at time `t`.
  [[nodiscard]] double rate_at(double t) const;
  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }

 private:
  /// Arrivals drawn per chunk in bulk mode (one generation event each).
  static constexpr std::size_t kChunk = 64;

  /// The timer's one callback: a chunk (bulk mode), or an arrival and/or
  /// the next per-event draw.
  void fire();
  void schedule_next();
  void generate_chunk();

  sim::Engine* engine_;
  Rng rng_;
  std::vector<RatePoint> schedule_;
  std::array<double, kChunk> chunk_{};
  /// Fired arrivals (per-event mode) or generated arrivals (bulk mode —
  /// counts run ahead of sim time by up to one chunk).
  std::uint64_t arrivals_{0};
  sim::EventId timer_{0};
  /// Per-event mode: the armed firing is an arrival, not a rate change.
  bool arrival_due_{false};
  bool started_{false};
};

}  // namespace capgpu::workload
