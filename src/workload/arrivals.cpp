#include "workload/arrivals.hpp"

#include "common/error.hpp"

namespace capgpu::workload {

ArrivalProcess::ArrivalProcess(sim::Engine& engine, Rng rng,
                               std::vector<RatePoint> schedule)
    : engine_(&engine), rng_(rng), schedule_(std::move(schedule)) {
  CAPGPU_REQUIRE(!schedule_.empty(), "arrival schedule must be non-empty");
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    CAPGPU_REQUIRE(schedule_[i].rate_per_s >= 0.0, "rates must be >= 0");
    if (i > 0) {
      CAPGPU_REQUIRE(schedule_[i].time_s > schedule_[i - 1].time_s,
                     "schedule times must be strictly increasing");
    }
  }
  timer_ = engine_->make_timer([this] { fire(); });
}

ArrivalProcess::~ArrivalProcess() { stop(); }

double ArrivalProcess::rate_at(double t) const {
  double rate = 0.0;
  for (const auto& pt : schedule_) {
    if (pt.time_s <= t) {
      rate = pt.rate_per_s;
    } else {
      break;
    }
  }
  return rate;
}

void ArrivalProcess::start() {
  CAPGPU_REQUIRE(!started_, "arrival process already started");
  started_ = true;
  if (on_arrivals) {
    generate_chunk();
  } else {
    schedule_next();
  }
}

void ArrivalProcess::stop() {
  engine_->cancel(timer_);
  started_ = false;
}

void ArrivalProcess::fire() {
  if (on_arrivals) {
    generate_chunk();
    return;
  }
  if (arrival_due_) {
    ++arrivals_;
    if (on_arrival) on_arrival();
  }
  schedule_next();
}

void ArrivalProcess::schedule_next() {
  const double now = engine_->now();
  const double rate = rate_at(now);

  // Find the next schedule change after `now`.
  double next_change = -1.0;
  for (const auto& pt : schedule_) {
    if (pt.time_s > now) {
      next_change = pt.time_s;
      break;
    }
  }

  if (rate <= 0.0) {
    if (next_change < 0.0) return;  // zero rate forever: done
    arrival_due_ = false;
    engine_->arm_at(timer_, next_change);
    return;
  }

  const double gap = rng_.exponential(rate);
  const double arrival_time = now + gap;
  // When the rate changes before this arrival would land, re-draw under
  // the new rate from the change point (memorylessness makes this exact).
  arrival_due_ = !(next_change > 0.0 && arrival_time > next_change);
  engine_->arm_at(timer_, arrival_due_ ? arrival_time : next_change);
}

void ArrivalProcess::generate_chunk() {
  // Mirrors schedule_next gap for gap — including the draw discarded when
  // an arrival would cross a rate-change point — so bulk mode consumes the
  // RNG stream identically to the per-event path. Only `t` advances here;
  // sim time catches up via the single re-arm event per chunk.
  double t = engine_->now();
  std::size_t count = 0;
  while (count < kChunk) {
    const double rate = rate_at(t);
    double next_change = -1.0;
    for (const auto& pt : schedule_) {
      if (pt.time_s > t) {
        next_change = pt.time_s;
        break;
      }
    }
    if (rate <= 0.0) {
      if (next_change < 0.0) break;  // zero rate forever: done
      t = next_change;
      continue;
    }
    const double gap = rng_.exponential(rate);
    const double arrival_time = t + gap;
    if (next_change > 0.0 && arrival_time > next_change) {
      // Rate changes first: re-draw under the new rate from the change
      // point (memorylessness makes this exact, as in schedule_next).
      t = next_change;
      continue;
    }
    chunk_[count++] = arrival_time;
    t = arrival_time;
  }
  if (count == 0) return;  // zero rate to the end of the schedule: done
  arrivals_ += count;
  on_arrivals(chunk_.data(), count);
  // Re-arm at the last generated arrival: by then every delivered stamp is
  // due and the next chunk continues the gap sequence seamlessly.
  engine_->arm_at(timer_, chunk_[count - 1]);
}

}  // namespace capgpu::workload
