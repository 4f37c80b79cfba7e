// Forwarding decorators that time the calls a control loop makes into the
// policy and the HAL. Every call is passed through unchanged, so a loop
// driven through them makes the same decisions as one driven directly.
#pragma once

#include <string>
#include <vector>

#include "baselines/controller_iface.hpp"
#include "hal/interfaces.hpp"
#include "spans.hpp"

namespace perfbench {

/// Times IServerPowerController::control; forwards everything else.
class TimedPolicy final : public capgpu::baselines::IServerPowerController {
 public:
  TimedPolicy(capgpu::baselines::IServerPowerController& inner, SpanName name)
      : inner_(&inner), name_(name) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_set_point(capgpu::Watts p) override { inner_->set_set_point(p); }
  [[nodiscard]] capgpu::Watts set_point() const override {
    return inner_->set_point();
  }
  [[nodiscard]] capgpu::baselines::ControlOutputs control(
      const capgpu::baselines::ControlInputs& inputs,
      const std::vector<double>& current_freqs_mhz) override {
    SpanScope span(name_);
    return inner_->control(inputs, current_freqs_mhz);
  }
  void set_slo(std::size_t device, double slo_seconds) override {
    inner_->set_slo(device, slo_seconds);
  }
  void describe_flight(capgpu::telemetry::FlightRecord& record) const override {
    inner_->describe_flight(record);
  }

 private:
  capgpu::baselines::IServerPowerController* inner_;
  SpanName name_;
};

/// Times every IPowerMeter call as a hal.meter span.
class TimedMeter final : public capgpu::hal::IPowerMeter {
 public:
  explicit TimedMeter(capgpu::hal::IPowerMeter& inner) : inner_(&inner) {}

  [[nodiscard]] capgpu::hal::PowerSample latest() const override {
    SpanScope span(SpanName::kHalMeter);
    return inner_->latest();
  }
  [[nodiscard]] capgpu::Watts average(capgpu::Seconds window) const override {
    SpanScope span(SpanName::kHalMeter);
    return inner_->average(window);
  }
  [[nodiscard]] capgpu::Seconds latest_age() const override {
    SpanScope span(SpanName::kHalMeter);
    return inner_->latest_age();
  }
  [[nodiscard]] capgpu::Seconds sample_interval() const override {
    SpanScope span(SpanName::kHalMeter);
    return inner_->sample_interval();
  }

 private:
  capgpu::hal::IPowerMeter* inner_;
};

/// Times every IServerHal call: frequency commands as hal.actuate, meter
/// calls through TimedMeter, everything else as hal.read. The per-device
/// cpu()/gpu() endpoints are handed out unwrapped; the loop reaches them
/// only for reads (GPU board power), which the span of the accessor call
/// does not cover.
class TimedHal final : public capgpu::hal::IServerHal {
 public:
  explicit TimedHal(capgpu::hal::IServerHal& inner)
      : inner_(&inner), meter_(inner.power_meter()) {}

  [[nodiscard]] std::size_t device_count() const override {
    SpanScope span(SpanName::kHalRead);
    return inner_->device_count();
  }
  [[nodiscard]] capgpu::hal::ICpuFreqControl& cpu() override {
    SpanScope span(SpanName::kHalRead);
    return inner_->cpu();
  }
  [[nodiscard]] std::size_t gpu_count() const override {
    SpanScope span(SpanName::kHalRead);
    return inner_->gpu_count();
  }
  [[nodiscard]] capgpu::hal::IGpuControl& gpu(std::size_t i) override {
    SpanScope span(SpanName::kHalRead);
    return inner_->gpu(i);
  }
  [[nodiscard]] capgpu::hal::IPowerMeter& power_meter() override {
    return meter_;
  }
  capgpu::Megahertz set_device_frequency(capgpu::DeviceId id,
                                         capgpu::Megahertz f) override {
    SpanScope span(SpanName::kHalActuate);
    return inner_->set_device_frequency(id, f);
  }
  [[nodiscard]] capgpu::Megahertz device_frequency(
      capgpu::DeviceId id) const override {
    SpanScope span(SpanName::kHalRead);
    return inner_->device_frequency(id);
  }
  [[nodiscard]] const capgpu::hw::FrequencyTable& device_freqs(
      capgpu::DeviceId id) const override {
    SpanScope span(SpanName::kHalRead);
    return inner_->device_freqs(id);
  }
  [[nodiscard]] double device_utilization(capgpu::DeviceId id) const override {
    SpanScope span(SpanName::kHalRead);
    return inner_->device_utilization(id);
  }

 private:
  capgpu::hal::IServerHal* inner_;
  TimedMeter meter_;
};

}  // namespace perfbench
