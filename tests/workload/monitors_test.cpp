#include "workload/monitors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"

namespace capgpu::workload {
namespace {

TEST(ThroughputMonitor, RateOverWindow) {
  ThroughputMonitor m(100.0);
  m.record(1.0, 10.0);
  m.record(2.0, 10.0);
  m.record(3.0, 10.0);
  EXPECT_DOUBLE_EQ(m.rate(4.0, 4.0), 30.0 / 4.0);
}

TEST(ThroughputMonitor, WindowExcludesOldEvents) {
  ThroughputMonitor m(100.0);
  m.record(1.0, 50.0);
  m.record(10.0, 10.0);
  EXPECT_DOUBLE_EQ(m.rate(10.0, 4.0), 10.0 / 4.0);
}

TEST(ThroughputMonitor, NormalizedClampsToOne) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 200.0);
  EXPECT_DOUBLE_EQ(m.normalized_rate(2.0, 2.0), 1.0);
}

TEST(ThroughputMonitor, NormalizedFraction) {
  ThroughputMonitor m(20.0);
  m.record(1.0, 40.0);
  // 40 over a 4 s window = 10/s of a 20/s max.
  EXPECT_DOUBLE_EQ(m.normalized_rate(4.0, 4.0), 0.5);
}

TEST(ThroughputMonitor, TotalAccumulates) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 2.0);
  m.record(2.0, 3.0);
  EXPECT_DOUBLE_EQ(m.total(), 5.0);
}

TEST(ThroughputMonitor, TrimDropsOldEvents) {
  ThroughputMonitor m(10.0);
  m.record(1.0, 5.0);
  m.record(100.0, 5.0);
  m.trim(100.0, 50.0);
  EXPECT_EQ(m.retained(), 1u);
  // A window reaching past the trim would silently miss the dropped event.
  EXPECT_THROW((void)m.rate(100.0, 1000.0), capgpu::InvalidArgument);
  EXPECT_DOUBLE_EQ(m.rate(100.0, 50.0), 5.0 / 50.0);
}

TEST(ThroughputMonitor, InvalidArgsThrow) {
  EXPECT_THROW(ThroughputMonitor(0.0), capgpu::InvalidArgument);
  ThroughputMonitor m(10.0);
  EXPECT_THROW((void)m.rate(1.0, 0.0), capgpu::InvalidArgument);
}

TEST(LatencyMonitor, MeanMaxCountOverWindow) {
  LatencyMonitor m;
  m.record(1.0, 0.2);
  m.record(2.0, 0.4);
  EXPECT_DOUBLE_EQ(m.mean(2.5, 2.5), 0.3);
  m.record(10.0, 1.0);
  EXPECT_DOUBLE_EQ(m.mean(10.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(m.max(10.0, 100.0), 1.0);
  EXPECT_EQ(m.count(10.0, 100.0), 3u);
}

TEST(LatencyMonitor, EmptyWindowYieldsZero) {
  LatencyMonitor m;
  EXPECT_DOUBLE_EQ(m.mean(10.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(m.miss_rate(10.0, 4.0, 1.0), 0.0);
}

TEST(LatencyMonitor, MissRateAgainstThreshold) {
  LatencyMonitor m;
  m.record(1.0, 0.5);
  m.record(2.0, 1.5);
  m.record(3.0, 2.5);
  m.record(4.0, 0.9);
  EXPECT_DOUBLE_EQ(m.miss_rate(4.0, 4.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(m.miss_rate(4.0, 4.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(m.miss_rate(4.0, 4.0, 0.1), 1.0);
}

// A monitor trimmed at random points answers every read its readers make
// exactly like an untrimmed twin: trim(now) keeps the longest window read.
TEST(MonitorRetention, TrimmedMatchesUntrimmedTwinBitForBit) {
  constexpr double kWindows[] = {0.5, 1.0, 4.0, 8.0};
  Rng rng(2024);
  ThroughputMonitor thr(100.0);
  ThroughputMonitor thr_twin(100.0);
  LatencyMonitor lat;
  LatencyMonitor lat_twin;
  // Every window is asked once up front, as a rig's readers do each period.
  for (const double w : kWindows) {
    (void)thr.rate(0.0, w);
    (void)lat.mean(0.0, w);
  }
  double now = 0.0;
  std::size_t reads = 0;
  for (int step = 0; step < 20000; ++step) {
    now += 0.01 * rng.uniform();
    const double u = rng.uniform();
    if (u < 0.7) {
      const double v = rng.uniform();
      thr.record(now, v);
      thr_twin.record(now, v);
      lat.record(now, v);
      lat_twin.record(now, v);
    } else if (u < 0.95) {
      const double w = kWindows[rng.uniform_index(4)];
      ++reads;
      EXPECT_EQ(thr.rate(now, w), thr_twin.rate(now, w));
      EXPECT_EQ(thr.normalized_rate(now, w), thr_twin.normalized_rate(now, w));
      EXPECT_EQ(lat.mean(now, w), lat_twin.mean(now, w));
      EXPECT_EQ(lat.max(now, w), lat_twin.max(now, w));
      EXPECT_EQ(lat.count(now, w), lat_twin.count(now, w));
      EXPECT_EQ(lat.miss_rate(now, w, 0.5), lat_twin.miss_rate(now, w, 0.5));
      std::vector<double> seen;
      std::vector<double> seen_twin;
      lat.visit(now, w, [&seen](double x) { seen.push_back(x); });
      lat_twin.visit(now, w, [&seen_twin](double x) { seen_twin.push_back(x); });
      EXPECT_EQ(seen, seen_twin);
    } else {
      thr.trim(now);
      lat.trim(now);
      // Never more than the longest read window's worth of samples.
      EXPECT_EQ(thr.retained(), lat_twin.count(now, 8.0));
      EXPECT_EQ(lat.retained(), lat_twin.count(now, 8.0));
    }
  }
  EXPECT_GT(reads, 1000u);
  EXPECT_LT(lat.retained(), lat_twin.retained() / 5);
}

TEST(MonitorRetention, ReadIntoTrimmedHistoryThrows) {
  LatencyMonitor lat;
  ThroughputMonitor thr(10.0);
  for (int i = 1; i <= 100; ++i) {
    lat.record(i, 0.5);
    thr.record(i, 1.0);
  }
  (void)lat.mean(100.0, 4.0);
  (void)thr.rate(100.0, 8.0);
  lat.trim(100.0);
  thr.trim(100.0);
  EXPECT_EQ(lat.retained(), 4u);
  EXPECT_EQ(thr.retained(), 8u);
  EXPECT_EQ(lat.count(101.0, 5.0), 4u);  // reaches back exactly to the trim
  EXPECT_THROW((void)lat.mean(100.0, 4.5), capgpu::InvalidArgument);
  EXPECT_THROW((void)lat.max(100.0, 5.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)lat.count(100.0, 5.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)lat.miss_rate(100.0, 5.0, 1.0), capgpu::InvalidArgument);
  EXPECT_THROW(lat.visit(100.0, 5.0, [](double) {}), capgpu::InvalidArgument);
  EXPECT_THROW((void)thr.rate(100.0, 9.0), capgpu::InvalidArgument);
  EXPECT_THROW((void)thr.normalized_rate(100.0, 9.0), capgpu::InvalidArgument);

  // A monitor nobody reads keeps nothing; a watched window survives trims.
  LatencyMonitor unread;
  ThroughputMonitor watched(10.0);
  watched.watch(8.0);
  for (int i = 1; i <= 100; ++i) {
    unread.record(i, 0.5);
    watched.record(i, 1.0);
  }
  unread.trim(100.0);
  watched.trim(100.0);
  EXPECT_EQ(unread.retained(), 0u);
  EXPECT_THROW((void)unread.mean(100.0, 1.0), capgpu::InvalidArgument);
  EXPECT_DOUBLE_EQ(watched.rate(100.0, 8.0), 1.0);
}

/// Largest retained sample count of any monitor on the rig, relative to its
/// bound (read window x the stream's peak event rate). Every rig monitor
/// records at most one sample per image, batch or CPU subset round.
double worst_retention_fraction(core::ServerRig& rig, std::size_t periods) {
  core::CapGpuController ctl(core::CapGpuConfig{}, rig.device_ranges(),
                             rig.analytic_power_model(), 900_W,
                             rig.latency_models());
  core::RunOptions opt;
  opt.periods = periods;
  (void)rig.run(ctl, opt);
  const double period_s = opt.loop.period.value;
  const double window = rig.config().throughput_window.value;
  double worst = 0.0;
  const auto note = [&worst](std::size_t retained, double bound) {
    worst = std::max(worst, static_cast<double>(retained) / bound);
  };
  for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
    auto& s = rig.stream(i);
    const double peak = s.max_images_per_s();
    note(s.images_throughput().retained(), window * peak);
    note(s.batch_latency().retained(), period_s * peak);
    // Nobody on the rig reads these two: nothing survives a trim.
    EXPECT_EQ(s.queue_delay().retained(), 0u);
    EXPECT_EQ(s.preprocess_latency().retained(), 0u);
    EXPECT_EQ(s.preprocess_compute_latency().retained(), 0u);
  }
  auto& task = rig.cpu_task();
  note(task.throughput().retained(), window * task.throughput().max_rate());
  note(task.subset_latency().retained(),
       period_s * task.throughput().max_rate());
  return worst;
}

TEST(MonitorRetention, SaturatedRigRetentionDoesNotGrowWithSimTime) {
  core::ServerRig short_rig;
  core::ServerRig long_rig;
  EXPECT_LE(worst_retention_fraction(short_rig, 50), 1.0);
  EXPECT_LE(worst_retention_fraction(long_rig, 200), 1.0);
}

}  // namespace
}  // namespace capgpu::workload
