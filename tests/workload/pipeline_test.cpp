#include "workload/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "workload/latency_law.hpp"

namespace capgpu::workload {
namespace {

/// Harness: one stream on a 1-GPU testbed with controllable frequencies.
struct PipelineHarness {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  std::unique_ptr<InferenceStream> stream;

  explicit PipelineHarness(StreamParams params, std::uint64_t seed = 1) {
    stream = std::make_unique<InferenceStream>(engine, server, 0, params,
                                               Rng(seed));
  }

  void run(double seconds) { engine.run_until(engine.now() + seconds); }
};

StreamParams fast_model(std::size_t workers = 1) {
  StreamParams p;
  p.model.name = "test";
  p.model.batch_size = 10;
  p.model.e_min_batch_s = 0.2;
  p.model.gamma = 0.91;
  p.model.gpu_f_max = 1350_MHz;
  p.model.preprocess_s_ghz = 0.02;
  p.model.gpu_busy_util = 0.9;
  p.model.jitter_frac = 0.0;  // deterministic timing for analytic checks
  p.n_preprocess_workers = workers;
  return p;
}

TEST(Pipeline, GpuBoundThroughputMatchesCapacity) {
  // CPU fast (supply >> demand), GPU at max: throughput == batch/e_min.
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);     // supply 2*120 img/s
  h.server.gpu(0).set_core_clock(1350_MHz);  // capacity 50 img/s
  h.stream->start();
  h.run(100.0);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, 50.0, 2.5);
}

TEST(Pipeline, CpuBoundThroughputMatchesSupply) {
  // One slow worker: supply = f_ghz / preprocess_s_ghz = 1.0/0.02 = 50,
  // GPU capacity 50 at max clock... make CPU clearly the bottleneck.
  StreamParams p = fast_model(1);
  p.model.preprocess_s_ghz = 0.05;  // supply at 1 GHz = 20 img/s
  PipelineHarness h(p);
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);  // capacity 50 img/s
  h.stream->start();
  h.run(100.0);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, 20.0, 1.5);
}

TEST(Pipeline, ThroughputIsMinOfSupplyAndCapacity) {
  StreamParams p = fast_model(1);
  p.model.preprocess_s_ghz = 0.04;  // supply at 2 GHz = 50 img/s
  PipelineHarness h(p);
  h.server.cpu().set_frequency(2_GHz);
  h.server.gpu(0).set_core_clock(675_MHz);  // capacity ~ 10/0.2/(2)^.91 ~ 26.6
  h.stream->start();
  h.run(100.0);
  const double capacity =
      10.0 / latency_at(0.2, 1350_MHz, 675_MHz, 0.91);
  const double rate = h.stream->images_throughput().rate(100.0, 50.0);
  EXPECT_NEAR(rate, capacity, 2.0);
}

TEST(Pipeline, BatchLatencyFollowsLatencyLaw) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(675_MHz);
  h.stream->start();
  h.run(60.0);
  const double expected = latency_at(0.2, 1350_MHz, 675_MHz, 0.91);
  EXPECT_NEAR(h.stream->batch_latency().mean(60.0, 30.0), expected, 1e-9);
}

TEST(Pipeline, PreprocessComputeLatencyScalesWithCpuFrequency) {
  PipelineHarness h(fast_model(1));
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_NEAR(h.stream->preprocess_compute_latency().mean(30.0, 10.0),
              0.02 / 1.0, 1e-9);
}

TEST(Pipeline, BlockedProducersInflateTotalPreprocessLatency) {
  // GPU far too slow: queue backs up, workers block.
  StreamParams p = fast_model(4);
  p.model.e_min_batch_s = 5.0;  // capacity 2 img/s << supply
  PipelineHarness h(p);
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(200.0);
  const double compute =
      h.stream->preprocess_compute_latency().mean(200.0, 100.0);
  const double total = h.stream->preprocess_latency().mean(200.0, 100.0);
  EXPECT_GT(total, 5.0 * compute);  // dominated by blocking
}

TEST(Pipeline, QueueDelayPositiveAndBounded) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(60.0);
  const double qd = h.stream->queue_delay().mean(60.0, 30.0);
  EXPECT_GT(qd, 0.0);
  // Bounded by (queue capacity / throughput): 20 / 50 = 0.4 s plus a batch.
  EXPECT_LT(qd, 1.0);
}

TEST(Pipeline, GpuUtilizationReflectsBusyFraction) {
  // GPU-bound: utilization should sit at the model's busy level.
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(10.0);
  // At some instant mid-run the GPU is either busy (0.9) or idle (0.0).
  const double u = h.server.gpu(0).utilization();
  EXPECT_TRUE(u == 0.0 || u == 0.9);
}

TEST(Pipeline, WorkerComputeCallbackBalances) {
  PipelineHarness h(fast_model(3));
  long delta_sum = 0;
  long max_seen = 0;
  h.stream->on_worker_compute_change = [&](int d) {
    delta_sum += d;
    max_seen = std::max(max_seen, delta_sum);
  };
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(20.0);
  EXPECT_GE(delta_sum, 0);
  EXPECT_LE(delta_sum, 3);
  EXPECT_EQ(max_seen, 3);  // all three workers were computing at once
}

TEST(Pipeline, DeterministicWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    StreamParams p = fast_model(2);
    p.model.jitter_frac = 0.05;
    PipelineHarness h(p, seed);
    h.server.cpu().set_frequency(2.4_GHz);
    h.server.gpu(0).set_core_clock(900_MHz);
    h.stream->start();
    h.run(50.0);
    return h.stream->images_completed();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43) + 1000000);  // sanity
}

TEST(Pipeline, CountersTrackCompletions) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_EQ(h.stream->images_completed(),
            h.stream->batches_completed() * 10);
  EXPECT_GT(h.stream->batches_completed(), 100u);
}

TEST(Pipeline, FrequencyChangeMidRunShiftsThroughput) {
  PipelineHarness h(fast_model(2));
  h.server.cpu().set_frequency(2.4_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(50.0);
  const double fast_rate = h.stream->images_throughput().rate(50.0, 20.0);
  h.server.gpu(0).set_core_clock(435_MHz);
  h.run(50.0);
  const double slow_rate = h.stream->images_throughput().rate(100.0, 20.0);
  EXPECT_LT(slow_rate, 0.6 * fast_rate);
}

TEST(Pipeline, InvalidConfigurationsThrow) {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  StreamParams p = fast_model();
  EXPECT_THROW(InferenceStream(engine, server, 1, p, Rng(1)),
               capgpu::InvalidArgument);  // gpu index out of range
  StreamParams no_workers = fast_model(1);
  no_workers.n_preprocess_workers = 0;
  EXPECT_THROW(InferenceStream(engine, server, 0, no_workers, Rng(1)),
               capgpu::InvalidArgument);
  StreamParams tiny_queue = fast_model();
  tiny_queue.queue_capacity = 5;  // < batch_size 10
  EXPECT_THROW(InferenceStream(engine, server, 0, tiny_queue, Rng(1)),
               capgpu::InvalidArgument);
}

TEST(Pipeline, DoubleStartThrows) {
  PipelineHarness h(fast_model());
  h.stream->start();
  EXPECT_THROW(h.stream->start(), capgpu::InvalidArgument);
}

TEST(Pipeline, PinnedPreprocessFrequencyDecouplesFromCpu) {
  // With the provider pinned at 2.4 GHz, lowering the package frequency
  // must not slow preprocessing (paper Sec 6.3 core-domain split).
  StreamParams p = fast_model(1);
  PipelineHarness h(p);
  h.stream->preprocess_frequency = [] { return 2.4_GHz; };
  h.server.cpu().set_frequency(1_GHz);
  h.server.gpu(0).set_core_clock(1350_MHz);
  h.stream->start();
  h.run(30.0);
  EXPECT_NEAR(h.stream->preprocess_compute_latency().mean(30.0, 10.0),
              0.02 / 2.4, 1e-9);
}


TEST(Pipeline, FingerprintReplayStopsAtFirstDifferingRequest) {
  // One worker feeding a GPU-bound stream at zero jitter: batch j holds
  // images 10j..10j+9 in start order, and steady-state batches repeat their
  // quantized stage durations, so they are deferred as fingerprint replays.
  // The preprocess frequency drops after image kSwitch, in the middle of a
  // batch. That batch matches the recorded one in its first requests and
  // differs only in its later ones: it must be observed, not replayed.
  constexpr std::uint64_t kSwitch = 305;
  // A private registry: the stage sketches are keyed by model name, which
  // every test here shares.
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::ScopedCurrent scope(registry);
  PipelineHarness h(fast_model(1));
  std::uint64_t started = 0;
  h.stream->preprocess_frequency = [&started] {
    return started++ < kSwitch ? 2.4_GHz : 2.0_GHz;
  };
  h.server.gpu(0).set_core_clock(1350_MHz);  // 50 img/s, GPU-bound
  h.stream->start();
  h.run(20.0);
  const std::uint64_t done = h.stream->images_completed();
  ASSERT_GT(done, kSwitch + 100);

  const telemetry::QuantileSketch* cpu =
      h.stream->stage_sketch(Stage::kCpuPreprocess);
  ASSERT_EQ(cpu->count(), done);
  // Images complete in start order: ranks [0, kSwitch) took the fast
  // duration, ranks [kSwitch, done) the slow one.
  const double fast = 0.02 / 2.4;
  const double slow = 0.02 / 2.0;
  const double last = static_cast<double>(done - 1);
  const auto at_rank = [&](std::uint64_t r) {
    return cpu->quantile(static_cast<double>(r) / last);
  };
  EXPECT_NEAR(at_rank(0), fast, 0.011 * fast);
  EXPECT_NEAR(at_rank(kSwitch - 1), fast, 0.011 * fast);
  EXPECT_NEAR(at_rank(kSwitch), slow, 0.011 * slow);
  EXPECT_NEAR(at_rank(done - 1), slow, 0.011 * slow);
}

TEST(Pipeline, HostLoadCountsWorkersNeitherBlockedNorIdle) {
  constexpr std::size_t kWorkers = 3;
  for (const bool open_loop : {false, true}) {
    SCOPED_TRACE(open_loop ? "open loop" : "closed loop");
    StreamParams p = fast_model(kWorkers);
    p.open_loop = open_loop;
    PipelineHarness h(p);
    long computing = 0;
    h.stream->on_worker_compute_change = [&computing](int d) {
      computing += d;
    };
    h.server.cpu().set_frequency(2.4_GHz);     // 3 workers: 360 img/s
    h.server.gpu(0).set_core_clock(1350_MHz);  // GPU: 50 img/s
    h.stream->start();
    if (open_loop) {
      // Bursts of 40 requests once a second: workers fill the GPU batch
      // and the queue and block during a burst, then idle until the next.
      std::vector<double> arrivals;
      for (int burst = 0; burst < 20; ++burst) {
        for (int i = 0; i < 40; ++i) arrivals.push_back(burst + 1e-3 * i);
      }
      h.stream->submit_arrivals(arrivals.data(), arrivals.size());
    }
    std::size_t max_blocked = 0;
    std::size_t max_idle = 0;
    do {
      const std::size_t blocked = h.stream->blocked_workers();
      const std::size_t idle = h.stream->idle_workers();
      ASSERT_EQ(computing, static_cast<long>(kWorkers - blocked - idle))
          << "t=" << h.engine.now();
      max_blocked = std::max(max_blocked, blocked);
      max_idle = std::max(max_idle, idle);
    } while (h.engine.now() < 20.0 && h.engine.step());
    EXPECT_GT(max_blocked, 0u);
    if (open_loop) {
      EXPECT_EQ(max_idle, kWorkers);
    }
  }
}

/// A short open-loop rig run under CapGPU, pinned to the event count and
/// monitor totals recorded before the recurring event sources became
/// persistent engine timers. Arrivals, preprocess workers (idle, blocked
/// and woken), the batch consumer and the CPU task all run, so any change
/// to the fire order of a recurring source moves these numbers.
TEST(OpenLoopRig, EventCountAndMonitorTotalsMatchRecordedRun) {
  core::RigConfig cfg;
  cfg.preprocess_workers_per_stream = 2;
  cfg.offered_load = {{0.0, 0.5}, {20.0, 1.3}, {40.0, 0.2}};
  cfg.seed = 7;
  core::ServerRig rig(cfg);
  core::CapGpuController ctl(core::CapGpuConfig{}, rig.device_ranges(),
                             rig.analytic_power_model(), 900_W,
                             rig.latency_models());
  core::RunOptions opt;
  opt.periods = 15;
  (void)rig.run(ctl, opt);
  const double now = rig.engine().now();
  const double window = cfg.throughput_window.value;

  EXPECT_EQ(rig.engine().events_executed(), 8058u);
  const auto& task = rig.cpu_task();
  EXPECT_EQ(task.subsets_evaluated(), 27159u);
  EXPECT_EQ(task.throughput().rate(now, window), 453.75);
  EXPECT_EQ(task.subset_latency().mean(now, opt.loop.period.value),
            0.07313336634617941);
  const std::vector<std::uint64_t> images{2220, 1400, 1720};
  const std::vector<std::uint64_t> batches{111, 70, 86};
  const std::vector<std::uint64_t> pending{86, 74, 14};
  const std::vector<double> rates{40.0, 25.0, 32.5};
  const std::vector<double> exec_means{
      0.48958234695875646, 0.76414971566964629, 0.62180659150585571};
  ASSERT_EQ(rig.gpu_count(), 3u);
  for (std::size_t i = 0; i < rig.gpu_count(); ++i) {
    auto& s = rig.stream(i);
    EXPECT_EQ(s.images_completed(), images[i]) << "stream " << i;
    EXPECT_EQ(s.batches_completed(), batches[i]) << "stream " << i;
    EXPECT_EQ(s.pending_requests(), pending[i]) << "stream " << i;
    EXPECT_EQ(s.images_throughput().rate(now, window), rates[i])
        << "stream " << i;
    EXPECT_EQ(s.batch_latency().mean(now, opt.loop.period.value),
              exec_means[i])
        << "stream " << i;
  }
}

}  // namespace
}  // namespace capgpu::workload
