// Every metric the benchmark reports, with its unit, and — for a layer
// metric — the end-to-end metric it should move and the workloads where its
// layer does the most and the least work. Which metrics the result line
// carries, and their direction and bound, is BENCHMARK.json's to say:
// run.py picks the listed names out of the `record:` lines and checks that
// their units agree.
#pragma once

#include <string_view>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;   ///< end-to-end metrics a layer metric moves
  const char* most;    ///< workload where the layer does the most work
  const char* least;   ///< and the least (or none)
};

inline constexpr MetricDef kMetrics[] = {
    // End to end, measured with tracing off. Host time comes twice: wall
    // time, and CPU time, which excludes what the hypervisor steals.
    {"setup_s", "s", "", "", ""},
    {"rig_periods_per_s", "1/s", "", "", ""},
    {"rig_periods_per_cpu_s", "1/s", "", "", ""},
    {"scenario_ms_p50", "ms", "", "", ""},
    {"scenario_ms_p90", "ms", "", "", ""},
    {"scenario_cpu_ms_p50", "ms", "", "", ""},
    {"scenario_cpu_ms_p90", "ms", "", "", ""},
    {"peak_rss_mb", "MB", "", "", ""},
    {"failed_frac", "fraction", "", "", ""},
    {"sim_power_err_w", "W", "", "", ""},
    {"sim_slo_miss_frac", "fraction", "", "", ""},
    {"sim_images_per_rig_s", "1/s", "", "", ""},
    {"sim_j_per_image", "J", "", "", ""},

    // Per layer, from the traced run.
    {"runner.busy_frac", "fraction", "rig_periods_per_s scenario_ms_p90",
     "paper-sweep", "none: fleets"},
    {"runner.tail_idle_ms", "ms", "rig_periods_per_s scenario_ms_p90",
     "paper-sweep", "none: fleets"},
    {"core.rig_build_us_p50", "us",
     "rig_periods_per_cpu_s rig_periods_per_s peak_rss_mb", "fleet-1024",
     "paper-sweep"},
    {"core.rss_kb_per_rig_period", "kB",
     "rig_periods_per_cpu_s rig_periods_per_s peak_rss_mb", "fleet-1024",
     "paper-sweep"},
    {"core.held_periods", "count", "sim_power_err_w sim_slo_miss_frac",
     "fleet-brownout-256", "fleet-1024"},
    {"core.failsafe_engagements", "count", "sim_power_err_w sim_slo_miss_frac",
     "fleet-brownout-256", "fleet-1024"},
    {"sim.step_self_ns_per_rig_period", "ns",
     "rig_periods_per_cpu_s rig_periods_per_s", "all three", "all three"},
    {"sim.events_per_rig_period", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "all three", "all three"},
    {"sim.ns_per_event", "ns", "rig_periods_per_cpu_s rig_periods_per_s",
     "all three", "all three"},
    {"workload.images_per_rig_period", "count", "sim_images_per_rig_s",
     "all three", "all three"},
    {"workload.batches_per_rig_period", "count", "sim_images_per_rig_s",
     "all three", "all three"},
    {"control.capgpu_decide_us_p50", "us",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.capgpu_decide_us_p90", "us",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"baselines.decide_us_p50", "us", "rig_periods_per_cpu_s rig_periods_per_s",
     "paper-sweep", "none: fleets"},
    {"control.share", "fraction", "rig_periods_per_cpu_s rig_periods_per_s",
     "paper-sweep", "fleets"},
    {"control.solver_path.cache", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.solver_path.structured", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.solver_path.warm", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.solver_path.fast", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.solver_path.cold", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"control.qp_iterations_mean", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "paper-sweep", "fleets"},
    {"hal.meter_us_p50", "us", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-brownout-256", "fleet-1024"},
    {"hal.actuate_us_p50", "us", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-brownout-256", "fleet-1024"},
    {"hal.calls_per_rig_period", "count",
     "rig_periods_per_cpu_s rig_periods_per_s", "fleet-brownout-256",
     "fleet-1024"},
    {"hal.actuation_retries", "count", "sim_power_err_w sim_slo_miss_frac",
     "fleet-brownout-256", "fleet-1024"},
    {"hal.actuation_failures", "count", "sim_power_err_w sim_slo_miss_frac",
     "fleet-brownout-256", "fleet-1024"},
    {"faults.injections", "count", "sim_power_err_w sim_slo_miss_frac",
     "fleet-brownout-256", "fleet-1024"},
    {"rack.rebalance_us_p50", "us", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-1024", "none: paper-sweep"},
    {"rack.quarantined_rig_epochs", "count",
     "sim_power_err_w sim_slo_miss_frac", "fleet-brownout-256",
     "none: paper-sweep"},
    {"fleet.cascade_us_p50", "us", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-1024", "none: paper-sweep"},
    {"fleet.epoch_ms_p50", "ms", "rig_periods_per_s", "fleet-1024",
     "none: paper-sweep"},
    {"fleet.epoch_ms_p90", "ms", "rig_periods_per_s", "fleet-1024",
     "none: paper-sweep"},
    {"fleet.step_ms_per_epoch", "ms", "rig_periods_per_s", "fleet-1024",
     "none: paper-sweep"},
    {"fleet.barrier_wait_frac", "fraction", "rig_periods_per_s", "fleet-1024",
     "none: paper-sweep"},
    {"fleet.shard_imbalance", "ratio", "rig_periods_per_s", "fleet-1024",
     "none: paper-sweep"},
    {"fleet.build_ms", "ms", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-1024", "none: paper-sweep"},
    {"fleet.merge_ms", "ms", "rig_periods_per_cpu_s rig_periods_per_s",
     "fleet-1024", "none: paper-sweep"},
    {"telemetry.on_period_us_p50", "us",
     "rig_periods_per_cpu_s rig_periods_per_s peak_rss_mb",
     "fleet-brownout-256", "none: paper-sweep"},
    {"telemetry.merge_us_per_scope", "us",
     "rig_periods_per_cpu_s rig_periods_per_s peak_rss_mb", "fleet-1024",
     "none: paper-sweep"},
    {"telemetry.series_count", "count",
     "rig_periods_per_cpu_s rig_periods_per_s peak_rss_mb", "fleet-1024",
     "paper-sweep"},
    {"trace.overhead_frac", "fraction", "", "", ""},
};

/// The catalogue entry for `name`, or nullptr.
[[nodiscard]] inline const MetricDef* find_metric(std::string_view name) {
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace perfbench
