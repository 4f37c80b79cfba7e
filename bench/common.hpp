// Shared helpers for the experiment benches.
//
// Every bench reproduces one table or figure from the paper: it builds the
// simulated testbed, drives the controllers, and prints the same rows or
// series the paper reports. Traces are rendered as compact ASCII so the
// figure "shape" is visible in terminal output.
#pragma once

#include <string>
#include <vector>

#include "baselines/controller_iface.hpp"
#include "control/sysid.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "faults/campaign.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/table.hpp"
#include "telemetry/timeseries.hpp"

namespace capgpu::bench {

/// Parses the observability flags shared by every bench and arranges for
/// the outputs to be flushed at process exit:
///
///   --metrics-out <path>   Prometheus text exposition of the global
///                          metrics registry
///   --trace-out <path>     Chrome trace-event JSON (load in Perfetto);
///                          also enables the tracer
///   --events-out <path>    JSONL structured-event stream; also enables
///                          the tracer
///   --log-level <level>    debug | info | warn | error | off
///   --jobs <N>             worker threads for parallel scenario sweeps
///                          (default 1; 0 = hardware threads; at most
///                          kMaxFlagThreads). Output is
///                          byte-identical for every N — see
///                          docs/performance.md.
///   --summary-out <path>   machine-readable JSON run summary: scenario
///                          count, jobs, wall time, per-stage/per-model
///                          p99 request latencies
///   --slo-report-out <path> SLO burn-rate report JSON (error-budget
///                          accounting + alert episodes + stage latency
///                          quantiles); input to tools/capgpu_report
///   --flight-out <path>    control-loop flight-recorder JSONL (one record
///                          per control period); also enables the flight
///                          recorder. Input to tools/capgpu_ctl_replay.
///   --resilience-out <path> chaos-campaign resilience scorecard JSON
///                          (per-stage MTTR, SLO burn, fail-safe dwell);
///                          written by benches that run campaigns.
///   --energy-out <path>    per-request energy attribution JSON: per-{cap,
///                          model} stage joules plus the per-cap efficiency
///                          summary (joules/request, requests/kJ, idle
///                          fraction). Input to tools/capgpu_report.
///
/// Both `--flag value` and `--flag=value` forms work. Consumed flags are
/// removed from argv; unknown flags are left alone (google-benchmark
/// binaries keep their --benchmark_* flags and plain benches ignore the
/// leftovers). Duplicate flags and empty values are rejected (exit 2).
/// Call first thing in main().
void init(int& argc, char** argv);

/// Worker-thread count requested via --jobs, already resolved: >= 1.
[[nodiscard]] std::size_t jobs();

/// Largest thread count a flag may ask for (--jobs, --workers). Far above
/// the cores of any host this runs on, and low enough that no flag value
/// can start thousands of threads.
inline constexpr std::size_t kMaxFlagThreads = 256;
/// Largest --shards: one rig per shard on the largest fleet a campaign may
/// build. Shards start no threads of their own.
inline constexpr std::size_t kMaxFlagShards = faults::kMaxCampaignRigs;

/// Parses the value of the integer flag `--<name>`: plain decimal digits
/// for a number in [lo, hi]. A sign, trailing text, overflow or an
/// out-of-range value throws InvalidArgument naming the flag, so "-1"
/// cannot wrap to a huge count and "4x" cannot read as 4. --jobs and the
/// bench-local flags (--reps, --shards, --workers) all parse through here.
[[nodiscard]] std::size_t parse_count(const std::string& name,
                                      const std::string& value,
                                      std::size_t lo, std::size_t hi);

/// Pole used by every proportional baseline (chosen, as in the paper, to
/// minimise oscillation while converging quickly).
inline constexpr double kBaselinePole = 0.3;

/// Identified power model of the default 3-GPU testbed. Runs the paper's
/// sysid sweep once and caches the result for the whole process.
[[nodiscard]] const control::IdentifiedModel& testbed_model();

/// Builds a CapGPU controller wired to `rig` with the cached model.
[[nodiscard]] core::CapGpuController make_capgpu(core::ServerRig& rig,
                                                 Watts set_point);

/// Prints a header line for a bench.
void print_banner(const std::string& title, const std::string& paper_ref);

/// Renders a time series as an ASCII strip chart: one row of symbols, value
/// range shown on the left. `periods_per_char` compresses long runs.
void print_strip(const std::string& label, const telemetry::TimeSeries& ts,
                 double lo, double hi, std::size_t periods_per_char = 1);

/// Prints steady-state stats of a run's power trace (paper convention:
/// skip the first 20 of 100 periods).
void print_power_summary(const std::string& name, const core::RunResult& res,
                         double set_point_watts, std::size_t skip = 20);

/// Prints the per-stage / per-model request-latency quantile table
/// (p50/p95/p99/p99.9 from the registry's sketches). No-op when no stream
/// recorded stage stats.
void print_stage_quantiles();

/// Convenience: mean over the steady tail of a series.
[[nodiscard]] double steady_mean(const telemetry::TimeSeries& ts,
                                 std::size_t skip);

/// Writes a run's full trace set (power, set point, per-device clocks,
/// per-stream throughput/latency) to results/<name>.csv next to the bench
/// binary, for external plotting. Prints the path written. Failures to
/// create the directory are reported, not fatal (benches must run
/// read-only too).
void export_result_csv(const std::string& name, const core::RunResult& res);

}  // namespace capgpu::bench
