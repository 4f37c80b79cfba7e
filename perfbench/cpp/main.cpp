// perfbench: the repository's benchmark.
//
//   perfbench --workload <paper-sweep|fleet-1024|fleet-brownout-256|all>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-rev <rev>] [--spans-out <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced reps: spans around every layer call give
// the per-layer metrics, and the two kinds of rep give the tracing
// overhead. Either way the outputs are checked (Fig 6 shape checks, fleet
// digests against the serial reference and across reps, cascade
// conservation), and each workload prints a table and a `record:` JSON
// line with its provenance, checks and every metric it measured. The
// wrapper (run.py) builds the result line from the records and the metrics
// BENCHMARK.json lists.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalogue.hpp"
#include "common/log.hpp"
#include "fleet/fleet_sim.hpp"
#include "fleet_driver.hpp"
#include "runner/scenario_runner.hpp"
#include "runner/thread_pool.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/scope.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fleet = capgpu::fleet;
namespace telemetry = capgpu::telemetry;

constexpr const char* kWorkloads[] = {"paper-sweep", "fleet-1024",
                                      "fleet-brownout-256"};

const char* workload_why(const std::string& w) {
  if (w == "paper-sweep") {
    return "the paper's own Fig 6 experiment: the single-rig path with "
           "3-stream pipelines, 4-device MPC and baselines, where control "
           "has its largest share";
  }
  if (w == "fleet-1024") {
    return "loads the fleet layers at scale: sharded stepping, the barrier, "
           "a cascade over 128 racks, 1024 telemetry merges, and memory";
  }
  return "the same fleet layers driven by open-loop arrivals, with a PDU "
         "brownout through the fault decorators, fail-safe, quarantine and "
         "the energy ledger";
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string git_rev{"unknown"};
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::size_t samples{0};
};

struct Report {
  std::string workload;
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, std::size_t samples) {
    if (find_metric(name) == nullptr) check(name + " is catalogued", false);
    metrics.push_back({name, value, samples});
  }
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    correct = correct && ok;
  }
};

double wall_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

/// Seconds since construction on `clock`: wall time by default, or a CPU
/// clock from stats.hpp.
class Stopwatch {
 public:
  explicit Stopwatch(double (*clock)() = wall_seconds)
      : clock_(clock), start_(clock()) {}
  [[nodiscard]] double seconds() const { return clock_() - start_; }

 private:
  double (*clock_)();
  double start_;
};

/// Times a workload's set-up, in CPU seconds of the thread doing it (the
/// set-up is single-threaded). A burst before the first rep (which also
/// leaves the set-up's outputs in place for the run) and a few more
/// set-ups before every rep, outside the timed region, so the median
/// samples the whole run and not only its first moments.
class SetupClock {
 public:
  /// `burst` set-ups now, `per_rep` before every rep.
  SetupClock(std::function<void()> fn, std::size_t burst, std::size_t per_rep)
      : fn_(std::move(fn)), per_rep_(per_rep) {
    for (std::size_t i = 0; i < burst; ++i) sample();
  }
  void between_reps() {
    for (std::size_t i = 0; i < per_rep_; ++i) sample();
  }
  [[nodiscard]] double seconds() const { return median(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  void sample() {
    Stopwatch w(thread_cpu_s);
    fn_();
    samples_.push_back(w.seconds());
  }
  std::function<void()> fn_;
  std::size_t per_rep_;
  std::vector<double> samples_;
};

// --- reading a rep's telemetry --------------------------------------------

struct Readout {
  double path[5]{};  // cache, structured, warm, fast, cold
  double qp_sum{0.0};
  double qp_count{0.0};
  std::size_t series{0};
  double joules{0.0};
  double requests{0.0};
};

Readout read_scope(telemetry::ScenarioTelemetry& scope) {
  static constexpr const char* kPaths[5] = {"cache", "structured", "warm",
                                            "fast", "cold"};
  Readout r;
  for (const auto* f : scope.metrics().families()) {
    const bool path = f->name == telemetry::metric::kCtlSolverPath;
    const bool qp = f->name == telemetry::metric::kCtlQpIterations;
    if (!path && !qp) continue;
    for (const auto& [key, inst] : f->series) {
      if (qp && inst->histogram) {
        r.qp_sum += inst->histogram->sum();
        r.qp_count += static_cast<double>(inst->histogram->count());
      }
      if (!path) continue;
      for (const auto& [k, v] : inst->labels) {
        if (k != "path") continue;
        for (std::size_t p = 0; p < 5; ++p) {
          if (v == kPaths[p]) r.path[p] += inst->counter.value();
        }
      }
    }
  }
  r.series = scope.metrics().series_count();
  for (const auto& cap : scope.energy().caps()) {
    r.joules += cap.total_joules;
    r.requests += static_cast<double>(cap.requests);
  }
  return r;
}

// --- span aggregation ------------------------------------------------------

/// Per-layer host time gathered from the spans of the traced reps.
struct LayerAcc {
  std::vector<std::vector<double>> dur_us = std::vector<std::vector<double>>(
      static_cast<std::size_t>(SpanName::kCount));
  double sim_self_ns{0.0};
  double sim_total_ns{0.0};
  double decide_ns{0.0};
  double hal_calls{0.0};
  std::vector<double> cascade_self_us;
  std::vector<double> barrier_wait;
  std::vector<double> imbalance;
  std::vector<double> busy_frac;
  std::vector<double> tail_idle_ms;

  [[nodiscard]] const std::vector<double>& of(SpanName n) const {
    return dur_us[static_cast<std::size_t>(n)];
  }

  void add(const std::vector<Span>& spans, std::size_t jobs) {
    std::unordered_map<std::uint64_t, std::size_t> pos;
    pos.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;
    std::vector<double> child_ns(spans.size(), 0.0);
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> kids;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      dur_us[static_cast<std::size_t>(s.name)].push_back(d * 1e-3);
      if (auto it = pos.find(s.parent); it != pos.end()) {
        child_ns[it->second] += d;
        if (s.name == SpanName::kFleetShard ||
            s.name == SpanName::kRunnerScenario) {
          kids[s.parent].push_back(i);
        }
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      switch (s.name) {
        case SpanName::kRunUntil:
        case SpanName::kRigRun:
          sim_self_ns += d - child_ns[i];
          sim_total_ns += d;
          break;
        case SpanName::kCapgpuDecide:
        case SpanName::kBaselineDecide:
          decide_ns += d;
          break;
        case SpanName::kHalMeter:
        case SpanName::kHalActuate:
        case SpanName::kHalRead:
          hal_calls += 1.0;
          break;
        case SpanName::kFleetCascade:
          cascade_self_us.push_back((d - child_ns[i]) * 1e-3);
          break;
        case SpanName::kFleetStep:
        case SpanName::kRunnerMap:
          add_phase(s, spans, kids[s.id], jobs);
          break;
        default:
          break;
      }
    }
  }

  // One parallel phase: the fleet step over its shards, or a runner map
  // over its scenarios. Worker busy time is the sum of the phase's tasks
  // that ran on that thread.
  void add_phase(const Span& phase, const std::vector<Span>& spans,
                 const std::vector<std::size_t>& tasks, std::size_t jobs) {
    if (tasks.empty()) return;
    const auto span_ns = static_cast<double>(phase.end_ns - phase.start_ns);
    std::map<std::uint16_t, double> busy;
    std::map<std::uint16_t, std::int64_t> last_end;
    std::vector<double> task_ns;
    for (std::size_t t : tasks) {
      const Span& s = spans[t];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      task_ns.push_back(d);
      busy[s.thread] += d;
      last_end[s.thread] = std::max(last_end[s.thread], s.end_ns);
    }
    const double workers =
        static_cast<double>(std::min<std::size_t>(jobs, tasks.size()));
    double total = 0.0;
    for (double d : task_ns) total += d;
    if (phase.name == SpanName::kFleetStep) {
      barrier_wait.push_back(1.0 - total / workers / span_ns);
      imbalance.push_back(*std::max_element(task_ns.begin(), task_ns.end()) /
                          mean(task_ns));
    } else {
      busy_frac.push_back(total / (span_ns * workers));
      std::int64_t first_idle = phase.end_ns;
      for (const auto& [thread, end] : last_end) {
        first_idle = std::min(first_idle, end);
      }
      tail_idle_ms.push_back(static_cast<double>(phase.end_ns - first_idle) *
                             1e-6);
    }
  }
};

/// Counts of one traced rep, for the per-rig-period ratios.
struct Counts {
  double rig_periods{0.0};
  double events{0.0};
  double images{0.0};
  double batches{0.0};
  double held{0.0};
  double engagements{0.0};
  double retries{0.0};
  double failures{0.0};
  double injections{0.0};
  double quarantined{0.0};
  bool fleet{false};
};

void add_layer_metrics(Report& rep, const LayerAcc& acc, const Counts& c,
                       const Readout& reg, std::size_t series,
                       const std::vector<double>& rss_kb_per_rp,
                       double overhead) {
  auto q = [](const std::vector<double>& v, double p) {
    return quantile(v, p);
  };
  const auto& decide = acc.of(SpanName::kCapgpuDecide);
  rep.add("core.rig_build_us_p50", q(acc.of(SpanName::kRigBuild), 0.5),
          acc.of(SpanName::kRigBuild).size());
  rep.add("core.rss_kb_per_rig_period", median(rss_kb_per_rp),
          rss_kb_per_rp.size());
  rep.add("core.held_periods", c.held, 1);
  rep.add("core.failsafe_engagements", c.engagements, 1);
  rep.add("sim.step_self_ns_per_rig_period", acc.sim_self_ns / c.rig_periods,
          acc.of(SpanName::kRunUntil).size() +
              acc.of(SpanName::kRigRun).size());
  rep.add("sim.events_per_rig_period", c.events / c.rig_periods, 1);
  rep.add("sim.ns_per_event", acc.sim_self_ns / c.events, 1);
  rep.add("workload.images_per_rig_period", c.images / c.rig_periods, 1);
  rep.add("workload.batches_per_rig_period", c.batches / c.rig_periods, 1);
  rep.add("control.capgpu_decide_us_p50", q(decide, 0.5), decide.size());
  rep.add("control.capgpu_decide_us_p90", q(decide, 0.9), decide.size());
  if (!acc.of(SpanName::kBaselineDecide).empty()) {
    rep.add("baselines.decide_us_p50",
            q(acc.of(SpanName::kBaselineDecide), 0.5),
            acc.of(SpanName::kBaselineDecide).size());
  }
  rep.add("control.share", acc.decide_ns / acc.sim_total_ns, 1);
  static constexpr const char* kPathMetrics[5] = {
      "control.solver_path.cache", "control.solver_path.structured",
      "control.solver_path.warm", "control.solver_path.fast",
      "control.solver_path.cold"};
  for (std::size_t p = 0; p < 5; ++p) rep.add(kPathMetrics[p], reg.path[p], 1);
  rep.add("control.qp_iterations_mean",
          reg.qp_count > 0.0 ? reg.qp_sum / reg.qp_count : 0.0,
          static_cast<std::size_t>(reg.qp_count));
  rep.add("hal.actuation_retries", c.retries, 1);
  rep.add("hal.actuation_failures", c.failures, 1);
  rep.add("telemetry.series_count", static_cast<double>(series), 1);
  rep.add("trace.overhead_frac", overhead, 1);

  if (!acc.busy_frac.empty()) {
    rep.add("runner.busy_frac", mean(acc.busy_frac), acc.busy_frac.size());
    rep.add("runner.tail_idle_ms", mean(acc.tail_idle_ms),
            acc.tail_idle_ms.size());
  }
  if (!c.fleet) return;
  const auto& meter = acc.of(SpanName::kHalMeter);
  const auto& actuate = acc.of(SpanName::kHalActuate);
  rep.add("hal.meter_us_p50", q(meter, 0.5), meter.size());
  rep.add("hal.actuate_us_p50", q(actuate, 0.5), actuate.size());
  rep.add("hal.calls_per_rig_period", acc.hal_calls / c.rig_periods, 1);
  rep.add("faults.injections", c.injections, 1);
  rep.add("rack.rebalance_us_p50", q(acc.of(SpanName::kRackRebalance), 0.5),
          acc.of(SpanName::kRackRebalance).size());
  rep.add("rack.quarantined_rig_epochs", c.quarantined, 1);
  rep.add("fleet.cascade_us_p50", q(acc.cascade_self_us, 0.5),
          acc.cascade_self_us.size());
  const auto& epoch = acc.of(SpanName::kFleetEpoch);
  std::vector<double> epoch_ms;
  for (double us : epoch) epoch_ms.push_back(us * 1e-3);
  rep.add("fleet.epoch_ms_p50", q(epoch_ms, 0.5), epoch_ms.size());
  rep.add("fleet.epoch_ms_p90", q(epoch_ms, 0.9), epoch_ms.size());
  rep.add("fleet.step_ms_per_epoch", mean(acc.of(SpanName::kFleetStep)) * 1e-3,
          acc.of(SpanName::kFleetStep).size());
  rep.add("fleet.barrier_wait_frac", mean(acc.barrier_wait),
          acc.barrier_wait.size());
  rep.add("fleet.shard_imbalance", mean(acc.imbalance), acc.imbalance.size());
  rep.add("fleet.build_ms", mean(acc.of(SpanName::kFleetBuild)) * 1e-3,
          acc.of(SpanName::kFleetBuild).size());
  rep.add("fleet.merge_ms", mean(acc.of(SpanName::kFleetMerge)) * 1e-3,
          acc.of(SpanName::kFleetMerge).size());
  rep.add("telemetry.on_period_us_p50", q(acc.of(SpanName::kOnPeriod), 0.5),
          acc.of(SpanName::kOnPeriod).size());
  rep.add("telemetry.merge_us_per_scope", mean(acc.of(SpanName::kScopeMerge)),
          acc.of(SpanName::kScopeMerge).size());
}

/// Starts a rep: hands memory freed by earlier reps back to the kernel,
/// resets the high-water mark, and returns the current RSS — so each
/// rep's peak counts its own allocations, not what earlier reps left
/// cached in the allocator. Throws (failing the rep) when the mark cannot
/// be reset, since the rep's peak would then include earlier work.
double begin_rep_memory() {
  malloc_trim(0);
  if (!reset_peak_rss()) {
    throw std::runtime_error(
        "cannot reset the VmHWM high-water mark through "
        "/proc/self/clear_refs");
  }
  return proc_status_kb("VmRSS");
}

/// Records the traced rep's spans and, for the first one, writes them.
void collect_spans(const Args& args, LayerAcc& acc, std::size_t rep,
                   std::size_t jobs) {
  SpanRecorder& rec = SpanRecorder::instance();
  const std::vector<Span> spans = rec.collect();
  acc.add(spans, jobs);
  if (rep == 0 && !args.spans_out.empty()) {
    if (!SpanRecorder::write_csv(spans, args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }
  rec.clear();
}

/// Runs reps for `--seconds`, and at least two of each kind. With
/// `--trace 1` untraced and traced reps alternate, so both sample the same
/// host conditions. Each rep attempts `ops` ops; one that throws fails them
/// all and ends the loop (the simulator is deterministic, so it would
/// throw again).
template <typename Rep, typename Fn>
void run_reps(const Args& args, std::size_t jobs, std::size_t ops,
              SetupClock& setup, Report& out, LayerAcc& acc,
              std::vector<Rep>& untraced, std::vector<Rep>& traced,
              Fn&& run_rep) {
  auto set_tracing = [](bool on) {
    SpanRecorder::instance().set_enabled(on);
    telemetry::FlightRecorder::global().set_enabled(on);
  };
  Stopwatch clock;
  while (clock.seconds() < args.seconds || untraced.size() < 2 ||
         (args.trace && traced.size() < 2)) {
    const bool tracing = args.trace && traced.size() < untraced.size();
    std::vector<Rep>& into = tracing ? traced : untraced;
    setup.between_reps();
    set_tracing(tracing);
    SpanRecorder::instance().set_run(static_cast<std::uint32_t>(into.size()));
    out.attempted += ops;
    try {
      into.push_back(run_rep(tracing));
    } catch (const std::exception& e) {
      set_tracing(false);
      out.failed += ops;
      out.check(std::string("rep threw: ") + e.what(), false);
      return;
    }
    set_tracing(false);
    if (tracing) collect_spans(args, acc, traced.size() - 1, jobs);
  }
}

// --- paper-sweep -----------------------------------------------------------

struct SweepRep {
  std::vector<SweepCell> cells;
  double wall_s{0.0};
  double cpu_s{0.0};  ///< process CPU time: every worker's share
  double peak_kb{0.0};
  double rss_before_kb{0.0};
  Readout reg;
};

SweepRep run_sweep_rep(const std::vector<SweepScenario>& scenarios,
                       const capgpu::control::IdentifiedModel& model,
                       std::size_t jobs) {
  telemetry::ScenarioTelemetry scope(telemetry::Tracer::global(),
                                     telemetry::FlightRecorder::global());
  telemetry::ScenarioTelemetry::Binding bind(scope);
  SweepRep rep;
  rep.rss_before_kb = begin_rep_memory();
  Stopwatch wall;
  Stopwatch cpu(process_cpu_s);
  {
    SpanScope map(SpanName::kRunnerMap);
    const std::uint64_t map_id = map.id();
    capgpu::runner::ScenarioRunner runner({jobs});
    rep.cells = runner.map(scenarios.size(), [&](std::size_t i) {
      SpanScope body(SpanName::kRunnerScenario, map_id);
      return run_sweep_scenario(scenarios[i], model);
    });
  }
  rep.wall_s = wall.seconds();
  rep.cpu_s = cpu.seconds();
  rep.peak_kb = proc_status_kb("VmHWM");
  rep.reg = read_scope(scope);
  return rep;
}

Report run_paper_sweep(const Args& args, std::size_t jobs) {
  Report out;
  out.workload = "paper-sweep";
  std::vector<SweepScenario> scenarios;
  capgpu::control::IdentifiedModel model;
  SetupClock setup(
      [&] {
        model = identify_testbed();
        scenarios = sweep_scenarios(args.seed);
      },
      3, 1);
  const double n = static_cast<double>(scenarios.size());
  const double rig_periods = n * static_cast<double>(kSweepPeriods);

  std::vector<SweepRep> reps;
  std::vector<SweepRep> traced;
  LayerAcc acc;
  run_reps(args, jobs, scenarios.size(), setup, out, acc, reps, traced,
           [&](bool) { return run_sweep_rep(scenarios, model, jobs); });
  if (reps.empty()) return out;

  // Output checks: the Fig 6 shapes on every rig seed's grid, and every
  // rep (traced ones included) producing the same cells as the first.
  const SweepRep& r0 = reps.front();
  const std::size_t grids =
      scenarios.size() / (kSweepSetPoints * kSweepPolicyCount);
  for (std::size_t g = 0; g < grids; ++g) {
    for (const ShapeCheck& c : fig6_shape_checks(scenarios, r0.cells, g)) {
      out.check("fig6." + c.name, c.pass);
    }
  }
  bool same = true;
  for (const auto* set : {&reps, &traced}) {
    for (const SweepRep& r : *set) {
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        same = same && r.cells[i].same_outputs(r0.cells[i]);
      }
    }
  }
  out.check("identical outputs across reps", same);

  std::vector<double> rps;
  std::vector<double> rpcs;
  std::vector<double> scenario_ms;
  std::vector<double> scenario_cpu_ms;
  std::vector<double> peak_mb;
  std::vector<double> rss_per_rp;
  for (const SweepRep& r : reps) {
    rps.push_back(rig_periods / r.wall_s);
    rpcs.push_back(rig_periods / r.cpu_s);
    for (const SweepCell& c : r.cells) {
      scenario_ms.push_back(c.host_ms);
      scenario_cpu_ms.push_back(c.cpu_ms);
    }
    peak_mb.push_back(r.peak_kb / 1024.0);
    rss_per_rp.push_back((r.peak_kb - r.rss_before_kb) / rig_periods);
  }
  double images = 0.0;
  for (const SweepCell& c : r0.cells) images += static_cast<double>(c.images);
  const double period_s = 4.0;  // ControlLoopConfig default, as in Fig 6
  out.add("setup_s", setup.seconds(), setup.samples());
  out.add("rig_periods_per_s", median(rps), rps.size());
  out.add("rig_periods_per_cpu_s", median(rpcs), rpcs.size());
  out.add("scenario_ms_p50", quantile(scenario_ms, 0.5), scenario_ms.size());
  out.add("scenario_ms_p90", quantile(scenario_ms, 0.9), scenario_ms.size());
  out.add("scenario_cpu_ms_p50", quantile(scenario_cpu_ms, 0.5),
          scenario_cpu_ms.size());
  out.add("scenario_cpu_ms_p90", quantile(scenario_cpu_ms, 0.9),
          scenario_cpu_ms.size());
  out.add("peak_rss_mb", median(peak_mb), peak_mb.size());
  out.add("sim_power_err_w", sweep_power_error(scenarios, r0.cells),
          scenarios.size() / kSweepPolicyCount);
  out.add("sim_images_per_rig_s", images / (rig_periods * period_s),
          scenarios.size());
  out.add("sim_j_per_image", r0.reg.joules / r0.reg.requests,
          scenarios.size());

  if (!traced.empty()) {
    std::vector<double> traced_rpcs;
    for (const SweepRep& r : traced) {
      traced_rpcs.push_back(rig_periods / r.cpu_s);
    }
    Counts c;
    c.rig_periods = rig_periods * static_cast<double>(traced.size());
    for (const SweepRep& r : traced) {
      for (const SweepCell& cell : r.cells) {
        c.events += static_cast<double>(cell.events);
        c.images += static_cast<double>(cell.images);
        c.batches += static_cast<double>(cell.batches);
        c.held += static_cast<double>(cell.held_periods);
        c.engagements += static_cast<double>(cell.failsafe_engagements);
        c.retries += static_cast<double>(cell.actuation_retries);
        c.failures += static_cast<double>(cell.actuation_failures);
      }
    }
    // Counts are per rep; the per-rig-period ratios use every traced rep.
    const double k = static_cast<double>(traced.size());
    c.held /= k;
    c.engagements /= k;
    c.retries /= k;
    c.failures /= k;
    add_layer_metrics(out, acc, c, traced.front().reg, r0.reg.series,
                      rss_per_rp, median(rpcs) / median(traced_rpcs) - 1.0);
  }
  return out;
}

// --- fleets ----------------------------------------------------------------

struct FleetRep {
  fleet::FleetResult result;
  FleetCounts counts;
  double wall_s{0.0};
  double cpu_s{0.0};  ///< process CPU time: every worker's share
  double peak_kb{0.0};
  double rss_before_kb{0.0};
  Readout reg;
};

FleetRep run_fleet_rep(const FleetSpec& spec, std::size_t jobs, bool traced) {
  telemetry::ScenarioTelemetry scope(telemetry::Tracer::global(),
                                     telemetry::FlightRecorder::global());
  telemetry::ScenarioTelemetry::Binding bind(scope);
  FleetRep rep;
  if (traced) {
    rep.rss_before_kb = begin_rep_memory();
    Stopwatch wall;
    Stopwatch cpu(process_cpu_s);
    TracedFleetRun run = run_traced_fleet(spec.config, spec.faults, jobs);
    rep.wall_s = wall.seconds();
    rep.cpu_s = cpu.seconds();
    rep.result = std::move(run.result);
    rep.counts = run.counts;
  } else {
    fleet::FleetSim sim(spec.config, {0, jobs});
    for (const auto& f : spec.faults) sim.add_fault(f.first, f.second);
    rep.rss_before_kb = begin_rep_memory();
    Stopwatch wall;
    Stopwatch cpu(process_cpu_s);
    rep.result = sim.run();
    rep.wall_s = wall.seconds();
    rep.cpu_s = cpu.seconds();
  }
  rep.peak_kb = proc_status_kb("VmHWM");
  rep.reg = read_scope(scope);
  return rep;
}

Report run_fleet(const Args& args, const std::string& name, std::size_t jobs) {
  Report out;
  out.workload = name;
  FleetSpec spec;
  // Set-up: config validation, the DomainTree and fault attachment — what
  // the FleetSim constructor and add_fault do before run().
  SetupClock setup(
      [&] {
        spec = name == "fleet-1024" ? fleet_1024_spec()
                                    : fleet_brownout_spec(args.seed);
        fleet::FleetSim sim(spec.config, {0, jobs});
        for (const auto& f : spec.faults) sim.add_fault(f.first, f.second);
      },
      25, 25);
  if (name == "fleet-1024") {
    out.notes.push_back(
        "fleet-1024 does not depend on --seed: FleetSim fixes rig seeds at "
        "100 + i and the run has no fault streams");
  }
  const fleet::FleetConfig cfg = fleet::validated(spec.config);
  const double rigs = static_cast<double>(cfg.topology.total_rigs());
  const double rig_periods = rigs * static_cast<double>(cfg.periods);

  // The serial reference, outside the timed region.
  fleet::FleetResult reference;
  {
    telemetry::ScenarioTelemetry scope(telemetry::Tracer::global(),
                                       telemetry::FlightRecorder::global());
    telemetry::ScenarioTelemetry::Binding bind(scope);
    reference = fleet::run_serial_reference(spec.config, spec.faults);
  }
  const FleetDigest ref_digest(reference);

  std::vector<FleetRep> reps;
  std::vector<FleetRep> traced;
  LayerAcc acc;
  run_reps(args, jobs, cfg.topology.total_rigs(), setup, out, acc, reps,
           traced,
           [&](bool tracing) { return run_fleet_rep(spec, jobs, tracing); });
  if (reps.empty()) return out;

  const fleet::FleetResult& r0 = reps.front().result;
  out.check("digest equals run_serial_reference",
            FleetDigest(r0) == ref_digest);
  bool same = true;
  for (const FleetRep& r : reps) {
    same = same && FleetDigest(r.result) == ref_digest;
  }
  out.check("identical digests across reps", same);
  if (!traced.empty()) {
    bool traced_same = true;
    for (const FleetRep& r : traced) {
      traced_same = traced_same && FleetDigest(r.result) == ref_digest;
    }
    out.check("traced driver digest equals FleetSim", traced_same);
  }
  std::string first;
  const std::size_t violations = cascade_violations(spec, r0, &first);
  out.check("cascade conservation at every decision" +
                (violations > 0 ? " (" + first + ")" : std::string()),
            violations == 0);

  std::vector<double> rps;
  std::vector<double> rpcs;
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> peak_mb;
  std::vector<double> rss_per_rp;
  for (const FleetRep& r : reps) {
    rps.push_back(rig_periods / r.wall_s);
    rpcs.push_back(rig_periods / r.cpu_s);
    wall_ms.push_back(r.wall_s * 1e3);
    cpu_ms.push_back(r.cpu_s * 1e3);
    peak_mb.push_back(r.peak_kb / 1024.0);
    rss_per_rp.push_back((r.peak_kb - r.rss_before_kb) / rig_periods);
  }
  out.add("setup_s", setup.seconds(), setup.samples());
  out.add("rig_periods_per_s", median(rps), rps.size());
  out.add("rig_periods_per_cpu_s", median(rpcs), rpcs.size());
  out.add("scenario_ms_p50", quantile(wall_ms, 0.5), wall_ms.size());
  out.add("scenario_ms_p90", quantile(wall_ms, 0.9), wall_ms.size());
  out.add("scenario_cpu_ms_p50", quantile(cpu_ms, 0.5), cpu_ms.size());
  out.add("scenario_cpu_ms_p90", quantile(cpu_ms, 0.9), cpu_ms.size());
  out.add("peak_rss_mb", median(peak_mb), peak_mb.size());
  out.add("sim_power_err_w", fleet_power_error(r0), r0.snaps.size());
  out.add("sim_slo_miss_frac",
          r0.checked > 0 ? static_cast<double>(r0.missed) /
                               static_cast<double>(r0.checked)
                         : 0.0,
          r0.checked);
  out.add("sim_images_per_rig_s", r0.images / (rig_periods * cfg.period_s),
          r0.rigs);
  if (cfg.energy_attribution) {
    out.add("sim_j_per_image", reps.front().reg.joules /
                                   reps.front().reg.requests,
            r0.rigs);
  }

  if (!traced.empty()) {
    std::vector<double> traced_rpcs;
    for (const FleetRep& r : traced) {
      traced_rpcs.push_back(rig_periods / r.cpu_s);
    }
    const FleetRep& t0 = traced.front();
    Counts c;
    c.fleet = true;
    c.rig_periods = rig_periods;
    c.events = static_cast<double>(t0.counts.events);
    c.images = static_cast<double>(t0.counts.images);
    c.batches = static_cast<double>(t0.counts.batches);
    c.held = static_cast<double>(t0.counts.held_periods);
    c.engagements = static_cast<double>(t0.result.failsafe_engagements);
    c.retries = static_cast<double>(t0.counts.actuation_retries);
    c.failures = static_cast<double>(t0.counts.actuation_failures);
    c.injections = static_cast<double>(t0.counts.injections);
    for (const auto& s : t0.result.snaps) {
      for (int h : s.health) c.quarantined += h >= 2 ? 1.0 : 0.0;
    }
    // The span sums cover every traced rep; scale the per-rep counts.
    const double k = static_cast<double>(traced.size());
    c.rig_periods *= k;
    c.events *= k;
    c.images *= k;
    c.batches *= k;
    add_layer_metrics(out, acc, c, t0.reg, reps.front().reg.series,
                      rss_per_rp, median(rpcs) / median(traced_rpcs) - 1.0);
  }
  return out;
}

// --- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_table(const Report& r) {
  std::printf("\n== %s ==\n", r.workload.c_str());
  for (const auto& [name, ok] : r.checks) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name.c_str());
  }
  for (const std::string& note : r.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::printf("  %-34s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : r.metrics) {
    const MetricDef* def = find_metric(m.name);
    std::printf("  %-34s %16.6g %-9s %zu\n", m.name.c_str(), m.value,
                def != nullptr ? def->unit : "?", m.samples);
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

std::string record_json(const Report& r, const Args& args, std::size_t jobs) {
  std::string s = "{\"workload\": \"" + r.workload + "\", \"why\": \"" +
                  json_escape(workload_why(r.workload)) + "\"";
  s += std::string(", \"correct\": ") + (r.correct ? "true" : "false") +
       ", \"attempted\": " + std::to_string(r.attempted) +
       ", \"failed\": " + std::to_string(r.failed);
  s += ", \"provenance\": {\"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"compiler\": \"" + json_escape(std::string("g++ ") + __VERSION__) +
       "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"git_rev\": \"" +
       json_escape(args.git_rev) + "\", \"seed\": " +
       std::to_string(args.seed) + ", \"workers\": " + std::to_string(jobs) +
       ", \"seconds\": " + num(args.seconds) +
       ", \"trace\": " + (args.trace ? "1" : "0") + "}";
  s += ", \"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    s += (i ? ", \"" : "\"") + json_escape(r.checks[i].first) +
         "\": " + (r.checks[i].second ? "true" : "false");
  }
  s += "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const MetricDef* def = find_metric(m.name);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + (def != nullptr ? def->unit : "?") +
         "\", \"samples\": " + std::to_string(m.samples);
    if (def != nullptr && *def->moves != '\0') {
      s += std::string(", \"moves\": \"") + def->moves + "\", \"most\": \"" +
           def->most + "\", \"least\": \"" + def->least + "\"";
    }
    s += "}";
  }
  s += "}}";
  return s;
}

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    kv[k.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") {
        a.workload = v;
      } else if (k == "seed") {
        a.seed = std::stoull(v);
      } else if (k == "seconds") {
        a.seconds = std::stod(v);
      } else if (k == "trace") {
        a.trace = v == "1";
        if (v != "0" && v != "1") return false;
      } else if (k == "git-rev") {
        a.git_rev = v;
      } else if (k == "spans-out") {
        a.spans_out = v;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  if (!(a.seconds > 0.0)) return false;
  if (a.workload == "all") return true;
  for (const char* w : kWorkloads) {
    if (a.workload == w) return true;
  }
  return false;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper-sweep|fleet-1024|"
                 "fleet-brownout-256|all> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-rev <rev>] "
                 "[--spans-out <path>]\n",
                 argv[0]);
    return 2;
  }
  // Health transitions and fail-safe engagements are logged as warnings;
  // the run's checks and counts report them instead.
  capgpu::Log::set_level(capgpu::LogLevel::kError);
  const std::size_t jobs = capgpu::runner::ThreadPool::hardware_jobs();
  std::vector<std::string> names;
  if (args.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(args.workload);
  }
  std::vector<Report> reports;
  for (const std::string& name : names) {
    reports.push_back(name == "paper-sweep" ? run_paper_sweep(args, jobs)
                                            : run_fleet(args, name, jobs));
    Report& r = reports.back();
    if (!r.correct) r.failed = r.attempted;  // a failed check fails the run
    r.add("failed_frac",
          r.attempted > 0 ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 1.0,
          r.attempted);
    print_table(reports.back());
    std::printf("record: %s\n",
                record_json(reports.back(), args, jobs).c_str());
  }
  return 0;
}
