#include "fleet/assembly.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "hal/server_hal.hpp"
#include "workload/model_zoo.hpp"

namespace capgpu::fleet::detail {

namespace {

double last_power(const core::ControlLoop& loop) {
  return loop.power_trace().empty() ? 0.0
                                    : loop.power_trace().values().back();
}

}  // namespace

void build_rig(const FleetConfig& cfg, const faults::DomainTree& tree,
               std::size_t i, double initial_budget_w, FleetRig& out) {
  core::RigConfig rc;
  rc.models = {workload::resnet50_v100()};
  rc.seed = 100 + i;
  rc.faults = tree.rig_plan(i);
  if (cfg.offered_load > 0.0) rc.offered_load = {{0.0, cfg.offered_load}};
  out.rig = std::make_unique<core::ServerRig>(rc);
  out.controller = std::make_unique<core::CapGpuController>(
      core::CapGpuConfig{}, out.rig->device_ranges(),
      out.rig->analytic_power_model(), Watts{initial_budget_w},
      out.rig->latency_models());
  out.controller->set_slo(1, cfg.slo_s);
  core::ControlLoopConfig lc;
  lc.period = Seconds{cfg.period_s};
  // Every loop runs hardened: campaigns score the coordinators' health
  // layer on top of the loops' own fail-safe, never instead of it.
  lc.failsafe = core::FailSafeConfig{};
  auto* rig_ptr = out.rig.get();
  out.loop = std::make_unique<core::ControlLoop>(
      rig_ptr->engine(), rig_ptr->control_hal(), rig_ptr->rapl(),
      *out.controller, lc,
      [rig_ptr] { return rig_ptr->normalized_throughputs(); });
  out.monitor =
      std::make_unique<telemetry::SloBurnMonitor>(telemetry::SloBurnConfig{});
  out.last_budget_w = initial_budget_w;
  if (cfg.energy_attribution) {
    out.ledger.emplace(out.controller->name(), rig_ptr->trace_pid(),
                       std::size_t{1},
                       std::vector<std::string>{
                           rig_ptr->stream(0).model().name});
    rig_ptr->stream(0).set_energy_recording(true);
  }

  auto* mon = out.monitor.get();
  auto* ctl = out.controller.get();
  FleetRig* fr = &out;
  const double period_s = cfg.period_s;
  const double slo = cfg.slo_s;
  out.loop->on_period = [rig_ptr, mon, ctl, fr, period_s, slo](std::size_t) {
    const double now = rig_ptr->engine().now();
    auto& s = rig_ptr->stream(0);
    auto& lat = s.batch_latency();
    const std::size_t cnt = lat.count(now, period_s);
    const auto misses = static_cast<std::uint64_t>(std::llround(
        lat.miss_rate(now, period_s, slo) * static_cast<double>(cnt)));
    mon->record(now, cnt, misses);
    fr->images += s.images_throughput().rate(now, period_s) * period_s;
    (void)s.take_stage_period_means();
    if (fr->ledger) {
      // Integrate the pristine meter; a sensor gap holds the previous
      // reading so the integral stays continuous (cf. ServerRig::run).
      double avg_w = fr->last_meter_w;
      try {
        avg_w = rig_ptr->hal().power_meter().average(Seconds{period_s}).value;
      } catch (const HalError&) {
      }
      fr->last_meter_w = avg_w;
      fr->ledger->begin_period(ctl->set_point().value, avg_w, period_s);
      auto& batches = s.energy_batches();
      fr->ledger->add_batches(0, batches.data(), batches.size());
      batches.clear();
      fr->ledger->end_period();
    }
    rig_ptr->trim_monitors(now);
  };
  out.loop->start();
}

rack::ServerEndpoint make_endpoint(const FleetConfig& cfg,
                                   const faults::DomainTree& tree,
                                   std::size_t i, FleetRig& r) {
  rack::ServerEndpoint ep;
  ep.name = tree.rig_path(i);
  auto* rig_ptr = r.rig.get();
  auto* ctl = r.controller.get();
  auto* loop = r.loop.get();
  auto* mon = r.monitor.get();
  FleetRig* fr = &r;
  ep.set_budget = [ctl, fr](Watts w) {
    fr->last_budget_w = w.value;
    ctl->set_set_point(w);
  };
  ep.measured_power = [loop] { return last_power(*loop); };
  ep.demand = [rig_ptr] { return rig_ptr->gpu_demand(); };
  ep.bounds = cfg.rig_bounds;
  ep.report_age = [loop, rig_ptr] {
    const auto* fs = loop->failsafe();
    return fs != nullptr ? fs->seconds_since_fresh(rig_ptr->engine().now())
                         : 0.0;
  };
  ep.failsafe_state = [loop] {
    const auto* fs = loop->failsafe();
    return fs != nullptr ? static_cast<int>(fs->state()) : -1;
  };
  // One-sided residual: only over-budget draw votes against the rig. A
  // lightly-loaded rig legitimately sits under its allocation.
  ep.power_residual = [loop, fr] {
    const double p = last_power(*loop);
    return p > fr->last_budget_w ? p - fr->last_budget_w : 0.0;
  };
  ep.slo_burn = [mon] { return mon->fast_burn(); };
  return ep;
}

FleetPeriodSnap take_snap(
    const std::vector<FleetRig>& rigs,
    const std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
    double now, double budget_w) {
  const std::size_t n = rigs.size();
  FleetPeriodSnap snap;
  snap.t = now;
  snap.budget_w = budget_w;
  for (const auto& c : coords) snap.fleet_power_w += c->total_power();
  snap.failsafe.reserve(n);
  snap.health.reserve(n);
  snap.checked.reserve(n);
  snap.missed.reserve(n);
  snap.engagements.reserve(n);
  const std::size_t rigs_per_rack = n / coords.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto* fs = rigs[i].loop->failsafe();
    snap.failsafe.push_back(fs != nullptr ? static_cast<int>(fs->state())
                                          : 0);
    snap.health.push_back(static_cast<int>(
        coords[i / rigs_per_rack]->health(i % rigs_per_rack)));
    snap.checked.push_back(rigs[i].monitor->checked_total());
    snap.missed.push_back(rigs[i].monitor->missed_total());
    snap.engagements.push_back(fs != nullptr ? fs->engagements() : 0);
  }
  return snap;
}

void tally(const std::vector<FleetRig>& rigs,
           const std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
           FleetResult& result) {
  result.objective = rigs[0].monitor->config().objective;
  for (const FleetRig& r : rigs) {
    result.images += r.images;
    result.checked += r.monitor->checked_total();
    result.missed += r.monitor->missed_total();
    const auto* fs = r.loop->failsafe();
    if (fs != nullptr) result.failsafe_engagements += fs->engagements();
  }
  for (const auto& c : coords) {
    const auto& log = c->health_log();
    result.health_log.insert(result.health_log.end(), log.begin(),
                             log.end());
  }
  if (!result.snaps.empty()) {
    double sum = 0.0;
    for (const auto& s : result.snaps) sum += s.fleet_power_w;
    result.mean_power_w = sum / static_cast<double>(result.snaps.size());
  }
}

}  // namespace capgpu::fleet::detail
