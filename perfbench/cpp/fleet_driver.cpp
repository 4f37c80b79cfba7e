#include "fleet_driver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/rig.hpp"
#include "fleet/cascade.hpp"
#include "probes.hpp"
#include "rack/coordinator.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/runtime.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/slo.hpp"
#include "workload/model_zoo.hpp"

namespace perfbench {

namespace fleet = capgpu::fleet;
namespace core = capgpu::core;
namespace rack = capgpu::rack;
namespace telemetry = capgpu::telemetry;
using capgpu::Seconds;
using capgpu::Watts;

namespace {

// One rig, as fleet_sim.cpp holds it, plus the two timing decorators the
// loop drives instead of the controller and the control HAL.
struct FleetRig {
  std::unique_ptr<telemetry::ScenarioTelemetry> scope;
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<TimedPolicy> policy;
  std::unique_ptr<TimedHal> hal;
  std::unique_ptr<core::ControlLoop> loop;
  std::unique_ptr<telemetry::SloBurnMonitor> monitor;
  std::optional<telemetry::EnergyLedger> ledger;
  double last_budget_w{0.0};
  double last_meter_w{0.0};
  double images{0.0};
  std::exception_ptr error;
};

double last_power(const core::ControlLoop& loop) {
  return loop.power_trace().empty() ? 0.0
                                    : loop.power_trace().values().back();
}

void build_rig(const fleet::FleetConfig& cfg,
               const capgpu::faults::DomainTree& tree, std::size_t i,
               double initial_budget_w, FleetRig& out) {
  SpanScope span(SpanName::kRigBuild);
  core::RigConfig rc;
  rc.models = {capgpu::workload::resnet50_v100()};
  rc.seed = 100 + i;
  rc.faults = tree.rig_plan(i);
  if (cfg.offered_load > 0.0) rc.offered_load = {{0.0, cfg.offered_load}};
  out.rig = std::make_unique<core::ServerRig>(rc);
  out.controller = std::make_unique<core::CapGpuController>(
      core::CapGpuConfig{}, out.rig->device_ranges(),
      out.rig->analytic_power_model(), Watts{initial_budget_w},
      out.rig->latency_models());
  out.controller->set_slo(1, cfg.slo_s);
  out.policy =
      std::make_unique<TimedPolicy>(*out.controller, SpanName::kCapgpuDecide);
  out.hal = std::make_unique<TimedHal>(out.rig->control_hal());
  core::ControlLoopConfig lc;
  lc.period = Seconds{cfg.period_s};
  lc.failsafe = core::FailSafeConfig{};
  auto* rig_ptr = out.rig.get();
  out.loop = std::make_unique<core::ControlLoop>(
      rig_ptr->engine(), *out.hal, rig_ptr->rapl(), *out.policy, lc,
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
    SpanScope on_period(SpanName::kOnPeriod);
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
      double avg_w = fr->last_meter_w;
      try {
        avg_w = rig_ptr->hal().power_meter().average(Seconds{period_s}).value;
      } catch (const capgpu::HalError&) {
      }
      fr->last_meter_w = avg_w;
      fr->ledger->begin_period(ctl->set_point().value, avg_w, period_s);
      auto& batches = s.energy_batches();
      fr->ledger->add_batches(0, batches.data(), batches.size());
      batches.clear();
      fr->ledger->end_period();
    }
    lat.trim(now);
    s.images_throughput().trim(now);
    s.queue_delay().trim(now);
    s.preprocess_latency().trim(now);
  };
  out.loop->start();
}

rack::ServerEndpoint make_endpoint(const fleet::FleetConfig& cfg,
                                   const capgpu::faults::DomainTree& tree,
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
  ep.power_residual = [loop, fr] {
    const double p = last_power(*loop);
    return p > fr->last_budget_w ? p - fr->last_budget_w : 0.0;
  };
  ep.slo_burn = [mon] { return mon->fast_burn(); };
  return ep;
}

fleet::FleetDecisionRecord apply_cascade(
    const fleet::FleetConfig& cfg, const capgpu::faults::DomainTree& tree,
    std::vector<FleetRig>& rigs,
    std::vector<std::unique_ptr<rack::RackCoordinator>>& coords, double now) {
  SpanScope span(SpanName::kFleetCascade);
  const capgpu::faults::DomainTopology& topo = tree.topology();
  const std::size_t n = rigs.size();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;

  fleet::CascadeConfig cc;
  cc.facility_budget_w = cfg.facility_budget_w;
  cc.rig_bounds = cfg.rig_bounds;
  cc.burn_weight_clamp = cfg.burn_weight_clamp;

  std::vector<fleet::RigSignals> signals(n);
  for (std::size_t i = 0; i < n; ++i) {
    signals[i].demand = rigs[i].rig->gpu_demand();
    signals[i].slo_burn = rigs[i].monitor->fast_burn();
    const rack::RigHealth h =
        coords[i / rigs_per_rack]->health(i % rigs_per_rack);
    signals[i].healthy =
        h != rack::RigHealth::kFailsafe && h != rack::RigHealth::kDead;
  }

  fleet::FleetDecisionRecord rec;
  rec.tiers = fleet::cascade_tiers(tree, cc, signals, now);
  const std::vector<rack::AllocationBounds> feed =
      fleet::rig_feed_bounds(tree, cc, now);
  rec.rig_w.reserve(n);
  for (std::size_t k = 0; k < coords.size(); ++k) {
    for (std::size_t j = 0; j < rigs_per_rack; ++j) {
      coords[k]->set_server_bounds(j, feed[k * rigs_per_rack + j]);
    }
    coords[k]->set_rack_budget(Watts{rec.tiers.rack_w[k]});
    std::vector<double> grants;
    {
      SpanScope rebalance(SpanName::kRackRebalance);
      grants = coords[k]->rebalance(now);
    }
    rec.rig_w.insert(rec.rig_w.end(), grants.begin(), grants.end());
  }
  return rec;
}

fleet::FleetPeriodSnap take_snap(
    std::vector<FleetRig>& rigs,
    std::vector<std::unique_ptr<rack::RackCoordinator>>& coords, double now,
    double budget_w) {
  const std::size_t n = rigs.size();
  fleet::FleetPeriodSnap snap;
  snap.t = now;
  snap.budget_w = budget_w;
  for (const auto& c : coords) snap.fleet_power_w += c->total_power();
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

}  // namespace

TracedFleetRun run_traced_fleet(
    const fleet::FleetConfig& config,
    const std::vector<std::pair<std::string, capgpu::faults::DomainFault>>&
        fault_list,
    std::size_t jobs) {
  const fleet::FleetConfig cfg = fleet::validated(config);
  capgpu::faults::DomainTree tree(cfg.topology, cfg.seed);
  for (const auto& f : fault_list) tree.add_fault(f.first, f.second);

  const capgpu::faults::DomainTopology& topo = tree.topology();
  const std::size_t n = tree.rig_count();
  const std::size_t racks = topo.total_racks();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;
  if (jobs == 0) jobs = capgpu::runner::ThreadPool::hardware_jobs();

  telemetry::MetricsRegistry& parent_metrics =
      telemetry::MetricsRegistry::current();
  telemetry::Tracer& parent_tracer = telemetry::Tracer::current();
  telemetry::SloRegistry& parent_slo = telemetry::SloRegistry::current();
  telemetry::FlightRecorder& parent_flight =
      telemetry::FlightRecorder::current();
  telemetry::ResilienceRegistry& parent_resilience =
      telemetry::ResilienceRegistry::current();
  telemetry::EnergyRegistry& parent_energy =
      telemetry::EnergyRegistry::current();

  struct Range {
    std::size_t begin{0};
    std::size_t end{0};
  };
  const std::size_t shards = std::clamp<std::size_t>(4 * jobs, 1, n);
  std::vector<Range> ranges;
  const std::size_t chunk = (n + shards - 1) / shards;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }
  std::optional<capgpu::runner::ThreadPool> pool;
  if (jobs > 1 && ranges.size() > 1) {
    pool.emplace(std::min(jobs, ranges.size()));
  }

  std::vector<FleetRig> rigs(n);
  double epoch_now = 0.0;
  for (auto& fr : rigs) {
    fr.scope = std::make_unique<telemetry::ScenarioTelemetry>(parent_tracer,
                                                              parent_flight);
  }
  telemetry::ScenarioTelemetry fleet_scope(parent_tracer, parent_flight);
  fleet_scope.tracer().set_clock([&epoch_now] { return epoch_now; });

  // One parallel phase under `parent`: each shard task is a fleet.shard
  // span, the per-rig work runs under the rig's scope and time source.
  auto shard_pass = [&](std::uint64_t parent,
                        const std::function<void(FleetRig&, std::size_t)>&
                            per_rig) {
    auto shard = [&](std::size_t s) {
      SpanScope span(SpanName::kFleetShard, parent);
      for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
        FleetRig& fr = rigs[i];
        if (fr.error) continue;
        telemetry::ScenarioTelemetry::Binding bind(*fr.scope);
        if (fr.rig) {
          telemetry::attach_time_source(
              fr.rig.get(), [eng = &fr.rig->engine()] { return eng->now(); });
        }
        try {
          per_rig(fr, i);
        } catch (...) {
          fr.error = std::current_exception();
        }
        if (fr.rig) telemetry::detach_time_source(fr.rig.get());
      }
    };
    if (pool) {
      pool->parallel_for(ranges.size(), shard);
    } else {
      for (std::size_t s = 0; s < ranges.size(); ++s) shard(s);
    }
  };
  auto merge_scope = [&](telemetry::ScenarioTelemetry& scope) {
    SpanScope span(SpanName::kScopeMerge);
    scope.merge_into(parent_metrics, parent_tracer, parent_slo, parent_flight,
                     parent_resilience, parent_energy);
  };
  auto merge_all = [&](std::size_t count) {
    SpanScope span(SpanName::kFleetMerge);
    for (std::size_t i = 0; i < count; ++i) merge_scope(*rigs[i].scope);
    merge_scope(fleet_scope);
  };
  auto rethrow_first_error = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (rigs[i].error) {
        merge_all(i);
        std::rethrow_exception(rigs[i].error);
      }
    }
  };

  const double initial_budget_w =
      cfg.facility_budget_w / static_cast<double>(n);
  {
    SpanScope build(SpanName::kFleetBuild);
    shard_pass(build.id(), [&](FleetRig& fr, std::size_t i) {
      build_rig(cfg, tree, i, initial_budget_w, fr);
    });
  }
  rethrow_first_error();

  std::vector<std::unique_ptr<rack::RackCoordinator>> coords;
  struct EpochClockGuard {
    const void* owner{nullptr};
    ~EpochClockGuard() {
      if (owner != nullptr) telemetry::detach_time_source(owner);
    }
  } epoch_clock;
  auto attach_epoch_clock = [&] {
    telemetry::attach_time_source(&epoch_now,
                                  [&epoch_now] { return epoch_now; });
    epoch_clock.owner = &epoch_now;
  };
  // The fleet counters, gauges and cascade instants FleetSim registers
  // are telemetry output only; they feed no decision, so the driver
  // leaves them out.
  {
    telemetry::ScenarioTelemetry::Binding bind(fleet_scope);
    attach_epoch_clock();
    coords.reserve(racks);
    for (std::size_t k = 0; k < racks; ++k) {
      coords.push_back(std::make_unique<rack::RackCoordinator>(
          Watts{cfg.facility_budget_w / static_cast<double>(racks)},
          rack::RackPolicy::kDemandProportional));
      if (cfg.health.enabled) coords[k]->set_health_config(cfg.health);
      for (std::size_t j = 0; j < rigs_per_rack; ++j) {
        const std::size_t i = k * rigs_per_rack + j;
        coords[k]->add_server(make_endpoint(cfg, tree, i, rigs[i]));
      }
    }
  }

  TracedFleetRun out;
  fleet::FleetResult& result = out.result;
  result.rigs = n;
  result.epochs = cfg.periods;
  result.shards = ranges.size();
  result.jobs = pool ? std::min(jobs, ranges.size()) : 1;

  double budget_in_force = cfg.facility_budget_w;
  for (std::size_t k = 1; k <= cfg.periods; ++k) {
    SpanScope epoch(SpanName::kFleetEpoch);
    {
      SpanScope step(SpanName::kFleetStep);
      shard_pass(step.id(), [&](FleetRig& fr, std::size_t) {
        SpanScope run_until(SpanName::kRunUntil);
        fr.rig->engine().run_until(fr.rig->engine().now() + cfg.period_s);
      });
    }
    rethrow_first_error();
    const double now = static_cast<double>(k) * cfg.period_s;
    epoch_now = now;
    telemetry::ScenarioTelemetry::Binding bind(fleet_scope);
    attach_epoch_clock();
    if (k % cfg.rebalance_every == 0) {
      fleet::FleetDecisionRecord rec =
          apply_cascade(cfg, tree, rigs, coords, now);
      budget_in_force = rec.tiers.deliverable_w;
      result.decisions.push_back(std::move(rec));
    }
    result.snaps.push_back(take_snap(rigs, coords, now, budget_in_force));
  }

  shard_pass(0, [&](FleetRig& fr, std::size_t) {
    fr.loop->stop();
    auto& s = fr.rig->stream(0);
    s.flush_stage_stats();
    if (fr.ledger) {
      s.set_energy_recording(false);
      s.energy_batches().clear();
      fr.ledger->finalize(telemetry::EnergyRegistry::current());
    }
  });
  rethrow_first_error();

  result.objective = rigs[0].monitor->config().objective;
  FleetCounts& c = out.counts;
  for (std::size_t i = 0; i < n; ++i) {
    const FleetRig& fr = rigs[i];
    result.images += fr.images;
    result.checked += fr.monitor->checked_total();
    result.missed += fr.monitor->missed_total();
    const auto* fs = fr.loop->failsafe();
    if (fs != nullptr) result.failsafe_engagements += fs->engagements();
    c.events += fr.rig->engine().events_executed();
    c.images += fr.rig->stream(0).images_completed();
    c.batches += fr.rig->stream(0).batches_completed();
    c.held_periods += fr.loop->held_periods();
    c.actuation_retries += fr.loop->actuation_retries();
    c.actuation_failures += fr.loop->actuation_failures();
    if (const auto* faulty = fr.rig->faulty_hal(); faulty != nullptr) {
      const capgpu::hal::FaultCounters& f = faulty->counters();
      c.injections += f.meter_dropped + f.meter_nan + f.meter_spike +
                      f.util_frozen + f.actuation_throw + f.actuation_noop +
                      f.actuation_delay;
    }
  }
  for (const auto& coord : coords) {
    const auto& log = coord->health_log();
    result.health_log.insert(result.health_log.end(), log.begin(), log.end());
  }
  if (!result.snaps.empty()) {
    double sum = 0.0;
    for (const auto& s : result.snaps) sum += s.fleet_power_w;
    result.mean_power_w = sum / static_cast<double>(result.snaps.size());
  }
  result.base_pid = parent_tracer.pid() + rigs[0].rig->trace_pid();
  merge_all(n);
  return out;
}

}  // namespace perfbench
