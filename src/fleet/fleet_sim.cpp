#include "fleet/fleet_sim.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "fleet/assembly.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/runtime.hpp"

namespace capgpu::fleet {

FleetConfig validated(FleetConfig config) {
  config.topology = faults::validated(config.topology);
  if (config.facility_budget_w == 0.0) {
    config.facility_budget_w =
        560.0 * static_cast<double>(config.topology.total_rigs());
  }
  CAPGPU_REQUIRE(config.facility_budget_w > 0.0,
                 "facility_budget_w must be positive");
  CAPGPU_REQUIRE(config.periods > 0, "periods must be positive");
  CAPGPU_REQUIRE(config.period_s > 0.0, "period_s must be positive");
  CAPGPU_REQUIRE(config.rebalance_every >= 1, "rebalance_every must be >= 1");
  CAPGPU_REQUIRE(config.offered_load >= 0.0 && config.offered_load <= 1.0,
                 "offered_load must be in [0, 1]");
  CAPGPU_REQUIRE(config.slo_s > 0.0, "slo_s must be positive");
  CAPGPU_REQUIRE(
      config.rig_bounds.min > 0.0 &&
          config.rig_bounds.max >= config.rig_bounds.min,
      "rig_bounds must satisfy 0 < min <= max");
  CAPGPU_REQUIRE(config.burn_weight_clamp >= 0.0,
                 "burn_weight_clamp must be >= 0");
  rack::RigHealthConfig health = config.health;
  health.enabled = true;
  (void)rack::validated(health);
  return config;
}

namespace {

using detail::FleetRig;

/// Fleet-scope instrumentation handles, resolved once per run.
struct FleetMetrics {
  telemetry::Counter* epochs{nullptr};
  telemetry::Counter* rig_periods{nullptr};
  telemetry::Counter* cascades{nullptr};
  telemetry::Gauge* deliverable{nullptr};
  telemetry::Gauge* oversubscribed{nullptr};
  std::vector<telemetry::Gauge*> row_budget;
  std::vector<telemetry::Gauge*> rack_budget;
  int tid{0};
};

FleetMetrics register_fleet_metrics(const faults::DomainTopology& topo) {
  namespace metric = telemetry::metric;
  auto& reg = telemetry::MetricsRegistry::current();
  FleetMetrics m;
  m.epochs =
      &reg.counter(metric::kFleetEpochs, "Fleet control epochs completed");
  m.rig_periods = &reg.counter(metric::kFleetRigPeriods,
                               "Rig control periods stepped by the fleet");
  m.cascades = &reg.counter(metric::kFleetCascades,
                            "Hierarchical budget cascades solved");
  m.deliverable =
      &reg.gauge(metric::kFleetDeliverableWatts,
                 "Facility watts deliverable after feed degradation");
  m.oversubscribed = &reg.gauge(
      metric::kFleetOversubscribedWatts,
      "Guaranteed-minimum watts the facility feed cannot cover");
  m.row_budget.reserve(topo.rows);
  for (std::size_t w = 0; w < topo.rows; ++w) {
    m.row_budget.push_back(
        &reg.gauge(metric::kFleetRowBudgetWatts, "Row budget grant",
                   {{"row", "row" + std::to_string(w)}}));
  }
  m.rack_budget.reserve(topo.total_racks());
  for (std::size_t w = 0; w < topo.rows; ++w) {
    for (std::size_t r = 0; r < topo.racks; ++r) {
      m.rack_budget.push_back(
          &reg.gauge(metric::kFleetRackBudgetWatts, "Rack budget grant",
                     {{"rack", rack_node(topo, w, r)}}));
    }
  }
  auto& tracer = telemetry::Tracer::current();
  tracer.begin_run("fleet");
  m.tid = tracer.register_track("fleet");
  return m;
}

/// One barrier-synchronized cascade: sample every rig's signals, solve the
/// facility → row → rack tiers, push per-rack feed bounds and budgets, and
/// let each RackCoordinator divide its grant. Runs on the epoch thread
/// with the fleet telemetry scope bound.
FleetDecisionRecord apply_cascade(
    const FleetConfig& cfg, const faults::DomainTree& tree,
    std::vector<FleetRig>& rigs,
    std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
    FleetMetrics& fm, double now) {
  const faults::DomainTopology& topo = tree.topology();
  const std::size_t n = rigs.size();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;

  CascadeConfig cc;
  cc.facility_budget_w = cfg.facility_budget_w;
  cc.rig_bounds = cfg.rig_bounds;
  cc.burn_weight_clamp = cfg.burn_weight_clamp;

  std::vector<RigSignals> signals(n);
  for (std::size_t i = 0; i < n; ++i) {
    signals[i].demand = rigs[i].rig->gpu_demand();
    signals[i].slo_burn = rigs[i].monitor->fast_burn();
    const rack::RigHealth h =
        coords[i / rigs_per_rack]->health(i % rigs_per_rack);
    signals[i].healthy =
        h != rack::RigHealth::kFailsafe && h != rack::RigHealth::kDead;
  }

  FleetDecisionRecord rec;
  rec.tiers = cascade_tiers(tree, cc, signals, now);
  const std::vector<rack::AllocationBounds> feed =
      rig_feed_bounds(tree, cc, now);
  rec.rig_w.reserve(n);
  for (std::size_t k = 0; k < coords.size(); ++k) {
    for (std::size_t j = 0; j < rigs_per_rack; ++j) {
      coords[k]->set_server_bounds(j, feed[k * rigs_per_rack + j]);
    }
    coords[k]->set_rack_budget(Watts{rec.tiers.rack_w[k]});
    const std::vector<double> grants = coords[k]->rebalance(now);
    rec.rig_w.insert(rec.rig_w.end(), grants.begin(), grants.end());
  }

  fm.cascades->inc();
  fm.deliverable->set(rec.tiers.deliverable_w);
  fm.oversubscribed->set(rec.tiers.oversubscribed_w);
  for (std::size_t w = 0; w < rec.tiers.row_w.size(); ++w) {
    fm.row_budget[w]->set(rec.tiers.row_w[w]);
  }
  for (std::size_t r = 0; r < rec.tiers.rack_w.size(); ++r) {
    fm.rack_budget[r]->set(rec.tiers.rack_w[r]);
  }
  telemetry::Tracer::current().instant(
      fm.tid, "fleet_cascade", "fleet",
      {{"deliverable_w", rec.tiers.deliverable_w},
       {"oversubscribed_w", rec.tiers.oversubscribed_w}});
  return rec;
}

/// The epoch driver shared by the sharded scenario and the serial
/// reference. `scoped` selects per-rig ScenarioTelemetry isolation plus
/// (when jobs > 1) pool execution; unscoped runs serially in the caller's
/// telemetry, exactly as a hand-rolled loop over ServerRigs would.
FleetResult run_fleet(const FleetConfig& cfg, const faults::DomainTree& tree,
                      std::size_t shards, std::size_t jobs, bool scoped) {
  const faults::DomainTopology& topo = tree.topology();
  const std::size_t n = tree.rig_count();
  const std::size_t racks = topo.total_racks();
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;

  // Merge targets: whatever telemetry is current on the launching thread.
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

  // Contiguous topology-order shard ranges.
  if (!scoped) shards = 1;
  shards = std::clamp<std::size_t>(shards, 1, n);
  struct Range {
    std::size_t begin{0};
    std::size_t end{0};
  };
  std::vector<Range> ranges;
  const std::size_t chunk = (n + shards - 1) / shards;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }

  std::optional<runner::ThreadPool> pool;
  if (scoped && jobs > 1 && ranges.size() > 1) {
    pool.emplace(std::min(jobs, ranges.size()));
  }

  std::vector<FleetRig> rigs(n);
  double epoch_now = 0.0;
  std::optional<telemetry::ScenarioTelemetry> fleet_scope;
  if (scoped) {
    for (auto& fr : rigs) {
      fr.scope = std::make_unique<telemetry::ScenarioTelemetry>(
          parent_tracer, parent_flight);
    }
    fleet_scope.emplace(parent_tracer, parent_flight);
    // Cascade instants carry the epoch time. The serial reference leaves
    // the caller's clock alone; its instants read the caller's time
    // source, which at the barrier sits at the same epoch boundary.
    fleet_scope->tracer().set_clock([&epoch_now] { return epoch_now; });
  }

  auto for_each_shard = [&](const std::function<void(std::size_t)>& fn) {
    if (pool) {
      pool->parallel_for(ranges.size(), fn);
    } else {
      for (std::size_t s = 0; s < ranges.size(); ++s) fn(s);
    }
  };
  // One parallel phase: every shard walks its rigs in index order under
  // each rig's scope, stashing (not leaking) per-rig errors so the set of
  // rigs that executed never depends on completion timing.
  auto shard_pass =
      [&](const std::function<void(FleetRig&, std::size_t)>& per_rig) {
        for_each_shard([&](std::size_t s) {
          for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
            FleetRig& fr = rigs[i];
            if (fr.error) continue;
            std::optional<telemetry::ScenarioTelemetry::Binding> bind;
            if (scoped) bind.emplace(*fr.scope);
            // This worker's thread-local log clock still points at
            // whichever rig it last *built*, possibly one another worker
            // is now advancing; re-point it at the rig in hand and clear
            // it afterwards so no stale engine is ever read.
            if (scoped && fr.rig) {
              telemetry::attach_time_source(
                  fr.rig.get(),
                  [eng = &fr.rig->engine()] { return eng->now(); });
            }
            try {
              per_rig(fr, i);
            } catch (...) {
              fr.error = std::current_exception();
            }
            if (scoped && fr.rig) {
              telemetry::detach_time_source(fr.rig.get());
            }
          }
        });
      };
  auto merge_all = [&](std::size_t count) {
    if (!scoped) return;
    for (std::size_t i = 0; i < count; ++i) {
      rigs[i].scope->merge_into(parent_metrics, parent_tracer, parent_slo,
                                parent_flight, parent_resilience,
                                parent_energy);
    }
    fleet_scope->merge_into(parent_metrics, parent_tracer, parent_slo,
                            parent_flight, parent_resilience, parent_energy);
  };
  // Barrier epilogue: rethrow the lowest-index error, merging the rigs
  // below it first — the telemetry a serial run would have accumulated
  // before dying there.
  auto rethrow_first_error = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (rigs[i].error) {
        merge_all(i);
        std::rethrow_exception(rigs[i].error);
      }
    }
  };

  // Phase 0: rig construction is part of the sharded win — build and
  // start every rig inside its shard task.
  const double initial_budget_w =
      cfg.facility_budget_w / static_cast<double>(n);
  shard_pass([&](FleetRig& fr, std::size_t i) {
    build_rig(cfg, tree, i, initial_budget_w, fr);
  });
  rethrow_first_error();

  // Rack coordinators live in the fleet scope: their gauges, rebalance
  // counters and health transitions belong to the fleet process, merged
  // after every rig.
  std::vector<std::unique_ptr<rack::RackCoordinator>> coords;
  FleetMetrics fm;
  // The epoch thread owns the coordinators; stamp their logs (health
  // transitions, rebalance warnings) with the epoch clock so prefixes
  // are identical for any shard layout. Guarded so an exception cannot
  // leave the caller's thread-local clock pointing at a dead stack slot.
  struct EpochClockGuard {
    const void* owner{nullptr};
    ~EpochClockGuard() {
      if (owner != nullptr) telemetry::detach_time_source(owner);
    }
  } epoch_clock;
  auto attach_epoch_clock = [&] {
    if (!scoped) return;
    telemetry::attach_time_source(&epoch_now,
                                  [&epoch_now] { return epoch_now; });
    epoch_clock.owner = &epoch_now;
  };
  {
    std::optional<telemetry::ScenarioTelemetry::Binding> bind;
    if (scoped) bind.emplace(*fleet_scope);
    attach_epoch_clock();
    fm = register_fleet_metrics(topo);
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

  FleetResult result;
  result.rigs = n;
  result.epochs = cfg.periods;
  result.shards = ranges.size();
  result.jobs = pool ? std::min(jobs, ranges.size()) : 1;
  result.decisions.reserve(cfg.periods / cfg.rebalance_every + 1);
  result.snaps.reserve(cfg.periods);

  // Lockstep epochs: parallel rig-step phase, barrier, then the cascade
  // and the snapshot on the epoch thread (now accumulates per rig; the
  // cascade sees k * T, as in fleet::run_campaign's rack driver).
  double budget_in_force = cfg.facility_budget_w;
  for (std::size_t k = 1; k <= cfg.periods; ++k) {
    shard_pass([&](FleetRig& fr, std::size_t) {
      fr.rig->engine().run_until(fr.rig->engine().now() + cfg.period_s);
    });
    rethrow_first_error();
    const double now = static_cast<double>(k) * cfg.period_s;
    epoch_now = now;
    {
      std::optional<telemetry::ScenarioTelemetry::Binding> bind;
      if (scoped) bind.emplace(*fleet_scope);
      // With no pool the step phase ran inline above and detached this
      // thread's clock; with a pool the attachment survived. Either way
      // the cascade runs under the epoch clock.
      attach_epoch_clock();
      fm.epochs->inc();
      fm.rig_periods->inc(static_cast<double>(n));
      if (k % cfg.rebalance_every == 0) {
        FleetDecisionRecord rec =
            apply_cascade(cfg, tree, rigs, coords, fm, now);
        budget_in_force = rec.tiers.deliverable_w;
        result.decisions.push_back(std::move(rec));
      }
      result.snaps.push_back(take_snap(rigs, coords, now, budget_in_force));
    }
  }

  // Final phase: stop the loops and settle the ledgers, still sharded and
  // still under each rig's scope (the ledger finalizes into the rig's own
  // EnergyRegistry, which merges in topology order below).
  shard_pass([&](FleetRig& fr, std::size_t) {
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

  tally(rigs, coords, result);
  result.base_pid =
      (scoped ? parent_tracer.pid() : 0) + rigs[0].rig->trace_pid();
  merge_all(n);
  return result;
}

}  // namespace

FleetSim::FleetSim(FleetConfig config, FleetOptions options)
    : config_(validated(std::move(config))),
      options_(options),
      tree_(config_.topology, config_.seed) {}

void FleetSim::add_fault(const std::string& node, faults::DomainFault fault) {
  CAPGPU_REQUIRE(!ran_, "add_fault must precede run");
  tree_.add_fault(node, fault);
}

FleetResult FleetSim::run() {
  CAPGPU_REQUIRE(!ran_, "FleetSim::run may only be called once");
  ran_ = true;
  const std::size_t n = tree_.rig_count();
  const std::size_t jobs = options_.jobs == 0
                               ? runner::ThreadPool::hardware_jobs()
                               : options_.jobs;
  const std::size_t shards =
      options_.shards == 0 ? std::min(n, 4 * jobs) : options_.shards;
  return run_fleet(config_, tree_, shards, jobs, /*scoped=*/true);
}

FleetResult run_serial_reference(
    const FleetConfig& config,
    const std::vector<std::pair<std::string, faults::DomainFault>>&
        fault_list) {
  const FleetConfig cfg = validated(config);
  faults::DomainTree tree(cfg.topology, cfg.seed);
  for (const auto& f : fault_list) tree.add_fault(f.first, f.second);
  return run_fleet(cfg, tree, 1, 1, /*scoped=*/false);
}

}  // namespace capgpu::fleet
