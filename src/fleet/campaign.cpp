#include "fleet/campaign.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "fleet/assembly.hpp"

namespace capgpu::fleet {

namespace {

/// The rig-level configuration both drivers build their rigs from.
FleetConfig fleet_config(const faults::CampaignConfig& cc) {
  FleetConfig fc{.name = cc.name,
                 .topology = cc.topology,
                 .seed = cc.seed,
                 .facility_budget_w = cc.rack_budget_w *
                     static_cast<double>(cc.topology.total_racks()),
                 .periods = cc.periods,
                 .period_s = cc.period_s,
                 .rebalance_every = cc.rebalance_every,
                 .offered_load = cc.offered_load,
                 .slo_s = cc.slo_s,
                 .rig_bounds = cc.bounds,
                 .health = cc.health};
  fc.health.enabled = true;
  return fc;
}

/// Index of the last snap with t <= `time` (-1 when none).
int snap_at(const std::vector<FleetPeriodSnap>& snaps, double time) {
  const auto after = std::partition_point(
      snaps.begin(), snaps.end(),
      [time](const FleetPeriodSnap& s) { return s.t <= time; });
  return static_cast<int>(after - snaps.begin()) - 1;
}

/// Error-budget fraction burned between two snaps (exclusive, inclusive]
/// summed over every rig: miss rate over the window divided by the budget.
double burn_between(const std::vector<FleetPeriodSnap>& snaps, int from,
                    int to, double objective) {
  if (to < 0) return 0.0;
  std::uint64_t checked = 0;
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < snaps[to].checked.size(); ++i) {
    const std::uint64_t c0 = from >= 0 ? snaps[from].checked[i] : 0;
    const std::uint64_t m0 = from >= 0 ? snaps[from].missed[i] : 0;
    checked += snaps[to].checked[i] - c0;
    missed += snaps[to].missed[i] - m0;
  }
  if (checked == 0) return 0.0;
  const double miss_rate =
      static_cast<double>(missed) / static_cast<double>(checked);
  return miss_rate / (1.0 - objective);
}

/// Scores every stage of `config` against a finished run and appends the
/// entries to ResilienceRegistry::current(). `root_domain` names the
/// stages attached to the tree root ("" node).
CampaignResult score_campaign(const faults::CampaignConfig& config,
                              const faults::DomainTree& tree, FleetResult run,
                              std::string variant,
                              const std::string& root_domain) {
  CampaignResult out;
  out.variant = std::move(variant);
  out.run = std::move(run);
  const FleetResult& r = out.run;
  const std::vector<FleetPeriodSnap>& snaps = r.snaps;

  auto& registry = telemetry::ResilienceRegistry::current();
  for (const auto& stage : config.stages) {
    const std::vector<std::size_t> affected = tree.rigs_under(stage.node);
    const auto is_affected = [&](const std::string& server) {
      for (std::size_t i : affected) {
        if (server == tree.rig_path(i)) return true;
      }
      return false;
    };
    const double fault_start = stage.fault.start_s;
    const double fault_end = stage.fault.end_s();

    telemetry::ResilienceEntry entry;
    entry.pid = r.base_pid;
    entry.campaign = config.name;
    entry.variant = out.variant;
    entry.stage = stage.name;
    entry.fault_kind = faults::fault_kind_name(stage.fault.kind);
    entry.domain = stage.node.empty() ? root_domain : stage.node;
    entry.fault_start_s = fault_start;
    entry.fault_end_s = fault_end;

    // Detection: the earliest coordinator demotion of an affected rig at
    // or after fault onset (a fleet's log concatenates its racks' logs,
    // so it is not globally time-sorted).
    for (const auto& tr : r.health_log) {
      if (tr.time_s < fault_start || tr.to == rack::RigHealth::kHealthy ||
          !is_affected(tr.server)) {
        continue;
      }
      if (entry.detected_at_s < 0.0 || tr.time_s < entry.detected_at_s) {
        entry.detected_at_s = tr.time_s;
      }
    }

    // Recovery: the first of 3 consecutive post-fault snaps in which every
    // affected rig's governor is nominal and its coordinator holds it
    // healthy (without health management every rig stays healthy).
    const auto snap_good = [&](const FleetPeriodSnap& s) {
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0 || s.health[i] != 0) return false;
      }
      return true;
    };
    constexpr std::size_t kSustain = 3;
    for (std::size_t k = 0; k + kSustain <= snaps.size(); ++k) {
      if (snaps[k].t < fault_end) continue;
      if (std::all_of(snaps.begin() + k, snaps.begin() + k + kSustain,
                      snap_good)) {
        entry.recovered_at_s = snaps[k].t;
        entry.mttr_s = entry.recovered_at_s - fault_end;
        break;
      }
    }

    const int idx_start = snap_at(snaps, fault_start);
    const int idx_end = snap_at(snaps, fault_end);
    const int idx_last = static_cast<int>(snaps.size()) - 1;
    // Burn over every rig, not just the faulted domain: the point of health
    // management and of the cascade is that the others absorb the slack.
    entry.slo_burn_during =
        burn_between(snaps, idx_start, idx_end, r.objective);
    entry.slo_burn_after = burn_between(snaps, idx_end, idx_last, r.objective);

    const double recovery_horizon =
        entry.recovered_at_s >= 0.0 ? entry.recovered_at_s : snaps.back().t;
    for (const FleetPeriodSnap& s : snaps) {
      if (s.t <= fault_end || s.t > recovery_horizon) continue;
      const double over = s.fleet_power_w - s.budget_w;
      if (over > entry.recovery_overshoot_w) entry.recovery_overshoot_w = over;
    }
    for (const FleetPeriodSnap& s : snaps) {
      if (s.t < fault_start) continue;
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0) entry.failsafe_dwell_s += config.period_s;
      }
    }
    for (std::size_t i : affected) {
      const std::uint64_t e0 =
          idx_start >= 0 ? snaps[idx_start].engagements[i] : 0;
      entry.failsafe_entries += snaps.back().engagements[i] - e0;
    }
    for (const auto& tr : r.health_log) {
      if (tr.time_s >= fault_start && is_affected(tr.server)) {
        ++entry.health_transitions;
      }
    }

    out.stages.push_back(entry);
    registry.add(std::move(entry));
  }

  if (r.checked > 0) {
    const double miss_rate =
        static_cast<double>(r.missed) / static_cast<double>(r.checked);
    out.total_burn = miss_rate / (1.0 - r.objective);
  }
  return out;
}

}  // namespace

CampaignResult run_campaign(const faults::CampaignConfig& config,
                            bool health_managed) {
  const faults::CampaignConfig cc = faults::validated(config);
  const FleetConfig fc = fleet_config(cc);
  faults::DomainTree tree(cc.topology, cc.seed);
  for (const auto& stage : cc.stages) tree.add_fault(stage.node, stage.fault);

  const std::size_t n = tree.rig_count();
  std::vector<std::unique_ptr<rack::RackCoordinator>> coords;
  coords.push_back(std::make_unique<rack::RackCoordinator>(
      Watts{cc.rack_budget_w}, rack::RackPolicy::kDemandProportional));
  rack::RackCoordinator& coord = *coords[0];
  if (health_managed) coord.set_health_config(fc.health);
  std::vector<detail::FleetRig> rigs(n);
  for (std::size_t i = 0; i < n; ++i) {
    detail::build_rig(fc, tree, i, cc.rack_budget_w / static_cast<double>(n),
                      rigs[i]);
    coord.add_server(detail::make_endpoint(fc, tree, i, rigs[i]));
  }

  // Lockstep drive: advance every rig one control period, then let the
  // coordinator rebalance on its cadence with the sim clock (so the health
  // watchdogs' second-denominated deadlines mean what they say). Budget
  // events scale the whole rack budget at rebalance granularity.
  FleetResult run;
  run.rigs = n;
  run.epochs = cc.periods;
  run.snaps.reserve(cc.periods);
  double budget_w = cc.rack_budget_w;
  for (std::size_t k = 1; k <= cc.periods; ++k) {
    for (detail::FleetRig& r : rigs) {
      r.rig->engine().run_until(r.rig->engine().now() + cc.period_s);
    }
    const double now = static_cast<double>(k) * cc.period_s;
    if (k % cc.rebalance_every == 0) {
      budget_w = cc.rack_budget_w * tree.budget_scale(now);
      coord.set_rack_budget(Watts{budget_w});
      coord.rebalance(now);
    }
    run.snaps.push_back(detail::take_snap(rigs, coords, now, budget_w));
  }
  for (detail::FleetRig& r : rigs) r.loop->stop();
  detail::tally(rigs, coords, run);
  run.base_pid = rigs[0].rig->trace_pid();
  return score_campaign(cc, tree, std::move(run),
                        health_managed ? "hardened" : "baseline", "row");
}

CampaignResult run_fleet_campaign(const faults::CampaignConfig& config,
                                  FleetOptions options) {
  const faults::CampaignConfig cc = faults::validated(config);
  FleetSim sim(fleet_config(cc), options);
  for (const auto& stage : cc.stages) sim.add_fault(stage.node, stage.fault);
  return score_campaign(cc, sim.tree(), sim.run(), "fleet", "facility");
}

}  // namespace capgpu::fleet
