#include "faults/campaign.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/rig.hpp"
#include "telemetry/slo.hpp"
#include "workload/model_zoo.hpp"

namespace capgpu::faults {

namespace {

DomainFault parse_fault(const json::Value& v) {
  DomainFault fault;
  fault.kind = fault_kind_from(v.string_or("kind", "brownout"));
  fault.start_s = v.number_or("start_s", 0.0);
  fault.duration_s = v.number_or("duration_s", 0.0);
  fault.magnitude = v.number_or("magnitude", fault.magnitude);
  return fault;
}

}  // namespace

CampaignConfig parse_campaign(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  CAPGPU_REQUIRE(doc.is_object(), "campaign document must be a JSON object");
  CampaignConfig cfg;
  cfg.name = doc.string_or("name", cfg.name);
  cfg.seed = static_cast<std::uint64_t>(
      doc.number_or("seed", static_cast<double>(cfg.seed)));
  if (doc.contains("topology")) {
    const json::Value& t = doc.at("topology");
    cfg.topology.rows = static_cast<std::size_t>(t.number_or("rows", 1.0));
    cfg.topology.racks = static_cast<std::size_t>(t.number_or("racks", 1.0));
    cfg.topology.pdus_per_rack =
        static_cast<std::size_t>(t.number_or("pdus_per_rack", 2.0));
    cfg.topology.rigs_per_pdu =
        static_cast<std::size_t>(t.number_or("rigs_per_pdu", 2.0));
  }
  cfg.rack_budget_w = doc.number_or("rack_budget_w", cfg.rack_budget_w);
  cfg.periods = static_cast<std::size_t>(
      doc.number_or("periods", static_cast<double>(cfg.periods)));
  cfg.period_s = doc.number_or("period_s", cfg.period_s);
  cfg.rebalance_every = static_cast<std::size_t>(doc.number_or(
      "rebalance_every", static_cast<double>(cfg.rebalance_every)));
  cfg.offered_load = doc.number_or("offered_load", cfg.offered_load);
  cfg.slo_s = doc.number_or("slo_s", cfg.slo_s);
  if (doc.contains("bounds")) {
    const json::Value& b = doc.at("bounds");
    cfg.bounds.min = b.number_or("min_w", cfg.bounds.min);
    cfg.bounds.max = b.number_or("max_w", cfg.bounds.max);
  }
  if (doc.contains("health")) {
    const json::Value& h = doc.at("health");
    cfg.health.stale_report_s =
        h.number_or("stale_report_s", cfg.health.stale_report_s);
    cfg.health.dead_after_s =
        h.number_or("dead_after_s", cfg.health.dead_after_s);
    cfg.health.residual_anomaly_watts = h.number_or(
        "residual_anomaly_watts", cfg.health.residual_anomaly_watts);
    cfg.health.reintegrate_rebalances = static_cast<std::size_t>(
        h.number_or("reintegrate_rebalances",
                    static_cast<double>(cfg.health.reintegrate_rebalances)));
  }
  if (doc.contains("stages")) {
    for (const json::Value& s : doc.at("stages").as_array()) {
      CAPGPU_REQUIRE(s.is_object(), "each stage must be a JSON object");
      CampaignStage stage;
      stage.node = s.string_or("node", "");
      stage.fault = parse_fault(s.at("fault"));
      stage.name = s.string_or("name", fault_kind_name(stage.fault.kind));
      cfg.stages.push_back(std::move(stage));
    }
  }
  return validated(std::move(cfg));
}

CampaignConfig validated(CampaignConfig config) {
  config.topology = validated(config.topology);
  CAPGPU_REQUIRE(config.rack_budget_w > 0.0,
                 "rack_budget_w must be positive");
  CAPGPU_REQUIRE(config.periods > 0, "periods must be positive");
  CAPGPU_REQUIRE(config.period_s > 0.0, "period_s must be positive");
  CAPGPU_REQUIRE(config.rebalance_every >= 1,
                 "rebalance_every must be >= 1");
  CAPGPU_REQUIRE(config.offered_load >= 0.0 && config.offered_load <= 1.0,
                 "offered_load must be in [0, 1]");
  CAPGPU_REQUIRE(config.slo_s > 0.0, "slo_s must be positive");
  CAPGPU_REQUIRE(
      config.bounds.min > 0.0 && config.bounds.max >= config.bounds.min,
      "bounds must satisfy 0 < min_w <= max_w");
  // Validates the stage nodes and fault shapes (and, as a side effect,
  // the health knobs once health management is enabled).
  DomainTree tree(config.topology, config.seed);
  for (const auto& stage : config.stages) {
    tree.add_fault(stage.node, stage.fault);
  }
  rack::RigHealthConfig health = config.health;
  health.enabled = true;
  (void)rack::validated(health);
  return config;
}

namespace {

/// One rig of the campaign rack: the testbed, its controller, its hardened
/// loop, and the campaign-side SLO accounting.
struct RigRun {
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<core::ControlLoop> loop;
  std::unique_ptr<telemetry::SloBurnMonitor> monitor;
  double last_budget_w{0.0};
  double images{0.0};
};

/// Per-period observation of the whole rack.
struct PeriodSnap {
  double t{0.0};
  double rack_power_w{0.0};
  double budget_w{0.0};
  std::vector<int> failsafe;   ///< per-rig FailSafeState (0 nominal)
  std::vector<int> health;     ///< per-rig coordinator RigHealth
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> missed;
  std::vector<std::uint64_t> engagements;
};

double last_power(const core::ControlLoop& loop) {
  return loop.power_trace().empty() ? 0.0
                                    : loop.power_trace().values().back();
}

/// Index of the last snap with t <= `time` (-1 when none).
int snap_at(const std::vector<PeriodSnap>& snaps, double time) {
  int idx = -1;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    if (snaps[k].t <= time) idx = static_cast<int>(k);
  }
  return idx;
}

/// Error-budget fraction burned between two snaps (exclusive, inclusive]
/// summed over `rigs`: miss rate over the window divided by the budget.
double burn_between(const std::vector<PeriodSnap>& snaps, int from, int to,
                    const std::vector<std::size_t>& rigs, double objective) {
  if (to < 0) return 0.0;
  std::uint64_t checked = 0;
  std::uint64_t missed = 0;
  for (std::size_t i : rigs) {
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

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config,
                            bool health_managed) {
  const CampaignConfig cfg = validated(config);
  DomainTree tree(cfg.topology, cfg.seed);
  for (const auto& stage : cfg.stages) {
    tree.add_fault(stage.node, stage.fault);
  }

  const std::size_t n = tree.rig_count();
  std::vector<RigRun> rigs(n);

  rack::RackCoordinator coord(Watts{cfg.rack_budget_w},
                              rack::RackPolicy::kDemandProportional);
  if (health_managed) {
    rack::RigHealthConfig health = cfg.health;
    health.enabled = true;
    coord.set_health_config(health);
  }

  const double initial_budget_w = cfg.rack_budget_w / static_cast<double>(n);
  const double period_s = cfg.period_s;
  for (std::size_t i = 0; i < n; ++i) {
    RigRun& r = rigs[i];
    core::RigConfig rc;
    rc.models = {workload::resnet50_v100()};
    rc.seed = 100 + i;
    rc.faults = tree.rig_plan(i);
    if (cfg.offered_load > 0.0) rc.offered_load = {{0.0, cfg.offered_load}};
    r.rig = std::make_unique<core::ServerRig>(rc);
    r.controller = std::make_unique<core::CapGpuController>(
        core::CapGpuConfig{}, r.rig->device_ranges(),
        r.rig->analytic_power_model(), Watts{initial_budget_w},
        r.rig->latency_models());
    r.controller->set_slo(1, cfg.slo_s);
    core::ControlLoopConfig lc;
    lc.period = Seconds{period_s};
    // Every loop runs hardened regardless of `health_managed`: the A/B
    // isolates the coordinator's rig-health layer, not the loop's own
    // fail-safe (which earlier benches already score).
    lc.failsafe = core::FailSafeConfig{};
    auto* rig_ptr = r.rig.get();
    r.loop = std::make_unique<core::ControlLoop>(
        rig_ptr->engine(), rig_ptr->control_hal(), rig_ptr->rapl(),
        *r.controller, lc,
        [rig_ptr] { return rig_ptr->normalized_throughputs(); });
    r.monitor =
        std::make_unique<telemetry::SloBurnMonitor>(telemetry::SloBurnConfig{});
    r.last_budget_w = initial_budget_w;

    auto* mon = r.monitor.get();
    RigRun* rr = &r;  // stable: rigs never reallocates after construction
    const double slo = cfg.slo_s;
    r.loop->on_period = [rig_ptr, mon, rr, period_s, slo](std::size_t) {
      const double now = rig_ptr->engine().now();
      auto& s = rig_ptr->stream(0);
      auto& lat = s.batch_latency();
      const std::size_t cnt = lat.count(now, period_s);
      const auto misses = static_cast<std::uint64_t>(std::llround(
          lat.miss_rate(now, period_s, slo) * static_cast<double>(cnt)));
      mon->record(now, cnt, misses);
      rr->images += s.images_throughput().rate(now, period_s) * period_s;
      (void)s.take_stage_period_means();
      rig_ptr->trim_monitors(now);
    };
    r.loop->start();

    rack::ServerEndpoint ep;
    ep.name = tree.rig_path(i);
    auto* ctl = r.controller.get();
    auto* loop = r.loop.get();
    ep.set_budget = [ctl, rr](Watts w) {
      rr->last_budget_w = w.value;
      ctl->set_set_point(w);
    };
    ep.measured_power = [loop] { return last_power(*loop); };
    ep.demand = [rig_ptr] { return rig_ptr->gpu_demand(); };
    ep.bounds = cfg.bounds;
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
    ep.power_residual = [loop, rr] {
      const double p = last_power(*loop);
      return p > rr->last_budget_w ? p - rr->last_budget_w : 0.0;
    };
    ep.slo_burn = [mon] { return mon->fast_burn(); };
    coord.add_server(std::move(ep));
  }

  // Lockstep drive: advance every rig one control period, then let the
  // coordinator rebalance on its cadence with the sim clock (so the health
  // watchdogs' second-denominated deadlines mean what they say). Budget
  // events scale the deliverable rack budget at rebalance granularity.
  std::vector<PeriodSnap> snaps;
  snaps.reserve(cfg.periods);
  double effective_budget_w = cfg.rack_budget_w;
  for (std::size_t k = 1; k <= cfg.periods; ++k) {
    for (RigRun& r : rigs) {
      r.rig->engine().run_until(r.rig->engine().now() + period_s);
    }
    const double now = static_cast<double>(k) * period_s;
    if (k % cfg.rebalance_every == 0) {
      effective_budget_w = cfg.rack_budget_w * tree.budget_scale(now);
      coord.set_rack_budget(Watts{effective_budget_w});
      coord.rebalance(now);
    }
    PeriodSnap snap;
    snap.t = now;
    snap.rack_power_w = coord.total_power();
    snap.budget_w = effective_budget_w;
    snap.failsafe.reserve(n);
    snap.health.reserve(n);
    snap.checked.reserve(n);
    snap.missed.reserve(n);
    snap.engagements.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto* fs = rigs[i].loop->failsafe();
      snap.failsafe.push_back(fs != nullptr ? static_cast<int>(fs->state())
                                            : 0);
      snap.health.push_back(static_cast<int>(coord.health(i)));
      snap.checked.push_back(rigs[i].monitor->checked_total());
      snap.missed.push_back(rigs[i].monitor->missed_total());
      snap.engagements.push_back(fs != nullptr ? fs->engagements() : 0);
    }
    snaps.push_back(std::move(snap));
  }
  for (RigRun& r : rigs) r.loop->stop();

  // --- scoring ---
  CampaignResult result;
  result.variant = health_managed ? "hardened" : "baseline";
  const double objective = rigs[0].monitor->config().objective;
  const int pid = rigs[0].rig->trace_pid();

  std::vector<std::size_t> all_rigs(n);
  for (std::size_t i = 0; i < n; ++i) all_rigs[i] = i;

  auto& registry = telemetry::ResilienceRegistry::current();
  for (const auto& stage : cfg.stages) {
    const std::vector<std::size_t> affected = tree.rigs_under(stage.node);
    const double fault_start = stage.fault.start_s;
    const double fault_end = stage.fault.end_s();

    telemetry::ResilienceEntry entry;
    entry.pid = pid;
    entry.campaign = cfg.name;
    entry.variant = result.variant;
    entry.stage = stage.name;
    entry.fault_kind = fault_kind_name(stage.fault.kind);
    entry.domain = stage.node.empty() ? "row" : stage.node;
    entry.fault_start_s = fault_start;
    entry.fault_end_s = fault_end;

    // Detection: the first coordinator demotion of an affected rig at or
    // after fault onset.
    for (const auto& tr : coord.health_log()) {
      if (tr.time_s < fault_start ||
          tr.to == rack::RigHealth::kHealthy) {
        continue;
      }
      bool ours = false;
      for (std::size_t i : affected) ours |= tr.server == tree.rig_path(i);
      if (ours) {
        entry.detected_at_s = tr.time_s;
        break;
      }
    }

    // Recovery: the first of 3 consecutive post-fault snaps in which every
    // affected rig's governor is nominal and (under health management) the
    // coordinator considers it healthy again.
    const auto snap_good = [&](const PeriodSnap& s) {
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0) return false;
        if (health_managed && s.health[i] != 0) return false;
      }
      return true;
    };
    constexpr std::size_t kSustain = 3;
    for (std::size_t k = 0; k + kSustain <= snaps.size(); ++k) {
      if (snaps[k].t < fault_end) continue;
      bool good = true;
      for (std::size_t j = 0; j < kSustain; ++j) {
        good &= snap_good(snaps[k + j]);
      }
      if (good) {
        entry.recovered_at_s = snaps[k].t;
        entry.mttr_s = entry.recovered_at_s - fault_end;
        break;
      }
    }

    const int idx_start = snap_at(snaps, fault_start);
    const int idx_end = snap_at(snaps, fault_end);
    const int idx_last = static_cast<int>(snaps.size()) - 1;
    // Burn over the whole rack, not just the faulted domain: the point of
    // health management is that the *other* rigs absorb the slack.
    entry.slo_burn_during =
        burn_between(snaps, idx_start, idx_end, all_rigs, objective);
    entry.slo_burn_after =
        burn_between(snaps, idx_end, idx_last, all_rigs, objective);

    const double recovery_horizon =
        entry.recovered_at_s >= 0.0 ? entry.recovered_at_s : snaps.back().t;
    for (const PeriodSnap& s : snaps) {
      if (s.t <= fault_end || s.t > recovery_horizon) continue;
      const double over = s.rack_power_w - s.budget_w;
      if (over > entry.recovery_overshoot_w) {
        entry.recovery_overshoot_w = over;
      }
    }
    for (const PeriodSnap& s : snaps) {
      if (s.t < fault_start) continue;
      for (std::size_t i : affected) {
        if (s.failsafe[i] != 0) entry.failsafe_dwell_s += period_s;
      }
    }
    for (std::size_t i : affected) {
      const std::uint64_t e0 =
          idx_start >= 0 ? snaps[idx_start].engagements[i] : 0;
      entry.failsafe_entries += snaps.back().engagements[i] - e0;
    }
    for (const auto& tr : coord.health_log()) {
      if (tr.time_s < fault_start) continue;
      for (std::size_t i : affected) {
        if (tr.server == tree.rig_path(i)) {
          ++entry.health_transitions;
          break;
        }
      }
    }

    result.stages.push_back(entry);
    registry.add(std::move(entry));
  }

  std::uint64_t checked = 0;
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    checked += rigs[i].monitor->checked_total();
    missed += rigs[i].monitor->missed_total();
    result.rack_images += rigs[i].images;
    const auto* fs = rigs[i].loop->failsafe();
    if (fs != nullptr) result.failsafe_engagements += fs->engagements();
  }
  if (checked > 0) {
    result.total_burn = (static_cast<double>(missed) /
                         static_cast<double>(checked)) /
                        (1.0 - objective);
  }
  double power_sum = 0.0;
  for (const PeriodSnap& s : snaps) power_sum += s.rack_power_w;
  result.mean_rack_power_w =
      snaps.empty() ? 0.0 : power_sum / static_cast<double>(snaps.size());
  result.health_transitions = coord.health_log().size();
  return result;
}

}  // namespace capgpu::faults
