#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "baselines/cpu_plus_gpu.hpp"
#include "baselines/gpu_only.hpp"
#include "baselines/safe_fixed_step.hpp"
#include "core/capgpu_controller.hpp"
#include "core/rig.hpp"
#include "fleet/cascade.hpp"
#include "probes.hpp"
#include "rack/coordinator.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace baselines = capgpu::baselines;
namespace core = capgpu::core;
namespace fleet = capgpu::fleet;
namespace rack = capgpu::rack;
using capgpu::Watts;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- paper-sweep ----------------------------------------------------------

std::vector<SweepScenario> sweep_scenarios(std::uint64_t seed) {
  constexpr std::size_t kGrid = kSweepSetPoints * kSweepPolicyCount;
  const std::size_t grids = (kSweepMinScenarios + kGrid - 1) / kGrid;
  std::vector<SweepScenario> out;
  out.reserve(grids * kGrid);
  for (std::size_t g = 0; g < grids; ++g) {
    const std::uint64_t rig_seed = mix_seed(seed, g);
    for (std::size_t s = 0; s < kSweepSetPoints; ++s) {
      for (std::size_t p = 0; p < kSweepPolicyCount; ++p) {
        out.push_back({p, 900.0 + 50.0 * static_cast<double>(s), rig_seed});
      }
    }
  }
  return out;
}

capgpu::control::IdentifiedModel identify_testbed() {
  core::ServerRig rig;
  return rig.identify();
}

namespace {

// The bench's baseline pole (bench/common.hpp kBaselinePole).
constexpr double kBaselinePole = 0.3;

std::unique_ptr<baselines::IServerPowerController> make_policy(
    std::size_t policy, double set_point, const core::ServerRig& rig,
    const capgpu::control::IdentifiedModel& identified) {
  const auto& model = identified.model;
  const auto devices = rig.device_ranges();
  switch (policy) {
    case 0: {
      baselines::FixedStepConfig cfg;
      const double margin =
          baselines::SafeFixedStepController::estimate_margin(model, devices,
                                                              cfg);
      return std::make_unique<baselines::SafeFixedStepController>(
          cfg, devices, Watts{set_point}, margin);
    }
    case 1:
      return std::make_unique<baselines::GpuOnlyController>(
          devices, model, kBaselinePole, Watts{set_point});
    case 2:
    case 3:
      return std::make_unique<baselines::CpuPlusGpuController>(
          devices, model, kBaselinePole, Watts{set_point},
          policy == 2 ? 0.4 : 0.6);
    default:
      return std::make_unique<core::CapGpuController>(
          core::CapGpuConfig{}, devices, model, Watts{set_point},
          rig.latency_models());
  }
}

}  // namespace

SweepCell run_sweep_scenario(const SweepScenario& sc,
                             const capgpu::control::IdentifiedModel& model) {
  const std::int64_t t0 = now_ns();
  const double cpu0 = thread_cpu_s();
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<baselines::IServerPowerController> policy;
  {
    SpanScope build(SpanName::kRigBuild);
    core::RigConfig rc;
    rc.seed = sc.rig_seed;
    rig = std::make_unique<core::ServerRig>(rc);
    policy = make_policy(sc.policy, sc.set_point_w, *rig, model);
  }
  core::RunOptions opt;
  opt.periods = kSweepPeriods;
  opt.set_point = Watts{sc.set_point_w};
  core::RunResult res;
  {
    SpanScope run(SpanName::kRigRun);
    if (SpanRecorder::instance().enabled()) {
      TimedPolicy timed(*policy, sc.policy + 1 == kSweepPolicyCount
                                     ? SpanName::kCapgpuDecide
                                     : SpanName::kBaselineDecide);
      res = rig->run(timed, opt);
    } else {
      res = rig->run(*policy, opt);
    }
  }
  SweepCell cell;
  const auto steady = res.steady_power(20);
  cell.mean_w = steady.mean();
  cell.stddev_w = steady.stddev();
  for (std::size_t i = 0; i < rig->gpu_count(); ++i) {
    cell.images += rig->stream(i).images_completed();
    cell.batches += rig->stream(i).batches_completed();
  }
  cell.events = rig->engine().events_executed();
  cell.held_periods = res.held_periods;
  cell.actuation_retries = res.actuation_retries;
  cell.actuation_failures = res.actuation_failures;
  cell.failsafe_engagements = res.failsafe_engagements;
  cell.host_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  cell.cpu_ms = (thread_cpu_s() - cpu0) * 1e3;
  return cell;
}

std::vector<ShapeCheck> fig6_shape_checks(
    const std::vector<SweepScenario>& scenarios,
    const std::vector<SweepCell>& cells, std::size_t grid) {
  constexpr std::size_t kGrid = kSweepSetPoints * kSweepPolicyCount;
  struct Agg {
    double abs_err{0.0};
    double std_sum{0.0};
  };
  std::vector<Agg> agg(kSweepPolicyCount);
  for (std::size_t i = grid * kGrid; i < (grid + 1) * kGrid; ++i) {
    agg[scenarios[i].policy].abs_err +=
        std::abs(cells[i].mean_w - scenarios[i].set_point_w);
    agg[scenarios[i].policy].std_sum += cells[i].stddev_w;
  }
  // The tolerances of bench_fig6_setpoint_sweep: CapGPU may sit ~1 W
  // below the cap, so accuracy allows 2 W per set point.
  const double n = static_cast<double>(kSweepSetPoints);
  const double tol = 2.0 * n;
  const Agg& cap = agg[4];
  const std::string tag = "grid" + std::to_string(grid) + ".";
  return {
      {tag + "capgpu_most_accurate",
       cap.abs_err <= agg[0].abs_err + tol &&
           cap.abs_err <= agg[1].abs_err + tol &&
           cap.abs_err <= agg[2].abs_err + tol &&
           cap.abs_err <= agg[3].abs_err + tol},
      {tag + "capgpu_most_stable",
       cap.std_sum <= agg[0].std_sum && cap.std_sum <= agg[1].std_sum &&
           cap.std_sum <= agg[2].std_sum && cap.std_sum <= agg[3].std_sum},
      {tag + "gpu_cpu_fails_to_converge",
       agg[2].abs_err / n > 25.0 && agg[3].abs_err / n > 25.0},
      {tag + "safe_fixed_step_worst",
       agg[0].abs_err >= agg[1].abs_err && agg[0].abs_err >= cap.abs_err},
  };
}

double sweep_power_error(const std::vector<SweepScenario>& scenarios,
                         const std::vector<SweepCell>& cells) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i].policy + 1 != kSweepPolicyCount) continue;
    sum += std::abs(cells[i].mean_w - scenarios[i].set_point_w);
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// --- fleets ---------------------------------------------------------------

namespace {

rack::RigHealthConfig chaos_health() {
  // The health thresholds of the chaos bench's fleet campaign.
  rack::RigHealthConfig h;
  h.enabled = true;
  h.stale_report_s = 12.0;
  h.dead_after_s = 60.0;
  h.residual_anomaly_watts = 150.0;
  h.reintegrate_rebalances = 3;
  return h;
}

}  // namespace

FleetSpec fleet_1024_spec() {
  FleetSpec spec;
  fleet::FleetConfig& c = spec.config;
  c.name = "fleet-1024";
  c.topology = {8, 8, 4, 4};  // racks, pdus/rack, rigs/pdu, rows
  c.periods = 30;
  c.health.enabled = true;
  return spec;
}

FleetSpec fleet_brownout_spec(std::uint64_t seed) {
  FleetSpec spec;
  fleet::FleetConfig& c = spec.config;
  c.name = "fleet-brownout-256";
  c.topology = {4, 8, 4, 2};
  c.seed = mix_seed(seed, 0);
  c.periods = 40;
  c.offered_load = 0.7;
  c.energy_attribution = true;
  c.health = chaos_health();
  capgpu::faults::DomainFault brownout;
  brownout.kind = capgpu::faults::DomainFaultKind::kBrownout;
  // Starts between 20 s and 80 s, on a 4 s grid; ends by 120 s of 160 s.
  brownout.start_s = 20.0 + 4.0 * static_cast<double>(mix_seed(seed, 1) % 16);
  brownout.duration_s = 40.0;
  brownout.magnitude = 0.3;
  spec.faults.emplace_back("row1/rack2/pdu5", brownout);
  return spec;
}

FleetDigest::FleetDigest(const fleet::FleetResult& r)
    : decisions(r.decisions),
      images(r.images),
      total_engagements(r.failsafe_engagements) {
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& s : r.snaps) {
    power.push_back(s.fleet_power_w);
    budget.push_back(s.budget_w);
    append(health, s.health);
    append(failsafe, s.failsafe);
    append(checked, s.checked);
    append(missed, s.missed);
    append(engagements, s.engagements);
  }
  for (const auto& h : r.health_log) {
    health_log.emplace_back(h.server, h.time_s, static_cast<int>(h.from),
                            static_cast<int>(h.to), h.cause);
  }
}

std::size_t cascade_violations(const FleetSpec& spec,
                               const fleet::FleetResult& result,
                               std::string* first) {
  const fleet::FleetConfig cfg = fleet::validated(spec.config);
  capgpu::faults::DomainTree tree(cfg.topology, cfg.seed);
  for (const auto& f : spec.faults) tree.add_fault(f.first, f.second);
  const auto& topo = cfg.topology;
  const std::size_t rigs_per_rack = topo.pdus_per_rack * topo.rigs_per_pdu;
  fleet::CascadeConfig cc;
  cc.facility_budget_w = cfg.facility_budget_w;
  cc.rig_bounds = cfg.rig_bounds;
  cc.burn_weight_clamp = cfg.burn_weight_clamp;

  std::size_t violations = 0;
  auto fail = [&](const std::string& what, double t) {
    if (violations++ == 0 && first != nullptr) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " at t=%.1f s", t);
      *first = what + buf;
    }
  };
  auto exceeds = [](double sum, double limit) {
    return sum > limit + 1e-9 * std::abs(limit) + 1e-6;
  };
  for (const auto& d : result.decisions) {
    const double t = d.tiers.time_s;
    const fleet::FleetPeriodSnap* snap = nullptr;
    for (const auto& s : result.snaps) {
      if (s.t == t) snap = &s;
    }
    if (snap == nullptr || d.rig_w.size() != result.rigs ||
        d.tiers.rack_w.size() != topo.total_racks() ||
        d.tiers.row_w.size() != topo.rows) {
      fail("decision shape does not match the topology", t);
      continue;
    }
    double rows_sum = 0.0;
    for (std::size_t w = 0; w < topo.rows; ++w) {
      double racks_sum = 0.0;
      for (std::size_t r = 0; r < topo.racks; ++r) {
        const std::size_t k = w * topo.racks + r;
        double rigs_sum = 0.0;
        for (std::size_t j = 0; j < rigs_per_rack; ++j) {
          rigs_sum += d.rig_w[k * rigs_per_rack + j];
        }
        if (exceeds(rigs_sum, d.tiers.rack_w[k])) {
          fail("rack " + std::to_string(k) + " rig grants exceed its grant",
               t);
        }
        racks_sum += d.tiers.rack_w[k];
      }
      if (exceeds(racks_sum, d.tiers.row_w[w])) {
        fail("row " + std::to_string(w) + " rack grants exceed its grant", t);
      }
      rows_sum += d.tiers.row_w[w];
    }
    if (exceeds(rows_sum, d.tiers.deliverable_w)) {
      fail("row grants exceed the deliverable watts", t);
    }
    const auto floors = fleet::rig_feed_bounds(tree, cc, t);
    for (std::size_t i = 0; i < result.rigs; ++i) {
      const bool quarantined =
          snap->health[i] == static_cast<int>(rack::RigHealth::kFailsafe) ||
          snap->health[i] == static_cast<int>(rack::RigHealth::kDead);
      if (!quarantined && exceeds(floors[i].min, d.rig_w[i])) {
        fail("rig " + std::to_string(i) + " grant below its floor", t);
      }
    }
  }
  return violations;
}

double fleet_power_error(const fleet::FleetResult& result) {
  if (result.snaps.empty() || result.rigs == 0) return 0.0;
  double sum = 0.0;
  for (const auto& s : result.snaps) {
    sum += std::abs(s.fleet_power_w - s.budget_w);
  }
  return sum / static_cast<double>(result.snaps.size()) /
         static_cast<double>(result.rigs);
}

}  // namespace perfbench
