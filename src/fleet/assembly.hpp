// Internal to capgpu_fleet: what every lockstep driver of rigs shares
// (FleetSim, the serial reference, the one-rack fleet::run_campaign). A
// driver builds one FleetRig per DomainTree leaf, registers its endpoint
// with the RackCoordinator that owns it, snapshots every period, and
// folds the run into a FleetResult.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "core/capgpu_controller.hpp"
#include "core/control_loop.hpp"
#include "core/rig.hpp"
#include "fleet/fleet_sim.hpp"
#include "telemetry/energy.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/slo.hpp"

namespace capgpu::fleet::detail {

/// One rig: its telemetry scope (null unless a sharded FleetSim isolates
/// it), the testbed, the hardened loop and the driver-side accounting.
struct FleetRig {
  std::unique_ptr<telemetry::ScenarioTelemetry> scope;
  std::unique_ptr<core::ServerRig> rig;
  std::unique_ptr<core::CapGpuController> controller;
  std::unique_ptr<core::ControlLoop> loop;
  std::unique_ptr<telemetry::SloBurnMonitor> monitor;
  std::optional<telemetry::EnergyLedger> ledger;
  double last_budget_w{0.0};
  double last_meter_w{0.0};
  double images{0.0};
  std::exception_ptr error;
};

/// Builds and starts rig `i`: a saturated (or open-loop) ResNet-50 rig
/// with tree.rig_plan(i) faults under a hardened CapGPU loop. Must run in
/// the telemetry scope the rig's metric handles belong to. `out` must not
/// move afterwards (its callbacks point into it).
void build_rig(const FleetConfig& cfg, const faults::DomainTree& tree,
               std::size_t i, double initial_budget_w, FleetRig& out);

/// The coordinator endpoint for rig `i` (cfg.rig_bounds as its bounds).
[[nodiscard]] rack::ServerEndpoint make_endpoint(
    const FleetConfig& cfg, const faults::DomainTree& tree, std::size_t i,
    FleetRig& r);

/// Observes every rig; `coords` own equal, contiguous topology-order
/// slices of `rigs`. `budget_w` is the deliverable budget in force.
[[nodiscard]] FleetPeriodSnap take_snap(
    const std::vector<FleetRig>& rigs,
    const std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
    double now, double budget_w);

/// Fills the tallies of `result` (objective through mean_power_w, and the
/// health log) from finished rigs, their coordinators and result.snaps.
void tally(const std::vector<FleetRig>& rigs,
           const std::vector<std::unique_ptr<rack::RackCoordinator>>& coords,
           FleetResult& result);

}  // namespace capgpu::fleet::detail
