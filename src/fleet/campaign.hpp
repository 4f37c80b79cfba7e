// Chaos campaigns: a faults::CampaignConfig timeline run against CapGPU
// rigs and scored into telemetry::ResilienceEntry scorecards (MTTR, SLO
// error budget burned during and after the fault, recovery overshoot,
// fail-safe dwell) in ResilienceRegistry::current(), which --resilience-out
// renders. Two drivers share the rig assembly, the per-period snapshot and
// one scorer; they differ only in the budget rule (faults/domain_tree.hpp
// states both): run_campaign puts one RackCoordinator over every rig and
// scales the one rack budget, run_fleet_campaign runs a FleetSim cascade.
//
// The rack A/B: with coordinator health management on ("hardened") a
// campaign must burn strictly less error budget than with it off
// ("baseline"): quarantining dark rigs at their minimum frees budget for
// the healthy, burning ones. Fleet scorecards use variant "fleet".
#pragma once

#include <string>
#include <vector>

#include "faults/campaign.hpp"
#include "fleet/fleet_sim.hpp"
#include "telemetry/resilience.hpp"

namespace capgpu::fleet {

/// Outcome of one campaign run, either driver.
struct CampaignResult {
  std::string variant;  ///< "baseline", "hardened" or "fleet"
  FleetResult run;      ///< snapshots, health log and tallies
  /// Lifetime error-budget fraction consumed, summed misses over summed
  /// checks across every rig: (miss rate) / (1 - objective).
  double total_burn{0.0};
  std::vector<telemetry::ResilienceEntry> stages;  ///< copy of the entries
};

/// Runs the campaign on one rack. `health_managed` switches the
/// coordinator's rig-health layer (variant "hardened" / "baseline"); the
/// control loops are always hardened, so the A/B isolates the coordinator.
[[nodiscard]] CampaignResult run_campaign(const faults::CampaignConfig& config,
                                          bool health_managed);

/// Runs the campaign against a FleetSim with health management on and a
/// facility budget of config.rack_budget_w * racks. Scoring reads only the
/// merged FleetResult, so the scorecard is identical for any layout.
[[nodiscard]] CampaignResult run_fleet_campaign(
    const faults::CampaignConfig& config, FleetOptions options = {});

}  // namespace capgpu::fleet
