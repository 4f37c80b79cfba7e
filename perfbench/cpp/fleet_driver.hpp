// Traced fleet driver: the lockstep epoch loop of fleet::FleetSim,
// assembled from the same public pieces (ServerRig, CapGpuController,
// ControlLoop, RackCoordinator, cascade_tiers, rig_feed_bounds,
// ScenarioTelemetry) with span probes around each layer call and timing
// decorators around the policy and the HAL.
//
// FleetSim::run is one opaque call, so this copy is what lets the traced
// run split fleet host time into layers. It must make the same decisions
// as FleetSim; the benchmark checks the digests agree on every traced run
// and the tests check it on a small topology. It goes away once the
// program records its own spans.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/domain_tree.hpp"
#include "fleet/fleet_sim.hpp"

namespace perfbench {

/// Counts read from the rigs after a traced run.
struct FleetCounts {
  std::uint64_t events{0};            ///< Engine::events_executed, summed
  std::uint64_t images{0};            ///< stream images_completed, summed
  std::uint64_t batches{0};           ///< stream batches_completed, summed
  std::uint64_t held_periods{0};      ///< ControlLoop::held_periods
  std::uint64_t actuation_retries{0};
  std::uint64_t actuation_failures{0};
  std::uint64_t injections{0};        ///< FaultyServerHal counters, summed
};

struct TracedFleetRun {
  capgpu::fleet::FleetResult result;
  FleetCounts counts;
};

/// Runs the fleet once with spans recorded (when the recorder is enabled).
/// `jobs` workers step min(rigs, 4 * jobs) contiguous shards, as FleetSim
/// does by default.
[[nodiscard]] TracedFleetRun run_traced_fleet(
    const capgpu::fleet::FleetConfig& config,
    const std::vector<std::pair<std::string, capgpu::faults::DomainFault>>&
        fault_list,
    std::size_t jobs);

}  // namespace perfbench
