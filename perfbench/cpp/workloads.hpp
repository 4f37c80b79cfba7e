// The benchmark's three workloads and the output checks they run.
//
//   paper-sweep         the paper's Fig 6 grid (7 set points x 5 policies)
//                       on the default 3-GPU testbed, repeated over rig
//                       seeds drawn from the workload seed, through
//                       runner::ScenarioRunner;
//   fleet-1024          one saturated 1024-rig FleetSim, health on, no
//                       faults;
//   fleet-brownout-256  a 256-rig open-loop FleetSim with energy
//                       attribution and one row-PDU brownout whose timing
//                       and fault streams come from the workload seed.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "control/sysid.hpp"
#include "faults/domain_tree.hpp"
#include "fleet/fleet_sim.hpp"

namespace perfbench {

/// splitmix64: derives independent input seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k);

// --- paper-sweep ----------------------------------------------------------

inline constexpr const char* kSweepPolicies[] = {
    "safe-fixed-step", "gpu-only", "gpu+cpu-40", "gpu+cpu-60", "capgpu"};
inline constexpr std::size_t kSweepPolicyCount = std::size(kSweepPolicies);
inline constexpr std::size_t kSweepSetPoints = 7;  // 900..1200 W, 50 W apart
inline constexpr std::size_t kSweepPeriods = 100;  // the paper's run length
inline constexpr std::size_t kSweepMinScenarios = 100;

struct SweepScenario {
  std::size_t policy{0};  ///< index into kSweepPolicies
  double set_point_w{0.0};
  std::uint64_t rig_seed{0};
};

/// One scenario's outputs.
struct SweepCell {
  double mean_w{0.0};    ///< steady power over the last 80 periods
  double stddev_w{0.0};
  std::uint64_t images{0};
  std::uint64_t batches{0};
  std::uint64_t events{0};
  std::uint64_t held_periods{0};
  std::uint64_t actuation_retries{0};
  std::uint64_t actuation_failures{0};
  std::uint64_t failsafe_engagements{0};
  double host_ms{0.0};   ///< scenario body wall time
  double cpu_ms{0.0};    ///< and its CPU time (it runs on one thread)

  [[nodiscard]] bool same_outputs(const SweepCell& o) const {
    return mean_w == o.mean_w && stddev_w == o.stddev_w &&
           images == o.images && batches == o.batches && events == o.events;
  }
};

/// The sweep's inputs: the grid, repeated over rig seeds drawn from the
/// workload seed until it holds at least kSweepMinScenarios scenarios.
[[nodiscard]] std::vector<SweepScenario> sweep_scenarios(std::uint64_t seed);

/// Set-up: the sysid testbed model every model-based policy uses.
[[nodiscard]] capgpu::control::IdentifiedModel identify_testbed();

/// Runs one scenario (spans recorded when the recorder is enabled).
[[nodiscard]] SweepCell run_sweep_scenario(
    const SweepScenario& sc, const capgpu::control::IdentifiedModel& model);

/// The Fig 6 shape checks of one rig seed's grid (cells in grid order).
struct ShapeCheck {
  std::string name;
  bool pass{false};
};
[[nodiscard]] std::vector<ShapeCheck> fig6_shape_checks(
    const std::vector<SweepScenario>& scenarios,
    const std::vector<SweepCell>& cells, std::size_t grid);

/// Mean |steady power - set point| over the CapGPU cells.
[[nodiscard]] double sweep_power_error(
    const std::vector<SweepScenario>& scenarios,
    const std::vector<SweepCell>& cells);

// --- fleets ---------------------------------------------------------------

using FaultList =
    std::vector<std::pair<std::string, capgpu::faults::DomainFault>>;

struct FleetSpec {
  capgpu::fleet::FleetConfig config;
  FaultList faults;
};

/// 4 rows x 8 racks x 8 PDUs x 4 rigs, saturated. Independent of the
/// workload seed: FleetSim fixes rig seeds at 100 + i and there are no
/// fault streams to draw.
[[nodiscard]] FleetSpec fleet_1024_spec();

/// 2 rows x 4 racks x 8 PDUs x 4 rigs at 70% offered load with energy
/// attribution; row1/rack2/pdu5 browns out 30% for 40 s at a start time
/// drawn from the seed, which also seeds the fault streams.
[[nodiscard]] FleetSpec fleet_brownout_spec(std::uint64_t seed);

/// Everything layout-independent about a fleet run, in one comparable
/// bundle: decisions, per-epoch snapshots (power, budget, health,
/// fail-safe, checks, misses, engagements), the health log, images and
/// engagement totals.
struct FleetDigest {
  using Transition = std::tuple<std::string, double, int, int, std::string>;

  std::vector<capgpu::fleet::FleetDecisionRecord> decisions;
  std::vector<double> power;
  std::vector<double> budget;
  std::vector<int> health;
  std::vector<int> failsafe;
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> missed;
  std::vector<std::uint64_t> engagements;
  std::vector<Transition> health_log;
  double images{0.0};
  std::uint64_t total_engagements{0};

  explicit FleetDigest(const capgpu::fleet::FleetResult& r);
  bool operator==(const FleetDigest& o) const = default;
};

/// Cascade conservation at every decision: rig grants of a rack sum to at
/// most the rack grant, racks to at most their row, rows to at most the
/// deliverable watts, and no grant falls below the rig's feed floor
/// unless the rig is quarantined. Returns the number of violations and
/// describes the first in `first`.
[[nodiscard]] std::size_t cascade_violations(
    const FleetSpec& spec, const capgpu::fleet::FleetResult& result,
    std::string* first);

/// Mean over epochs of |fleet power - budget in force| / rigs.
[[nodiscard]] double fleet_power_error(
    const capgpu::fleet::FleetResult& result);

}  // namespace perfbench
