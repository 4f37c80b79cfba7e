// Upper bounds on the MPC horizons, in one place for every reader of a
// horizon: the MpcController constructor, FlightRecord::from_json and
// capgpu_ctl_replay's --counterfactual horizon=N. The solve loops once per
// prediction step and sizes its QP by devices x M, so an unbounded horizon
// from a flight log would spin or exhaust memory instead of failing.
#pragma once

#include <cstddef>

namespace capgpu::control {

/// Largest prediction horizon P (bench_ablation_horizons sweeps to 64).
inline constexpr std::size_t kMaxPredictionHorizon = 1024;
/// Largest control horizon M (the QP has devices x M variables).
inline constexpr std::size_t kMaxControlHorizon = 64;

}  // namespace capgpu::control
