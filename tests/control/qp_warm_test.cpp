// Warm starting is certify-or-fallback: it may shortcut the solve but must
// never change the answer. These tests pin the solution (and the objective)
// of warm-started solves to the cold solve bit for bit — the bench byte-
// identity contract across the whole repo rests on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "control/mpc.hpp"
#include "control/qp.hpp"

namespace capgpu::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

QpProblem random_box_qp(std::size_t n, capgpu::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  QpProblem p;
  p.h = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) p.h(i, i) += 1.0;
  p.g = Vector(n);
  for (std::size_t i = 0; i < n; ++i) p.g[i] = rng.uniform(-5.0, 5.0);
  p.c = Matrix(2 * n, n);
  p.b = Vector(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.c(2 * i, i) = 1.0;
    p.b[2 * i] = 1.0;  // x <= 1
    p.c(2 * i + 1, i) = -1.0;
    p.b[2 * i + 1] = 1.0;  // x >= -1
  }
  return p;
}

TEST(QpWarm, WorkspaceSolveMatchesAllocatingSolve) {
  capgpu::Rng rng(11);
  QpSolver solver;
  QpWorkspace ws;  // deliberately reused across sizes and trials
  for (const std::size_t n : {1u, 2u, 4u, 6u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const QpProblem p = random_box_qp(n, rng);
      const QpSolution ref = solver.solve(p, Vector(n));
      solver.solve(p, Vector(n), ws);
      ASSERT_EQ(ws.converged(), ref.converged);
      EXPECT_EQ(ws.iterations(), ref.iterations);
      EXPECT_EQ(ws.objective(), ref.objective);
      EXPECT_EQ(ws.active_set(), ref.active_set);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ws.x()[i], ref.x[i]);
    }
  }
}

TEST(QpWarm, WarmStartedSolveReturnsIdenticalSolution) {
  // A drifting sequence of related QPs, solved warm (seeded with the
  // previous problem's active set) and cold. Identical bits required even
  // when the seed is stale because the active set just changed.
  capgpu::Rng rng(23);
  QpSolver solver;
  QpWorkspace warm_ws;
  std::vector<std::size_t> prev_active;
  const std::size_t n = 5;
  QpProblem p = random_box_qp(n, rng);
  for (int period = 0; period < 40; ++period) {
    for (std::size_t i = 0; i < n; ++i) p.g[i] += rng.uniform(-1.5, 1.5);
    const QpSolution cold = solver.solve(p, Vector(n));
    solver.solve(p, Vector(n), warm_ws,
                 prev_active.empty() ? nullptr : &prev_active);
    ASSERT_EQ(warm_ws.converged(), cold.converged);
    EXPECT_EQ(warm_ws.objective(), cold.objective);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(warm_ws.x()[i], cold.x[i]);
    prev_active = warm_ws.active_set();
  }
}

TEST(QpWarm, SteadyStateCertifiesInOneKktSolve) {
  // min x^2 + 4x s.t. x >= 0: optimum pinned at the lower bound, the shape
  // of a railed control period (x0 = 0 sits exactly on the active row).
  QpProblem p;
  p.h = Matrix{{2.0}};
  p.g = Vector{4.0};
  p.c = Matrix(1, 1);
  p.c(0, 0) = -1.0;
  p.b = Vector{0.0};
  QpSolver solver;
  const QpSolution cold = solver.solve(p, Vector{0.0});
  ASSERT_TRUE(cold.converged);
  ASSERT_EQ(cold.active_set, std::vector<std::size_t>{0});

  QpWorkspace ws;
  solver.solve(p, Vector{0.0}, ws, &cold.active_set);
  EXPECT_TRUE(ws.converged());
  EXPECT_EQ(ws.iterations(), 1u);  // certified, no active-set iteration
  EXPECT_EQ(ws.x()[0], cold.x[0]);
  EXPECT_EQ(ws.objective(), cold.objective);
  EXPECT_EQ(ws.active_set(), cold.active_set);
}

TEST(QpWarm, RailedSeedReportsWarmStartHit) {
  // Railed steady state: the seeded solve certifies and reports the warm
  // hit the flight recorder and replay tool read; an unseeded solve of the
  // same QP must not.
  QpProblem p;
  p.h = Matrix{{2.0}};
  p.g = Vector{4.0};
  p.c = Matrix(1, 1);
  p.c(0, 0) = -1.0;
  p.b = Vector{0.0};
  QpSolver solver;
  const std::vector<std::size_t> seed = {0};
  QpWorkspace ws;
  solver.solve(p, Vector{0.0}, ws);
  EXPECT_FALSE(ws.warm_start_hit());  // no seed: the cold iteration ran
  solver.solve(p, Vector{0.0}, ws, &seed);
  EXPECT_TRUE(ws.converged());
  EXPECT_TRUE(ws.warm_start_hit());
  EXPECT_EQ(ws.x()[0], 0.0);
}

TEST(QpWarm, GarbageWarmSetCannotChangeTheSolution) {
  capgpu::Rng rng(37);
  QpSolver solver;
  const std::size_t n = 4;
  for (int trial = 0; trial < 10; ++trial) {
    const QpProblem p = random_box_qp(n, rng);
    const QpSolution cold = solver.solve(p, Vector(n));
    const std::vector<std::vector<std::size_t>> seeds = {
        {0, 1, 2, 3, 4, 5, 6, 7},   // every row
        {7, 3, 3, 0},               // unsorted with duplicates
        {123, 999},                 // out of range
        {2},
    };
    for (const auto& seed : seeds) {
      QpWorkspace ws;
      solver.solve(p, Vector(n), ws, &seed);
      ASSERT_EQ(ws.converged(), cold.converged);
      EXPECT_EQ(ws.objective(), cold.objective);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ws.x()[i], cold.x[i]);
    }
  }
}

TEST(QpWarm, MpcWarmStateMatchesStatelessControllerBitwise) {
  // A long-lived controller accumulates warm-start state; a controller
  // rebuilt from scratch every period has none. Their commands must agree
  // bit for bit, else every closed-loop bench output would shift.
  const std::vector<DeviceRange> devices = {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
  const LinearPowerModel plant({0.05, 0.21, 0.21}, 300.0);
  const Watts cap{900.0};
  MpcConfig cfg;

  MpcController persistent(cfg, devices, plant, cap);
  std::vector<double> f = {2400.0, 1350.0, 1350.0};
  std::vector<double> f_fresh = f;
  for (int k = 0; k < 60; ++k) {
    const Watts p = plant.predict(f);
    const MpcDecision warm = persistent.step(p, f);
    MpcController stateless(cfg, devices, plant, cap);
    const MpcDecision cold = stateless.step(plant.predict(f_fresh), f_fresh);
    for (std::size_t j = 0; j < devices.size(); ++j) {
      ASSERT_EQ(warm.target_freqs_mhz[j], cold.target_freqs_mhz[j])
          << "period " << k << " device " << j;
      ASSERT_EQ(warm.deltas_mhz[j], cold.deltas_mhz[j]);
    }
    ASSERT_EQ(warm.predicted_power_watts, cold.predicted_power_watts);
    f = warm.target_freqs_mhz;
    f_fresh = cold.target_freqs_mhz;
  }
}

/// Four-device controller shared by the churn tests below.
std::vector<DeviceRange> server_devices() {
  return {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
}

TEST(QpWarm, MpcWarmStateMatchesAcrossWeightChanges) {
  // Weight churn every period (the CapGPU pattern) changes the Hessian
  // under the warm seed; the seeded controller must still command the bits
  // of one rebuilt from scratch each period.
  const LinearPowerModel plant({0.05, 0.21, 0.21, 0.21}, 300.0);
  MpcController persistent(MpcConfig{}, server_devices(), plant, 900_W);
  capgpu::Rng rng(11);
  std::vector<double> f{1200.0, 700.0, 750.0, 800.0};
  for (int k = 0; k < 60; ++k) {
    std::vector<double> w(4);
    for (auto& x : w) x = rng.uniform(1e-5, 1e-4);
    const Watts p{rng.uniform(700.0, 1100.0)};
    persistent.set_control_weights(w);
    const MpcDecision warm = persistent.step(p, f);
    MpcController stateless(MpcConfig{}, server_devices(), plant, 900_W);
    stateless.set_control_weights(w);
    const MpcDecision& cold = stateless.step(p, f);
    for (std::size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(warm.target_freqs_mhz[j], cold.target_freqs_mhz[j])
          << "period " << k << " device " << j;
    }
    f = warm.target_freqs_mhz;
  }
}

TEST(QpWarm, MpcWarmStateMatchesAcrossSloBoundChanges) {
  // An SLO floor appears and later clears: the constraint box moves under
  // the warm seed, and the seeded controller must still match a stateless
  // one bit for bit on both edges.
  const LinearPowerModel plant({0.05, 0.21, 0.21, 0.21}, 300.0);
  MpcController persistent(MpcConfig{}, server_devices(), plant, 900_W);
  std::vector<double> f{1200.0, 700.0, 750.0, 800.0};
  for (int k = 0; k < 40; ++k) {
    const bool floor_on = k >= 10 && k < 25;
    if (k == 10) (void)persistent.set_min_frequency_override(1, 900.0);
    if (k == 25) persistent.clear_min_frequency_overrides();
    const Watts p = plant.predict(f);
    const MpcDecision warm = persistent.step(p, f);
    MpcController stateless(MpcConfig{}, server_devices(), plant, 900_W);
    if (floor_on) (void)stateless.set_min_frequency_override(1, 900.0);
    const MpcDecision& cold = stateless.step(p, f);
    for (std::size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(warm.target_freqs_mhz[j], cold.target_freqs_mhz[j])
          << "period " << k << " device " << j;
    }
    f = warm.target_freqs_mhz;
  }
}

}  // namespace
}  // namespace capgpu::control
