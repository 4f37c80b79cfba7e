#include "control/mpc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace capgpu::control {
namespace {

std::vector<DeviceRange> testbed_devices() {
  return {
      {DeviceKind::kCpu, 1000.0, 2400.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
      {DeviceKind::kGpu, 435.0, 1350.0},
  };
}

LinearPowerModel testbed_model() {
  // Max reachable power: 0.05*2400 + 3*0.21*1350 + 300 = 1270.5 W, so the
  // paper's whole 800..1200 W set-point band is feasible.
  return LinearPowerModel({0.05, 0.21, 0.21, 0.21}, 300.0);
}

MpcConfig default_config() {
  MpcConfig c;  // P=8, M=2, the paper's horizons
  return c;
}

/// Runs the controller against the exact linear plant (no noise) and
/// returns the power trajectory.
std::vector<double> simulate(MpcController& mpc, const LinearPowerModel& plant,
                             std::vector<double> f, std::size_t periods) {
  std::vector<double> trace;
  for (std::size_t k = 0; k < periods; ++k) {
    const Watts p = plant.predict(f);
    trace.push_back(p.value);
    const MpcDecision d = mpc.step(p, f);
    f = d.target_freqs_mhz;
  }
  return trace;
}

TEST(Mpc, ConvergesToSetPointOnExactPlant) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  const auto trace = simulate(mpc, testbed_model(), f, 40);
  EXPECT_NEAR(trace.back(), 900.0, 2.0);
  // Monotone-ish approach: last 10 periods all close.
  for (std::size_t k = trace.size() - 10; k < trace.size(); ++k) {
    EXPECT_NEAR(trace[k], 900.0, 5.0);
  }
}

TEST(Mpc, DeadbeatReferenceConvergesFaster) {
  MpcConfig fast = default_config();
  fast.reference_decay = 0.0;
  MpcConfig slow = default_config();
  slow.reference_decay = 0.8;
  MpcController a(fast, testbed_devices(), testbed_model(), 900_W);
  MpcController b(slow, testbed_devices(), testbed_model(), 900_W);
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  const auto ta = simulate(a, testbed_model(), f, 6);
  const auto tb = simulate(b, testbed_model(), f, 6);
  EXPECT_LT(std::abs(ta.back() - 900.0), std::abs(tb.back() - 900.0));
}

TEST(Mpc, AsymmetricReferenceRecoversViolationsFaster) {
  // Same damping on the climb side; the violation side is deadbeat, so an
  // over-cap excursion is corrected in far fewer periods than the climb
  // takes.
  MpcConfig cfg = default_config();
  cfg.reference_decay = 0.7;
  cfg.violation_decay = 0.0;
  MpcController mpc(cfg, testbed_devices(), testbed_model(), 900_W);

  // Climb from below: count periods to reach within 5 W.
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  std::size_t climb_periods = 0;
  while (std::abs(testbed_model().predict(f).value - 900.0) > 5.0 &&
         climb_periods < 60) {
    f = mpc.step(testbed_model().predict(f), f).target_freqs_mhz;
    ++climb_periods;
  }

  // Violation: report a +120 W overshoot at the converged state and count
  // periods to get back under cap + 5 W.
  std::size_t recover_periods = 0;
  double overshoot = 120.0;
  std::vector<double> fv = f;
  while (overshoot > 5.0 && recover_periods < 60) {
    const Watts p{testbed_model().predict(fv).value + overshoot};
    const auto d = mpc.step(p, fv);
    // The plant change removes part of the overshoot via the moved freqs.
    const double dp = testbed_model().predict(d.target_freqs_mhz).value -
                      testbed_model().predict(fv).value;
    overshoot += dp;
    fv = d.target_freqs_mhz;
    ++recover_periods;
  }
  EXPECT_LE(recover_periods, 3u);
  EXPECT_GT(climb_periods, recover_periods);
}

TEST(Mpc, RespectsFrequencyBounds) {
  // Unreachable set point: all devices must rail at f_max, never beyond.
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    Watts{5000.0});
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  for (int k = 0; k < 30; ++k) {
    const MpcDecision d = mpc.step(testbed_model().predict(f), f);
    f = d.target_freqs_mhz;
    EXPECT_LE(f[0], 2400.0 + 1e-6);
    for (int j = 1; j < 4; ++j) EXPECT_LE(f[j], 1350.0 + 1e-6);
  }
  EXPECT_NEAR(f[0], 2400.0, 1.0);
  EXPECT_NEAR(f[1], 1350.0, 1.0);
}

TEST(Mpc, LowSetPointRailsAtMinimum) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    Watts{100.0});
  std::vector<double> f{2400.0, 1350.0, 1350.0, 1350.0};
  for (int k = 0; k < 30; ++k) {
    const MpcDecision d = mpc.step(testbed_model().predict(f), f);
    f = d.target_freqs_mhz;
    EXPECT_GE(f[0], 1000.0 - 1e-6);
    for (int j = 1; j < 4; ++j) EXPECT_GE(f[j], 435.0 - 1e-6);
  }
  EXPECT_NEAR(f[1], 435.0, 1.0);
}

TEST(Mpc, WeightsSteerAllocation) {
  // Give GPU 1 a huge penalty: at the same set point it must end lower
  // than the lightly-penalised GPU 2.
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  mpc.set_control_weights({2e-5, 2e-3, 2e-5, 2e-5});
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  for (int k = 0; k < 40; ++k) {
    const MpcDecision d = mpc.step(testbed_model().predict(f), f);
    f = d.target_freqs_mhz;
  }
  EXPECT_NEAR(testbed_model().predict(f).value, 900.0, 3.0);
  EXPECT_LT(f[1], f[2] - 100.0);
}

TEST(Mpc, SloOverrideRaisesLowerBound) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    Watts{700.0});
  EXPECT_TRUE(mpc.set_min_frequency_override(1, 900.0));
  EXPECT_DOUBLE_EQ(mpc.effective_f_min(1), 900.0);
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  for (int k = 0; k < 30; ++k) {
    const MpcDecision d = mpc.step(testbed_model().predict(f), f);
    f = d.target_freqs_mhz;
    EXPECT_GE(f[1], 900.0 - 1e-6);
  }
}

TEST(Mpc, InfeasibleSloClampsAtMax) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  EXPECT_FALSE(mpc.set_min_frequency_override(1, 2000.0));
  EXPECT_DOUBLE_EQ(mpc.effective_f_min(1), 1350.0);
}

TEST(Mpc, SloBelowMinIsIgnored) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  EXPECT_TRUE(mpc.set_min_frequency_override(1, 100.0));
  EXPECT_DOUBLE_EQ(mpc.effective_f_min(1), 435.0);
}

TEST(Mpc, ClearOverridesRestoresSpecMin) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  (void)mpc.set_min_frequency_override(1, 900.0);
  mpc.clear_min_frequency_overrides();
  EXPECT_DOUBLE_EQ(mpc.effective_f_min(1), 435.0);
}

TEST(Mpc, PredictedPowerMatchesModel) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  std::vector<double> f{1500.0, 800.0, 800.0, 800.0};
  const Watts p = testbed_model().predict(f);
  const MpcDecision d = mpc.step(p, f);
  double expected = p.value;
  for (int j = 0; j < 4; ++j) {
    expected += testbed_model().gain(j) * (d.target_freqs_mhz[j] - f[j]);
  }
  EXPECT_NEAR(d.predicted_power_watts, expected, 1e-9);
}

TEST(Mpc, QpConvergesWithinBudget) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  const MpcDecision d = mpc.step(testbed_model().predict(f), f);
  EXPECT_TRUE(d.qp_converged);
  EXPECT_LT(d.qp_iterations, 100u);
}

TEST(Mpc, RecoverFromOutOfBoundCurrentFrequency) {
  // If an SLO tightened past the current frequency, the first move jumps
  // to the new bound (feasible start construction).
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  (void)mpc.set_min_frequency_override(2, 1100.0);
  std::vector<double> f{1500.0, 800.0, 700.0, 800.0};  // f[2] below bound
  const MpcDecision d = mpc.step(testbed_model().predict(f), f);
  EXPECT_GE(d.target_freqs_mhz[2], 1100.0 - 1e-6);
}

TEST(Mpc, LinearGainsPredictUnconstrainedMove) {
  // In the interior, step() must agree with the linear law
  // d = K_e (p - Ps) + K_f (f - f_min).
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  const MpcLinearGains gains = mpc.linear_gains();
  std::vector<double> f{1600.0, 850.0, 860.0, 870.0};
  const Watts p = testbed_model().predict(f);  // ~interior operating point
  const MpcDecision d = mpc.step(p, f);
  for (std::size_t j = 0; j < 4; ++j) {
    double expect = gains.k_e[j] * (p.value - 900.0);
    const double f_mins[] = {1000.0, 435.0, 435.0, 435.0};
    for (std::size_t col = 0; col < 4; ++col) {
      expect += gains.k_f(j, col) * (f[col] - f_mins[col]);
    }
    EXPECT_NEAR(d.deltas_mhz[j], expect, 1e-5) << "device " << j;
  }
}

TEST(Mpc, NegativeErrorRaisesFrequencies) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  std::vector<double> f{1500.0, 700.0, 700.0, 700.0};
  const MpcDecision d = mpc.step(Watts{700.0}, f);  // under the cap
  double total_up = 0.0;
  for (const double delta : d.deltas_mhz) total_up += delta;
  EXPECT_GT(total_up, 0.0);
}

TEST(Mpc, ConfigurationValidation) {
  EXPECT_THROW(MpcController(default_config(), {}, testbed_model(), 900_W),
               capgpu::InvalidArgument);
  MpcConfig bad = default_config();
  bad.control_horizon = 0;
  EXPECT_THROW(
      MpcController(bad, testbed_devices(), testbed_model(), 900_W),
      capgpu::InvalidArgument);
  MpcConfig wrong_horizons = default_config();
  wrong_horizons.prediction_horizon = 1;
  wrong_horizons.control_horizon = 2;
  EXPECT_THROW(MpcController(wrong_horizons, testbed_devices(),
                             testbed_model(), 900_W),
               capgpu::InvalidArgument);
  MpcConfig long_horizons = default_config();
  long_horizons.prediction_horizon = kMaxPredictionHorizon + 1;
  EXPECT_THROW(MpcController(long_horizons, testbed_devices(),
                             testbed_model(), 900_W),
               capgpu::InvalidArgument);
  long_horizons.prediction_horizon = kMaxPredictionHorizon;
  long_horizons.control_horizon = kMaxControlHorizon + 1;
  EXPECT_THROW(MpcController(long_horizons, testbed_devices(),
                             testbed_model(), 900_W),
               capgpu::InvalidArgument);
  long_horizons.control_horizon = kMaxControlHorizon;
  EXPECT_NO_THROW(MpcController(long_horizons, testbed_devices(),
                                testbed_model(), 900_W));
  // Model/device mismatch.
  EXPECT_THROW(MpcController(default_config(), testbed_devices(),
                             LinearPowerModel({0.1}, 0.0), 900_W),
               capgpu::InvalidArgument);
}

TEST(Mpc, ControlWeightValidation) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  EXPECT_THROW(mpc.set_control_weights({1.0}), capgpu::InvalidArgument);
  EXPECT_THROW(mpc.set_control_weights({0.0, 1.0, 1.0, 1.0}),
               capgpu::InvalidArgument);
  EXPECT_NO_THROW(mpc.set_control_weights({}));  // reset to uniform
}

TEST(Mpc, SetModelSwapsGains) {
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    900_W);
  LinearPowerModel doubled({0.1, 0.38, 0.38, 0.38}, 300.0);
  mpc.set_model(doubled);
  EXPECT_DOUBLE_EQ(mpc.model().gain(1), 0.38);
  EXPECT_THROW(mpc.set_model(LinearPowerModel({0.1}, 0.0)),
               capgpu::InvalidArgument);
}

class SetPointSweep : public ::testing::TestWithParam<double> {};

TEST_P(SetPointSweep, ConvergesAcrossPaperRange) {
  // Paper Fig 6 sweeps 900..1200 W.
  MpcController mpc(default_config(), testbed_devices(), testbed_model(),
                    Watts{GetParam()});
  std::vector<double> f{1000.0, 435.0, 435.0, 435.0};
  const auto trace = simulate(mpc, testbed_model(), f, 50);
  EXPECT_NEAR(trace.back(), GetParam(), 3.0);
}

INSTANTIATE_TEST_SUITE_P(PaperSetPoints, SetPointSweep,
                         ::testing::Values(800.0, 900.0, 950.0, 1000.0,
                                           1050.0, 1100.0, 1150.0, 1200.0));

}  // namespace
}  // namespace capgpu::control
