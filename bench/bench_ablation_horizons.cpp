// Ablation: MPC horizon choices (the paper uses P=8, M=2).
//
// Sweeps the prediction horizon P and control horizon M, reporting
// steady-state tracking accuracy, stability margin under gain error, and
// per-step solve cost — the quantitative "why 8/2" behind the paper's
// controller configuration.
#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "control/stability.hpp"
#include "telemetry/table.hpp"

using namespace capgpu;

namespace {

struct Outcome {
  double abs_err;
  double stddev;
  double g_max;
  double step_us;
};

Outcome run_one(std::size_t p_horizon, std::size_t m_horizon) {
  core::ServerRig rig;
  core::CapGpuConfig cfg;
  cfg.mpc.prediction_horizon = p_horizon;
  cfg.mpc.control_horizon = m_horizon;
  core::CapGpuController ctl(cfg, rig.device_ranges(),
                             bench::testbed_model().model, 900_W,
                             rig.latency_models());
  core::RunOptions opt;
  opt.periods = 80;
  opt.set_point = 900_W;
  const core::RunResult res = rig.run(ctl, opt);

  Outcome o{};
  const auto s = res.steady_power(30);
  o.abs_err = std::abs(s.mean() - 900.0);
  o.stddev = s.stddev();
  o.g_max =
      control::max_stable_uniform_gain(ctl.mpc(), bench::testbed_model().model);

  // Isolated step cost at this horizon.
  control::MpcController mpc(cfg.mpc, rig.device_ranges(),
                             bench::testbed_model().model, 900_W);
  std::vector<double> f{1600.0, 800.0, 800.0, 800.0};
  Rng rng(5);
  const auto t0 = std::chrono::steady_clock::now();
  const int reps = 200;
  for (int k = 0; k < reps; ++k) {
    (void)mpc.step(Watts{rng.uniform(800.0, 1000.0)}, f);
  }
  const auto t1 = std::chrono::steady_clock::now();
  o.step_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  capgpu::bench::init(argc, argv);
  bench::print_banner("Ablation: MPC horizon sweep",
                      "paper config P=8, M=2 in context, P swept to 64");
  (void)bench::testbed_model();

  telemetry::Table t("steady state @900 W, stability margin, step cost");
  t.set_header({"P", "M", "|err| W", "std W", "max stable gain", "step us"});
  struct Cell {
    std::size_t p, m;
    Outcome o;
  };
  std::vector<Cell> cells;
  for (const auto& [p, m] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1},
           {2, 1},
           {4, 2},
           {8, 2},
           {8, 4},
           {16, 2},
           {16, 8},
           // Fleet-sized horizons: with the folded tracking assembly, P is
           // ~free and only M (the QP dimension) costs.
           {32, 8},
           {64, 8}}) {
    cells.push_back({p, m, run_one(p, m)});
    const auto& o = cells.back().o;
    t.add_row({std::to_string(p), std::to_string(m),
               telemetry::fmt(o.abs_err, 2), telemetry::fmt(o.stddev, 2),
               telemetry::fmt(o.g_max, 2), telemetry::fmt(o.step_us, 1)});
  }
  t.print();

  const auto& paper = cells[3];  // P=8, M=2
  std::printf(
      "\nReading: the plant is static in the frequencies, so horizons do\n"
      "not change steady-state quality, and the stability margin against\n"
      "the deadbeat violation response is the textbook g < 2 boundary for\n"
      "every configuration (damping, not horizons, widens it — see\n"
      "bench_ablation_stability). What the horizons do set is cost: M\n"
      "drives the QP dimension, while P is ~free — the tracking term is\n"
      "folded into M rank-1 updates at assembly and the QP solve never\n"
      "touches P directly (P=64 costs what P=16 does).\n");
  std::printf("\nShape checks:\n");
  bool all_track = true;
  for (const auto& c : cells) all_track = all_track && c.o.abs_err < 10.0;
  std::printf("  every horizon tracks the cap (<10 W err):        %s\n",
              all_track ? "PASS" : "FAIL");
  bool margin_at_two = true;
  for (const auto& c : cells) {
    margin_at_two = margin_at_two && std::abs(c.o.g_max - 2.0) < 0.05;
  }
  std::printf("  deadbeat margin at the theoretical g=2 boundary: %s\n",
              margin_at_two ? "PASS" : "FAIL");
  std::printf("  M, not P, dominates the step cost:               %s\n",
              (cells[6].o.step_us > 5.0 * cells[5].o.step_us &&
               cells[5].o.step_us < 4.0 * cells[3].o.step_us)
                  ? "PASS"
                  : "FAIL");
  std::printf("  paper's P=8,M=2 stays cheap (< 1 ms per step):   %s\n",
              paper.o.step_us < 1000.0 ? "PASS" : "FAIL");
  // Folded assembly: quadrupling P at fixed M must not blow up the step
  // (cells 6/8 are P=16 and P=64 at M=8; 2.5x allows timing noise).
  std::printf("  P is ~free at fixed M (folded assembly):         %s\n",
              cells[8].o.step_us < 2.5 * cells[6].o.step_us ? "PASS" : "FAIL");
  return 0;
}
