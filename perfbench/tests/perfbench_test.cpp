// The benchmark's own tests: the metric catalogue is well formed, the traced
// fleet driver makes FleetSim's decisions, the fleet digest sees a change in
// health alone, the seed reaches the inputs, and the conservation check can
// fail.
#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "catalogue.hpp"
#include "fleet_driver.hpp"
#include "spans.hpp"
#include "telemetry/scope.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace telemetry = capgpu::telemetry;

/// True when `s` has 1..`max` characters, each alphanumeric or in `extra`.
bool made_of(const std::string& s, const std::string& extra, std::size_t max) {
  if (s.empty() || s.size() > max) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        extra.find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

TEST(Catalogue, NamesMatchThePatternAndCarryAUnit) {
  std::set<std::string> seen;
  for (const MetricDef& m : kMetrics) {
    // [A-Za-z0-9][A-Za-z0-9_.-]* and a unit of [A-Za-z0-9_/%.-]{1,16}.
    EXPECT_TRUE(made_of(m.name, "_.-", 64) &&
                std::isalnum(static_cast<unsigned char>(m.name[0])))
        << m.name;
    EXPECT_TRUE(made_of(m.unit, "_/%.-", 16)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    // A layer metric (a dotted name) says what it moves and where.
    const bool layer = std::string(m.name).find('.') != std::string::npos;
    if (layer && std::string(m.name) != "trace.overhead_frac") {
      EXPECT_STRNE(m.moves, "") << m.name;
      EXPECT_STRNE(m.most, "") << m.name;
    }
  }
}

/// A 16-rig fleet with every path the brownout workload takes: open-loop
/// arrivals, energy attribution, health management and a PDU brownout.
FleetSpec small_spec() {
  FleetSpec spec = fleet_brownout_spec(7);
  spec.config.topology = {2, 2, 2, 2};
  spec.config.periods = 12;
  spec.faults.front().first = "row1/rack0/pdu1";
  spec.faults.front().second.start_s = 8.0;
  spec.faults.front().second.duration_s = 24.0;
  return spec;
}

capgpu::fleet::FleetResult fleet_sim_run(const FleetSpec& spec) {
  telemetry::ScenarioTelemetry scope(telemetry::Tracer::global(),
                                     telemetry::FlightRecorder::global());
  telemetry::ScenarioTelemetry::Binding bind(scope);
  capgpu::fleet::FleetSim sim(spec.config, {0, 2});
  for (const auto& f : spec.faults) sim.add_fault(f.first, f.second);
  return sim.run();
}

TEST(FleetDriver, TracedDigestEqualsFleetSim) {
  const FleetSpec spec = small_spec();
  const FleetDigest expected(fleet_sim_run(spec));
  ASSERT_FALSE(expected.decisions.empty());

  SpanRecorder& rec = SpanRecorder::instance();
  rec.set_enabled(true);
  TracedFleetRun traced;
  {
    telemetry::ScenarioTelemetry scope(telemetry::Tracer::global(),
                                       telemetry::FlightRecorder::global());
    telemetry::ScenarioTelemetry::Binding bind(scope);
    traced = run_traced_fleet(spec.config, spec.faults, 2);
  }
  rec.set_enabled(false);
  const std::vector<Span> spans = rec.collect();
  rec.clear();

  EXPECT_TRUE(FleetDigest(traced.result) == expected);
  EXPECT_GT(traced.counts.events, 0u);
  EXPECT_GT(traced.counts.injections, 0u);
  std::size_t run_until = 0;
  for (const Span& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    run_until += s.name == SpanName::kRunUntil ? 1 : 0;
  }
  EXPECT_EQ(run_until, 16u * 12u);
}

TEST(FleetDigest, SeesAHealthChangeAlone) {
  const FleetSpec spec = small_spec();
  capgpu::fleet::FleetResult result = fleet_sim_run(spec);
  const FleetDigest before(result);
  result.snaps.back().health.front() += 1;
  EXPECT_FALSE(FleetDigest(result) == before);
}

TEST(Seed, ChangesPaperSweepInputs) {
  const auto a = sweep_scenarios(1);
  const auto b = sweep_scenarios(2);
  ASSERT_GE(a.size(), kSweepMinScenarios);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].rig_seed != b[i].rig_seed;
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_EQ(a[i].set_point_w, b[i].set_point_w);
  }
  EXPECT_TRUE(differs);
  const auto again = sweep_scenarios(1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rig_seed, again[i].rig_seed);
  }
}

TEST(Seed, ChangesBrownoutInputs) {
  std::set<double> starts;
  std::set<std::uint64_t> fault_seeds;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FleetSpec spec = fleet_brownout_spec(seed);
    starts.insert(spec.faults.front().second.start_s);
    fault_seeds.insert(spec.config.seed);
  }
  EXPECT_GT(starts.size(), 1u);
  EXPECT_EQ(fault_seeds.size(), 8u);
}

TEST(Conservation, FlagsAGrantAboveItsRack) {
  const FleetSpec spec = small_spec();
  capgpu::fleet::FleetResult result = fleet_sim_run(spec);
  std::string first;
  EXPECT_EQ(cascade_violations(spec, result, &first), 0u) << first;
  result.decisions.front().rig_w.front() += 1e4;
  EXPECT_GT(cascade_violations(spec, result, &first), 0u);
  EXPECT_NE(first.find("rack 0"), std::string::npos) << first;
}

}  // namespace
}  // namespace perfbench
