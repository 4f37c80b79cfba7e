// Chaos campaign scorecards and hostile campaign documents.
//
// The scorecard tests pin every ResilienceEntry field and every run tally
// of two campaigns — the reference rack A/B that bench_chaos_campaigns
// embeds, and a 16-rig fleet campaign — to recorded values. The runs are
// deterministic, so a change to the shared rig assembly, the snapshot or
// the scorer that moves any of them is a behaviour change, not noise.
#include "fleet/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/scope.hpp"
#include "telemetry/trace.hpp"

namespace capgpu::fleet {
namespace {

// bench_chaos_campaigns' embedded reference campaign.
const std::string kReferenceCampaign = R"({
  "name": "pdu0_brownout",
  "seed": 3405691582,
  "topology": {"racks": 1, "pdus_per_rack": 2, "rigs_per_pdu": 2},
  "rack_budget_w": 2400,
  "periods": 150,
  "period_s": 4.0,
  "rebalance_every": 2,
  "offered_load": 0.0,
  "slo_s": 0.45,
  "bounds": {"min_w": 500, "max_w": 650},
  "health": {
    "stale_report_s": 12.0,
    "dead_after_s": 60.0,
    "residual_anomaly_watts": 150.0,
    "reintegrate_rebalances": 3
  },
  "stages": [
    {
      "name": "pdu_brownout",
      "node": "rack0/pdu0",
      "fault": {
        "kind": "brownout",
        "start_s": 200.0,
        "duration_s": 120.0,
        "magnitude": 0.12
      }
    }
  ]
})";

/// A private telemetry scope, so pids and registry contents do not depend
/// on what ran before in this process.
struct IsolatedTelemetry {
  telemetry::ScenarioTelemetry scope{telemetry::Tracer::current(),
                                     telemetry::FlightRecorder::current()};
  telemetry::ScenarioTelemetry::Binding bind{scope};
};

void expect_entry(const telemetry::ResilienceEntry& got,
                  const telemetry::ResilienceEntry& want) {
  EXPECT_EQ(got.pid, want.pid);
  EXPECT_EQ(got.campaign, want.campaign);
  EXPECT_EQ(got.variant, want.variant);
  EXPECT_EQ(got.stage, want.stage);
  EXPECT_EQ(got.fault_kind, want.fault_kind);
  EXPECT_EQ(got.domain, want.domain);
  EXPECT_DOUBLE_EQ(got.fault_start_s, want.fault_start_s);
  EXPECT_DOUBLE_EQ(got.fault_end_s, want.fault_end_s);
  EXPECT_DOUBLE_EQ(got.detected_at_s, want.detected_at_s);
  EXPECT_DOUBLE_EQ(got.recovered_at_s, want.recovered_at_s);
  EXPECT_DOUBLE_EQ(got.mttr_s, want.mttr_s);
  EXPECT_DOUBLE_EQ(got.slo_burn_during, want.slo_burn_during);
  EXPECT_DOUBLE_EQ(got.slo_burn_after, want.slo_burn_after);
  EXPECT_DOUBLE_EQ(got.recovery_overshoot_w, want.recovery_overshoot_w);
  EXPECT_DOUBLE_EQ(got.failsafe_dwell_s, want.failsafe_dwell_s);
  EXPECT_EQ(got.failsafe_entries, want.failsafe_entries);
  EXPECT_EQ(got.health_transitions, want.health_transitions);
}

telemetry::ResilienceEntry entry(int pid, const char* campaign,
                                 const char* variant, const char* stage,
                                 const char* domain, double start, double end,
                                 double detected, double recovered,
                                 double mttr, double during, double after,
                                 double overshoot, double dwell,
                                 std::uint64_t fs_entries,
                                 std::uint64_t transitions) {
  telemetry::ResilienceEntry e;
  e.pid = pid;
  e.campaign = campaign;
  e.variant = variant;
  e.stage = stage;
  e.fault_kind = "brownout";
  e.domain = domain;
  e.fault_start_s = start;
  e.fault_end_s = end;
  e.detected_at_s = detected;
  e.recovered_at_s = recovered;
  e.mttr_s = mttr;
  e.slo_burn_during = during;
  e.slo_burn_after = after;
  e.recovery_overshoot_w = overshoot;
  e.failsafe_dwell_s = dwell;
  e.failsafe_entries = fs_entries;
  e.health_transitions = transitions;
  return e;
}

TEST(CampaignScorecard, ReferenceRackABMatchesRecordedScorecards) {
  IsolatedTelemetry tel;
  const faults::CampaignConfig cfg = faults::parse_campaign(kReferenceCampaign);
  const CampaignResult baseline = run_campaign(cfg, false);
  const CampaignResult hardened = run_campaign(cfg, true);

  EXPECT_EQ(baseline.variant, "baseline");
  EXPECT_DOUBLE_EQ(baseline.total_burn, 4.5964302637813894);
  EXPECT_DOUBLE_EQ(baseline.run.mean_power_w, 2305.168313822739);
  EXPECT_DOUBLE_EQ(baseline.run.images, 126620.0);
  EXPECT_EQ(baseline.run.failsafe_engagements, 2u);
  EXPECT_EQ(baseline.run.health_log.size(), 0u);
  EXPECT_EQ(baseline.run.rigs, 4u);
  EXPECT_EQ(baseline.run.snaps.size(), 150u);
  ASSERT_EQ(baseline.stages.size(), 1u);
  expect_entry(baseline.stages[0],
               entry(1, "pdu0_brownout", "baseline", "pdu_brownout",
                     "rack0/pdu0", 200, 320, -1, 332, 12,
                     26.210526315789451, 0.8293460925039865, 0, 232, 2, 0));

  EXPECT_EQ(hardened.variant, "hardened");
  EXPECT_DOUBLE_EQ(hardened.total_burn, 4.5525657071339136);
  EXPECT_DOUBLE_EQ(hardened.run.mean_power_w, 2327.2927913949161);
  EXPECT_DOUBLE_EQ(hardened.run.images, 127840.0);
  EXPECT_EQ(hardened.run.failsafe_engagements, 2u);
  EXPECT_EQ(hardened.run.health_log.size(), 6u);
  ASSERT_EQ(hardened.stages.size(), 1u);
  expect_entry(hardened.stages[0],
               entry(5, "pdu0_brownout", "hardened", "pdu_brownout",
                     "rack0/pdu0", 200, 320, 216, 352, 32,
                     24.387855044074414, 0.83199999999999918, 0, 232, 2, 6));

  // The registry holds exactly the returned entries, in run order.
  const auto& registered = tel.scope.resilience().entries();
  ASSERT_EQ(registered.size(), 2u);
  expect_entry(registered[0], baseline.stages[0]);
  expect_entry(registered[1], hardened.stages[0]);
}

TEST(CampaignScorecard, SixteenRigFleetMatchesRecordedScorecard) {
  faults::CampaignConfig cc;
  cc.name = "fleet_unit";
  cc.topology = {2, 2, 2, 2};
  cc.rack_budget_w = 4 * 560.0;
  cc.periods = 10;
  cc.period_s = 4.0;
  cc.slo_s = 0.45;
  faults::CampaignStage stage;
  stage.name = "row_pdu_brownout";
  stage.node = "row1/rack0/pdu0";
  stage.fault.kind = faults::DomainFaultKind::kBrownout;
  stage.fault.start_s = 8.0;
  stage.fault.duration_s = 12.0;
  stage.fault.magnitude = 0.6;
  cc.stages.push_back(stage);

  IsolatedTelemetry tel;
  const CampaignResult r = run_fleet_campaign(cc, {4, 2});
  EXPECT_EQ(r.variant, "fleet");
  EXPECT_DOUBLE_EQ(r.total_burn, 4.0100250626566378);
  EXPECT_EQ(r.run.rigs, 16u);
  EXPECT_EQ(r.run.epochs, 10u);
  EXPECT_EQ(r.run.shards, 4u);
  EXPECT_EQ(r.run.jobs, 2u);
  EXPECT_EQ(r.run.decisions.size(), 5u);
  EXPECT_EQ(r.run.snaps.size(), 10u);
  EXPECT_EQ(r.run.health_log.size(), 2u);
  EXPECT_EQ(r.run.base_pid, 1);
  EXPECT_DOUBLE_EQ(r.run.images, 31920.0);
  EXPECT_DOUBLE_EQ(r.run.mean_power_w, 8485.5617896338408);
  EXPECT_EQ(r.run.checked, 1596u);
  EXPECT_EQ(r.run.missed, 64u);
  EXPECT_EQ(r.run.failsafe_engagements, 0u);
  EXPECT_DOUBLE_EQ(r.run.objective, 0.99);
  ASSERT_EQ(r.stages.size(), 1u);
  expect_entry(r.stages[0],
               entry(1, "fleet_unit", "fleet", "row_pdu_brownout",
                     "row1/rack0/pdu0", 8, 20, 16, -1, -1, 0, 0,
                     308.86579259329665, 0, 0, 2));
  ASSERT_EQ(tel.scope.resilience().entries().size(), 1u);
}

// --- Hostile campaign documents ---------------------------------------------
// A campaign document is input from outside the process: every malformed
// one must end in a typed capgpu::Error, never a wild integer cast (the
// sanitizer builds run these) or a run that cannot end.

/// kReferenceCampaign with the first `"key": value` replaced.
std::string with_value(const std::string& key, const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = kReferenceCampaign.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no key " << key;
    return kReferenceCampaign;
  }
  const std::size_t begin = at + tag.size();
  const std::size_t end = kReferenceCampaign.find_first_of(",}\n", begin);
  return kReferenceCampaign.substr(0, begin) + value +
         kReferenceCampaign.substr(end);
}

bool parses_or_typed_error(const std::string& text) {
  try {
    (void)faults::parse_campaign(text);
    return true;
  } catch (const capgpu::Error&) {
    return false;
  }
}

TEST(CampaignParseHostile, ReferenceCampaignParses) {
  const faults::CampaignConfig cfg = faults::parse_campaign(kReferenceCampaign);
  EXPECT_EQ(cfg.seed, 3405691582u);
  EXPECT_EQ(cfg.topology.total_rigs(), 4u);
  EXPECT_EQ(cfg.periods, 150u);
  EXPECT_EQ(cfg.health.reintegrate_rebalances, 3u);
}

TEST(CampaignParseHostile, NonIntegerCountsThrowTypedErrors) {
  for (const char* key :
       {"seed", "racks", "pdus_per_rack", "rigs_per_pdu", "periods",
        "rebalance_every", "reintegrate_rebalances"}) {
    for (const char* value :
         {"-1", "2.5", "1e300", "-1e300", "1e400", "9007199254740994"}) {
      EXPECT_THROW((void)faults::parse_campaign(with_value(key, value)),
                   InvalidArgument)
          << key << " = " << value;
    }
  }
  // rows is absent from the reference; add it.
  for (const char* value : {"-1", "2.5", "1e300"}) {
    EXPECT_THROW((void)faults::parse_campaign(with_value(
                     "racks", std::string("1, \"rows\": ") + value)),
                 InvalidArgument)
        << "rows = " << value;
  }
}

TEST(CampaignParseHostile, OversizedRunsAreRejectedBeforeAnyRigIsBuilt) {
  // Each factor is within bounds; the product is not.
  EXPECT_THROW((void)faults::parse_campaign(with_value("racks", "4096")),
               InvalidArgument);
  EXPECT_THROW((void)faults::parse_campaign(with_value("rigs_per_pdu", "4097")),
               InvalidArgument);
  faults::CampaignConfig wraps = faults::parse_campaign(kReferenceCampaign);
  wraps.topology = {65536, 65536, 65536, 65536};  // product wraps to 0
  EXPECT_THROW((void)faults::validated(wraps), InvalidArgument);
  EXPECT_NO_THROW(
      (void)faults::parse_campaign(with_value("racks", "1024")));

  EXPECT_THROW((void)faults::parse_campaign(with_value("periods", "100001")),
               InvalidArgument);
  EXPECT_NO_THROW((void)faults::parse_campaign(with_value("periods", "100000")));
  for (const char* value : {"1e300", "1e400", "61"}) {
    EXPECT_THROW((void)faults::parse_campaign(with_value("period_s", value)),
                 InvalidArgument)
        << "period_s = " << value;
  }
  for (const char* key : {"rack_budget_w", "slo_s", "max_w"}) {
    EXPECT_THROW((void)faults::parse_campaign(with_value(key, "1e400")),
                 InvalidArgument)
        << key;
  }
}

TEST(CampaignParseHostile, SeededMutationsParseOrThrowTyped) {
  // Every number token of the reference document, by offset.
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const std::string& doc = kReferenceCampaign;
  for (std::size_t i = 1; i < doc.size(); ++i) {
    const bool starts = (doc[i - 1] == ' ' || doc[i - 1] == ':') &&
                        (doc[i] == '-' || (doc[i] >= '0' && doc[i] <= '9'));
    if (!starts) continue;
    std::size_t end = i + 1;
    while (end < doc.size() &&
           std::string("0123456789+-.eE").find(doc[end]) != std::string::npos) {
      ++end;
    }
    spans.emplace_back(i, end);
    i = end - 1;
  }
  ASSERT_GT(spans.size(), 15u);
  const std::vector<std::string> values = {
      "-1",  "2.5", "1e300", "-1e300", "1e400", "-0", "0", "4294967296",
      "9007199254740993", "18446744073709551616", "\"7\"", "null"};
  capgpu::Rng rng(2026);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string text = doc;
    // Edit right to left so earlier spans stay valid.
    const std::size_t a = rng.uniform_index(spans.size());
    const std::size_t b = rng.uniform_index(spans.size());
    for (const std::size_t k : {std::max(a, b), std::min(a, b)}) {
      text = text.substr(0, spans[k].first) +
             values[rng.uniform_index(values.size())] +
             text.substr(spans[k].second);
      if (a == b) break;
    }
    ++(parses_or_typed_error(text) ? parsed : rejected);
  }
  // The mutations exercise both outcomes.
  EXPECT_GT(parsed, 20u);
  EXPECT_GT(rejected, 100u);
}

TEST(CampaignParseHostile, DeepNestingThrowsTypedErrorNotStackOverflow) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // The parser accepts exactly kMaxDepth levels of arrays or objects.
  EXPECT_NO_THROW((void)json::parse(nested(json::kMaxDepth)));
  EXPECT_THROW((void)json::parse(nested(json::kMaxDepth + 1)), InvalidArgument);
  std::string objects;
  for (std::size_t i = 0; i <= json::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(json::kMaxDepth + 1, '}');
  EXPECT_THROW((void)json::parse(objects), InvalidArgument);
  // Two million unclosed brackets used to overflow the stack (exit 139).
  const std::string hostile(2'000'000, '[');
  EXPECT_THROW((void)json::parse(hostile), InvalidArgument);
  EXPECT_THROW((void)faults::parse_campaign(hostile), InvalidArgument);
  // Nested inside a campaign field, deep values fail the same way.
  EXPECT_THROW((void)faults::parse_campaign(with_value("racks", nested(400))),
               InvalidArgument);
}

}  // namespace
}  // namespace capgpu::fleet
