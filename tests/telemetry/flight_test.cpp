// FlightRecord serialization and FlightRecorder semantics: the JSONL
// round trip must be bit-exact (replay depends on it), the ring must drop
// oldest-first with accounting, and finalization must fill residuals and
// derive the controller-health metrics.
#include "telemetry/flight.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"

namespace capgpu::telemetry {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(FlightRecord, JsonlRoundTripIsBitExact) {
  FlightRecord rec;
  rec.pid = 3;
  rec.period = 17;
  rec.t_s = 68.000000000000014;
  rec.policy = "capgpu";
  rec.measured_power_w = 901.23456789012345;
  rec.freqs_mhz = {1000.0, 1.0 / 3.0, 0.1};
  rec.targets_mhz = {999.99999999999989, 2.0 / 3.0, 0.30000000000000004};
  rec.power_residual_w = -2.2250738585072014e-308;  // smallest normal
  rec.realized_latency_s = {0.0, 0.987654321, 5e-324};  // denormal
  rec.outcome_filled = true;
  rec.mpc.present = true;
  rec.mpc.fed_power_w = 903.00000000000011;
  rec.mpc.gains_w_per_mhz = {0.123456789012345678, 0.2, 0.3};
  rec.mpc.offset_w = 123.45678901234567;
  rec.mpc.f_min_mhz = {1000.0, 544.44444444444446, 435.0};
  rec.mpc.f_max_mhz = {2400.0, 1350.0, 1249.9999999999998};
  rec.mpc.f_lo_mhz = {1000.0, 435.0, 435.0};
  rec.mpc.f_hi_mhz = {2400.0, 1350.0, 1350.0};
  rec.mpc.device_kinds = {0, 1, 1};
  rec.mpc.deltas_mhz = {0.0, -3.25, 1e-3};
  rec.mpc.predicted_latency_s = {0.0, 0.41, 0.43};
  rec.mpc.prediction_horizon = 8;
  rec.mpc.control_horizon = 2;
  rec.mpc.regularization = 1e-9;
  rec.mpc.planned_deltas_mhz = {-0.0, 12.345678901234567, 1e-300};
  rec.mpc.qp_iterations = 3;
  rec.mpc.qp_converged = true;
  rec.mpc.warm_start_hit = true;
  rec.mpc.qp_objective = 1234.5678901234567;
  rec.mpc.active_set_size = 4;
  rec.mpc.floor_binding = {0, 1, 0};
  rec.mpc.ceiling_binding = {1, 0, 0};

  const std::string line = rec.to_jsonl();
  const FlightRecord back = FlightRecord::from_json(json::parse(line));

  // Serializing the parsed record must reproduce the line byte-for-byte —
  // the property the replay-determinism gate rests on.
  EXPECT_EQ(line, back.to_jsonl());
  ASSERT_EQ(back.targets_mhz.size(), rec.targets_mhz.size());
  for (std::size_t j = 0; j < rec.targets_mhz.size(); ++j) {
    EXPECT_TRUE(bits_equal(back.targets_mhz[j], rec.targets_mhz[j])) << j;
  }
  EXPECT_TRUE(bits_equal(back.power_residual_w, rec.power_residual_w));
  EXPECT_TRUE(bits_equal(back.realized_latency_s[2], 5e-324));
  EXPECT_TRUE(bits_equal(back.mpc.gains_w_per_mhz[0],
                         rec.mpc.gains_w_per_mhz[0]));
  EXPECT_EQ(back.mpc.prediction_horizon, 8u);
  EXPECT_EQ(back.mpc.qp_iterations, 3u);
  EXPECT_TRUE(back.mpc.warm_start_hit);
  EXPECT_EQ(back.mpc.floor_binding, rec.mpc.floor_binding);
  EXPECT_EQ(back.policy, "capgpu");
}

TEST(FlightRecord, AbsentMpcSerializesAsNull) {
  FlightRecord rec;
  rec.policy = "fixed_step";
  rec.held = true;
  rec.hold_reason = "deadband";
  const std::string line = rec.to_jsonl();
  EXPECT_NE(line.find("\"mpc\":null"), std::string::npos);
  const FlightRecord back = FlightRecord::from_json(json::parse(line));
  EXPECT_FALSE(back.mpc.present);
  EXPECT_TRUE(back.held);
  EXPECT_EQ(back.hold_reason, "deadband");
  EXPECT_EQ(line, back.to_jsonl());
}

TEST(FlightRecorder, DisabledRecorderIgnoresRecords) {
  FlightRecorder recorder;
  FlightRecord rec;
  recorder.record(rec);
  EXPECT_TRUE(recorder.records().empty());
  EXPECT_EQ(recorder.pending(), nullptr);
}

TEST(FlightRecorder, RingDropsOldestAndCounts) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_capacity(4);
  for (std::size_t k = 0; k < 6; ++k) {
    FlightRecord rec;
    rec.period = k;
    rec.policy = "capgpu";
    recorder.record(std::move(rec));
  }
  EXPECT_EQ(recorder.records().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 2u);
  EXPECT_EQ(recorder.records().front().period, 2u);
  EXPECT_EQ(registry
                .counter(metric::kCtlFlightDroppedRecords, "",
                         {{"policy", "capgpu"}})
                .value(),
            2.0);
}

TEST(FlightRecorder, FinalizeFillsPowerResidualFromNextRecord) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);

  FlightRecord first;
  first.pid = 1;
  first.period = 0;
  first.policy = "capgpu";
  first.measured_power_w = 880.0;
  first.mpc.present = true;
  first.mpc.predicted_power_w = 900.0;
  recorder.record(std::move(first));
  ASSERT_NE(recorder.pending(), nullptr);
  recorder.pending()->realized_latency_s = {0.0, 0.5};

  FlightRecord second;
  second.pid = 1;
  second.period = 1;
  second.policy = "capgpu";
  second.measured_power_w = 910.0;
  recorder.record(std::move(second));

  const FlightRecord& done = recorder.records().front();
  EXPECT_TRUE(done.outcome_filled);
  EXPECT_DOUBLE_EQ(done.realized_power_w, 910.0);
  EXPECT_DOUBLE_EQ(done.power_residual_w, 10.0);
  EXPECT_DOUBLE_EQ(
      registry.gauge(metric::kCtlPowerPredictionErrorEwma, "",
                     {{"policy", "capgpu"}})
          .value(),
      10.0);
  // The trailing record is completed by finish() but keeps zero residuals:
  // no next period exists to realize its prediction.
  recorder.finish();
  EXPECT_TRUE(recorder.records().back().outcome_filled);
  EXPECT_DOUBLE_EQ(recorder.records().back().power_residual_w, 0.0);
}

TEST(FlightRecorder, LatencyResidualUsesPreviousPeriodsPrediction) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);

  // Period 0 predicts 0.40 s on device 1; period 1 realizes 0.46 s.
  FlightRecord p0;
  p0.pid = 1;
  p0.policy = "capgpu";
  p0.mpc.present = true;
  p0.mpc.predicted_latency_s = {0.0, 0.40};
  recorder.record(std::move(p0));
  recorder.pending()->realized_latency_s = {0.0, 0.42};

  FlightRecord p1;
  p1.pid = 1;
  p1.period = 1;
  p1.policy = "capgpu";
  p1.mpc.present = true;
  p1.mpc.predicted_latency_s = {0.0, 0.44};
  recorder.record(std::move(p1));
  recorder.pending()->realized_latency_s = {0.0, 0.46};

  FlightRecord p2;
  p2.pid = 1;
  p2.period = 2;
  p2.policy = "capgpu";
  recorder.record(std::move(p2));
  recorder.finish();

  // Period 0 had no prior prediction: residuals stay zero. Period 1's
  // realized 0.46 s is judged against period 0's 0.40 s prediction — the
  // caps shaping period 1 were chosen then.
  const auto& records = recorder.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].latency_residual_s[1], 0.0);
  EXPECT_NEAR(records[1].latency_residual_s[1], 0.46 - 0.40, 1e-15);
}

TEST(FlightRecorder, MergeShiftsPidsAndPreservesOrder) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder parent;
  parent.set_enabled(true);
  FlightRecorder child;
  child.set_enabled(true);
  for (std::size_t k = 0; k < 3; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    child.record(std::move(rec));
  }
  parent.merge_from(std::move(child), 5);
  ASSERT_EQ(parent.records().size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(parent.records()[k].pid, 6);
    EXPECT_EQ(parent.records()[k].period, k);
    EXPECT_TRUE(parent.records()[k].outcome_filled);  // finish() ran
  }
}

TEST(FlightRecorder, BindingFractionsTrackActedPeriods) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);
  // Four acted periods, floors binding in the middle two.
  for (std::size_t k = 0; k < 4; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    rec.measured_power_w = 900.0;
    rec.mpc.present = true;
    rec.mpc.predicted_power_w = 900.0;
    rec.mpc.floor_binding = {0, k == 1 || k == 2 ? 1 : 0, 0};
    recorder.record(std::move(rec));
  }
  recorder.finish();
  // Three periods were finalized against a successor (the trailing one
  // skips health derivation); floors bound in two of them.
  EXPECT_DOUBLE_EQ(
      registry
          .gauge(metric::kCtlBindingFraction, "",
                 {{"policy", "capgpu"}, {"constraint", "floor"}})
          .value(),
      2.0 / 3.0);
  EXPECT_DOUBLE_EQ(
      registry
          .counter(metric::kCtlBindingPeriods, "",
                   {{"policy", "capgpu"}, {"constraint", "floor"}})
          .value(),
      2.0);
}

TEST(FlightRecorder, FailsafeTransitionsAreCounted) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);
  const int states[] = {0, 0, 1, 2, 0};
  for (std::size_t k = 0; k < 5; ++k) {
    FlightRecord rec;
    rec.pid = 1;
    rec.period = k;
    rec.policy = "capgpu";
    rec.failsafe_state = states[k];
    if (states[k] != 0) rec.failsafe_cause = "meter_dark";
    recorder.record(std::move(rec));
  }
  recorder.finish();
  EXPECT_DOUBLE_EQ(registry
                       .counter(metric::kCtlFallbackTransitions, "",
                                {{"policy", "capgpu"},
                                 {"kind", "nominal_to_degraded"},
                                 {"cause", "meter_dark"}})
                       .value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry
                       .counter(metric::kCtlFallbackTransitions, "",
                                {{"policy", "capgpu"},
                                 {"kind", "degraded_to_recovering"},
                                 {"cause", "meter_dark"}})
                       .value(),
                   1.0);
}

TEST(FlightRecorder, WriteJsonlEmitsOneLinePerRecord) {
  MetricsRegistry registry;
  MetricsRegistry::ScopedCurrent metrics_guard(registry);
  FlightRecorder recorder;
  recorder.set_enabled(true);
  for (std::size_t k = 0; k < 3; ++k) {
    FlightRecord rec;
    rec.period = k;
    rec.policy = "capgpu";
    recorder.record(std::move(rec));
  }
  recorder.finish();
  std::ostringstream out;
  recorder.write_jsonl(out);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
  // Every line parses back into a record of the right period.
  std::size_t pos = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const FlightRecord back =
        FlightRecord::from_json(json::parse_prefix(text, pos));
    EXPECT_EQ(back.period, k);
    ++pos;  // newline
  }
}

// --- Hostile flight logs ----------------------------------------------------
// A flight log is input from outside the process. Every malformed line must
// either parse or end in a typed capgpu::Error: an untyped exception fails
// the test, and an undefined cast trips the sanitizer builds.

// One acted CapGPU period (900 W set point) recorded by
// `bench_fig6_setpoint_sweep --flight-out`; the seed of the mutations below.
const std::string kGoldenLine =
    R"({"pid":6,"period":19,"t_s":80,"policy":"capgpu",)"
    R"("measured_power_w":895.46326809646189,"set_point_w":900,)"
    R"("error_w":-4.5367319035381115,"held":0,"hold_reason":"",)"
    R"("failsafe_state":-1,"failsafe_cause":"",)"
    R"("freqs_mhz":[1091.0918377265284,925.67885073018772,)"
    R"(881.48254326416418,968.18813048675474],)"
    R"("targets_mhz":[1092.1995054914835,928.07761135566113,)"
    R"(886.04890454506017,972.25160141659421],)"
    R"("utilization":[0.94999999999999996,0.90000000000000002,)"
    R"(0.81999999999999995,0.96999999999999997],)"
    R"("normalized_throughput":[0.45833333333333343,0.69999999999999996,)"
    R"(0.68750000000000011,0.73125000000000007],"outcome_filled":1,)"
    R"("realized_power_w":899.39467295954569,)"
    R"("power_residual_w":1.7319117390708243,"realized_latency_s":[0,)"
    R"(0.4907796204084135,0.8152873323461941,0.61142342783567105],)"
    R"("latency_residual_s":[0,-0.0026132425421179217,0.0046587041432833987,)"
    R"(0.002457678485108139],"mpc":{"fed_power_w":895.46326809646189,)"
    R"("gains_w_per_mhz":[0.052929853342459331,0.19543831967743616,)"
    R"(0.18305843726918633,0.20577081516280499],)"
    R"("offset_w":298.15684778552026,"weights":[3.9538478797453724e-05,)"
    R"(2.7298726162227803e-05,2.7952070384038237e-05,)"
    R"(2.6378734786360213e-05],"f_min_mhz":[1000,435,435,435],)"
    R"("f_max_mhz":[2400,1350,1350,1350],"f_lo_mhz":[1000,435,435,435],)"
    R"("f_hi_mhz":[2400,1350,1350,1350],"device_kinds":[0,1,1,1],)"
    R"("prediction_horizon":8,"control_horizon":2,"tracking_weight":1,)"
    R"("reference_decay":0.5,"violation_decay":0,)"
    R"("regularization":1.0000000000000001e-09,)"
    R"("deltas_mhz":[1.1076677649550153,2.3987606254734635,)"
    R"(4.5663612808959373,4.063470929839518],)"
    R"("planned_deltas_mhz":[1.1076677649550153,2.3987606254734635,)"
    R"(4.5663612808959373,4.063470929839518,0.62826671833626357,)"
    R"(3.3597951686064196,3.0735034243742341,3.6608428490127496],)"
    R"("predicted_power_w":897.66276122047486,)"
    R"("predicted_power_horizon_w":[897.66276122047486,899.66857335898089,)"
    R"(899.66857335898089,899.66857335898089,899.66857335898089,)"
    R"(899.66857335898089,899.66857335898089,899.66857335898089],)"
    R"("predicted_latency_s":[0,0.49223224995813286,0.80682606184592798,)"
    R"(0.60664923739625431],"qp_iterations":2,"qp_converged":1,)"
    R"("warm_start_hit":0,"qp_objective":-128.63537031590405,)"
    R"("active_set_size":0,"floor_binding":[0,0,0,0],"ceiling_binding":[0,0,)"
    R"(0,0]}})";

/// True when `line` parses; false when the reader rejects it with a typed
/// capgpu::Error. Any other exception escapes and fails the calling test.
bool parses_or_typed_error(const std::string& line) {
  try {
    const FlightRecord rec = FlightRecord::from_json(json::parse(line));
    (void)rec.to_jsonl();
    return true;
  } catch (const capgpu::Error&) {
    return false;
  }
}

/// Half-open [begin, end) spans of the line's number tokens.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(
    const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 1; i < line.size(); ++i) {
    const char prev = line[i - 1];
    const char c = line[i];
    if ((prev != ':' && prev != ',' && prev != '[') ||
        !(c == '-' || (c >= '0' && c <= '9'))) {
      continue;
    }
    std::size_t end = i + 1;
    while (end < line.size() &&
           std::string("0123456789+-.eE").find(line[end]) !=
               std::string::npos) {
      ++end;
    }
    spans.emplace_back(i, end);
    i = end - 1;
  }
  return spans;
}

/// `line` with the scalar or flat-array value of `"key":` replaced.
std::string with_value(const std::string& line, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no key " << key;
    return line;
  }
  const std::size_t begin = at + tag.size();
  const std::size_t end = line[begin] == '['
                              ? line.find(']', begin) + 1
                              : line.find_first_of(",}", begin);
  return line.substr(0, begin) + value + line.substr(end);
}

/// `line` with the last element of the array at `"key":` dropped.
std::string truncated(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":[";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no array " << key;
    return line;
  }
  const std::size_t close = line.find(']', at);
  const std::size_t open = at + tag.size() - 1;
  const std::size_t comma = line.rfind(',', close);
  const std::size_t cut = comma != std::string::npos && comma > open
                              ? comma
                              : open + 1;
  return line.substr(0, cut) + line.substr(close);
}

TEST(FlightRecordHostile, GoldenLineRoundTrips) {
  const FlightRecord rec = FlightRecord::from_json(json::parse(kGoldenLine));
  ASSERT_TRUE(rec.mpc.present);
  EXPECT_EQ(rec.to_jsonl(), kGoldenLine);
}

TEST(FlightRecordHostile, NonIntegerCountsThrowTypedErrors) {
  const std::vector<std::string> counts = {
      "pid", "period", "prediction_horizon", "control_horizon",
      "qp_iterations", "active_set_size"};
  const std::vector<std::string> bad = {"-1", "2.5", "1e300", "-1e300",
                                        "1e400", "9007199254740994"};
  for (const std::string& key : counts) {
    for (const std::string& value : bad) {
      EXPECT_THROW((void)FlightRecord::from_json(
                       json::parse(with_value(kGoldenLine, key, value))),
                   capgpu::InvalidArgument)
          << key << " = " << value;
    }
    EXPECT_TRUE(parses_or_typed_error(with_value(kGoldenLine, key, "7")))
        << key;
  }
  // failsafe_state is an int whose "unhardened" value is -1.
  EXPECT_TRUE(
      parses_or_typed_error(with_value(kGoldenLine, "failsafe_state", "-1")));
  for (const char* value : {"2.5", "1e300", "-1e300", "1e400"}) {
    EXPECT_THROW((void)FlightRecord::from_json(json::parse(
                     with_value(kGoldenLine, "failsafe_state", value))),
                 capgpu::InvalidArgument)
        << value;
  }
}

TEST(FlightRecordHostile, HorizonsBeyondTheControllerBoundFailFast) {
  // A 4e9-step horizon used to parse, after which replay spun for minutes
  // in the solve and then asked for 32 GB. It must fail in the reader.
  for (const char* value : {"4000000000", "1025"}) {
    EXPECT_THROW((void)FlightRecord::from_json(json::parse(
                     with_value(kGoldenLine, "prediction_horizon", value))),
                 capgpu::InvalidArgument)
        << value;
  }
  EXPECT_THROW((void)FlightRecord::from_json(json::parse(
                   with_value(kGoldenLine, "control_horizon", "65"))),
               capgpu::InvalidArgument);
  // The horizons bench_ablation_horizons sweeps stay readable.
  const FlightRecord p64 = FlightRecord::from_json(
      json::parse(with_value(kGoldenLine, "prediction_horizon", "64")));
  EXPECT_EQ(p64.mpc.prediction_horizon, 64u);
  const FlightRecord m8 = FlightRecord::from_json(
      json::parse(with_value(kGoldenLine, "control_horizon", "8")));
  EXPECT_EQ(m8.mpc.control_horizon, 8u);
}

TEST(FlightRecordHostile, NonIntegerArrayEntriesThrowTypedErrors) {
  for (const char* key :
       {"device_kinds", "floor_binding", "ceiling_binding"}) {
    for (const char* value : {"[0,2.5,1,1]", "[0,1e300,1,1]",
                                     "[0,1,1,-1e300]"}) {
      EXPECT_THROW((void)FlightRecord::from_json(
                       json::parse(with_value(kGoldenLine, key, value))),
                   capgpu::InvalidArgument)
          << key << " = " << value;
    }
  }
}

TEST(FlightRecordHostile, TruncatedPerDeviceArraysThrowTypedErrors) {
  for (const char* key :
       {"gains_w_per_mhz", "weights", "f_min_mhz", "f_max_mhz", "f_lo_mhz",
        "f_hi_mhz", "device_kinds", "deltas_mhz", "predicted_latency_s",
        "floor_binding", "ceiling_binding"}) {
    EXPECT_THROW((void)FlightRecord::from_json(
                     json::parse(truncated(kGoldenLine, key))),
                 capgpu::InvalidArgument)
        << key;
  }
  // Empty weights mean the controller's uniform default.
  const FlightRecord uniform = FlightRecord::from_json(
      json::parse(with_value(kGoldenLine, "weights", "[]")));
  EXPECT_TRUE(uniform.mpc.weights.empty());
}

TEST(FlightRecordHostile, SeededMutationsParseOrThrowTyped) {
  const std::vector<std::pair<std::size_t, std::size_t>> spans =
      number_spans(kGoldenLine);
  ASSERT_GT(spans.size(), 50u);
  const std::vector<std::string> values = {
      "-1", "2.5", "1e300", "-1e300", "1e400", "-0", "0",
      "4294967296", "9007199254740993", "2147483648"};
  capgpu::Rng rng(2026);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = kGoldenLine;
    const int edits = 1 + static_cast<int>(rng.uniform_index(3));
    for (int e = 0; e < edits; ++e) {
      const auto mutated_spans = number_spans(line);
      const auto [begin, end] =
          mutated_spans[rng.uniform_index(mutated_spans.size())];
      if (rng.uniform() < 0.25) {
        // Drop the token together with one adjacent comma, truncating its
        // array (or leaving a dangling key the JSON parser rejects).
        const bool comma_after = end < line.size() && line[end] == ',';
        const bool comma_before = line[begin - 1] == ',';
        const std::size_t cut = comma_before && !comma_after ? begin - 1
                                                              : begin;
        line = line.substr(0, cut) + line.substr(comma_after ? end + 1 : end);
      } else {
        line = line.substr(0, begin) +
               values[rng.uniform_index(values.size())] + line.substr(end);
      }
    }
    ++(parses_or_typed_error(line) ? parsed : rejected);
  }
  // The mutations exercise both outcomes.
  EXPECT_GT(parsed, 50u);
  EXPECT_GT(rejected, 50u);
}

}  // namespace
}  // namespace capgpu::telemetry
