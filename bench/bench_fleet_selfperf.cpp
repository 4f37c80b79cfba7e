// Fleet self-perf: sharded lockstep fleet stepping (fleet::FleetSim on the
// work-stealing ThreadPool) vs the serial reference path, measured in rig
// control periods simulated per wall-clock second at fleet sizes.
//
// Each topology runs the same scenario twice per rep — once through
// run_serial_reference() (one rig at a time, caller's telemetry scope, no
// pool) and once through FleetSim (rigs sharded across workers, barrier
// per control epoch, hierarchical budget cascade between epochs) — and the
// bench checks the cascade decision trail and every fleet observable are
// bit-identical before it reports a speedup. Construction is inside the
// timed region: building 1024 rigs is part of what the sharded path
// parallelises.
//
// Shape checks (PASS/FAIL/SKIP): per-topology determinism (serial vs
// sharded vs a second shard count) is build- and machine-independent; the
// speedup gates compare two runs of the same build but still need real
// cores, so they print SKIP (not FAIL) below 2 / 4 workers and the JSON
// carries `workers` for scripts/check.sh to condition its jq gates on.
// With --out <path> the results also go to a JSON report, which
// scripts/run_perf.sh merges into BENCH_perf.json as `fleet_selfperf`
// (docs/performance.md describes the format). Without it the bench only
// prints.
//
// --gate 1 runs the deterministic 16-rig gate topology only (energy
// attribution on, no timing): scripts/check_fleet.sh byte-compares the
// --metrics-out/--energy-out/--flight-out artifacts across shard layouts,
// and scripts/run_tsan.sh runs it under ThreadSanitizer.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "fleet/fleet_sim.hpp"
#include "runner/thread_pool.hpp"
#include "telemetry/table.hpp"

using namespace capgpu;

namespace {

struct FleetShape {
  const char* name;
  faults::DomainTopology topology;  // {racks, pdus_per_rack, rigs_per_pdu, rows}
  std::size_t periods;
};

// Fleet-representative sizes; periods shrink as rigs grow so a Debug run
// of the whole table stays interactive.
constexpr FleetShape kShapes[] = {
    {"fleet64", {2, 4, 4, 2}, 6},    // 2 rows x 2 racks x 4 PDUs x 4 rigs
    {"fleet256", {4, 4, 4, 4}, 6},   // the acceptance-gate size
    {"fleet1024", {8, 8, 4, 4}, 3},  // 4 rows x 8 racks x 8 PDUs x 4 rigs
};

// The check_fleet.sh / TSan gate topology: small enough to byte-compare
// telemetry artifacts quickly, large enough to exercise rows and shards.
constexpr FleetShape kGateShape = {"gate16", {2, 2, 2, 2}, 4};

fleet::FleetConfig make_config(const FleetShape& s) {
  fleet::FleetConfig fc;
  fc.name = s.name;
  fc.topology = s.topology;
  fc.periods = s.periods;
  fc.health.enabled = true;
  return fc;
}

/// Everything shard-layout-independent in one comparable bundle.
struct Digest {
  std::vector<fleet::FleetDecisionRecord> decisions;
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> missed;
  std::vector<double> power;
  double images{0.0};
  std::uint64_t engagements{0};

  explicit Digest(const fleet::FleetResult& r)
      : decisions(r.decisions), images(r.images),
        engagements(r.failsafe_engagements) {
    for (const auto& s : r.snaps) {
      checked.insert(checked.end(), s.checked.begin(), s.checked.end());
      missed.insert(missed.end(), s.missed.begin(), s.missed.end());
      power.push_back(s.fleet_power_w);
    }
  }

  bool operator==(const Digest& o) const {
    return decisions == o.decisions && checked == o.checked &&
           missed == o.missed && power == o.power && images == o.images &&
           engagements == o.engagements;
  }
};

struct Timed {
  fleet::FleetResult result;
  double rig_periods_per_s{0.0};
};

template <typename Fn>
Timed run_timed(const FleetShape& s, Fn&& run) {
  Timed t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double work =
      static_cast<double>(s.topology.total_rigs()) *
      static_cast<double>(s.periods);
  t.rig_periods_per_s = secs > 0.0 ? work / secs : 0.0;
  return t;
}

struct Row {
  const FleetShape* shape{nullptr};
  double serial_rps{0.0};
  double sharded_rps{0.0};
  std::size_t shards{0};
  bool deterministic{false};
  [[nodiscard]] double speedup() const {
    return serial_rps > 0.0 ? sharded_rps / serial_rps : 0.0;
  }
};

// The deterministic gate run: serial reference vs the requested shard
// layout on the 16-rig topology with every telemetry sink live. Returns
// false (-> exit 1) when the sharded decisions diverge from serial.
bool run_gate(std::size_t shards, std::size_t workers) {
  fleet::FleetConfig fc = make_config(kGateShape);
  fc.energy_attribution = true;
  const Digest ref(fleet::run_serial_reference(fc));
  fleet::FleetSim sim(fc, {shards, workers});
  const fleet::FleetResult sharded = sim.run();
  const bool ok = ref == Digest(sharded);
  std::printf(
      "  [%s] gate16: sharded run (%zu shards, %zu workers) bit-identical "
      "to serial reference\n",
      ok ? "PASS" : "FAIL", sharded.shards, sharded.jobs);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::string out_path;
  int reps = 2;
  std::size_t shards = 0;   // 0 = FleetSim's default (min(rigs, 4 * jobs))
  std::size_t workers = 0;  // 0 = hardware threads
  bool gate_only = false;
  try {
    const auto flags =
        extract_flags(argc, argv, {"out", "reps", "shards", "workers", "gate"});
    if (auto it = flags.find("out"); it != flags.end()) out_path = it->second;
    if (auto it = flags.find("reps"); it != flags.end())
      reps = static_cast<int>(bench::parse_count("reps", it->second, 1, 1000));
    if (auto it = flags.find("shards"); it != flags.end())
      shards = bench::parse_count("shards", it->second, 0, bench::kMaxFlagShards);
    if (auto it = flags.find("workers"); it != flags.end())
      workers = bench::parse_count("workers", it->second, 0, bench::kMaxFlagThreads);
    if (auto it = flags.find("gate"); it != flags.end())
      gate_only = it->second != "0";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  const std::size_t resolved_workers =
      workers != 0 ? workers : runner::ThreadPool::hardware_jobs();

  bench::print_banner(
      "Fleet self-perf: sharded lockstep stepping vs serial reference",
      "rig control periods simulated per second, 64 to 1024 rigs");

  if (gate_only) return run_gate(shards, workers) ? 0 : 1;

  std::vector<Row> rows;
  for (const FleetShape& s : kShapes) {
    const fleet::FleetConfig fc = make_config(s);
    Row row;
    row.shape = &s;
    row.deterministic = true;
    // Reps alternate serial and sharded so both sample the same machine
    // conditions; best-of keeps the least-perturbed rep.
    for (int r = 0; r < reps; ++r) {
      const Timed serial =
          run_timed(s, [&] { return fleet::run_serial_reference(fc); });
      const Timed sharded = run_timed(s, [&] {
        fleet::FleetSim sim(fc, {shards, workers});
        return sim.run();
      });
      row.serial_rps = std::max(row.serial_rps, serial.rig_periods_per_s);
      row.sharded_rps = std::max(row.sharded_rps, sharded.rig_periods_per_s);
      row.shards = sharded.result.shards;
      if (r == 0) {
        row.deterministic = Digest(serial.result) == Digest(sharded.result);
        // A second shard count must not move a single bit either.
        fleet::FleetSim alt(fc, {sharded.result.shards + 3, workers});
        row.deterministic =
            row.deterministic && Digest(serial.result) == Digest(alt.run());
      }
    }
    rows.push_back(row);
  }

  telemetry::Table t("rig-periods/sec, best of " + std::to_string(reps) +
                     " (" + std::to_string(resolved_workers) + " workers)");
  t.set_header({"topology", "rigs", "shards", "serial/s", "sharded/s",
                "speedup", "identical"});
  for (const Row& r : rows) {
    t.add_row({r.shape->name, std::to_string(r.shape->topology.total_rigs()),
               std::to_string(r.shards), telemetry::fmt(r.serial_rps, 0),
               telemetry::fmt(r.sharded_rps, 0),
               telemetry::fmt(r.speedup(), 2) + "x",
               r.deterministic ? "yes" : "NO"});
  }
  t.print();

  bool all_ok = true;
  double worst_speedup = 1e300;
  double speedup_256 = 0.0;
  for (const Row& r : rows) {
    worst_speedup = std::min(worst_speedup, r.speedup());
    if (std::string(r.shape->name) == "fleet256") speedup_256 = r.speedup();
    std::printf(
        "  [%s] %s: sharded decisions and observables bit-identical to "
        "serial reference (and across shard counts)\n",
        r.deterministic ? "PASS" : "FAIL", r.shape->name);
    all_ok = all_ok && r.deterministic;
  }
  // Speedup needs real cores: FAIL only where the machine can show one.
  if (resolved_workers >= 2) {
    const bool ok = worst_speedup >= 1.0;
    std::printf("  [%s] worst sharded speedup %.2fx (target >= 1.0x)\n",
                ok ? "PASS" : "FAIL", worst_speedup);
    all_ok = all_ok && ok;
  } else {
    std::printf(
        "  [SKIP] worst-speedup gate: %zu worker(s), need >= 2\n",
        resolved_workers);
  }
  if (resolved_workers >= 4) {
    const bool ok = speedup_256 >= 3.0;
    std::printf("  [%s] fleet256 speedup %.2fx (target >= 3.0x)\n",
                ok ? "PASS" : "FAIL", speedup_256);
    all_ok = all_ok && ok;
  } else {
    std::printf("  [SKIP] fleet256 3x gate: %zu worker(s), need >= 4\n",
                resolved_workers);
  }

  if (out_path.empty()) return all_ok ? 0 : 1;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"fleet_selfperf\": {\n    \"reps\": " << reps
      << ",\n    \"workers\": " << resolved_workers
      << ",\n    \"topologies\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "      {\"name\": \"%s\", \"rigs\": %zu, \"periods\": %zu, "
        "\"shards\": %zu, \"serial_rig_periods_per_s\": %.0f, "
        "\"sharded_rig_periods_per_s\": %.0f, \"speedup\": %.3f, "
        "\"deterministic\": %s}%s\n",
        r.shape->name, r.shape->topology.total_rigs(), r.shape->periods,
        r.shards, r.serial_rps, r.sharded_rps, r.speedup(),
        r.deterministic ? "true" : "false",
        i + 1 < std::size(kShapes) ? "," : "");
    out << buf;
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "    ],\n    \"worst_speedup\": %.3f,\n"
                "    \"speedup_256\": %.3f\n  }\n}\n",
                worst_speedup, speedup_256);
  out << tail;
  std::printf("  [perf] %s\n", out_path.c_str());
  return all_ok ? 0 : 1;
}
