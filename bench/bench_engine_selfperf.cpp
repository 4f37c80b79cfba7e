// Engine hot-path microbenchmark: the pooled-slot sim::Engine vs the
// pre-overhaul map-based kernel, on the event patterns the simulations
// actually generate.
//
// The old engine is embedded below (LegacyEngine) so the comparison stays
// honest after the rewrite: both kernels compile with the same flags into
// the same binary and run the same workloads. Results print as a table;
// with --out <path> they also go to a JSON report, which
// scripts/run_perf.sh merges with the parallel-sweep timings
// (docs/performance.md describes the format). Without it the bench only
// prints.
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "hw/server_model.hpp"
#include "overhead.hpp"
#include "sim/engine.hpp"
#include "telemetry/table.hpp"
#include "workload/pipeline.hpp"

using namespace capgpu;

namespace legacy {

// The pre-overhaul kernel, verbatim: std::function callbacks, a
// priority_queue of nodes, and an unordered_map of live events consulted
// on every fire.
using SimTime = double;
using EventId = std::uint64_t;

class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  EventId schedule_at(SimTime at, Callback cb) {
    CAPGPU_REQUIRE(at >= now_, "cannot schedule an event in the past");
    CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
    const EventId id = next_id_++;
    live_.emplace(id, State{std::move(cb), false, 0.0});
    queue_.push(Node{at, next_seq_++, id});
    return id;
  }

  EventId schedule_after(SimTime delay, Callback cb) {
    CAPGPU_REQUIRE(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(cb));
  }

  EventId schedule_periodic(SimTime period, Callback cb) {
    CAPGPU_REQUIRE(period > 0.0, "periodic events need a positive period");
    CAPGPU_REQUIRE(static_cast<bool>(cb), "cannot schedule a null callback");
    const EventId id = next_id_++;
    live_.emplace(id, State{std::move(cb), true, period});
    queue_.push(Node{now_ + period, next_seq_++, id});
    return id;
  }

  void cancel(EventId id) { live_.erase(id); }

  bool step() {
    while (!queue_.empty()) {
      const Node node = queue_.top();
      queue_.pop();
      auto it = live_.find(node.id);
      if (it == live_.end()) continue;
      now_ = node.time;
      ++executed_;
      if (it->second.periodic) {
        queue_.push(Node{node.time + it->second.period, next_seq_++, node.id});
        Callback cb = it->second.cb;
        cb();
      } else {
        Callback cb = std::move(it->second.cb);
        live_.erase(it);
        cb();
      }
      return true;
    }
    return false;
  }

  void run_until(SimTime until) {
    CAPGPU_REQUIRE(until >= now_, "run_until target is in the past");
    for (;;) {
      while (!queue_.empty() && !live_.contains(queue_.top().id)) queue_.pop();
      if (queue_.empty() || queue_.top().time > until) break;
      step();
    }
    now_ = until;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct State {
    Callback cb;
    bool periodic{false};
    SimTime period{0.0};
  };
  struct Node {
    SimTime time;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Node& a, const Node& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_{0.0};
  std::uint64_t next_seq_{0};
  EventId next_id_{1};
  std::uint64_t executed_{0};
  std::priority_queue<Node, std::vector<Node>, Later> queue_;
  std::unordered_map<EventId, State> live_;
};

}  // namespace legacy

namespace {

// The workloads mirror what a rig run schedules: a bank of periodic
// timers (meters, control loops, stream monitors), one-shot chains
// (batch completion scheduling the next batch), and cancel churn
// (re-armed watchdogs and deadline timers that almost never fire).
// Captures are sized like the real call sites — pipeline callbacks grab
// `this` plus two or three values (24-40 bytes), past std::function's
// inline buffer.

struct MonitorState {
  std::uint64_t* acc;
  double gain;
  double offset;
  double last;
};

template <typename EngineT>
void workload_periodic(EngineT& e) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 64; ++i) {
    MonitorState st{&acc, 1.0 + 0.01 * i, 0.5 * i, 0.0};
    e.schedule_periodic(1.0 + 0.01 * i, [st]() mutable {
      st.last = st.gain * st.last + st.offset;
      ++*st.acc;
    });
  }
  e.run_until(16000.0);
}

// Self-propagating chain: each completion schedules the next batch with a
// fresh callable, exactly like the pipeline's consumer_finish_batch
// (captures object pointer, accumulator, and the batch latency).
template <typename EngineT>
struct ChainEvent {
  EngineT* e;
  std::uint64_t* acc;
  double exec;
  void operator()() const {
    ++*acc;
    if (e->now() < 16000.0) e->schedule_after(exec, ChainEvent{*this});
  }
};

template <typename EngineT>
void workload_chains(EngineT& e) {
  std::uint64_t acc = 0;
  for (int c = 0; c < 32; ++c) {
    e.schedule_after(0.5 + 0.01 * c,
                     ChainEvent<EngineT>{&e, &acc, 1.0 + 0.001 * c});
  }
  e.run_until(17000.0);
}

template <typename EngineT>
void workload_cancel_heavy(EngineT& e) {
  // Watchdog pattern: arm a deadline, cancel and re-arm before it fires.
  std::uint64_t acc = 0;
  e.schedule_periodic(1.0, [&acc] { ++acc; });
  auto watchdog = decltype(e.schedule_at(0.0, [] {})){};
  for (int round = 0; round < 200000; ++round) {
    if (round != 0) e.cancel(watchdog);
    MonitorState st{&acc, 1000.0, double(round), 0.0};
    watchdog = e.schedule_after(100.0, [st]() mutable {
      st.last = st.offset;
      *st.acc += std::uint64_t(st.gain);
    });
    e.run_until(e.now() + 0.01);
  }
}

template <typename EngineT>
void workload_mixed(EngineT& e) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 16; ++i) {
    MonitorState st{&acc, 0.9, 0.05 * i, 0.0};
    e.schedule_periodic(0.9 + 0.05 * i, [st]() mutable {
      st.last += st.gain;
      ++*st.acc;
    });
  }
  auto chain = std::make_shared<std::function<void()>>();
  *chain = [&e, chain, &acc] {
    ++acc;
    if (e.now() < 9000.0) {
      e.schedule_after(0.7, *chain);
      // A deadline that is always cancelled before firing.
      const auto t = e.schedule_after(50.0, [&acc] { acc += 1000; });
      e.schedule_after(0.5, [&e, t] { e.cancel(t); });
    }
  };
  e.schedule_after(0.1, *chain);
  e.run_until(9100.0);
}

struct Measurement {
  double events_per_s{0.0};
  std::uint64_t events{0};
};

template <typename EngineT, typename Workload>
Measurement run_once(Workload&& workload) {
  EngineT e;
  const auto t0 = std::chrono::steady_clock::now();
  workload(e);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return Measurement{
      secs > 0.0 ? static_cast<double>(e.events_executed()) / secs : 0.0,
      e.events_executed()};
}

struct Row {
  std::string name;
  Measurement legacy_m;
  Measurement current_m;
  [[nodiscard]] double speedup() const {
    return legacy_m.events_per_s > 0.0
               ? current_m.events_per_s / legacy_m.events_per_s
               : 0.0;
  }
};

// Reps alternate legacy/pooled so both kernels sample the same machine
// conditions — back-to-back blocks would fold timing drift into the ratio.
// Best-of keeps the least-perturbed rep of each.
template <typename Workload>
Row measure_pair(const std::string& name, Workload&& workload, int reps) {
  Row row{name, {}, {}};
  for (int r = 0; r < reps; ++r) {
    const Measurement lm = run_once<legacy::LegacyEngine>(workload);
    if (lm.events_per_s > row.legacy_m.events_per_s) row.legacy_m = lm;
    const Measurement cm = run_once<sim::Engine>(workload);
    if (cm.events_per_s > row.current_m.events_per_s) row.current_m = cm;
  }
  return row;
}

// --- Request-timeline overhead guard -------------------------------------
//
// The per-request latency attribution (RequestTimeline stamps + per-stage
// sketches) runs inside the pipeline's hot callbacks. With tracing
// disabled — the default for every simulation that does not ask for
// --trace-out/--events-out — it must stay within 5% of the pre-attribution
// fast path (StreamParams::stage_stats = false).
struct GuardRun {
  double cpu_s;          ///< thread CPU seconds of the simulated run
  std::uint64_t events;  ///< the same with attribution on or off
};

GuardRun run_pipeline_once(bool stage_stats) {
  sim::Engine engine;
  hw::ServerModel server = hw::ServerModel::v100_testbed(1);
  server.cpu().set_frequency(2.4_GHz);
  server.gpu(0).set_core_clock(1350_MHz);
  workload::StreamParams p;
  p.model.name = "selfperf";
  p.model.batch_size = 8;
  p.model.e_min_batch_s = 0.05;
  p.model.gamma = 0.91;
  p.model.gpu_f_max = 1350_MHz;
  p.model.preprocess_s_ghz = 0.005;
  p.model.gpu_busy_util = 0.9;
  p.model.jitter_frac = 0.0;
  p.n_preprocess_workers = 2;
  p.stage_stats = stage_stats;
  workload::InferenceStream stream(engine, server, 0, p, Rng(1));
  stream.start();
  const double t0 = bench::thread_cpu_s();
  engine.run_until(64000.0);
  return {bench::thread_cpu_s() - t0, engine.events_executed()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::string out_path;
  try {
    const auto flags = extract_flags(argc, argv, {"out"});
    if (auto it = flags.find("out"); it != flags.end()) out_path = it->second;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  bench::print_banner("Engine self-perf: pooled-slot kernel vs legacy kernel",
                      "events/sec on simulation-shaped workloads");

  constexpr int kReps = 7;
  std::vector<Row> rows;
  rows.push_back(measure_pair(
      "periodic-timers", [](auto& e) { workload_periodic(e); }, kReps));
  rows.push_back(measure_pair(
      "oneshot-chains", [](auto& e) { workload_chains(e); }, kReps));
  rows.push_back(measure_pair(
      "cancel-heavy", [](auto& e) { workload_cancel_heavy(e); }, kReps));
  rows.push_back(
      measure_pair("mixed", [](auto& e) { workload_mixed(e); }, kReps));

  telemetry::Table t("events/sec, best of " + std::to_string(kReps));
  t.set_header({"workload", "events", "legacy ev/s", "pooled ev/s", "speedup"});
  double worst_speedup = 1e9;
  for (const Row& r : rows) {
    t.add_row({r.name, std::to_string(r.current_m.events),
               telemetry::fmt(r.legacy_m.events_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.current_m.events_per_s / 1e6, 2) + "M",
               telemetry::fmt(r.speedup(), 2) + "x"});
    worst_speedup = std::min(worst_speedup, r.speedup());
  }
  t.print();
  std::printf("\n  worst-case speedup: %.2fx (target >= 1.5x)\n",
              worst_speedup);

  // More runs than the engine table: the guard compares two nearly equal
  // speeds, which needs more samples than a 2x-apart engine comparison.
  // 15 pairs left the median spreading ~7 points between runs on a shared
  // 4-vCPU host (one read 5.68% against the 5% budget); 45 pairs cut the
  // median's spread by ~sqrt(3) for ~1 s of CPU per pair.
  constexpr int kOverheadPairs = 45;
  std::uint64_t guard_events = 0;
  const auto guard_run = [&guard_events](bool stage_stats) {
    const GuardRun r = run_pipeline_once(stage_stats);
    guard_events = r.events;
    return r.cpu_s;
  };
  const bench::PairedOverhead overhead = bench::paired_overhead(
      kOverheadPairs, [&] { return guard_run(false); },
      [&] { return guard_run(true); });
  const auto events_per_s = [&](double cpu_s) {
    return cpu_s > 0.0 ? static_cast<double>(guard_events) / cpu_s : 0.0;
  };
  std::printf(
      "\n  request-timeline overhead (tracing disabled, median of %d "
      "interleaved pairs, thread CPU time):\n"
      "    attribution off %.2fM ev/s, on %.2fM ev/s -> %.2f%% overhead "
      "(target < 5%%): %s\n",
      kOverheadPairs, events_per_s(overhead.off_s) / 1e6,
      events_per_s(overhead.on_s) / 1e6, overhead.overhead_frac * 100.0,
      overhead.overhead_frac < 0.05 ? "PASS" : "FAIL");

  if (out_path.empty()) return 0;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"engine_selfperf\": {\n    \"reps\": " << kReps
      << ",\n    \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"name\": \"%s\", \"events\": %llu, "
                  "\"legacy_events_per_s\": %.0f, "
                  "\"pooled_events_per_s\": %.0f, \"speedup\": %.3f}%s\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.current_m.events),
                  r.legacy_m.events_per_s, r.current_m.events_per_s,
                  r.speedup(), i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "    ],\n    \"worst_speedup\": %.3f\n  },\n"
                "  \"timeline_overhead\": {\n"
                "    \"pairs\": %d,\n"
                "    \"baseline_events_per_s\": %.0f,\n"
                "    \"stage_stats_events_per_s\": %.0f,\n"
                "    \"overhead_frac\": %.4f,\n"
                "    \"budget_frac\": 0.05\n  }\n}\n",
                worst_speedup, overhead.pairs, events_per_s(overhead.off_s),
                events_per_s(overhead.on_s), overhead.overhead_frac);
  out << tail;
  std::printf("  [perf] %s\n", out_path.c_str());
  return 0;
}
