// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: its name, steady-clock start and
// end, the span that was open on the same thread when it began (or an
// explicit parent handed across threads, e.g. a shard task under the
// fleet step), the recording thread, and the run id (the benchmark rep).
// Each thread appends to its own buffer, so recording takes no lock; the
// buffers are read only after every recording thread has joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span names, one per timed layer boundary.
enum class SpanName : std::uint8_t {
  kRunnerMap,        ///< ScenarioRunner::map
  kRunnerScenario,   ///< one scenario body inside map
  kRigBuild,         ///< ServerRig + controller (+ ControlLoop, start)
  kRigRun,           ///< ServerRig::run (sweep: engine run plus loop setup)
  kRunUntil,         ///< Engine::run_until of one rig-period (fleets)
  kCapgpuDecide,     ///< CapGpuController::control
  kBaselineDecide,   ///< baseline policy control()
  kHalMeter,         ///< IPowerMeter calls
  kHalActuate,       ///< frequency commands
  kHalRead,          ///< other IServerHal reads
  kOnPeriod,         ///< per-period monitor, ledger and trim body
  kFleetBuild,       ///< phase-0 rig construction
  kFleetEpoch,       ///< barrier to barrier
  kFleetStep,        ///< ThreadPool::parallel_for of one epoch
  kFleetShard,       ///< one shard task inside the step
  kFleetCascade,     ///< cascade_tiers + rig_feed_bounds + pushes
  kRackRebalance,    ///< RackCoordinator::rebalance
  kFleetMerge,       ///< the final merge of every scope
  kScopeMerge,       ///< one ScenarioTelemetry::merge_into
  kCount
};

[[nodiscard]] const char* span_name(SpanName name);

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::uint32_t run{0};
  std::uint16_t thread{0};
  SpanName name{SpanName::kRunnerMap};
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The process-wide recorder. Disabled by default: a disabled recorder
/// makes SpanScope a branch and nothing else.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Run id stamped on spans opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Drops every recorded span. Call only while no thread records.
  void clear();
  /// Every recorded span, grouped by thread. Call only while no thread
  /// records.
  [[nodiscard]] std::vector<Span> collect() const;

  /// Opens a span on the calling thread; returns its id. `parent` = 0
  /// takes the innermost open span of this thread.
  std::uint64_t open(SpanName name, std::uint64_t parent = 0);
  void close(std::uint64_t id);

  /// Writes spans as CSV: name,run,thread,id,parent,start_ns,end_ns.
  static bool write_csv(const std::vector<Span>& spans,
                        const std::string& path);

 private:
  struct ThreadBuffer {
    std::uint16_t thread{0};
    std::uint64_t next_seq{1};
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans
  };
  ThreadBuffer& local();

  bool enabled_{false};
  std::uint32_t run_{0};
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. No-op while the recorder is disabled.
class SpanScope {
 public:
  explicit SpanScope(SpanName name, std::uint64_t parent = 0) {
    SpanRecorder& r = SpanRecorder::instance();
    if (r.enabled()) id_ = r.open(name, parent);
  }
  ~SpanScope() {
    if (id_ != 0) SpanRecorder::instance().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_{0};
};

}  // namespace perfbench
