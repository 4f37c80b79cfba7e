#include "spans.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kSpanNames[] = {
    "runner.map",     "runner.scenario", "core.rig_build", "sim.rig_run",
    "sim.run_until",  "control.decide",  "baselines.decide", "hal.meter",
    "hal.actuate",    "hal.read",        "telemetry.on_period", "fleet.build",
    "fleet.epoch",    "fleet.step",      "fleet.shard",    "fleet.cascade",
    "rack.rebalance", "fleet.merge",     "telemetry.merge",
};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanName::kCount));

std::atomic<std::uint64_t> g_generation{1};

struct LocalSlot {
  std::uint64_t generation{0};
  void* buffer{nullptr};
};
thread_local LocalSlot t_slot;

}  // namespace

const char* span_name(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (t_slot.generation != gen) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<std::uint16_t>(buffers_.size());
    buf->spans.reserve(1 << 16);
    t_slot = {gen, buf.get()};
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> SpanRecorder::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::uint64_t SpanRecorder::open(SpanName name, std::uint64_t parent) {
  ThreadBuffer& b = local();
  Span s;
  s.name = name;
  s.run = run_;
  s.thread = b.thread;
  s.id = (static_cast<std::uint64_t>(b.thread) << 40) | b.next_seq++;
  s.parent = parent != 0 ? parent
             : b.open.empty() ? 0
                              : b.spans[b.open.back()].id;
  b.open.push_back(b.spans.size());
  b.spans.push_back(s);
  b.spans.back().start_ns = now_ns();
  return s.id;
}

void SpanRecorder::close(std::uint64_t id) {
  const std::int64_t end = now_ns();
  ThreadBuffer& b = local();
  // Spans nest on a thread, so the one closing is the innermost open one.
  if (b.open.empty() || b.spans[b.open.back()].id != id) return;
  b.spans[b.open.back()].end_ns = end;
  b.open.pop_back();
}

bool SpanRecorder::write_csv(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,run,thread,id,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%u,%u,%llu,%llu,%lld,%lld\n", span_name(s.name),
                 s.run, static_cast<unsigned>(s.thread),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
