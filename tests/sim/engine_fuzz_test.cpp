// Fuzz test of the DES kernel against a trivially-correct reference
// implementation (sorted event list): random interleavings of schedule,
// periodic, cancel and run operations must produce identical execution
// traces. A second fuzz drives recurring chains once as persistent timers
// and once as fresh schedule_after links: the fire order must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace capgpu::sim {
namespace {

/// Reference: O(n log n) sorted multimap of (time, insertion-seq) events.
class ReferenceEngine {
 public:
  std::uint64_t schedule(double at, int tag) {
    const std::uint64_t id = next_id_++;
    events_.emplace(std::make_pair(at, seq_++), std::make_pair(id, tag));
    return id;
  }

  void cancel(std::uint64_t id) { cancelled_.push_back(id); }

  void run_until(double until, std::vector<int>& trace) {
    for (auto it = events_.begin(); it != events_.end();) {
      if (it->first.first > until) break;
      const auto [id, tag] = it->second;
      if (std::find(cancelled_.begin(), cancelled_.end(), id) ==
          cancelled_.end()) {
        trace.push_back(tag);
      }
      it = events_.erase(it);
    }
    now_ = until;
  }

  [[nodiscard]] double now() const { return now_; }

 private:
  std::map<std::pair<double, std::uint64_t>, std::pair<std::uint64_t, int>>
      events_;
  std::vector<std::uint64_t> cancelled_;
  std::uint64_t next_id_{1};
  std::uint64_t seq_{0};
  double now_{0.0};
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, MatchesReferenceOnRandomWorkloads) {
  capgpu::Rng rng(GetParam());
  Engine engine;
  ReferenceEngine reference;
  std::vector<int> trace_engine;
  std::vector<int> trace_reference;
  // Parallel id maps: ids are allocated in the same order on both sides.
  std::vector<std::pair<EventId, std::uint64_t>> live_ids;

  int tag = 0;
  for (int op = 0; op < 2000; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.55) {
      // Schedule a one-shot at a random future offset (ties likely: the
      // offset grid is coarse, stressing FIFO ordering).
      const double at =
          engine.now() + rng.uniform_index(20) * 0.5;
      const int t = tag++;
      const EventId id =
          engine.schedule_at(at, [&trace_engine, t] { trace_engine.push_back(t); });
      const std::uint64_t rid = reference.schedule(at, t);
      live_ids.emplace_back(id, rid);
    } else if (roll < 0.70 && !live_ids.empty()) {
      // Cancel a random outstanding id (possibly already fired: both
      // sides must treat that as a no-op).
      const auto& [id, rid] = live_ids[rng.uniform_index(live_ids.size())];
      engine.cancel(id);
      reference.cancel(rid);
    } else {
      // Advance time.
      const double until = engine.now() + rng.uniform_index(10) * 0.7;
      engine.run_until(until);
      reference.run_until(until, trace_reference);
      ASSERT_EQ(trace_engine, trace_reference) << "op " << op;
      ASSERT_DOUBLE_EQ(engine.now(), reference.now());
    }
  }
  // Drain everything.
  engine.run_until(engine.now() + 1000.0);
  reference.run_until(reference.now() + 1000.0, trace_reference);
  EXPECT_EQ(trace_engine, trace_reference);
}

/// Runs random restarts, cancels, one-shots and time advances over a few
/// recurring chains and returns the fire trace. With `timers` each chain is
/// one persistent timer; without, every link is a fresh schedule_after.
std::vector<int> run_chains(std::uint64_t seed, bool timers) {
  constexpr int kChains = 6;
  struct Chain {
    EventId id{0};
    bool armed{false};
    int links{0};
  };
  capgpu::Rng rng(seed);
  Engine e;
  std::vector<int> trace;
  std::array<Chain, kChains> chains{};
  std::function<void(int)> arm;
  const auto fire = [&](int c) {
    chains[c].armed = false;
    trace.push_back(c);
    // Every fourth link the chain idles until something restarts it.
    const int link = ++chains[c].links;
    if (link % 4 != 0) arm(c);
    // Work scheduled after the re-arm ties with it on the grid: the seq
    // drawn at the arm call must order it before the re-armed link.
    if (link % 3 == 0) {
      e.schedule_after((link % 2) * 0.5, [&trace, c] { trace.push_back(50 + c); });
    }
  };
  arm = [&](int c) {
    Chain& ch = chains[c];
    ch.armed = true;
    // A 0.5 s grid with zero delays makes equal-time ties common.
    const double delay = ((c * 7 + ch.links * 13) % 5) * 0.5;
    if (timers) {
      e.arm_after(ch.id, delay);
    } else {
      ch.id = e.schedule_after(delay, [&fire, c] { fire(c); });
    }
  };
  if (timers) {
    for (int c = 0; c < kChains; ++c) {
      chains[c].id = e.make_timer([&fire, c] { fire(c); });
    }
  }
  for (int op = 0; op < 1500; ++op) {
    const double roll = rng.uniform();
    const int c = static_cast<int>(rng.uniform_index(kChains));
    if (roll < 0.35) {
      if (!chains[c].armed) arm(c);  // restart from outside any event
    } else if (roll < 0.5) {
      e.cancel(chains[c].id);  // idle or fired: a no-op on both sides
      chains[c].armed = false;
    } else if (roll < 0.75) {
      // A one-shot that restarts an idle chain from its own callback.
      const int t = 100 + op;
      e.schedule_after(rng.uniform_index(10) * 0.5, [&, t, c] {
        trace.push_back(t);
        if (!chains[c].armed) arm(c);
      });
    } else {
      e.run_until(e.now() + rng.uniform_index(8) * 0.5);
    }
  }
  for (auto& ch : chains) {
    e.cancel(ch.id);
    ch.armed = false;
  }
  e.run_until(e.now() + 1000.0);
  return trace;
}

TEST_P(EngineFuzz, TimersFireLikeFreshSchedules) {
  const std::vector<int> fresh = run_chains(GetParam(), false);
  ASSERT_GT(fresh.size(), 500u);
  EXPECT_EQ(run_chains(GetParam(), true), fresh);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(1ULL, 17ULL, 99ULL, 12345ULL));

}  // namespace
}  // namespace capgpu::sim
