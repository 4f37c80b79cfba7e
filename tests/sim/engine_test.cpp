#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/error.hpp"

namespace capgpu::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, EqualTimestampsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, TimeAdvancesToEventTime) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(5.5, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Engine, ScheduleAfterUsesRelativeTime) {
  Engine e;
  e.run_until(2.0);
  double seen = -1.0;
  e.schedule_after(3.0, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, PastSchedulingThrows) {
  Engine e;
  e.run_until(5.0);
  EXPECT_THROW(e.schedule_at(4.0, [] {}), capgpu::InvalidArgument);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), capgpu::InvalidArgument);
  EXPECT_THROW(e.run_until(4.0), capgpu::InvalidArgument);
}

TEST(Engine, NullCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, nullptr), capgpu::InvalidArgument);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(1.0, [&] { ran = true; });
  e.cancel(id);
  e.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.cancel(9999);  // must not crash
  e.run_until(1.0);
}

TEST(Engine, EventsBeyondHorizonStayPending) {
  Engine e;
  bool ran = false;
  e.schedule_at(5.0, [&] { ran = true; });
  e.run_until(4.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  int fires = 0;
  e.schedule_periodic(1.0, [&] { ++fires; });
  e.run_until(5.5);
  EXPECT_EQ(fires, 5);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int fires = 0;
  EventId id = 0;
  id = e.schedule_periodic(1.0, [&] {
    if (++fires == 3) e.cancel(id);
  });
  e.run_until(10.0);
  EXPECT_EQ(fires, 3);
}

TEST(Engine, CancelInsideOwnCallbackDoesNotResurrect) {
  // Regression: cancelling a periodic event from inside its own callback
  // used to be undone by the post-callback reschedule, resurrecting the
  // event forever.
  Engine e;
  int fires = 0;
  EventId id = 0;
  id = e.schedule_periodic(1.0, [&] {
    ++fires;
    e.cancel(id);
  });
  e.run_until(10.0);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.pending(), 0u);
  // The freed slot must be safely reusable: a new event may land in it, and
  // the stale id must not cancel the newcomer.
  int other = 0;
  e.schedule_at(11.0, [&] { ++other; });
  e.cancel(id);  // stale generation: no-op
  e.run_until(12.0);
  EXPECT_EQ(other, 1);
  EXPECT_EQ(fires, 1);
}

TEST(Engine, CancelInsideOwnCallbackOneShot) {
  Engine e;
  int fires = 0;
  EventId id = e.schedule_at(1.0, [&] {
    ++fires;
    e.cancel(id);  // already firing: must be a harmless no-op
  });
  e.run_until(2.0);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, PeriodicNeedsPositivePeriod) {
  Engine e;
  EXPECT_THROW(e.schedule_periodic(0.0, [] {}), capgpu::InvalidArgument);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, [&] {
    times.push_back(e.now());
    e.schedule_after(1.0, [&] { times.push_back(e.now()); });
  });
  e.run_until(5.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Engine, CancelledHeadDoesNotBlockLaterEvents) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [&] { ran = true; });
  e.cancel(id);
  e.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Engine, CancelledEventAfterHorizonNotExecuted) {
  Engine e;
  bool late_ran = false;
  e.schedule_at(1.0, [] {});
  const EventId late = e.schedule_at(5.0, [&] { late_ran = true; });
  e.cancel(late);
  // run_until must not execute the 5.0 event even though the head at 1.0
  // was live.
  e.run_until(3.0);
  EXPECT_FALSE(late_ran);
  e.run_until(10.0);
  EXPECT_FALSE(late_ran);
}

TEST(Engine, ExecutedCounter) {
  Engine e;
  for (int i = 0; i < 4; ++i) e.schedule_at(1.0 + i, [] {});
  e.run_until(10.0);
  EXPECT_EQ(e.events_executed(), 4u);
}

TEST(Engine, StepRunsOneEvent) {
  Engine e;
  int runs = 0;
  e.schedule_at(1.0, [&] { ++runs; });
  e.schedule_at(2.0, [&] { ++runs; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, TimerRearmsInsideOwnCallback) {
  Engine e;
  std::vector<SimTime> fired;
  EventId timer = 0;
  timer = e.make_timer([&] {
    fired.push_back(e.now());
    if (fired.size() < 3) e.arm_after(timer, 1.0);
  });
  EXPECT_EQ(e.pending(), 0u);  // a new timer is idle
  e.arm_after(timer, 1.0);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{1.0, 2.0, 3.0}));
  EXPECT_EQ(e.events_executed(), 3u);
  EXPECT_EQ(e.pending(), 0u);
  // The slot outlives the chain: the same id arms it again.
  e.arm_after(timer, 1.0);
  e.run_until(20.0);
  EXPECT_EQ(fired.back(), 11.0);
}

TEST(Engine, TimerRearmKeepsFifoOrderAtEqualTimes) {
  // A timer re-armed at zero delay draws its seq at the call, so it fires
  // after everything already scheduled for the same timestamp — exactly as
  // a schedule_after(0.0) from the same point would.
  Engine e;
  std::vector<int> order;
  bool rearmed = false;
  EventId a = 0;
  a = e.make_timer([&] {
    order.push_back(1);
    if (!rearmed) {
      rearmed = true;
      e.arm_after(a, 0.0);
      e.schedule_after(0.0, [&] { order.push_back(3); });
    }
  });
  e.arm_at(a, 1.0);
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 3}));
}

TEST(Engine, TimerArmedFromAnotherEvent) {
  // A chain restarted from another event's callback (a blocked worker woken
  // by the consumer) pushes the idle timer; its seq orders it after the
  // events scheduled before the arm.
  Engine e;
  std::vector<int> order;
  const EventId timer = e.make_timer([&] { order.push_back(1); });
  e.schedule_at(1.0, [&] {
    e.schedule_after(1.0, [&] { order.push_back(0); });
    e.arm_after(timer, 1.0);
    e.schedule_after(1.0, [&] { order.push_back(2); });
  });
  e.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(e.events_executed(), 4u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, TimerArmWhileArmedThrows) {
  Engine e;
  int runs = 0;
  EventId timer = 0;
  timer = e.make_timer([&] {
    ++runs;
    e.arm_after(timer, 1.0);
    EXPECT_THROW(e.arm_after(timer, 2.0), capgpu::InvalidArgument);
  });
  e.arm_at(timer, 1.0);
  EXPECT_THROW(e.arm_at(timer, 1.0), capgpu::InvalidArgument);
  EXPECT_THROW(e.arm_after(timer, -1.0), capgpu::InvalidArgument);
  e.run_until(2.5);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_THROW(e.arm_at(timer, 1.0), capgpu::InvalidArgument);  // past
  EXPECT_THROW(e.make_timer(nullptr), capgpu::InvalidArgument);
}

TEST(Engine, TimerCancelDisarmsAndCanRearm) {
  Engine e;
  int runs = 0;
  EventId timer = 0;
  timer = e.make_timer([&] {
    ++runs;
    e.arm_after(timer, 1.0);
  });
  e.arm_after(timer, 1.0);
  e.run_until(1.5);  // first firing re-armed the timer for t=2
  EXPECT_EQ(e.pending(), 1u);
  e.cancel(timer);
  EXPECT_EQ(e.pending(), 0u);
  e.cancel(timer);  // already idle: no-op
  e.run_until(10.0);
  EXPECT_EQ(runs, 1);
  e.arm_after(timer, 1.0);
  e.run_until(11.5);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, TimerCancelAfterRearmInsideCallbackDisarms) {
  Engine e;
  int runs = 0;
  EventId timer = 0;
  timer = e.make_timer([&] {
    ++runs;
    e.arm_after(timer, 1.0);
    e.cancel(timer);  // changed its mind within the same firing
    if (runs == 1) e.arm_after(timer, 5.0);  // and back again
  });
  e.arm_after(timer, 1.0);
  e.run_until(10.0);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, TimerRejectsStaleAndNonTimerIds) {
  Engine e;
  const EventId one_shot = e.schedule_at(1.0, [] {});
  EXPECT_THROW(e.arm_at(one_shot, 2.0), capgpu::InvalidArgument);
  e.run_until(1.5);  // `one_shot` fired; its slot is free for reuse
  int runs = 0;
  const EventId timer = e.make_timer([&] { ++runs; });
  // The recycled slot means the timer reuses `one_shot`'s slot index; the
  // generation check still tells the stale id apart.
  EXPECT_EQ(one_shot >> 32, timer >> 32);
  EXPECT_THROW(e.arm_at(one_shot, 2.0), capgpu::InvalidArgument);
  EXPECT_THROW(e.arm_at(0, 2.0), capgpu::InvalidArgument);
  EXPECT_THROW(e.arm_at(EventId{9999} << 32 | 1, 2.0), capgpu::InvalidArgument);
  const EventId periodic = e.schedule_periodic(1.0, [] {});
  EXPECT_THROW(e.arm_at(periodic, 2.0), capgpu::InvalidArgument);
  e.cancel(one_shot);  // stale: must not disarm the timer
  e.arm_at(timer, 2.0);
  e.cancel(one_shot);
  e.run_until(3.0);
  EXPECT_EQ(runs, 1);
}

TEST(Engine, TimerRearmedByThrowingCallbackStaysScheduled) {
  Engine e;
  int runs = 0;
  EventId timer = 0;
  timer = e.make_timer([&] {
    ++runs;
    e.arm_after(timer, 1.0);
    if (runs == 1) throw std::runtime_error("callback failure");
  });
  e.arm_after(timer, 1.0);
  EXPECT_THROW(e.run_until(1.5), std::runtime_error);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(2.5);
  EXPECT_EQ(runs, 2);
  // A throw without a re-arm leaves the timer idle but reusable.
  const EventId idle = e.make_timer([] { throw std::runtime_error("x"); });
  e.cancel(timer);
  e.arm_after(idle, 1.0);
  EXPECT_THROW(e.run_until(5.0), std::runtime_error);
  EXPECT_EQ(e.pending(), 0u);
  e.arm_after(idle, 1.0);
  EXPECT_EQ(e.pending(), 1u);
}

}  // namespace
}  // namespace capgpu::sim
