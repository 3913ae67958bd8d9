// Tests for the timer wheel and the epoll RealEventLoop.

#include <gtest/gtest.h>

#include <vector>

#include "alloc_window.h"
#include "ins/transport/real_event_loop.h"
#include "ins/transport/timer_wheel.h"

namespace ins {
namespace {

TimePoint At(int64_t us) { return TimePoint(us); }

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel(At(0));
  std::vector<int> order;
  wheel.Schedule(At(30'000), [&] { order.push_back(3); });
  wheel.Schedule(At(10'000), [&] { order.push_back(1); });
  wheel.Schedule(At(20'000), [&] { order.push_back(2); });
  EXPECT_EQ(wheel.live(), 3u);

  EXPECT_EQ(wheel.Advance(At(15'000)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(wheel.Advance(At(40'000)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.live(), 0u);
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(At(50'000));
  int fired = 0;
  wheel.Schedule(At(1'000), [&] { ++fired; });  // already overdue
  EXPECT_EQ(wheel.Advance(At(50'000)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerWheel wheel(At(0));
  int fired = 0;
  TaskId a = wheel.Schedule(At(10'000), [&] { ++fired; });
  TaskId b = wheel.Schedule(At(10'000), [&] { ++fired; });
  EXPECT_TRUE(wheel.Cancel(a));
  EXPECT_FALSE(wheel.Cancel(a));  // second cancel: already cancelled
  wheel.Advance(At(20'000));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.Cancel(b));  // already fired
}

TEST(TimerWheelTest, StaleIdFromReusedNodeIsRejected) {
  TimerWheel wheel(At(0));
  TaskId first = wheel.Schedule(At(1'000), [] {});
  wheel.Advance(At(2'000));  // fires; the node returns to the pool
  // The next schedule reuses the node with a bumped generation.
  TaskId second = wheel.Schedule(At(10'000), [] {});
  EXPECT_FALSE(wheel.Cancel(first));  // stale handle must not hit the new timer
  EXPECT_TRUE(wheel.Cancel(second));
}

TEST(TimerWheelTest, FarDeadlinesCascadeThroughLevels) {
  TimerWheel wheel(At(0));
  std::vector<int> order;
  // Spread across level 0 (<262ms), level 1 (<67s), level 2 (<4.7h).
  wheel.Schedule(At(100'000), [&] { order.push_back(1); });       // 100 ms
  wheel.Schedule(At(2'000'000), [&] { order.push_back(2); });     // 2 s
  wheel.Schedule(At(120'000'000), [&] { order.push_back(3); });   // 2 min
  wheel.Schedule(At(7'200'000'000), [&] { order.push_back(4); }); // 2 h

  EXPECT_EQ(wheel.Advance(At(150'000)), 1u);
  EXPECT_EQ(wheel.Advance(At(3'000'000)), 1u);
  EXPECT_EQ(wheel.Advance(At(130'000'000)), 1u);
  EXPECT_EQ(wheel.Advance(At(7'300'000'000)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(TimerWheelTest, AdvancingInSmallStepsHitsEveryDeadline) {
  TimerWheel wheel(At(0));
  int fired = 0;
  for (int i = 1; i <= 100; ++i) {
    wheel.Schedule(At(i * 10'000), [&] { ++fired; });
  }
  for (int64_t t = 0; t <= 1'100'000; t += 3'000) {
    wheel.Advance(At(t));
  }
  EXPECT_EQ(fired, 100);
}

TEST(TimerWheelTest, NextDueBoundNeverLate) {
  TimerWheel wheel(At(0));
  wheel.Schedule(At(500'000), [] {});
  auto bound = wheel.NextDueBound();
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(bound->count(), 500'000);
  // And not absurdly early either: within one level-1 slot (262 ms).
  EXPECT_GE(bound->count(), 500'000 - 262'144);
  EXPECT_FALSE(TimerWheel(At(0)).NextDueBound().has_value());
}

TEST(TimerWheelTest, CallbackReschedulingReusesPooledNodes) {
  TimerWheel wheel(At(0));
  int64_t next = 1'000;
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    next += 1'000;
    if (fired < 1000) {
      wheel.Schedule(At(next), tick);
    }
  };
  wheel.Schedule(At(next), tick);
  const size_t pool_after_first = 4;  // generous bound
  for (int64_t t = 0; t <= 1'200'000 && fired < 1000; t += 1'000) {
    wheel.Advance(At(t));
  }
  EXPECT_EQ(fired, 1000);
  // A schedule/fire/reschedule cycle must recycle one node, not grow the pool.
  EXPECT_LE(wheel.pool_size(), pool_after_first);
}

TEST(TimerWheelTest, FirstFiresAfterPoolGrowthDoNotAllocate) {
  TimerWheel wheel(At(0));
  int fired = 0;
  // Grow the pool to 64 nodes, none of which has fired yet.
  for (int i = 0; i < 64; ++i) {
    wheel.Schedule(At(1'000 + i * 1'000), [&fired] { ++fired; });
  }
  uint64_t allocs = 0;
  {
    AllocWindow window;
    // The first fires in this wheel's life return every node to the free
    // list; the next round of schedules takes them back.
    wheel.Advance(At(100'000));
    for (int i = 0; i < 64; ++i) {
      wheel.Schedule(At(200'000 + i * 1'000), [&fired] { ++fired; });
    }
    wheel.Advance(At(300'000));
    allocs = window.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 128);
  EXPECT_EQ(wheel.pool_size(), 64u);
}

TEST(TimerWheelTest, ManyTimersAcrossSlotsAllFire) {
  TimerWheel wheel(At(0));
  size_t fired = 0;
  for (int i = 0; i < 5000; ++i) {
    wheel.Schedule(At(1'000 + (i % 977) * 4'096), [&] { ++fired; });
  }
  wheel.Advance(At(977 * 4'096 + 10'000));
  EXPECT_EQ(fired, 5000u);
  EXPECT_EQ(wheel.live(), 0u);
}

TEST(RealEventLoopTest, TimersFire) {
  RealEventLoop loop;
  int fired = 0;
  loop.ScheduleAfter(Milliseconds(10), [&] { ++fired; });
  loop.ScheduleAfter(Milliseconds(20), [&] {
    ++fired;
    loop.Stop();
  });
  loop.RunFor(Seconds(2));
  EXPECT_EQ(fired, 2);
}

TEST(RealEventLoopTest, CancelWorks) {
  RealEventLoop loop;
  bool ran = false;
  TaskId id = loop.ScheduleAfter(Milliseconds(5), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunFor(Milliseconds(30));
  EXPECT_FALSE(ran);
}

TEST(RealEventLoopTest, IdleLoopSleepsUntilNextTimer) {
  // The satellite bugfix: with one timer 150 ms out, the loop must park in
  // epoll until (about) that deadline instead of waking every 100 ms — and
  // certainly must not busy-poll. Allow slack for early timer-wheel bounds
  // and scheduler noise.
  RealEventLoop loop;
  loop.ScheduleAfter(Milliseconds(150), [&] { loop.Stop(); });
  const uint64_t before = loop.poll_wakeups();
  loop.RunFor(Seconds(5));
  const uint64_t wakeups = loop.poll_wakeups() - before;
  EXPECT_LE(wakeups, 10u);
  EXPECT_GE(wakeups, 1u);
}

TEST(RealEventLoopTest, RunForWithNoWorkReturnsOnDeadline) {
  RealEventLoop loop;
  const TimePoint start = loop.Now();
  loop.RunFor(Milliseconds(50));
  const Duration elapsed = loop.Now() - start;
  EXPECT_GE(elapsed, Milliseconds(45));
  EXPECT_LE(elapsed, Seconds(2));
}

TEST(RealEventLoopTest, TimerChainsAndCancellation) {
  RealEventLoop loop;
  int fired = 0;
  TaskId cancelled = loop.ScheduleAfter(Milliseconds(5), [&] { fired += 100; });
  EXPECT_TRUE(loop.Cancel(cancelled));
  loop.ScheduleAfter(Milliseconds(2), [&] {
    ++fired;
    loop.ScheduleAfter(Milliseconds(2), [&] {
      ++fired;
      loop.Stop();
    });
  });
  loop.RunFor(Seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

}  // namespace
}  // namespace ins
