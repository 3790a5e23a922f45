// TimingWheel / WheelScheduler: the per-node timer subsystem.  The wheel
// must fire strictly by (deadline, arm order) with exact (non-rounded)
// deadlines across all hierarchy levels and the overflow list, survive
// reentrant arm/cancel from inside callbacks, and — through the
// WheelScheduler adapter — present at most a handful of simulator events
// regardless of how many timers it holds.
#include "sim/timing_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace fastcc::sim {
namespace {

TEST(TimingWheel, FiresInDeadlineOrderAcrossLevels) {
  TimingWheel wheel;
  std::vector<int> fired;
  // One deadline per hierarchy level: level 0 (< 256 ns), level 1, level 2,
  // level 3, interleaved so arm order disagrees with deadline order.
  wheel.arm(3'000'000, [&] { fired.push_back(3); });
  wheel.arm(90, [&] { fired.push_back(0); });
  wheel.arm(70'000, [&] { fired.push_back(2); });
  wheel.arm(900, [&] { fired.push_back(1); });
  wheel.arm(900'000'000, [&] { fired.push_back(4); });
  EXPECT_EQ(wheel.size(), 5u);
  wheel.advance(1'000'000'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, EqualDeadlinesFireInArmOrder) {
  TimingWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    wheel.arm(5'000, [&fired, i] { fired.push_back(i); });
  }
  wheel.advance(5'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TimingWheel, DeadlinesAreExactNotSlotRounded) {
  TimingWheel wheel;
  // 70'123 ns sits on level 2, whose slots are 65'536 ns wide; expiry must
  // still honour the exact nanosecond, not the slot boundary.
  bool fired = false;
  wheel.arm(70'123, [&] { fired = true; });
  EXPECT_EQ(wheel.next_deadline(), 70'123);
  wheel.advance(70'122);
  EXPECT_FALSE(fired);
  wheel.advance(70'123);
  EXPECT_TRUE(fired);
  EXPECT_EQ(wheel.now(), 70'123);
}

TEST(TimingWheel, CancelPreventsFiringAndStaleIdsAreRejected) {
  TimingWheel wheel;
  bool fired = false;
  const TimerId id = wheel.arm(1'000, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already cancelled
  wheel.advance(2'000);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(wheel.empty());

  const TimerId id2 = wheel.arm(3'000, [] {});
  wheel.advance(3'000);
  EXPECT_FALSE(wheel.cancel(id2));  // already fired

  // The slot is recycled under a new generation; the old id must not be
  // able to cancel the new timer.
  bool fired3 = false;
  wheel.arm(4'000, [&] { fired3 = true; });
  EXPECT_FALSE(wheel.cancel(id2));
  wheel.advance(4'000);
  EXPECT_TRUE(fired3);
}

TEST(TimingWheel, OverflowTimersBeyondFourSecondsFireExactly) {
  TimingWheel wheel;
  // 2^32 ns (~4.3 s) and beyond land on the overflow list.
  const Time far = (Time{1} << 32) + 12'345;
  std::vector<int> fired;
  wheel.arm(far, [&] { fired.push_back(1); });
  wheel.arm(500, [&] { fired.push_back(0); });
  EXPECT_EQ(wheel.next_deadline(), 500);
  wheel.advance(500);
  EXPECT_EQ(wheel.next_deadline(), far);
  wheel.advance(far - 1);
  EXPECT_TRUE(fired.size() == 1);
  wheel.advance(far);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(TimingWheel, CallbacksMayArmReentrantly) {
  TimingWheel wheel;
  std::vector<int> fired;
  // The first callback arms a second timer due within the same advance()
  // window and a third beyond it; the batch must pick up the former.
  wheel.arm(1'000, [&] {
    fired.push_back(0);
    wheel.arm(1'500, [&] { fired.push_back(1); });
    wheel.arm(10'000, [&] { fired.push_back(2); });
  });
  wheel.advance(2'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(10'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(TimingWheel, CallbacksMayCancelReentrantly) {
  TimingWheel wheel;
  bool second_fired = false;
  TimerId victim = 0;
  wheel.arm(1'000, [&] { wheel.cancel(victim); });
  victim = wheel.arm(1'001, [&] { second_fired = true; });
  wheel.advance(2'000);
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, PacingChainReArmsFromItsOwnCallback) {
  // The steady-state host pattern: each pacing wakeup arms the next one.
  TimingWheel wheel;
  int fires = 0;
  constexpr Time kGap = 700;
  std::function<void()> step = [&] {
    ++fires;
    if (fires < 100) wheel.arm(wheel.now() + kGap, [&] { step(); });
  };
  wheel.arm(kGap, [&] { step(); });
  while (!wheel.empty()) wheel.advance(wheel.next_deadline());
  EXPECT_EQ(fires, 100);
  EXPECT_EQ(wheel.now(), 100 * kGap);
}

TEST(WheelScheduler, FiresThroughSimulatorAtExactTimes) {
  Simulator simulator;
  WheelScheduler sched(simulator);
  std::vector<Time> fired_at;
  sched.arm(2'000, [&] { fired_at.push_back(simulator.now()); });
  sched.arm(700, [&] { fired_at.push_back(simulator.now()); });
  sched.arm(1'000'000, [&] { fired_at.push_back(simulator.now()); });
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<Time>{700, 2'000, 1'000'000}));
  EXPECT_TRUE(sched.empty());
}

TEST(WheelScheduler, CancelledTimerNeverFiresEvenThoughWakeupRuns) {
  // The driver never cancels simulator events: the wakeup covering the
  // cancelled deadline still fires, finds nothing due, and must be harmless.
  Simulator simulator;
  WheelScheduler sched(simulator);
  bool fired = false;
  const TimerId id = sched.arm(5'000, [&] { fired = true; });
  simulator.after(1'000, [&] { EXPECT_TRUE(sched.cancel(id)); });
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sched.empty());
}

TEST(WheelScheduler, EvictedWakeupFiresAsANoOp) {
  // Arming ever earlier deadlines fills the kMaxOutstanding = 4 wakeups at
  // 5,000, 4,000, 3,000 and 2,000 ns; the fifth arm forgets the latest
  // (5,000 ns) to cover 1,000 ns.  The forgotten wakeup still fires, ahead
  // of P, which is queued later at the same instant, but must not advance
  // the wheel: the 5,000 ns timer waits for the wakeup re-armed after the
  // 4,000 ns expiry, which runs after P.
  Simulator simulator;
  WheelScheduler sched(simulator);
  std::vector<Time> fired_at;
  std::vector<int> at_5000;
  for (const Time t : {5'000, 4'000, 3'000, 2'000, 1'000}) {
    sched.arm(t, [&] {
      fired_at.push_back(simulator.now());
      if (simulator.now() == 5'000) at_5000.push_back(2);
    });
  }
  simulator.at(5'000, [&] { at_5000.push_back(1); });
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<Time>{1'000, 2'000, 3'000, 4'000, 5'000}));
  EXPECT_EQ(at_5000, (std::vector<int>{1, 2}));
  // Five wakeups that serviced a timer, P and the forgotten wakeup.
  EXPECT_EQ(simulator.events_executed(), 7u);
}

TEST(WheelScheduler, ManyTimersCostFewSimulatorEvents) {
  // 1000 timers on the wheel must not become 1000 global events: the
  // coverage set holds at most 4 outstanding wakeups, and each expiry
  // services every due timer in one batch.
  Simulator simulator;
  WheelScheduler sched(simulator);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    // 50 distinct deadlines, 20 timers each.
    sched.arm(1'000 + (i % 50) * 100, [&] { ++fired; });
  }
  simulator.run();
  EXPECT_EQ(fired, 1000);
  // One wakeup per distinct deadline is the worst case; far below one
  // event per timer.
  EXPECT_LE(simulator.events_executed(), 54u);
}

TEST(WheelScheduler, ArmFromExpiryBatchStaysCovered) {
  // Timers armed inside an expiry batch are covered by the driver's single
  // re-cover; the chain must keep firing at exact times.
  Simulator simulator;
  WheelScheduler sched(simulator);
  std::vector<Time> fired_at;
  std::function<void()> chain = [&] {
    fired_at.push_back(simulator.now());
    if (fired_at.size() < 5) {
      sched.arm(simulator.now() + 300, [&] { chain(); });
    }
  };
  sched.arm(100, [&] { chain(); });
  simulator.run();
  EXPECT_EQ(fired_at, (std::vector<Time>{100, 400, 700, 1'000, 1'300}));
}

}  // namespace
}  // namespace fastcc::sim
