// TimingWheel / WheelScheduler: the per-node timer subsystem.  The store
// must fire strictly by (deadline, arm order) with exact deadlines from
// nanoseconds to past 2^32 ns, survive reentrant arm/cancel from inside
// callbacks, and — through the WheelScheduler adapter — present at most a
// handful of simulator events regardless of how many timers it holds.
#include "sim/timing_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fastcc::sim {
namespace {

// A node's timers live in a few vectors; fixed per-node slot arrays (a
// hierarchical wheel's 8 KB of slot heads, tails and bitmaps, carried by
// every node of a 258-node star) must not come back.
static_assert(sizeof(TimingWheel) <= 256);

TEST(TimingWheel, FiresInDeadlineOrderAcrossMagnitudes) {
  TimingWheel wheel;
  std::vector<int> fired;
  // Deadlines from 90 ns to 900 ms, each a few orders of magnitude apart,
  // interleaved so arm order disagrees with deadline order.
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
  // Expiry honours the exact nanosecond, not a coarser tick.
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

TEST(TimingWheel, TimersBeyondFourSecondsFireExactly) {
  TimingWheel wheel;
  // 2^32 ns (~4.3 s) and beyond: deadlines past 32 bits stay exact.
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

TEST(TimingWheel, RandomizedEquivalenceWithSortedReference) {
  // Thousands of random arms, cancels and advances against a sorted set of
  // (deadline, arm seq, tag); after every operation the fired sequence,
  // next_deadline(), size() and now() must match.  Firing callbacks arm at
  // now() (ties inside the running batch) and cancel other timers, the next
  // one due included.  Phases bias the mix toward arming, balance and
  // draining, so the store grows to hundreds of timers and empties again.
  using Key = std::tuple<Time, std::uint64_t, int>;  // (deadline, seq, tag)
  enum class State { kPending, kFired, kCancelled };
  TimingWheel wheel;
  Rng rng(33);
  std::set<Key> ref;
  std::vector<Key> keys;       // by tag
  std::vector<TimerId> ids;    // by tag
  std::vector<State> states;   // by tag
  std::vector<int> last_tag_at_index;  // by TimerId index: its newest tag
  int last_dead = -1;  // the timer fired or cancelled last
  std::uint64_t next_seq = 0;
  Time ref_now = 0;
  Time advance_to = 0;
  std::vector<int> fired;
  std::vector<int> expected;
  // Coverage: cancels by the state of the id's timer (live, fired,
  // cancelled, or dead with its slot taken by a newer timer), reentrant
  // operations, and deadlines past 2^32 ns.
  int live_cancels = 0, fired_cancels = 0, cancelled_cancels = 0,
      recycled_cancels = 0, batch_cancels = 0, batch_arms = 0,
      beyond_32_bits = 0;

  std::function<void(int)> on_fire;
  const auto arm = [&](Time deadline) {
    const int tag = static_cast<int>(ids.size());
    const Key key{deadline, next_seq++, tag};
    keys.push_back(key);
    states.push_back(State::kPending);
    ref.insert(key);
    const TimerId id = wheel.arm(deadline, [&on_fire, tag] { on_fire(tag); });
    ids.push_back(id);
    const auto index = static_cast<std::uint32_t>(id);
    if (index >= last_tag_at_index.size()) {
      last_tag_at_index.resize(index + 1);
    }
    last_tag_at_index[index] = tag;
    if (deadline >= (Time{1} << 32)) ++beyond_32_bits;
  };
  const auto cancel = [&](int tag) {
    const State state = states[static_cast<std::size_t>(tag)];
    const bool live = ref.erase(keys[static_cast<std::size_t>(tag)]) == 1;
    ASSERT_EQ(live, state == State::kPending);
    const TimerId id = ids[static_cast<std::size_t>(tag)];
    if (live) {
      ++live_cancels;
      states[static_cast<std::size_t>(tag)] = State::kCancelled;
      last_dead = tag;
    } else if (last_tag_at_index[static_cast<std::uint32_t>(id)] != tag) {
      ++recycled_cancels;
    } else if (state == State::kFired) {
      ++fired_cancels;
    } else {
      ++cancelled_cancels;
    }
    EXPECT_EQ(wheel.cancel(id), live) << "tag " << tag;
  };
  const auto random_tag = [&] {
    return static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
  };
  on_fire = [&](int tag) {
    fired.push_back(tag);
    // The reference's earliest timer must be the one firing, and be due.
    if (ref.empty() || std::get<0>(*ref.begin()) > advance_to) {
      expected.push_back(-1);
      return;
    }
    const Key next = *ref.begin();
    ref.erase(ref.begin());
    expected.push_back(std::get<2>(next));
    ref_now = std::get<0>(next);
    states[static_cast<std::size_t>(std::get<2>(next))] = State::kFired;
    last_dead = std::get<2>(next);
    EXPECT_EQ(wheel.now(), ref_now);
    const std::int64_t roll = rng.uniform_int(0, 9);
    if (roll < 2) {
      ++batch_arms;
      arm(ref_now);  // due in this batch, behind its equal-deadline peers
    } else if (roll == 2) {
      ++batch_arms;
      arm(ref_now + rng.uniform_int(0, 500));
    } else if (roll == 3 && !ref.empty()) {
      ++batch_cancels;
      cancel(std::get<2>(*ref.begin()));  // the next timer due
    } else if (roll == 4) {
      ++batch_cancels;
      cancel(random_tag());
    }
  };

  constexpr int kOps = 30'000;
  for (int op = 0; op < kOps; ++op) {
    // Arm share by phase: grow, hold, drain.
    static constexpr std::int64_t kArmShare[] = {70, 45, 20};
    const std::int64_t arm_share = kArmShare[(op / 1'500) % 3];
    const std::int64_t pick = rng.uniform_int(0, 99);
    if (pick < arm_share) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      Time deadline = ref_now;
      if (kind < 2 && !ref.empty()) {
        // Tie with a pending timer.
        deadline = std::get<0>(keys[static_cast<std::size_t>(random_tag())]);
        if (deadline < ref_now) deadline = std::get<0>(*ref.begin());
      } else if (kind < 5) {
        deadline = ref_now + rng.uniform_int(0, 1'000);
      } else if (kind < 7) {
        deadline = ref_now + rng.uniform_int(0, 100'000);
      } else if (kind < 8) {
        deadline = ref_now + rng.uniform_int(0, 10'000'000);
      } else if (kind < 9) {
        deadline = ref_now + (Time{1} << 32) + rng.uniform_int(0, Time{1} << 33);
      }  // else: at now()
      arm(deadline);
    } else if (pick < arm_share + 15 && !ids.empty()) {
      const std::int64_t kind = rng.uniform_int(0, 2);
      if (kind == 0 && !ref.empty()) {
        // A live timer: the earliest, or one from deep in the store.
        cancel(rng.chance(0.2) ? std::get<2>(*ref.begin()) : std::get<2>(
                                     *std::prev(ref.end())));
        if (!ref.empty()) {
          auto it = ref.lower_bound(
              Key{ref_now + rng.uniform_int(0, 200'000), 0, 0});
          if (it != ref.end()) cancel(std::get<2>(*it));
        }
      } else if (kind == 1 && last_dead >= 0) {
        cancel(last_dead);  // before or after its slot is reused
      } else {
        cancel(random_tag());
      }
    } else {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 5) {
        advance_to = ref_now + rng.uniform_int(0, 2'000);
      } else if (kind < 7 && !ref.empty()) {
        advance_to = std::get<0>(*ref.begin());  // exactly the next deadline
      } else if (kind < 8) {
        advance_to = ref_now + rng.uniform_int(0, 20'000'000);
      } else if (kind < 9) {
        advance_to = ref_now + rng.uniform_int(0, Time{1} << 34);
      } else {
        advance_to = ref_now - rng.uniform_int(0, 1'000);  // behind: no-op
      }
      wheel.advance(advance_to);
      // Whatever the reference still holds at or before `advance_to` should
      // have fired.
      while (!ref.empty() && std::get<0>(*ref.begin()) <= advance_to) {
        expected.push_back(std::get<2>(*ref.begin()));
        fired.push_back(-1);
        ref.erase(ref.begin());
      }
      if (ref_now < advance_to) ref_now = advance_to;
    }
    ASSERT_EQ(fired, expected) << "op " << op;
    ASSERT_EQ(wheel.next_deadline(),
              ref.empty() ? kNoTimer : std::get<0>(*ref.begin()))
        << "op " << op;
    ASSERT_EQ(wheel.size(), ref.size()) << "op " << op;
    ASSERT_EQ(wheel.empty(), ref.empty()) << "op " << op;
    ASSERT_EQ(wheel.now(), ref_now) << "op " << op;
    fired.clear();
    expected.clear();
  }
  // Never-issued ids are stale too.
  EXPECT_FALSE(wheel.cancel(static_cast<TimerId>(last_tag_at_index.size())));
  // Every kind of operation the test means to cover happened.
  EXPECT_GT(live_cancels, 1'000);
  EXPECT_GT(fired_cancels, 100);
  EXPECT_GT(cancelled_cancels, 100);
  EXPECT_GT(recycled_cancels, 100);
  EXPECT_GT(batch_cancels, 100);
  EXPECT_GT(batch_arms, 100);
  EXPECT_GT(beyond_32_bits, 100);
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
