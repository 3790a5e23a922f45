#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace fastcc::sim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<Time> seen;
  s.at(100, [&] { seen.push_back(s.now()); });
  s.at(250, [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{100, 250}));
  EXPECT_EQ(s.now(), 250);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  Time inner = -1;
  s.at(40, [&] { s.after(5, [&] { inner = s.now(); }); });
  s.run();
  EXPECT_EQ(inner, 45);
}

TEST(Simulator, RunHonorsDeadlineAndKeepsPendingEvents) {
  Simulator s;
  bool late_ran = false;
  s.at(10, [] {});
  s.at(100, [&] { late_ran = true; });
  s.run(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), 50);  // clock parked at the deadline
  s.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, EventExactlyAtDeadlineRuns) {
  Simulator s;
  bool ran = false;
  s.at(50, [&] { ran = true; });
  s.run(50);
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.at(i, [&] {
      ++count;
      if (count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  s.run();  // resume drains the rest
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 17; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 17u);
}

TEST(Simulator, SelfReschedulingEventChains) {
  Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 5) s.after(10, [&] { tick(); });
  };
  s.after(10, [&] { tick(); });
  s.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(s.now(), 50);
}

}  // namespace
}  // namespace fastcc::sim
