// CalendarQueue: functional tests plus randomized equivalence against a
// sorted reference queue (both must pop identical sequences).
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace fastcc::sim {
namespace {

// The test oracle: pending events ordered by (time, insertion sequence), so
// equal timestamps pop FIFO.  Ids are insertion sequences.
class SortedReference {
 public:
  using Id = std::uint64_t;

  Id schedule(Time at) {
    const Id id = next_id_++;
    pending_.emplace(at, id);
    return id;
  }
  /// Reserves `n` ids for schedule_reserved(); returns the first.
  Id reserve(std::uint64_t n) {
    const Id first = next_id_;
    next_id_ += n;
    return first;
  }
  void schedule_reserved(Time at, Id id) { pending_.emplace(at, id); }
  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  /// Time of the earliest event.  Precondition: !empty().
  Time next_time() const { return pending_.begin()->first; }
  /// Removes the earliest event; returns (its time, its id).
  std::pair<Time, Id> pop() {
    const auto head = *pending_.begin();
    pending_.erase(pending_.begin());
    return head;
  }

 private:
  std::set<std::pair<Time, Id>> pending_;
  Id next_id_ = 0;
};

// Schedules one event at `at` in both queues.  The calendar event's
// callback records the reference id, so a pop can be checked for identity
// (which event fired), not just for its timestamp.
void schedule_both(CalendarQueue& cal, SortedReference& ref, Time at,
                   SortedReference::Id* fired) {
  const SortedReference::Id id = ref.schedule(at);
  cal.schedule(at, [fired, id] { *fired = id; });
}

// Pops the head of both queues and checks they agree on time and identity.
// Returns the popped time.
Time pop_both(CalendarQueue& cal, SortedReference& ref,
              const SortedReference::Id* fired) {
  if (ref.empty()) {
    ADD_FAILURE() << "the reference ran dry before the calendar queue";
    return cal.pop_and_run();
  }
  const auto [at, id] = ref.pop();
  EXPECT_EQ(cal.pop_and_run(), at);
  EXPECT_EQ(*fired, id) << "a different event fired at " << at;
  return at;
}

TEST(CalendarQueue, PopsInTimeOrder) {
  CalendarQueue q;
  std::vector<Time> order;
  for (const Time t : {500, 10, 9999, 1, 700}) {
    q.schedule(t, [] {});
  }
  while (!q.empty()) order.push_back(q.pop_and_run());
  EXPECT_EQ(order, (std::vector<Time>{1, 10, 500, 700, 9999}));
}

TEST(CalendarQueue, FifoTieBreakOnEqualTimestamps) {
  CalendarQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarQueue, ResizesThroughGrowthAndShrink) {
  CalendarQueue q(/*initial_buckets=*/16, /*initial_width=*/10);
  // Push far beyond 2x buckets to force doubling (and recalibration).
  for (int i = 0; i < 5000; ++i) q.schedule(i * 13, [] {});
  EXPECT_EQ(q.size(), 5000u);
  Time last = -1;
  while (!q.empty()) {
    const Time t = q.pop_and_run();
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(CalendarQueue, SparseFarFutureEventsFoundViaFallback) {
  CalendarQueue q(16, 10);
  // One event years beyond the calendar horizon.
  bool ran = false;
  q.schedule(10'000'000, [&] { ran = true; });
  EXPECT_EQ(q.next_time(), 10'000'000);
  q.pop_and_run();
  EXPECT_TRUE(ran);
}

TEST(CalendarQueue, RandomizedEquivalenceWithSortedReference) {
  // Identical schedule/pop sequences must pop identical (time, event)
  // streams from the calendar queue and the sorted reference.  Pops free
  // callback slots that later schedules reuse, so a slot-reuse bug would
  // fire the wrong event.  One op in ten schedules 10-10.5 us ahead: while
  // the calendar is still small, that is past its kCalendarLaps laps, into
  // the unsorted far_ overflow that horizon advances move into the buckets
  // (about 20 such schedules a round).
  Rng rng(1234);
  for (int round = 0; round < 5; ++round) {
    CalendarQueue cal(16, 50);
    SortedReference ref;
    SortedReference::Id fired = 0;

    Time clock = 0;
    for (int i = 0; i < 2000; ++i) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 7 || cal.empty()) {
        const Time at = clock + rng.uniform_int(0, 5000);
        schedule_both(cal, ref, at, &fired);
      } else if (op == 7) {
        const Time at = clock + 10'000 + rng.uniform_int(0, 500);
        schedule_both(cal, ref, at, &fired);
      } else {
        clock = pop_both(cal, ref, &fired);
      }
    }
    EXPECT_EQ(cal.size(), ref.size());
    while (!cal.empty()) pop_both(cal, ref, &fired);
    EXPECT_TRUE(ref.empty());
  }
}

TEST(CalendarQueue, ReservedNumbersKeepOrderInAndBehindTheActiveDay) {
  CalendarQueue q;  // 1,024 ns days
  std::vector<int> order;
  const std::uint64_t first = q.reserve_seq(4);
  q.schedule(10, [&order] { order.push_back(0); });
  q.schedule(100, [&order] { order.push_back(3); });
  q.schedule(5000, [&order] { order.push_back(6); });
  EXPECT_EQ(q.pop_and_run(), 10);  // the day [0, 1024) is now active
  // Into the active day, ahead of an equal-time entry issued later.
  q.schedule_reserved(100, first + 1, [&order] { order.push_back(2); });
  q.schedule_reserved(100, first, [&order] { order.push_back(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(q.pop_and_run(), 100);
  EXPECT_EQ(q.next_time(), 5000);  // extracts the day [4096, 5120)
  // Behind that active day, then ahead of an equal-time entry inside it.
  q.schedule_reserved(3000, first + 2, [&order] { order.push_back(4); });
  q.schedule_reserved(5000, first + 3, [&order] { order.push_back(5); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(CalendarQueue, ReservedNumbersMatchSortedReference) {
  // A flow-start cursor's pattern among ordinary traffic: blocks of
  // sequence numbers reserved, then scheduled one at a time, later.  Times
  // sit on a 100 ns grid, so most schedules tie with pending entries, and a
  // reserved number must pop ahead of the equal-time entries issued after
  // its block: often an insert into the active day ahead of entries
  // already extracted.  Peeks extract the next day early, so a schedule
  // then lands behind the active day.  A reserved schedule keeps (time,
  // seq) after the last pop, as the cursor does.
  Rng rng(4321);
  for (int round = 0; round < 5; ++round) {
    CalendarQueue cal(16, 50);
    SortedReference ref;
    SortedReference::Id fired = 0;
    std::vector<SortedReference::Id> reserved;
    Time clock = 0;
    SortedReference::Id last_id = 0;
    for (int i = 0; i < 3000; ++i) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op == 0) {
        const auto n = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
        const std::uint64_t first = cal.reserve_seq(n);
        ASSERT_EQ(first, ref.reserve(n));
        for (std::uint64_t k = 0; k < n; ++k) reserved.push_back(first + k);
      } else if (op <= 2 && !reserved.empty()) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(reserved.size()) - 1));
        const SortedReference::Id id = reserved[k];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
        Time at = clock + 100 * rng.uniform_int(0, 3);
        if (at == clock && id < last_id) at += 100;
        ref.schedule_reserved(at, id);
        cal.schedule_reserved(at, id, [&fired, id] { fired = id; });
      } else if (op <= 5 || cal.empty()) {
        schedule_both(cal, ref, clock + 100 * rng.uniform_int(0, 20), &fired);
      } else if (op == 6) {
        EXPECT_EQ(cal.next_time(), ref.next_time());
      } else {
        clock = pop_both(cal, ref, &fired);
        last_id = fired;
      }
    }
    EXPECT_EQ(cal.size(), ref.size());
    while (!cal.empty()) pop_both(cal, ref, &fired);
    EXPECT_TRUE(ref.empty());
  }
}

TEST(CalendarQueue, PackedDayRegimeKeepsOrderAndBoundsStorage) {
  // A datacenter run's shape: flow starts queued up front a microsecond
  // apart calibrate a microsecond-scale day, then the packets those flows
  // send form a dense wave, each event re-arming a few hundred nanoseconds
  // ahead, that would pack every such day with ~1,000 entries.  Pops must
  // still match the reference, and the storage the queue holds must track
  // the live population rather than the wave's passage through each bucket.
  CalendarQueue cal;
  SortedReference ref;
  SortedReference::Id fired = 0;
  constexpr int kStarts = 4000;
  for (int i = 0; i < kStarts; ++i) {
    schedule_both(cal, ref, i * kMicrosecond, &fired);
  }
  for (int i = 0; i < 1000; ++i) schedule_both(cal, ref, i % 400, &fired);
  std::size_t peak_live = cal.size();
  std::size_t peak_reserved = cal.reserved_entries();
  std::uint64_t k = 0;
  std::uint64_t pops = 0;
  while (ref.next_time() <= 300 * kMicrosecond) {  // flow starts remain
    const Time now = pop_both(cal, ref, &fired);
    if (fired >= kStarts) {  // a wave event re-arms; a flow start does not
      const Time gap = 1 + static_cast<Time>((k++ * 37) % 400);
      schedule_both(cal, ref, now + gap, &fired);
    }
    peak_live = std::max(peak_live, cal.size());
    // reserved_entries() walks every bucket; sampling is enough, since
    // capacity retained by passed-over buckets persists.
    if (++pops % 4096 == 0) {
      peak_reserved = std::max(peak_reserved, cal.reserved_entries());
    }
  }
  EXPECT_GT(pops, 1'000'000u);
  EXPECT_EQ(cal.size(), ref.size());
  EXPECT_LE(peak_reserved, 4 * peak_live);
}

TEST(CalendarQueue, MoveOnlyCallbacks) {
  CalendarQueue q;
  auto token = std::make_unique<int>(9);
  int seen = 0;
  q.schedule(1, [t = std::move(token), &seen] { seen = *t; });
  q.pop_and_run();
  EXPECT_EQ(seen, 9);
}

}  // namespace
}  // namespace fastcc::sim
