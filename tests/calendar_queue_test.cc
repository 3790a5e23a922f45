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
// equal timestamps pop FIFO; cancel is an erase, so cancelling a fired,
// cancelled, or unknown id reports false.  Ids are insertion sequences.
class SortedReference {
 public:
  using Id = std::uint64_t;

  Id schedule(Time at) {
    const Id id = at_.size();
    at_.push_back(at);
    pending_.emplace(at, id);
    return id;
  }
  bool cancel(Id id) {
    return id < at_.size() && pending_.erase({at_[id], id}) == 1;
  }
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
  std::vector<Time> at_;  // schedule time by id
};

// Schedules one event at `at` in both queues.  The calendar event's
// callback records the reference id, so a pop can be checked for identity
// (which event fired), not just for its timestamp.
std::pair<CalendarQueue::Id, SortedReference::Id> schedule_both(
    CalendarQueue& cal, SortedReference& ref, Time at,
    SortedReference::Id* fired) {
  const SortedReference::Id id = ref.schedule(at);
  return {cal.schedule(at, [fired, id] { *fired = id; }), id};
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

TEST(CalendarQueue, CancelOfFiredCancelledOrUnknownIdIsNoOp) {
  CalendarQueue q;
  const auto id = q.schedule(5, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));    // double cancel
  EXPECT_FALSE(q.cancel(999));   // unknown id
  EXPECT_TRUE(q.empty());
  const auto id2 = q.schedule(7, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id2));   // cancel after fire
}

TEST(CalendarQueue, CancelledHeadIsSkipped) {
  CalendarQueue q;
  std::vector<int> order;
  const auto first = q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.pop_and_run(), 20);
  EXPECT_EQ(order, std::vector<int>{2});
  EXPECT_TRUE(q.empty());
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
  // Identical schedule/cancel sequences must pop identical (time, event)
  // streams from the calendar queue and the sorted reference.
  Rng rng(1234);
  for (int round = 0; round < 5; ++round) {
    CalendarQueue cal(16, 50);
    SortedReference ref;
    SortedReference::Id fired = 0;
    std::vector<std::pair<CalendarQueue::Id, SortedReference::Id>> ids;

    Time clock = 0;
    for (int i = 0; i < 2000; ++i) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 7 || ids.empty()) {
        const Time at = clock + rng.uniform_int(0, 5000);
        ids.push_back(schedule_both(cal, ref, at, &fired));
      } else if (op == 7 && !ids.empty()) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
        const bool a = cal.cancel(ids[idx].first);
        const bool b = ref.cancel(ids[idx].second);
        EXPECT_EQ(a, b);
      } else if (!cal.empty()) {
        clock = pop_both(cal, ref, &fired);
      }
    }
    EXPECT_EQ(cal.size(), ref.size());
    while (!cal.empty()) pop_both(cal, ref, &fired);
    EXPECT_TRUE(ref.empty());
  }
}

TEST(CalendarQueue, CancelHeavyEquivalenceWithSortedReference) {
  // Retransmit-timer torture: high cancellation rate with immediate
  // re-arming, the pattern that stresses lazy tombstone reclamation in the
  // calendar buckets and slot reuse in the pool.  Both queues must agree on
  // every pop (time and event) and every cancel outcome; a slot-reuse bug
  // would fire the wrong callback or resurrect a cancelled one.
  Rng rng(99);
  for (int round = 0; round < 3; ++round) {
    CalendarQueue cal(16, 50);
    SortedReference ref;
    SortedReference::Id fired = 0;
    std::vector<std::pair<CalendarQueue::Id, SortedReference::Id>> timers;
    Time clock = 0;
    int pops = 0;
    for (int i = 0; i < 3000; ++i) {
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op < 4 || timers.empty()) {
        const Time at = clock + 1 + rng.uniform_int(0, 200);
        timers.push_back(schedule_both(cal, ref, at, &fired));
      } else if (op < 8) {
        // Cancel a random timer and immediately re-arm it far out — the
        // cancel-heavy half of the workload.
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(timers.size()) - 1));
        const bool a = cal.cancel(timers[idx].first);
        const bool b = ref.cancel(timers[idx].second);
        ASSERT_EQ(a, b) << "cancel outcome diverged at op " << i;
        const Time at = clock + 10'000 + rng.uniform_int(0, 500);
        timers[idx] = schedule_both(cal, ref, at, &fired);
      } else if (!cal.empty()) {
        clock = pop_both(cal, ref, &fired);
        ++pops;
      }
    }
    EXPECT_EQ(cal.size(), ref.size());
    while (!cal.empty()) pop_both(cal, ref, &fired);
    EXPECT_TRUE(ref.empty());
    EXPECT_GT(pops, 0);
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
