// Simulator: the discrete-event loop driving a fastcc simulation.
//
// A Simulator owns the clock and the event queue.  Components hold a
// reference to it and schedule callbacks; run() drains events in timestamp
// order until the queue empties, a deadline passes, or stop() is called.
// Every scheduled event runs: a timer that may be withdrawn or moved belongs
// on its node's TimingWheel (sim/timing_wheel.h), which cancels in O(log n).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/calendar_queue.h"
#include "sim/time.h"

namespace fastcc::sim {

class Simulator {
 public:
  /// The event queue: a calendar queue, whose O(1) schedule/pop suits the
  /// bounded-horizon pattern simulations produce.  Its (time, FIFO) pop
  /// order is property-tested against a sorted reference
  /// (tests/calendar_queue_test.cc).
  using Queue = CalendarQueue;
  using Callback = Queue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must be >= now()).
  void at(Time when, Callback cb) {
    assert(when >= now_ && "cannot schedule into the past");
    events_.schedule(when, std::move(cb));
  }

  /// Schedules `cb` after a relative delay (must be >= 0).
  void after(Time delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  /// Reserves `n` sequence numbers for at_reserved() and returns the first
  /// (CalendarQueue::reserve_seq).
  std::uint64_t reserve_seq(std::uint64_t n) { return events_.reserve_seq(n); }

  /// Schedules `cb` at `when` under a reserved sequence number: among
  /// equal-time events it runs where an event scheduled when `seq` was
  /// reserved would have.  (when, seq) must follow the running event's.
  void at_reserved(Time when, std::uint64_t seq, Callback cb) {
    assert(when >= now_ && "cannot schedule into the past");
    events_.schedule_reserved(when, seq, std::move(cb));
  }

  /// Runs until the event queue is empty or the clock passes `until`.
  /// Events stamped exactly `until` still run.  Returns the final clock.
  Time run(Time until = std::numeric_limits<Time>::max());

  /// Requests that run() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (instrumentation / perf tests).
  std::uint64_t events_executed() const { return executed_; }

  Queue& queue() { return events_; }

 private:
  Queue events_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace fastcc::sim
