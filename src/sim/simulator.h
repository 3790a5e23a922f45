// Simulator: the discrete-event loop driving a fastcc simulation.
//
// A Simulator owns the clock and the event queue.  Components hold a
// reference to it and schedule callbacks; run() drains events in timestamp
// order until the queue empties, a deadline passes, or stop() is called.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/calendar_queue.h"
#include "sim/time.h"

namespace fastcc::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Encodes a slot index plus a generation stamp — see EventSlotPool.
using EventId = CalendarQueue::Id;

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
  EventId at(Time when, Callback cb) {
    assert(when >= now_ && "cannot schedule into the past");
    return events_.schedule(when, std::move(cb));
  }

  /// Schedules `cb` after a relative delay (must be >= 0).
  EventId after(Time delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  bool cancel(EventId id) { return events_.cancel(id); }

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
