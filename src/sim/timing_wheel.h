// TimingWheel: the timers of one network node, in an indexed binary
// min-heap ordered by (deadline, arm sequence), plus the WheelScheduler
// adapter that surfaces the whole store to the Simulator as a single
// next-expiry event.
//
// Hosts arm many short-lived timers — a pacing wakeup per transmit gap, a
// retransmission timeout per flow, congestion-control recovery timers — and
// the naive encoding (one calendar-queue entry each) both multiplies global
// event-queue traffic and pollutes the calendar's width calibration with
// far-future RTO outliers.  The store keeps these timers node-local, and the
// simulator sees only a few wakeup events per node, the earliest at or
// before the earliest deadline.  These are the simulation's only
// cancellable timers: the global event queue runs every event it is given.
//
// A node holds few timers (two per incast sender, a few dozen on the
// busiest datacenter host), so they live in a binary heap of node indices,
// a few small vectors per node: arm and cancel cost O(log n) in the node's
// own timer count, and the earliest deadline is the root.  Each
// pending node records its heap position, so a cancel removes it in place;
// TimerIds are generation-stamped, so a stale id is refused in O(1).
// Deadlines are exact, and firing order is strictly (deadline, arm
// sequence) — FIFO among ties, matching the global queues.  The class keeps
// the name of the hierarchical timing wheel (Varghese & Lauck, SOSP 1987)
// it replaced, because the benchmark harness constructs it by name; a
// rename waits for the next revision of that harness.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/unique_function.h"

namespace fastcc::sim {

/// Generation-stamped timer handle (generation << 32 | node index); stale
/// handles are recognized in O(1).
using TimerId = std::uint64_t;

/// Sentinel for "no timer pending" (deadlines are non-negative).
inline constexpr Time kNoTimer = -1;

class TimingWheel {
 public:
  using Callback = UniqueFunction;

  TimingWheel() = default;
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  /// Arms a timer at absolute time `deadline` (>= now()).  O(log n).
  TimerId arm(Time deadline, Callback cb);

  /// Cancels a pending timer.  O(log n).  Stale ids (fired, cancelled, never
  /// issued) return false.
  bool cancel(TimerId id);

  /// The store's clock: the latest time passed to advance() or the deadline
  /// of the last timer fired, whichever is later.
  Time now() const { return now_; }

  /// Exact deadline of the earliest pending timer, kNoTimer when empty.
  Time next_deadline() const {
    return heap_.empty() ? kNoTimer : nodes_[heap_.front()].deadline;
  }

  /// Fires every timer with deadline <= `to`, in (deadline, arm order), then
  /// advances the clock to `to`.  Callbacks may arm and cancel reentrantly.
  void advance(Time to);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  /// Node::pos of a node that is not pending.
  static constexpr std::uint32_t kFree = 0xffffffff;

  struct Node {
    Time deadline = 0;
    std::uint64_t seq = 0;      ///< Arm order; breaks deadline ties FIFO.
    std::uint32_t pos = kFree;  ///< Index into heap_; kFree when not pending.
    std::uint32_t gen = 0;
  };

  static constexpr TimerId make_id(std::uint32_t gen, std::uint32_t idx) {
    return (static_cast<TimerId>(gen) << 32) | idx;
  }
  static constexpr std::uint32_t index_of(TimerId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t gen_of(TimerId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Whether node `a` fires before node `b`: by deadline, then arm order.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.deadline != y.deadline ? x.deadline < y.deadline : x.seq < y.seq;
  }
  /// Puts node `idx` at heap position `pos`.
  void place(std::size_t pos, std::uint32_t idx) {
    heap_[pos] = idx;
    nodes_[idx].pos = static_cast<std::uint32_t>(pos);
  }
  /// Moves heap_[pos] toward the root / the leaves until the order holds.
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Takes a pending node off the heap and returns it to the free list under
  /// a new generation, which invalidates its TimerId.
  void release(std::uint32_t idx);

  std::vector<Node> nodes_;
  std::vector<Callback> cbs_;          // parallel to nodes_
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> heap_;    // node indices, a binary min-heap
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Adapter binding one TimingWheel to the Simulator: however many timers the
/// wheel holds, the global event queue carries only a handful of "wakeup"
/// entries for it, and the earliest of them always covers (is at or before)
/// the wheel's earliest deadline.
///
/// The scheduler never cancels a simulator event.  A host's wheel
/// typically holds one near chain (pacing, re-armed every few hundred ns)
/// next to one far outlier (the RTO, ~1 ms out); a single-event scheduler
/// would flip-flop between the two — replace the far wakeup by the near
/// one, fire it, re-arm far, repeat — paying an extra schedule, and a stale
/// wakeup, per pacing interval.  Instead, up to kMaxOutstanding wakeups
/// coexist: arming a deadline already covered by an earlier wakeup costs
/// nothing, and a wakeup that arrives to find no due timer (its deadline
/// was cancelled or serviced early) fires once, harmlessly, and re-covers
/// whatever the wheel holds now.  Only when all kMaxOutstanding are pending
/// and a new deadline precedes every one of them does ensure_covered forget
/// the latest wakeup to make room.  The forgotten wakeup stays scheduled and returns at once
/// when it fires, so each costs one executed event: 66 over the whole
/// default table of bench/experiments, all in the HPCC rows of hadoop,
/// websearch_storage and oversubscribed, against millions of events a row.
class WheelScheduler {
 public:
  explicit WheelScheduler(Simulator& simulator) : sim_(&simulator) {}
  WheelScheduler(const WheelScheduler&) = delete;
  WheelScheduler& operator=(const WheelScheduler&) = delete;

  /// Re-homes the driver onto another simulator (space-parallel sharding
  /// re-binds every node of a shard to that shard's event queue).  Legal
  /// only while no wakeup is scheduled and no timer pending — i.e. between
  /// topology construction and the first run.
  void rebind(Simulator& simulator) {
    assert(n_outstanding_ == 0 && wheel_.empty() &&
           "WheelScheduler rebind with timers or wakeups outstanding");
    sim_ = &simulator;
  }

  TimerId arm(Time deadline, TimingWheel::Callback cb) {
    const TimerId id = wheel_.arm(deadline, std::move(cb));
    if (!advancing_) ensure_covered(deadline);
    return id;
  }

  bool cancel(TimerId id) { return wheel_.cancel(id); }

  bool empty() const { return wheel_.empty(); }
  std::size_t size() const { return wheel_.size(); }
  TimingWheel& wheel() { return wheel_; }

 private:
  static constexpr int kMaxOutstanding = 4;

  bool covered(Time deadline) const {
    for (int i = 0; i < n_outstanding_; ++i) {
      if (outstanding_[i].at <= deadline) return true;
    }
    return false;
  }

  // Coverage invariant: outside an expiry batch, some outstanding wakeup is
  // at or before the wheel's earliest deadline.  Incremental form: a new arm
  // at `deadline` only needs a wakeup when none exists at <= deadline —
  // if deadline is not the new minimum, the wakeup covering the old minimum
  // already satisfies the check.
  void ensure_covered(Time deadline) {
    if (covered(deadline)) return;
    if (n_outstanding_ == kMaxOutstanding) {
      // Forget the latest wakeup: the uncovered `deadline` is the wheel's new
      // minimum (see above), so the wakeup scheduled below covers it and the
      // forgotten one is redundant.  It still fires, as a no-op (on_expiry).
      int worst = 0;
      for (int i = 1; i < kMaxOutstanding; ++i) {
        if (outstanding_[i].at > outstanding_[worst].at) worst = i;
      }
      outstanding_[worst] = outstanding_[--n_outstanding_];
    }
    const std::uint64_t token = next_token_++;
    outstanding_[n_outstanding_++] = Outstanding{deadline, token};
    sim_->at(deadline, [this, token] { on_expiry(token); });
  }

  void on_expiry(std::uint64_t token) {
    int i = 0;
    while (i < n_outstanding_ && outstanding_[i].token != token) ++i;
    // A forgotten wakeup must not advance the wheel: a timer due now would
    // then run ahead of the events queued between this wakeup and the one
    // that covers the timer.  Matching the token, not the time, tells the
    // two apart when they share a timestamp.
    if (i == n_outstanding_) return;
    outstanding_[i] = outstanding_[--n_outstanding_];
    // Timers armed from inside the expiry batch are covered by the single
    // re-cover below; suppress per-arm checks meanwhile.
    advancing_ = true;
    wheel_.advance(sim_->now());
    advancing_ = false;
    const Time next = wheel_.next_deadline();
    if (next != kNoTimer) ensure_covered(next);
  }

  struct Outstanding {
    Time at = 0;
    std::uint64_t token = 0;  ///< Matches the wakeup closure scheduled for it.
  };

  Simulator* sim_;
  TimingWheel wheel_;
  Outstanding outstanding_[kMaxOutstanding];
  int n_outstanding_ = 0;
  std::uint64_t next_token_ = 0;
  bool advancing_ = false;
};

}  // namespace fastcc::sim
