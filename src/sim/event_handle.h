// EventSlotPool: generation-stamped event storage and cancellation.
//
// The event queue once kept an unordered_set of pending ids purely so that
// rare cancellations could be answered later — two hash operations on every
// schedule/pop — and carried the (type-erased) callback inside every bucket
// entry, so each bucket compaction moved it.  This pool fixes both:
// callbacks live in a flat slot array and the queue orders only 24-byte
// {time, seq, handle} entries.  A handle encodes
// (generation << 32 | slot); schedule grabs a slot from a freelist, cancel
// flips a bit and eagerly destroys the callback, pop checks the bit, and
// releasing a slot bumps its generation so stale handles from already-fired
// events are recognized in O(1) without hashing.  In the steady state (slot
// population no longer growing) every operation is allocation-free: the
// callback is placement-constructed into UniqueFunction's inline buffer and
// moved exactly once, into its slot.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/unique_function.h"

namespace fastcc::sim {

class EventSlotPool {
 public:
  using Handle = std::uint64_t;

  /// Stores `cb` in a fresh slot; the handle stays valid for cancel() until
  /// the matching release().
  Handle acquire(UniqueFunction&& cb) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(meta_.size());
      meta_.emplace_back();
      cbs_.emplace_back();
    }
    Meta& m = meta_[slot];
    m.live = true;
    cbs_[slot] = std::move(cb);
    ++live_;
    return make_handle(m.gen, slot);
  }

  /// Marks a live event cancelled and destroys its callback eagerly (the
  /// queue reclaims the ordering entry lazily).  Stale handles — already
  /// fired, already cancelled, never issued — return false.
  bool cancel(Handle h) {
    Meta* m = lookup(h);
    if (m == nullptr || !m->live) return false;
    m->live = false;
    cbs_[slot_of(h)] = UniqueFunction();
    --live_;
    return true;
  }

  /// True when the handle refers to a still-pending, non-cancelled event.
  /// Touches only the 8-byte metadata array, never the callback storage.
  bool is_live(Handle h) const {
    const Meta* m = lookup(h);
    return m != nullptr && m->live;
  }

  /// Frees the slot when its entry physically leaves the queue (fired or
  /// reclaimed after cancellation) and returns the callback — empty if the
  /// event had been cancelled.  Must be called exactly once per acquire().
  UniqueFunction release(Handle h) {
    UniqueFunction cb;
    release_into(h, cb);
    return cb;
  }

  /// As release(), but moves the callback directly into `out`.  The pop hot
  /// path uses this to skip a temporary: with small-buffer optimization a
  /// callback move is a several-hundred-byte copy, not a pointer swap.
  void release_into(Handle h, UniqueFunction& out) {
    const std::uint32_t slot = slot_of(h);
    assert(slot < meta_.size() && meta_[slot].gen == gen_of(h) &&
           "handle released twice");
    Meta& m = meta_[slot];
    if (m.live) {
      m.live = false;
      --live_;
    }
    ++m.gen;  // invalidate every outstanding copy of this handle
    free_.push_back(slot);
    out = std::move(cbs_[slot]);
  }

  /// Number of pending, non-cancelled events.
  std::size_t live() const { return live_; }

  /// Hints the handle's metadata and callback slot into cache.  The pop path
  /// issues this one event ahead: the slot arrays are large enough to fall
  /// out of L1/L2 under thousands of live events, and the next pop's slot is
  /// known the moment the current one is selected, so the fetch overlaps a
  /// whole callback's worth of work instead of stalling release_into().
  void prefetch(Handle h) const {
    const std::uint32_t slot = slot_of(h);
    if (slot >= meta_.size()) return;
    __builtin_prefetch(&meta_[slot]);
    __builtin_prefetch(&cbs_[slot]);
  }

 private:
  struct Meta {
    std::uint32_t gen = 0;
    bool live = false;
  };

  static constexpr Handle make_handle(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<Handle>(gen) << 32) | slot;
  }
  static constexpr std::uint32_t slot_of(Handle h) {
    return static_cast<std::uint32_t>(h);
  }
  static constexpr std::uint32_t gen_of(Handle h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  const Meta* lookup(Handle h) const {
    const std::uint32_t slot = slot_of(h);
    if (slot >= meta_.size() || meta_[slot].gen != gen_of(h)) return nullptr;
    return &meta_[slot];
  }
  Meta* lookup(Handle h) {
    return const_cast<Meta*>(
        static_cast<const EventSlotPool*>(this)->lookup(h));
  }

  // Liveness metadata and callback storage are parallel arrays: liveness
  // checks on the pop path stay within a dense, cache-resident array while
  // the fat callback slots are touched only on schedule and dispatch.
  std::vector<Meta> meta_;
  std::vector<UniqueFunction> cbs_;
  std::vector<std::uint32_t> free_;  // slots available for reuse
  std::size_t live_ = 0;
};

}  // namespace fastcc::sim
