// CalendarQueue: an O(1)-amortized event queue (Brown, CACM 1988).
//
// Discrete-event network simulations schedule most events a short, bounded
// distance into the future (serialization times, propagation delays, pacing
// gaps), which is exactly the access pattern calendar queues exploit: events
// hash into "day" buckets by timestamp.  Events at equal timestamps pop in
// insertion order, where an event scheduled under a reserved sequence number
// counts as inserted when the number was reserved; property tests pin the
// pop sequence to a sorted reference.  The bucket count doubles/halves as
// the population grows/shrinks.  The queue is append-only: every scheduled
// event runs.  Timers that may be withdrawn (retransmission, pacing, rate
// recovery) live on the nodes' TimingWheels, which cancel in O(log n).
// Callbacks sit in a slot vector with a free list, so buckets hold only
// 24-byte {time, seq, slot} entries and moving an entry never moves a
// callback.
//
// Sizing follows the head of the queue, not the whole population.  Every
// rebuild calibrates the day width from the earliest entries (Brown's
// sample), and a packed day asks the head again, rebuilding at the same
// bucket count when it would calibrate a narrower day: a population that
// set the width (flow starts queued up front, microseconds apart) can hold
// the live count inside the resize band while a denser one in front of it
// (the packets those flows send) would otherwise pack every day with
// hundreds of entries.  Storage follows the live entries too.  Only entries
// due within kCalendarLaps laps of the calendar live in buckets; later ones
// wait unsorted in `far_` and move in once per lap.  A bucket a day
// extraction empties hands its storage to the next bucket that needs some
// (or frees it, past kKeptBucketCapacity).  So a dense wave passing through
// every bucket leaves neither its peak capacity behind in each of them nor
// far-future residents pinning it there.
//
// Popping batch-extracts one day at a time.  A scan that locates the
// earliest day used to yield a single event and throw the rest of its work
// away, so every second pop re-walked the day's bucket (and re-filtered the
// off-day entries sharing it).  Instead, the first pop of a day moves every
// in-day entry out of its bucket into `today_` — a small array sorted once
// by (time, seq) — and subsequent pops drain it by index.  Each entry is
// physically touched twice per lifetime (extract, drain) instead of once per
// scan it survives, and the drain path is branch-predictable: no bucket
// walk, no day-membership filtering, no min-tracking.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "sim/unique_function.h"

namespace fastcc::sim {

class CalendarQueue {
 public:
  using Callback = UniqueFunction;

  explicit CalendarQueue(std::size_t initial_buckets = 16,
                         Time initial_width = 1 * kMicrosecond);

  void schedule(Time at, Callback cb) {
    place(at, next_seq_++, std::move(cb));
  }

  /// Reserves `n` consecutive sequence numbers and returns the first.  An
  /// event later scheduled under one of them (schedule_reserved) pops where
  /// an event scheduled now would: after every equal-time event scheduled
  /// before this call, before every one scheduled after it.
  std::uint64_t reserve_seq(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `cb` at `at` under `seq`, a number reserve_seq() returned
  /// and no other event used.  Precondition: (at, seq) follows the (time,
  /// seq) of every event already popped.
  void schedule_reserved(Time at, std::uint64_t seq, Callback cb) {
    assert(seq < next_seq_);
    place(at, seq, std::move(cb));
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return cbs_.size() - free_.size(); }

  /// Entries of storage held for ordering: the summed capacity of the
  /// buckets, today_, far_ and the spare bucket storage.
  std::size_t reserved_entries() const;

  /// Timestamp of the earliest event.  Precondition: !empty().
  Time next_time();

  /// Pops and runs the earliest event; returns its timestamp.
  /// Precondition: !empty().
  Time pop_and_run();

  /// If the earliest event fires at or before `until`, removes it,
  /// moves its callback into `out`, and returns its timestamp; otherwise
  /// returns kNoEventTime and leaves the queue untouched.  This is the
  /// simulator's hot path: almost every call pops straight off the sorted
  /// today_ array; a day-locating scan runs only once per extracted day.
  Time take_next(Time until, Callback& out) {
    const Entry* front = peek_front();
    if (front == nullptr || front->at > until) return kNoEventTime;
    const Entry entry = *front;
    ++today_pos_;
    if (today_pos_ < today_.size()) {
      // Overlap the *next* pop's callback-slot fetch with this event's
      // execution.  (A scheduler-supplied prefetch hint per entry was tried
      // and removed: it grew the 24-byte Entry to 32, costing ~30% on the
      // pure schedule/pop benchmarks for no measurable end-to-end win.)
      __builtin_prefetch(&cbs_[today_[today_pos_].slot]);
    }
    out = std::move(cbs_[entry.slot]);
    free_.push_back(entry.slot);
    last_popped_ = entry.at;
    return entry.at;
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;   // issue order (or a reserved number); breaks ties
    // Index of the callback in cbs_.  A full word, so an Entry is three
    // words with no padding: a 4-byte slot plus padding measured ~20%
    // slower on BM_SimulatorSelfRescheduling (interleaved A/B).
    std::uint64_t slot;
  };

  /// schedule()'s body, under a sequence number the caller chose.
  void place(Time at, std::uint64_t seq, Callback&& cb) {
    assert(at >= 0);
    // Most events land many days out (propagation delays span dozens of
    // calendar days), so the destination bucket's header is almost always
    // cold.  Issue its fetch first: it overlaps the callback move into its
    // slot below, and push_back's size/capacity load — the one dependent
    // stall on this path — then hits warm.
    __builtin_prefetch(&buckets_[bucket_of(at)]);
    const Entry e{at, seq, store(std::move(cb))};
    if (today_active_) {
      if (at < today_end_ && at >= today_start_) {
        // The event lands inside the day currently being drained: insert it
        // in (time, seq) order after the drain cursor.
        insert_today(e);
        maybe_resize();
        return;
      }
      if (at < today_start_) {
        // Scheduled behind the active day (bounded runs can advance the
        // clock past the drained events; the next schedule may then precede
        // the extracted day).  Rare: spill the remainder back to the buckets
        // and fall through to a fresh scan on the next pop.
        flush_today();
      }
    }
    if (at < horizon_) {
      push(buckets_[bucket_of(at)], e);
    } else {
      far_.push_back(e);
    }
    maybe_resize();
  }

  /// Moves `cb` into a free slot of cbs_ and returns its index.
  std::uint64_t store(Callback&& cb) {
    if (free_.empty()) {
      cbs_.push_back(std::move(cb));
      return cbs_.size() - 1;
    }
    const std::uint64_t slot = free_.back();
    free_.pop_back();
    cbs_[slot] = std::move(cb);
    return slot;
  }

  std::size_t bucket_of(Time t) const {
    // width_ is kept a power of two so day extraction is a shift, not a
    // 64-bit division (one per schedule and one per pop otherwise).
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t) >>
                                    width_shift_) &
           (buckets_.size() - 1);
  }

  /// Points at the earliest entry (today_[today_pos_]), refilling today_
  /// with the next day's entries when the drain runs dry; nullptr when the
  /// queue is empty.
  const Entry* peek_front();

  /// Extracts the next day into today_ (extract_next_day()), and when that
  /// day is packed and the head of the queue calibrates a narrower one,
  /// rebuilds at the same bucket count and extracts again.  Precondition:
  /// the queue is not empty and today_ is inactive.
  void refill_today();

  /// Locates the earliest day holding an event and moves its entries
  /// out of the buckets into today_, sorted by (time, seq).  Same
  /// precondition as refill_today().
  void extract_next_day();

  /// The end of the lap kCalendarLaps laps after the one holding `day`.
  Time lap_horizon(std::uint64_t day) const {
    const int lap_shift = std::countr_zero(buckets_.size());
    return static_cast<Time>(((day >> lap_shift) + kCalendarLaps)
                             << (lap_shift + width_shift_));
  }

  /// Raises horizon_ to lap_horizon(day), if that is later, moving the far_
  /// entries it now covers into their buckets.
  void advance_horizon(std::uint64_t day);

  /// Appends to a bucket, taking spare storage first if it has none.
  void push(std::vector<Entry>& bucket, const Entry& e) {
    if (bucket.capacity() == 0 && !spares_.empty()) {
      bucket.swap(spares_.back());
      spares_.pop_back();
    }
    bucket.push_back(e);
  }

  /// Sorts today_ by (time, seq): insertion sort for the common short day,
  /// std::sort beyond.
  void sort_today();

  /// Moves every in-day entry of `bucket` into today_ (swap-with-back
  /// removal).  A bucket left empty gives its storage to spares_, or frees it
  /// past kKeptBucketCapacity.
  void extract_day(std::vector<Entry>& bucket, Time day_start, Time day_end);

  /// Sorted insert into the undrained region of today_ (see schedule()).
  void insert_today(const Entry& e);

  /// Spills the undrained remainder of today_ back into the buckets and
  /// deactivates the day (rebuilds and behind-the-day schedules need the
  /// buckets to be the only physical home again).
  void flush_today();

  void maybe_resize() {
    const std::size_t live = size();
    if (live > 2 * buckets_.size()) {
      rebuild(buckets_.size() * 2);
    } else if (buckets_.size() > 16 && live < buckets_.size() / 4) {
      rebuild(buckets_.size() / 2);
    }
  }

  void rebuild(std::size_t new_bucket_count);
  /// Sets width_ to the power of two at or above `width` (and width_shift_).
  void set_width(Time width);
  /// The power-of-two width the head of the queue calibrates: 3x the median
  /// non-zero gap among the earliest kHeadSample entries, or width_
  /// when they share one timestamp.
  Time head_width();

  /// Entries sampled from the head of the queue to calibrate the width.
  static constexpr std::size_t kHeadSample = 256;
  /// A day holding more entries than this is packed (refill_today()).
  static constexpr std::size_t kPackedDay = 32;
  /// Bucket storage above this many entries is freed, not kept as a spare.
  static constexpr std::size_t kKeptBucketCapacity = 64;
  /// Laps of the calendar (bucket count x width), counting from the one
  /// being drained, whose entries live in buckets.  At least two, since a
  /// day walk from the cursor runs a full lap into the next; a few more
  /// place a timer a few laps out once instead of moving it later.
  static constexpr std::uint64_t kCalendarLaps = 4;

  std::vector<std::vector<Entry>> buckets_;
  Time width_;        ///< Day width; always a power of two.
  int width_shift_;   ///< log2(width_).
  Time last_popped_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Entries extracted into today_ since the last rebuild or packed-day
  /// check; a check runs only once the whole population could have been
  /// drained, so even a calibration over the whole population is amortized
  /// over the extractions.
  std::size_t extracted_ = 0;
  /// Scratch for head_width(), kept so a declined check does not allocate.
  std::vector<Time> head_times_;

  /// Every bucket entry fires before horizon_, a lap boundary; every far_
  /// entry at or after it.  far_ is unsorted: it is scanned when horizon_
  /// moves (once per lap) and when the buckets run dry.
  Time horizon_ = 0;
  std::vector<Entry> far_;
  /// Storage emptied buckets gave up, handed to the next bucket needing some.
  std::vector<std::vector<Entry>> spares_;

  /// The day being drained.  While `today_active_`, every entry of the day
  /// [today_start_, today_end_) lives in today_ (never in a bucket), the
  /// region [today_pos_, size) is sorted ascending by (at, seq), and every
  /// bucket entry fires at or after today_end_ — so today_[today_pos_] is
  /// the global minimum.  The array reaches steady-state capacity and is
  /// then reused allocation-free, like every other pop-path structure; that
  /// capacity follows the entries a day holds, not the events it runs, as
  /// insert_today() drops the drained prefix before it grows.
  std::vector<Entry> today_;
  std::size_t today_pos_ = 0;
  Time today_start_ = 0;
  Time today_end_ = 0;
  bool today_active_ = false;

  /// Callback storage, indexed by Entry::slot; free_ lists the slots whose
  /// events have run.  In the steady state (the slot count no longer
  /// growing) schedule and pop are allocation-free: a callback is placement-
  /// constructed in UniqueFunction's inline buffer and moved once into its
  /// slot and once out of it.
  std::vector<Callback> cbs_;
  std::vector<std::uint64_t> free_;
};

}  // namespace fastcc::sim
