#include "sim/calendar_queue.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace fastcc::sim {

CalendarQueue::CalendarQueue(std::size_t initial_buckets, Time initial_width) {
  set_width(initial_width);
  // Power-of-two bucket count enables mask-based hashing.
  std::size_t n = 1;
  while (n < initial_buckets) n <<= 1;
  buckets_.resize(n);
  horizon_ = lap_horizon(0);
}

void CalendarQueue::set_width(Time width) {
  // Round up to a power of two (at most 2x off the calibrated target, well
  // inside the heuristic's slack) so day extraction compiles to a shift.
  const auto w = std::bit_ceil(
      static_cast<std::uint64_t>(std::max<Time>(width, 1)));
  width_ = static_cast<Time>(w);
  width_shift_ = std::countr_zero(w);
}

void CalendarQueue::extract_day(std::vector<Entry>& bucket, Time day_start,
                                Time day_end) {
  // Membership is an interval check against the day's [start, end) window
  // rather than a per-entry division.  In-day entries move wholesale into
  // today_ (swap-with-back removal re-examines the swapped-in tail at index
  // i); off-day entries (later laps of the wrapped bucket, within
  // kCalendarLaps) stay put.  Physical order within a bucket is irrelevant:
  // today_ is sorted by (at, seq), and seq is unique.
  for (std::size_t i = 0; i < bucket.size();) {
    const Entry& e = bucket[i];
    if (e.at >= day_start && e.at < day_end) {
      today_.push_back(e);
      bucket[i] = bucket.back();
      bucket.pop_back();
      continue;
    }
    ++i;
  }
  // A wave of events passing through grows every bucket it crosses; kept
  // in place, that capacity would pin the wave's peak once per bucket, not
  // once.  Handed on, it serves the buckets ahead of the wave instead, and
  // steady states stay allocation-free.  A packed day's storage is freed.
  if (bucket.empty() && bucket.capacity() != 0) {
    if (bucket.capacity() <= kKeptBucketCapacity) {
      spares_.emplace_back();
      spares_.back().swap(bucket);
    } else {
      std::vector<Entry>().swap(bucket);
    }
  }
}

void CalendarQueue::advance_horizon(std::uint64_t day) {
  const Time horizon = lap_horizon(day);
  if (horizon <= horizon_) return;
  horizon_ = horizon;
  // One pass over the unsorted far_ per lap.  It stays short because
  // retransmission timers live on the nodes' TimingWheels: per node, far_
  // holds at most its wheel's few wakeups, not one entry per timer.
  for (std::size_t i = 0; i < far_.size();) {
    if (far_[i].at < horizon_) {
      push(buckets_[bucket_of(far_[i].at)], far_[i]);
      far_[i] = far_.back();
      far_.pop_back();
    } else {
      ++i;
    }
  }
}

void CalendarQueue::sort_today() {
  // A day holds a handful of entries (the width calibration targets ~3x the
  // median gap at the head, and refill_today() recalibrates once days pack
  // past kPackedDay), so the common case is a 2-8 element sort where
  // std::sort's introsort dispatch costs more than the work itself.  Plain
  // insertion for short days, std::sort beyond.
  const auto by_time_fifo = [](const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  };
  if (today_.size() <= 16) {
    for (std::size_t i = 1; i < today_.size(); ++i) {
      Entry e = today_[i];
      std::size_t j = i;
      while (j > 0 && by_time_fifo(e, today_[j - 1])) {
        today_[j] = today_[j - 1];
        --j;
      }
      today_[j] = e;
    }
    return;
  }
  std::sort(today_.begin(), today_.end(), by_time_fifo);
}

void CalendarQueue::refill_today() {
  // Pops never shrink the table themselves (a per-pop check taxes the hot
  // path for a rare transition); the population-shrink side of the resize
  // heuristic runs here, once per extracted day.
  maybe_resize();
  while (true) {
    extract_next_day();
    extracted_ += today_.size();
    // A resize recalibrates only when the live count leaves the 2x/(1/4)
    // band, and a population that sets the width (flow starts queued up
    // front, microseconds apart) can hold the count inside it while a
    // denser one (the packets those flows send) packs every day with
    // hundreds of entries.  A packed day spanning several timestamps asks
    // the head for its width, at most once per `live` extracted entries;
    // one entry per timestamp is the only day a narrower width splits.
    // Where the head is as dense as the day (every timestamp is shared by
    // several entries), it calibrates no narrower and nothing is rebuilt.
    if (today_.size() <= kPackedDay || today_.front().at == today_.back().at ||
        extracted_ < size()) {
      return;
    }
    extracted_ = 0;
    if (head_width() >= width_) return;
    rebuild(buckets_.size());
  }
}

void CalendarQueue::extract_next_day() {
  assert(!today_active_ && today_.empty() && today_pos_ == 0);
  assert(!empty());
  const std::size_t mask = buckets_.size() - 1;
  // Phase 1: walk day-by-day from the last popped timestamp; the first day
  // holding an event is extracted wholesale.  Every entry outside the
  // winning day fires at or after its day_end, strictly later than anything
  // inside it, so the extracted-and-sorted array is a prefix of the global
  // pop order.
  std::uint64_t day = static_cast<std::uint64_t>(last_popped_) >> width_shift_;
  advance_horizon(day);
  for (std::size_t step = 0; step < buckets_.size(); ++step, ++day) {
    const Time day_start = static_cast<Time>(day << width_shift_);
    extract_day(buckets_[static_cast<std::size_t>(day) & mask], day_start,
                day_start + width_);
    if (!today_.empty()) {
      sort_today();
      today_start_ = day_start;
      today_end_ = day_start + width_;
      today_active_ = true;
      return;
    }
  }
  // Phase 2 (sparse population): the next event lies beyond one full lap of
  // days.  Scan the buckets for the earliest entry; every far_ entry is later
  // than all of them.  With the buckets empty, jump the calendar to the
  // earliest far_ entry, which moves it (and its lap) into the buckets.
  Time earliest = std::numeric_limits<Time>::max();
  for (const auto& bucket : buckets_) {
    for (const Entry& e : bucket) earliest = std::min(earliest, e.at);
  }
  if (earliest == std::numeric_limits<Time>::max()) {
    assert(!far_.empty());
    for (const Entry& e : far_) earliest = std::min(earliest, e.at);
    advance_horizon(static_cast<std::uint64_t>(earliest) >> width_shift_);
  }
  const std::uint64_t min_day =
      static_cast<std::uint64_t>(earliest) >> width_shift_;
  const Time day_start = static_cast<Time>(min_day << width_shift_);
  extract_day(buckets_[static_cast<std::size_t>(min_day) & mask], day_start,
              day_start + width_);
  assert(!today_.empty());
  sort_today();
  today_start_ = day_start;
  today_end_ = day_start + width_;
  today_active_ = true;
}

const CalendarQueue::Entry* CalendarQueue::peek_front() {
  if (today_pos_ == today_.size()) {
    // The day is drained (or none is active): retire it and extract the next.
    today_.clear();
    today_pos_ = 0;
    today_active_ = false;
    if (empty()) return nullptr;
    refill_today();
  }
  return &today_[today_pos_];
}

void CalendarQueue::insert_today(const Entry& e) {
  if (today_.size() == today_.capacity() && today_pos_ >= today_.size() / 2) {
    // Growing would keep the drained prefix, sizing today_ by how many
    // events a day has run rather than how many it holds.  Dropping the
    // prefix instead moves at most half the array, and frees at least half
    // of it for the inserts to come.
    today_.erase(today_.begin(),
                 today_.begin() + static_cast<std::ptrdiff_t>(today_pos_));
    today_pos_ = 0;
  }
  // Upper-bound by (time, seq) over the undrained region.  A fresh seq is
  // the largest issued, so it lands after every equal-time entry; a
  // reserved one (schedule_reserved) may land ahead of some.
  const auto begin = today_.begin() + static_cast<std::ptrdiff_t>(today_pos_);
  const auto it = std::upper_bound(
      begin, today_.end(), e, [](const Entry& a, const Entry& x) {
        return a.at != x.at ? a.at < x.at : a.seq < x.seq;
      });
  const std::ptrdiff_t front_dist = it - begin;
  const std::ptrdiff_t back_dist = today_.end() - it;
  if (today_pos_ > 0 && front_dist < back_dist) {
    // The drained slots before the cursor are free space, and in-day
    // schedules land near the cursor (they fire between "now" and day end),
    // so shifting the short undrained prefix one slot left is far cheaper
    // than vector::insert moving the day's whole tail.
    std::move(begin, it, begin - 1);
    *(it - 1) = e;
    --today_pos_;
  } else {
    today_.insert(it, e);
  }
}

void CalendarQueue::flush_today() {
  for (std::size_t i = today_pos_; i < today_.size(); ++i) {
    push(buckets_[bucket_of(today_[i].at)], today_[i]);
  }
  today_.clear();
  today_pos_ = 0;
  today_active_ = false;
}

Time CalendarQueue::next_time() {
  assert(!empty());
  const Entry* front = peek_front();
  assert(front != nullptr);
  return front->at;
}

Time CalendarQueue::pop_and_run() {
  assert(!empty());
  Callback cb;
  const Time at = take_next(std::numeric_limits<Time>::max(), cb);
  assert(at != kNoEventTime);
  cb();
  return at;
}

std::size_t CalendarQueue::reserved_entries() const {
  std::size_t reserved = today_.capacity() + far_.capacity();
  for (const auto& bucket : buckets_) reserved += bucket.capacity();
  for (const auto& spare : spares_) reserved += spare.capacity();
  return reserved;
}

Time CalendarQueue::head_width() {
  // The width comes from the median *non-zero* gap among the earliest
  // entries — the ones the next days will hold (Brown, CACM 1988).  The
  // whole population's spacing describes the far future instead: flow
  // starts queued microseconds apart set a microsecond day that the packet
  // events in front of them then pack by the thousand.  The mean,
  // (max - min) / n, would be worse still: a few far-future retransmit
  // timers stretch the range.  Zero gaps (events sharing a timestamp) are
  // excluded: they carry no width information — simultaneous events land in
  // the same day at *any* width — yet a synchronized burst (an incast
  // start, a barrier of flow arrivals) can make them the majority, dragging
  // the median to zero and the width to a single nanosecond, at which point
  // every refill walks hundreds of empty days.  The 3x factor targets a few
  // events per day.
  //
  // The earliest entries are today_'s, then those of the days after it in
  // order, so walking days until kHeadSample are in hand collects a superset
  // of them at a cost proportional to the sample, not the population.  Only
  // a population sparser than kHeadSample per lap falls back to a full pass.
  head_times_.clear();
  const auto take = [this](const Entry& e) { head_times_.push_back(e.at); };
  for (std::size_t i = today_pos_; i < today_.size(); ++i) take(today_[i]);
  std::uint64_t day =
      static_cast<std::uint64_t>(today_active_ ? today_end_ : last_popped_) >>
      width_shift_;
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t step = 0;
       step < buckets_.size() && head_times_.size() < kHeadSample;
       ++step, ++day) {
    const Time day_start = static_cast<Time>(day << width_shift_);
    for (const Entry& e : buckets_[static_cast<std::size_t>(day) & mask]) {
      if (e.at >= day_start && e.at < day_start + width_) take(e);
    }
  }
  if (head_times_.size() < kHeadSample) {
    head_times_.clear();
    for (std::size_t i = today_pos_; i < today_.size(); ++i) take(today_[i]);
    for (const auto& bucket : buckets_) {
      for (const Entry& e : bucket) take(e);
    }
    for (const Entry& e : far_) take(e);
  }
  const auto head = head_times_.begin();
  const std::size_t n = std::min(head_times_.size(), kHeadSample);
  if (head_times_.size() > n) {
    std::nth_element(head, head + static_cast<std::ptrdiff_t>(n),
                     head_times_.end());
  }
  std::sort(head, head + static_cast<std::ptrdiff_t>(n));
  std::array<Time, kHeadSample> gaps;
  std::size_t gap_count = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (head_times_[i] != head_times_[i - 1]) {
      gaps[gap_count++] = head_times_[i] - head_times_[i - 1];
    }
  }
  if (gap_count == 0) return width_;
  const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gap_count / 2);
  std::nth_element(gaps.begin(),
                   mid, gaps.begin() + static_cast<std::ptrdiff_t>(gap_count));
  return static_cast<Time>(
      std::bit_ceil(static_cast<std::uint64_t>(3 * *mid)));
}

void CalendarQueue::rebuild(std::size_t new_bucket_count) {
  // Entries relocate wholesale, so the active day (whose invariant is
  // "nothing of this day lives in a bucket") must be dissolved first.
  if (today_active_) flush_today();
  set_width(head_width());
  std::vector<Entry> all;
  all.reserve(size());
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  all.insert(all.end(), far_.begin(), far_.end());
  far_.clear();
  buckets_.clear();
  buckets_.resize(new_bucket_count);
  spares_.clear();
  horizon_ = lap_horizon(static_cast<std::uint64_t>(last_popped_) >>
                         width_shift_);
  for (const Entry& e : all) {
    if (e.at < horizon_) {
      buckets_[bucket_of(e.at)].push_back(e);
    } else {
      far_.push_back(e);
    }
  }
  extracted_ = 0;
}

}  // namespace fastcc::sim
