#include "sim/timing_wheel.h"

#include <utility>

namespace fastcc::sim {

TimerId TimingWheel::arm(Time deadline, Callback cb) {
  assert(deadline >= now_ && "timers cannot be armed in the past");
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    cbs_.emplace_back();
  }
  Node& n = nodes_[idx];
  n.deadline = deadline;
  n.seq = next_seq_++;
  cbs_[idx] = std::move(cb);
  heap_.push_back(idx);
  sift_up(heap_.size() - 1);
  return make_id(n.gen, idx);
}

bool TimingWheel::cancel(TimerId id) {
  const std::uint32_t idx = index_of(id);
  if (idx >= nodes_.size()) return false;
  const Node& n = nodes_[idx];
  if (n.gen != gen_of(id) || n.pos == kFree) return false;
  cbs_[idx] = Callback();
  release(idx);
  return true;
}

void TimingWheel::sift_up(std::size_t pos) {
  // Hole insertion: parents move down into the hole, and the node is written
  // once, where the hole stops.
  const std::uint32_t idx = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(idx, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, idx);
}

void TimingWheel::sift_down(std::size_t pos) {
  const std::uint32_t idx = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], idx)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, idx);
}

void TimingWheel::release(std::uint32_t idx) {
  Node& n = nodes_[idx];
  assert(n.pos != kFree && "releasing a free node");
  // The last leaf fills the hole.  It may belong above the hole (a cancel
  // deep in one subtree, the leaf from another) or below it, so it sifts
  // whichever way the order asks.
  const std::size_t pos = n.pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  ++n.gen;  // invalidate the outstanding TimerId
  n.pos = kFree;
  free_.push_back(idx);
}

void TimingWheel::advance(Time to) {
  while (!heap_.empty()) {
    const std::uint32_t idx = heap_.front();
    if (nodes_[idx].deadline > to) break;
    // Advance the clock to the expiry first: reentrant arms from the
    // callback measure their delay from the firing instant.
    now_ = nodes_[idx].deadline;
    Callback cb = std::move(cbs_[idx]);
    release(idx);
    cb();  // may arm() or cancel(); the node slot above is already reusable
  }
  if (now_ < to) now_ = to;
}

}  // namespace fastcc::sim
