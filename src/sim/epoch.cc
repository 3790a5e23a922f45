#include "sim/epoch.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <thread>
#include <vector>

namespace fastcc::sim {

void EpochCoordinator::run_active(int shards, int workers,
                                  const std::vector<int>& active,
                                  const ShardFn& shard_fn,
                                  const BarrierFn& barrier_fn) {
  assert(shards >= 1);
  workers = std::clamp(workers, 1, shards);

  // Empty tokens: every thread reads the same pair, which carries no data.
  const WorkerPhase worker_phase;
  const BarrierPhase barrier_phase;

  // The seeding barrier step: single-threaded because no worker exists yet.
  if (!barrier_fn(barrier_phase)) return;

  if (workers == 1) {
    do {
      // Iterate by index, not iterator: barrier_fn may rewrite the vector
      // (it never does mid-epoch, but the serial path shares the worker
      // code shape for auditability).
      for (std::size_t i = 0; i < active.size(); ++i) {
        shard_fn(active[i], worker_phase);
      }
    } while (barrier_fn(barrier_phase));
    return;
  }

  // Work distribution within an epoch: shard s has a fixed home worker,
  // s % workers, so epoch after epoch its simulator, pool and nodes are
  // touched by the same thread and stay warm in that core's caches.
  // deal() groups the active list by home into one flat array, a lane of
  // it per worker.
  // Worker w claims from its own lane first, then steals from lanes w+1,
  // w+2, ... (mod workers) until every lane is exhausted, so an epoch whose
  // active shards share one home still spreads over every worker.  Each
  // claim is a fetch_add on the lane's cursor, so every active shard runs
  // exactly once per epoch.  Which worker runs a stolen shard is
  // schedule-dependent — and irrelevant, because each shard_fn(s) touches
  // only shard s's state.  The grouped array and the lane bounds are
  // written only in a barrier step, while no worker claims, so reading
  // them here is race-free; both are sized once, so an epoch allocates
  // nothing.
  struct alignas(64) Lane {  // A cache line per cursor: lanes are stolen.
    std::atomic<int> next{0};
    int end = 0;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(workers));
  std::vector<int> grouped(static_cast<std::size_t>(shards));
  auto deal = [&] {
    assert(active.size() <= grouped.size());
    for (Lane& lane : lanes) lane.end = 0;
    for (const int s : active) {
      assert(s >= 0 && s < shards);
      ++lanes[static_cast<std::size_t>(s % workers)].end;
    }
    int begin = 0;
    for (Lane& lane : lanes) {
      const int count = lane.end;
      lane.next.store(begin, std::memory_order_relaxed);
      lane.end = begin;  // The fill cursor until the scatter below ends.
      begin += count;
    }
    for (const int s : active) {
      grouped[static_cast<std::size_t>(
          lanes[static_cast<std::size_t>(s % workers)].end++)] = s;
    }
  };
  deal();
  std::atomic<bool> stop{false};

  // The completion step runs on exactly one (unspecified) thread after all
  // workers arrive and before any is released, which is precisely the
  // single-threaded window barrier_fn and deal() need.  The barrier's
  // release ordering then publishes everything they wrote — the next
  // lanes included — and everything each worker wrote during the epoch to
  // every worker; the relaxed atomics below piggyback on that.  Thread
  // creation does the same for the seeding step and first deal above.
  auto on_epoch_complete = [&]() noexcept {
    if (barrier_fn(barrier_phase)) {
      deal();
    } else {
      stop.store(true, std::memory_order_relaxed);
    }
  };
  std::barrier sync(workers, on_epoch_complete);

  auto work = [&](int w) {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int k = 0; k < workers; ++k) {
        Lane& lane = lanes[static_cast<std::size_t>((w + k) % workers)];
        while (true) {
          const int i = lane.next.fetch_add(1, std::memory_order_relaxed);
          if (i >= lane.end) break;
          shard_fn(grouped[static_cast<std::size_t>(i)], worker_phase);
        }
      }
      sync.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);  // The calling thread is worker 0, not a bystander.
  for (std::thread& t : pool) t.join();
}

}  // namespace fastcc::sim
