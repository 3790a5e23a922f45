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

  // Work distribution within an epoch: workers race on an atomic index
  // into the active list.  Which worker runs which shard is
  // schedule-dependent — and irrelevant, because each shard_fn(s) touches
  // only shard s's state and runs exactly once per epoch regardless of who
  // claims it.  The list itself is written only inside the barrier step, so
  // reading size() and entries here is race-free.
  std::atomic<int> next{0};
  std::atomic<bool> stop{false};

  // The completion step runs on exactly one (unspecified) thread after all
  // workers arrive and before any is released, which is precisely the
  // single-threaded window barrier_fn needs.  The barrier's release
  // ordering then publishes everything it wrote — the next active set
  // included — and everything each worker wrote during the epoch to every
  // worker; the relaxed atomics below piggyback on that.  Thread creation
  // does the same for the seeding step above.
  auto on_epoch_complete = [&]() noexcept {
    next.store(0, std::memory_order_relaxed);
    if (!barrier_fn(barrier_phase)) stop.store(true, std::memory_order_relaxed);
  };
  std::barrier sync(workers, on_epoch_complete);

  auto work = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const int live = static_cast<int>(active.size());
      while (true) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= live) break;
        shard_fn(active[static_cast<std::size_t>(i)], worker_phase);
      }
      sync.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // The calling thread is worker 0, not a bystander.
  for (std::thread& t : pool) t.join();
}

}  // namespace fastcc::sim
