// Conservative barrier-epoch executor for space-parallel simulation.
//
// Classic conservative-synchronization PDES, specialized to the one shape
// this codebase needs: a fixed set of logical shards that may only interact
// across epoch boundaries.  The executor knows nothing about simulators or
// packets.  It alternates a single-threaded barrier step (`barrier_fn`:
// publish mailboxes, plan the next epoch, decide whether to continue) with
// one `shard_fn(s)` call per active shard, spread across `workers` OS
// threads, the calling thread participating.  Each shard has a home worker
// that runs it whenever it can; a worker whose own shards are done steals
// from the others' lanes.
//
// The two phases are types: `shard_fn` receives a WorkerPhase and
// `barrier_fn` a BarrierPhase.  Only the executor can create either and
// neither can be copied, so an API that demands one (net::ShardMailboxes)
// cannot be called from the wrong phase, or outside the epoch loop.
#pragma once

#include <functional>
#include <vector>

namespace fastcc::sim {

/// Held only inside `shard_fn`, while a worker runs one shard.
class WorkerPhase {
 public:
  WorkerPhase(const WorkerPhase&) = delete;
  WorkerPhase& operator=(const WorkerPhase&) = delete;

 private:
  friend class EpochCoordinator;
  WorkerPhase() = default;
};

/// Held only inside `barrier_fn`, which runs while every worker is parked.
class BarrierPhase {
 public:
  BarrierPhase(const BarrierPhase&) = delete;
  BarrierPhase& operator=(const BarrierPhase&) = delete;

 private:
  friend class EpochCoordinator;
  BarrierPhase() = default;
};

class EpochCoordinator {
 public:
  /// Advances shard `s` through the current epoch.  Called once per active
  /// shard per epoch, possibly from any worker thread, but never
  /// concurrently for the same shard.
  using ShardFn = std::function<void(int, const WorkerPhase&)>;
  /// Barrier step.  Runs single-threaded while all workers are parked;
  /// returns false to end the run.
  using BarrierFn = std::function<bool(const BarrierPhase&)>;

  /// Active-set protocol.  Runs `barrier_fn` once on the calling thread
  /// before any worker exists — it seeds `active` and whatever state the
  /// shards read — and returns at once if that step returns false, so a
  /// run with nothing to do never spawns a thread.  Otherwise each epoch
  /// advances only the shards listed in `active`, then runs `barrier_fn`
  /// again, until it returns false.  A shard whose next local event and
  /// inbound mailboxes both sit beyond the epoch horizon is simply never
  /// listed, so an idle shard costs nothing.  `barrier_fn` is the only
  /// code that may rewrite `active`.  The planner must keep the set
  /// deterministic: membership may depend only on simulation state, never
  /// on the thread schedule, or worker counts stop being result-neutral.
  ///
  /// `workers` is clamped to [1, shards]; workers == 1 degenerates to a
  /// plain serial loop with no thread, atomic, or barrier anywhere on the
  /// path, so a single-worker sharded run is bit-identical to — and as
  /// debuggable as — serial code.  With several workers, shard s's home is
  /// worker s % workers (the calling thread is worker 0): each worker runs
  /// the active shards of its own lane first, then steals from the lanes
  /// after it, wrapping around, so every active shard runs exactly once per
  /// epoch whatever the set's spread over homes.  Which worker runs a
  /// shard is schedule-dependent and must not matter to `shard_fn`.  An
  /// epoch with fewer active shards than workers just parks the surplus at
  /// the barrier.
  static void run_active(int shards, int workers,
                         const std::vector<int>& active,
                         const ShardFn& shard_fn, const BarrierFn& barrier_fn);
};

}  // namespace fastcc::sim
