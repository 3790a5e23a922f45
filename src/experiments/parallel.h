// Parallel experiment sweeps.
//
// Every fastcc simulation is self-contained (its own Simulator, Network and
// RNG; no mutable globals), so independent configurations can run on
// separate threads with zero coordination.  These helpers fan a sweep out
// over a bounded thread pool — on a many-core machine a full variant grid
// costs one simulation's wall-clock.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "experiments/incast.h"

namespace fastcc::exp {

/// Runs `configs[i]` -> `results[i]` using at most `max_threads` concurrent
/// workers (0 = hardware concurrency).  Results are ordered like the inputs
/// regardless of completion order.
std::vector<IncastResult> run_incast_parallel(
    const std::vector<IncastConfig>& configs, unsigned max_threads = 0);

/// Generic fan-out used by run_incast_parallel: applies `fn` to indices
/// [0, count) on the pool.  `fn` runs on worker threads: it may touch only
/// state owned by its index, never shared mutable state.
void parallel_for_index(std::size_t count, unsigned max_threads,
                        const std::function<void(std::size_t)>& fn);

}  // namespace fastcc::exp
