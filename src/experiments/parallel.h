// Parallel experiment sweeps.
//
// Every fastcc simulation is self-contained (its own Simulator, Network and
// RNG; no mutable globals), so independent configurations can run on
// separate threads with zero coordination.  parallel_for_index fans a sweep
// out over a bounded thread pool — on a many-core machine a full variant
// grid costs one simulation's wall-clock.
#pragma once

#include <cstddef>
#include <functional>

namespace fastcc::exp {

/// Applies `fn` to indices [0, count) using at most `max_threads`
/// concurrent workers (0 = hardware concurrency); the calling thread is one
/// of them.  `fn` runs on worker threads: it may touch only state owned by
/// its index, never shared mutable state.  If `fn` throws, workers claim no
/// new index, and the first exception is rethrown once every worker has
/// joined.
void parallel_for_index(std::size_t count, unsigned max_threads,
                        const std::function<void(std::size_t)>& fn);

}  // namespace fastcc::exp
