#include "experiments/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace fastcc::exp {

void parallel_for_index(std::size_t count, unsigned max_threads,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  unsigned workers = max_threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : max_threads;
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // the first exception fn threw; guarded
  auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        // An exception must not escape a thread's entry function: keep it
        // for the caller, and stop handing out indices.
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(count, std::memory_order_relaxed);
      }
    }
  };
  // The calling thread is worker 0: spawn only workers - 1 threads and run
  // the claim loop here too.  Saves a thread (and its stack) per sweep and
  // keeps the caller's core busy instead of parked in join().
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace fastcc::exp
