// Parallel sweep correctness: results must be identical to serial runs and
// ordered like the inputs, for any worker count.
#include "experiments/parallel.h"

#include "experiments/incast.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fastcc::exp {
namespace {

std::vector<IncastConfig> sweep_configs() {
  std::vector<IncastConfig> configs;
  for (const Variant v : {Variant::kHpcc, Variant::kHpccVaiSf,
                          Variant::kSwift, Variant::kSwiftVaiSf}) {
    IncastConfig c;
    c.variant = v;
    c.pattern.senders = 6;
    c.pattern.flow_bytes = 100'000;
    c.star.host_count = 7;
    configs.push_back(c);
  }
  return configs;
}

/// An incast sweep fanned out the way the experiment table runs one:
/// results[i] is run_incast(configs[i]), whatever the worker count.
std::vector<IncastResult> run_sweep(const std::vector<IncastConfig>& configs,
                                    unsigned threads) {
  std::vector<IncastResult> results(configs.size());
  parallel_for_index(configs.size(), threads, [&](std::size_t i) {
    results[i] = run_incast(configs[i]);
  });
  return results;
}

TEST(ParallelRunner, MatchesSerialExecution) {
  const auto configs = sweep_configs();
  std::vector<IncastResult> serial;
  for (const auto& c : configs) serial.push_back(run_incast(c));
  const auto parallel = run_sweep(configs, 4);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].events_executed, serial[i].events_executed);
    EXPECT_EQ(parallel[i].completion_time, serial[i].completion_time);
    ASSERT_EQ(parallel[i].flows.size(), serial[i].flows.size());
    for (std::size_t f = 0; f < serial[i].flows.size(); ++f) {
      EXPECT_EQ(parallel[i].flows[f].finish, serial[i].flows[f].finish);
    }
  }
}

TEST(ParallelRunner, SingleThreadFallback) {
  const auto configs = sweep_configs();
  const auto one = run_sweep(configs, 1);
  const auto many = run_sweep(configs, 8);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].events_executed, many[i].events_executed);
  }
}

// The determinism contract: a sweep's results are a pure function of its
// configs, independent of how many workers executed it.  Compares every
// observable of every run — full per-flow timings and the sampled series,
// not just summary counters — across worker counts.
TEST(ParallelRunner, ThreadCountInvariance) {
  const auto configs = sweep_configs();
  const auto baseline = run_sweep(configs, 1);
  for (int threads : {2, 8}) {
    const auto got = run_sweep(configs, threads);
    ASSERT_EQ(got.size(), baseline.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " config=" + std::to_string(i));
      const IncastResult& a = baseline[i];
      const IncastResult& b = got[i];
      EXPECT_EQ(b.events_executed, a.events_executed);
      EXPECT_EQ(b.completion_time, a.completion_time);
      EXPECT_EQ(b.drops, a.drops);
      ASSERT_EQ(b.flows.size(), a.flows.size());
      for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(b.flows[f].id, a.flows[f].id);
        EXPECT_EQ(b.flows[f].start, a.flows[f].start);
        EXPECT_EQ(b.flows[f].finish, a.flows[f].finish);
      }
      ASSERT_EQ(b.jain.size(), a.jain.size());
      for (std::size_t p = 0; p < a.jain.points().size(); ++p) {
        EXPECT_EQ(b.jain.points()[p].t, a.jain.points()[p].t);
        // Bit-identical, not approximately equal: double accumulation order
        // must not depend on the worker count.
        EXPECT_EQ(b.jain.points()[p].value, a.jain.points()[p].value);
      }
      ASSERT_EQ(b.queue_bytes.size(), a.queue_bytes.size());
      for (std::size_t p = 0; p < a.queue_bytes.points().size(); ++p) {
        EXPECT_EQ(b.queue_bytes.points()[p].t, a.queue_bytes.points()[p].t);
        EXPECT_EQ(b.queue_bytes.points()[p].value, a.queue_bytes.points()[p].value);
      }
    }
  }
}

TEST(ParallelRunner, EmptySweepIsFine) {
  EXPECT_TRUE(run_sweep({}, 4).empty());
}

TEST(ParallelForIndex, VisitsEveryIndexExactlyOnce) {
  std::mutex mu;
  std::set<std::size_t> seen;
  std::atomic<int> calls{0};
  parallel_for_index(100, 8, [&](std::size_t i) {
    ++calls;
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(i).second) << "index " << i << " visited twice";
  });
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(ParallelForIndex, RethrowsAWorkerExceptionAfterJoining) {
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_for_index(64, 4,
                                  [&](std::size_t i) {
                                    ++calls;
                                    if (i == 5) throw std::runtime_error("x");
                                  }),
               std::runtime_error);
  EXPECT_GE(calls.load(), 6);  // indices 0..5 were claimed in order
  EXPECT_LE(calls.load(), 64);
}

TEST(ParallelForIndex, MoreWorkersThanWorkIsSafe) {
  std::atomic<int> calls{0};
  parallel_for_index(3, 64, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForIndex, CallingThreadParticipatesAsWorkerZero) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> calls{0};
  // Spawned workers park inside their first claimed index until the caller
  // has run one itself (bounded wait, so a regression fails rather than
  // hangs).  They can pin at most workers-1 indices while parked, so the
  // caller — whose claim loop runs unconditionally after spawning — always
  // finds indices left to prove participation on.
  parallel_for_index(64, 4, [&](std::size_t) {
    ++calls;
    if (std::this_thread::get_id() == caller) {
      caller_ran = true;
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!caller_ran && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_TRUE(caller_ran.load())
      << "calling thread never claimed an index: it spawned workers and "
         "parked in join() instead of working";
  EXPECT_EQ(calls.load(), 64);
}

}  // namespace
}  // namespace fastcc::exp
