// Proves the acceptance criteria of the allocation-free dispatch and
// zero-copy packet pipeline work: in the steady state, scheduling and
// running the common packet-event closures performs ZERO heap allocations,
// both at the queue level and end-to-end across a fat-tree.  Global
// operator new/delete are replaced with counting versions, so this test
// lives in its own executable — the hook is process-wide and deliberately
// not linked into fastcc_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "net/host.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/calendar_queue.h"
#include "sim/epoch.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "topo/fat_tree.h"

namespace {
// Atomic because the epoch-executor case below allocates, or must not, from
// several worker threads at once.
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_news;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc rule
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace fastcc {
namespace {

// Rolling-horizon schedule/pop cycles with handle-shaped closures: exactly
// what Port::start_tx schedules per hop — a pool pointer plus a 4-byte
// PacketRef, not the 280-byte Packet itself.  Warm-up lets every internal
// vector (slots, freelist, buckets) reach its steady-state capacity; after
// that, not one allocation is allowed.
TEST(AllocFreeDispatch, CalendarQueueSteadyStatePacketClosures) {
  sim::CalendarQueue q;
  net::PacketPool pool;
  const net::PacketRef ref = pool.alloc();
  net::init_data(pool.get(ref), /*flow=*/1, /*src=*/0, /*dst=*/1, /*seq=*/7,
                 /*payload=*/1000, /*now=*/0);
  std::uint64_t sink = 0;
  net::PacketPool* pp = &pool;
  std::uint64_t* out = &sink;
  auto closure = [pp, ref, out] {
    const net::Packet& p = pp->get(ref);
    *out += p.seq + p.wire_bytes;
  };
  static_assert(sizeof(closure) <= 24,
                "per-hop closure must be handle-sized: pool + ref + context");
  static_assert(sim::UniqueFunction::fits_inline<decltype(closure)>,
                "packet closure must fit the inline buffer");

  sim::Time now = 0;
  for (int i = 0; i < 512; ++i) q.schedule(i % 97, closure);
  for (int i = 0; i < 60'000; ++i) {  // warm-up: capacities settle
    now = q.pop_and_run();
    q.schedule(now + 80 + (i * 37) % 400, closure);
  }

  const std::size_t before = g_news;
  for (int i = 0; i < 20'000; ++i) {
    now = q.pop_and_run();
    q.schedule(now + 80 + (i * 37) % 400, closure);
  }
  const std::size_t delta = g_news - before;
  EXPECT_EQ(delta, 0u) << "steady-state schedule/pop allocated";

  while (!q.empty()) q.pop_and_run();
  EXPECT_GT(sink, 0u);
  pool.release(ref);
  EXPECT_EQ(pool.live_count(), 0u);
}

// End-to-end through the Simulator run loop: a fleet of self-rescheduling
// handle-carrying events, exactly the shape Port::start_tx produces.
struct SelfRescheduler {
  sim::Simulator* s;
  net::PacketPool* pool;
  net::PacketRef ref;
  std::uint64_t* sink;

  void tick() const {
    *sink += pool->get(ref).seq;
    // Fixed period: the occupancy pattern repeats exactly, so the warm-up
    // provably reaches peak bucket capacity.  Irregular spacing (where the
    // peak creeps up over millions of events and the occasional amortized
    // vector doubling is expected) is exercised by the queue-level tests.
    s->after(128, [self = *this] { self.tick(); });
  }
};
static_assert(sizeof(SelfRescheduler) <= 32,
              "self-rescheduling event must carry a handle, not a Packet");

TEST(AllocFreeDispatch, SimulatorRunLoopSteadyState) {
  sim::Simulator s;
  net::PacketPool pool;
  std::uint64_t sink = 0;
  for (int i = 0; i < 64; ++i) {
    const net::PacketRef ref = pool.alloc();
    net::init_data(pool.get(ref), 1, 0, 1, static_cast<std::uint64_t>(i),
                   1000, 0);
    SelfRescheduler r{&s, &pool, ref, &sink};
    s.after(i, [r] { r.tick(); });
  }
  s.run(/*until=*/2'000'000);  // warm-up: calendar buckets reach capacity

  const std::size_t before = g_news;
  s.run(/*until=*/6'000'000);
  const std::size_t delta = g_news - before;
  EXPECT_EQ(delta, 0u) << "simulator steady state allocated";
  EXPECT_GT(sink, 0u);
}

// The full zero-copy pipeline: long flows crossing a fat-tree (host -> ToR
// -> Agg -> Spine -> Agg -> ToR -> host plus the ACK reverse path) must run
// allocation-free once the packet pool, port rings, and calendar buckets
// have warmed up.  A packet is allocated into the pool once at the sender
// and only its 4-byte handle moves through queues and events after that.
TEST(AllocFreeDispatch, FatTreeSteadyStateZeroAllocations) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::FatTree tree = topo::build_fat_tree(network, topo::scaled_fat_tree());

  // Cross-pod pairs with distinct sources and destinations: every hop class
  // (edge + fabric, both directions) stays busy for the whole run.
  const int n = static_cast<int>(tree.hosts.size());
  const std::uint64_t size = 100'000'000;  // ~8 ms at 100 Gbps: never finishes
  net::FlowId next_flow = 1;
  for (int i = 0; i < 4; ++i) {
    net::Host* src = tree.hosts[static_cast<std::size_t>(i)];
    net::Host* dst = tree.hosts[static_cast<std::size_t>(n - 1 - i)];
    const net::PathInfo path = network.path(src->id(), dst->id());
    net::FlowTx f;
    f.spec.id = next_flow++;
    f.spec.src = src->id();
    f.spec.dst = dst->id();
    f.spec.size_bytes = size;
    f.spec.start_time = 0;
    f.line_rate = src->port(0).bandwidth();
    f.base_rtt = path.base_rtt;
    f.path_hops = path.hops;
    f.cc = std::make_unique<test::FixedCc>(1e12, sim::gbps(100));
    src->start_flow(std::move(f));
  }

  simulator.run(/*until=*/300 * sim::kMicrosecond);  // warm-up
  ASSERT_GT(network.packet_pool().live_count(), 0u) << "flows are not in flight";

  const std::size_t before = g_news;
  simulator.run(/*until=*/900 * sim::kMicrosecond);
  const std::size_t delta = g_news - before;
  EXPECT_EQ(delta, 0u) << "fat-tree steady state allocated";
  EXPECT_GT(simulator.events_executed(), 100'000u);
}

// The batched ACK delivery path (DESIGN.md §11): several long flows from
// ONE sender share its single host link, so the returning ACK streams
// interleave on the reverse direction and arrive as burst-coalesced
// deliver_batch() chains mixing flows.  Each batch runs ack_apply per
// packet plus one ack_finalize per touched flow — the whole per-flow
// dedup/finalize machinery, the per-flow record updates, and the NIC-arbiter
// heap fix-ups must all run out of steady-state storage: zero allocations.
TEST(AllocFreeDispatch, BatchedAckPathSteadyStateZeroAllocations) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::FatTree tree = topo::build_fat_tree(network, topo::scaled_fat_tree());

  net::Host* src = tree.hosts[0];
  const std::uint64_t size = 100'000'000;  // never finishes within the run
  auto start = [&](net::Host* from, net::Host* to, net::FlowId id,
                   sim::Rate rate) {
    const net::PathInfo path = network.path(from->id(), to->id());
    net::FlowTx f;
    f.spec.id = id;
    f.spec.src = from->id();
    f.spec.dst = to->id();
    f.spec.size_bytes = size;
    f.spec.start_time = 0;
    f.line_rate = from->port(0).bandwidth();
    f.base_rtt = path.base_rtt;
    f.path_hops = path.hops;
    f.cc = std::make_unique<test::FixedCc>(1e12, rate);
    from->start_flow(std::move(f));
  };
  // Aggregate pacing stays under the 100 Gbps host link so queues (and the
  // packet pool) reach a bounded steady state instead of growing forever.
  for (net::FlowId id = 1; id <= 6; ++id) {
    start(src, tree.hosts[tree.hosts.size() - static_cast<std::size_t>(id)],
          id, sim::gbps(15));
  }
  // A near-line-rate incoming flow backlogs the ToR->src port, so the six
  // returning ACK streams ride its bursts: src's deliveries arrive as
  // chains mixing data and multi-flow ACKs — the batched path proper.
  start(tree.hosts[1], src, 7, sim::gbps(90));

  simulator.run(/*until=*/300 * sim::kMicrosecond);  // warm-up
  ASSERT_EQ(src->active_flow_count(), 6u) << "flows must stay in flight";

  const std::size_t before = g_news;
  simulator.run(/*until=*/900 * sim::kMicrosecond);
  const std::size_t delta = g_news - before;
  EXPECT_EQ(delta, 0u) << "batched ACK steady state allocated";
}

// Pool leak check: when a simulation drains completely, every handle has
// been returned — data packets, ACKs, PFC frames, and tail drops all give
// their slots back.
TEST(AllocFreeDispatch, PacketPoolDrainsToZeroLiveHandles) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::FatTree tree = topo::build_fat_tree(network, topo::scaled_fat_tree());

  net::FlowId next_flow = 1;
  for (int i = 0; i < 3; ++i) {
    net::Host* src = tree.hosts[static_cast<std::size_t>(i)];
    net::Host* dst = tree.hosts[tree.hosts.size() - 1 - static_cast<std::size_t>(i)];
    const net::PathInfo path = network.path(src->id(), dst->id());
    net::FlowTx f;
    f.spec.id = next_flow++;
    f.spec.src = src->id();
    f.spec.dst = dst->id();
    f.spec.size_bytes = 200'000;
    f.spec.start_time = 0;
    f.line_rate = src->port(0).bandwidth();
    f.base_rtt = path.base_rtt;
    f.path_hops = path.hops;
    f.cc = std::make_unique<test::FixedCc>(1e12, sim::gbps(100));
    src->start_flow(std::move(f));
  }
  simulator.run();
  for (net::FlowId id = 1; id < next_flow; ++id) {
    const net::FlowTx* f = tree.hosts[static_cast<std::size_t>(id - 1)]->flow(id);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->finished());
  }
  EXPECT_EQ(network.packet_pool().live_count(), 0u)
      << "a packet handle was never released";
  EXPECT_GT(network.packet_pool().capacity(), 0u);
}

// The epoch executor once its workers and barrier exist: claiming from
// home lanes, stealing, the barrier, and the barrier step that regroups the
// active set into lanes run out of storage sized at the start of the run.
TEST(AllocFreeDispatch, EpochExecutorSteadyStateZeroAllocations) {
  constexpr int kShards = 16;
  constexpr int kEpochs = 100;
  std::vector<int> active;
  active.reserve(kShards);
  std::atomic<int> runs{0};
  int epochs = 0;
  std::size_t before = 0;
  std::size_t after = 0;
  sim::EpochCoordinator::run_active(
      kShards, /*workers=*/4, active,
      [&](int, const sim::WorkerPhase&) {
        runs.fetch_add(1, std::memory_order_relaxed);
      },
      [&](const sim::BarrierPhase&) {
        if (epochs == 1) before = g_news;  // The first step with workers up.
        if (epochs == kEpochs) {
          after = g_news;
          return false;
        }
        // A different spread over the four homes each epoch.
        active.clear();
        for (int s = epochs % 4; s < kShards; s += 1 + epochs % 3) {
          active.push_back(s);
        }
        ++epochs;
        return true;
      });
  ASSERT_EQ(epochs, kEpochs);
  EXPECT_GT(runs.load(), 0);
  EXPECT_EQ(after - before, 0u) << "an epoch of the executor allocated";
}

// Sanity check that the hook itself works, so the zero deltas above can't
// be a silently dead counter.
TEST(AllocFreeDispatch, HookCountsOversizedClosures) {
  const std::size_t before = g_news;
  struct Big {
    char pad[sim::UniqueFunction::kInlineSize + 64] = {};
  };
  sim::UniqueFunction f([big = Big()] { (void)big; });
  f();
  EXPECT_GT(g_news - before, 0u) << "operator-new hook is not active";
}

}  // namespace
}  // namespace fastcc
