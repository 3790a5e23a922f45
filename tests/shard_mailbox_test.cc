// ShardMailboxes protocol: per-(src, dst) deposit order, publish ordering
// (nothing is visible to the reader before the barrier's publish()),
// ascending-src drain order, the delivery order the sharded runner relies on
// (records scheduled into a Simulator in drain order run in (arrival, src
// shard, deposit order)), and cell reuse across epochs — plus the phase
// discipline itself: the misuses below must not compile, and the executor
// must hand out its barrier step before any worker step.
#include "net/shard.h"

#include <algorithm>
#include <concepts>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/epoch.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace fastcc::net {
namespace {

// ---- Misuse that must not compile ----------------------------------------
// Each concept is a call the shard contracts forbid; a static_assert that
// it is unsatisfiable keeps the compiler holding the contract.

template <typename Phase>
concept CanPublish = requires(ShardMailboxes& mb, const Phase& phase) {
  mb.publish(phase);
};
template <typename Phase>
concept CanReadHorizons = requires(const ShardMailboxes& mb,
                                   const Phase& phase) {
  mb.earliest_ready(0, phase);
};
template <typename Phase>
concept CanDrainReady = requires(ShardMailboxes& mb, const Phase& phase,
                                 void (*deliver)(const CrossShardPacket&)) {
  mb.drain_ready(0, phase, deliver);
};
template <typename Payload>
concept CanDeposit = requires(ShardRouter& router, Payload&& payload) {
  router.deposit(std::forward<Payload>(payload), sim::Time{0}, NodeId{0}, 0);
};
template <typename Mailboxes>
concept CanPutDirectly = requires(Mailboxes& mb, const Packet& pkt) {
  mb.put(0, 1, pkt, sim::Time{0}, NodeId{1}, 0);
};

static_assert(CanPublish<sim::BarrierPhase> && !CanPublish<sim::WorkerPhase>,
              "publish() belongs to the barrier step");
static_assert(CanReadHorizons<sim::BarrierPhase> &&
                  !CanReadHorizons<sim::WorkerPhase>,
              "release horizons are read by the barrier-step planner only");
static_assert(CanDrainReady<sim::WorkerPhase> &&
                  !CanDrainReady<sim::BarrierPhase>,
              "drain_ready() belongs to the destination's worker");
static_assert(CanDeposit<Packet> && CanDeposit<const Packet&> &&
                  !CanDeposit<PacketRef>,
              "only serialized bytes cross a shard boundary, never a handle");
static_assert(!CanPutDirectly<ShardMailboxes>,
              "put() is reachable only through the source shard's router");
static_assert(!std::default_initializable<sim::WorkerPhase> &&
                  !std::default_initializable<sim::BarrierPhase>,
              "only the epoch executor mints phase tokens");
static_assert(!std::copy_constructible<sim::WorkerPhase> &&
                  !std::copy_constructible<sim::BarrierPhase>,
              "a phase token cannot be copied out of its phase");

// ---- Driving the mailboxes through real phases ---------------------------
// The phase-bound methods need the executor's tokens, so each helper runs
// one step of a single-shard EpochCoordinator: a lone barrier step, or one
// worker step after the seeding barrier step.

const std::vector<int> kOnlyShard{0};

void in_barrier(const std::function<void(const sim::BarrierPhase&)>& step) {
  sim::EpochCoordinator::run_active(
      1, 1, kOnlyShard, [](int, const sim::WorkerPhase&) {},
      [&](const sim::BarrierPhase& phase) {
        step(phase);
        return false;
      });
}

void in_worker(const std::function<void(const sim::WorkerPhase&)>& step) {
  bool seeded = false;
  sim::EpochCoordinator::run_active(
      1, 1, kOnlyShard,
      [&](int, const sim::WorkerPhase& phase) { step(phase); },
      [&](const sim::BarrierPhase&) { return !std::exchange(seeded, true); });
}

void publish(ShardMailboxes& mb) {
  in_barrier([&](const sim::BarrierPhase& phase) { mb.publish(phase); });
}

/// Drains everything published for `dst`, copying each record out in drain
/// order.
std::vector<CrossShardPacket> drain(ShardMailboxes& mb, int dst) {
  std::vector<CrossShardPacket> out;
  in_worker([&](const sim::WorkerPhase& phase) {
    mb.drain_ready(dst, phase,
                   [&](const CrossShardPacket& rec) { out.push_back(rec); });
  });
  return out;
}

sim::Time earliest_ready(const ShardMailboxes& mb, int dst) {
  sim::Time t = 0;
  in_barrier([&](const sim::BarrierPhase& phase) {
    t = mb.earliest_ready(dst, phase);
  });
  return t;
}

/// Deposits `rec` from shard `src` toward shard `dst` the only way the
/// runner can: through src's ShardRouter (here node n lives on shard n).
void put(ShardMailboxes& mb, int src, int dst, const CrossShardPacket& rec) {
  ShardMap map;
  map.count = mb.shards();
  for (int s = 0; s < map.count; ++s) map.shard.push_back(s);
  ShardRouter router(&mb, &map, src);
  router.deposit(rec.pkt, rec.arrival, static_cast<NodeId>(dst),
                 rec.dst_port);
}

/// A data packet of `flow` carrying `hops` INT records, each stamped with
/// the flow id so a stale record shows.
CrossShardPacket make_rec(FlowId flow, sim::Time arrival, int hops = 0) {
  CrossShardPacket rec;
  rec.pkt = make_data(flow, /*src=*/0, /*dst=*/1, /*seq=*/0,
                      /*payload=*/100, /*now=*/0);
  for (int h = 0; h < hops; ++h) {
    IntRecord hop;
    hop.tx_bytes = flow;
    hop.qlen_bytes = static_cast<std::uint32_t>(h);
    rec.pkt.push_int(hop);
  }
  rec.arrival = arrival;
  rec.dst_node = 1;
  rec.dst_port = 0;
  return rec;
}

std::vector<FlowId> flows_of(const std::vector<CrossShardPacket>& recs) {
  std::vector<FlowId> out;
  for (const CrossShardPacket& r : recs) out.push_back(r.pkt.flow);
  return out;
}

TEST(ShardMailboxes, NothingVisibleBeforePublish) {
  ShardMailboxes mb(3);
  EXPECT_TRUE(mb.all_empty());

  put(mb, 0, 1, make_rec(10, 100));
  EXPECT_FALSE(mb.all_empty());

  EXPECT_TRUE(drain(mb, 1).empty())
      << "pending transfers leaked past the barrier";

  publish(mb);
  const std::vector<CrossShardPacket> inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].pkt.flow, 10u);
  EXPECT_TRUE(mb.all_empty());
}

TEST(ShardMailboxes, SequenceNumbersArePerShardPair) {
  ShardMailboxes mb(3);
  // Interleave deposits to two destinations, the later source first; each
  // (src, dst) cell keeps its own deposit sequence, so neither stream
  // perturbs the other, and the drain visits sources in ascending order
  // whatever order they deposited in.
  put(mb, 2, 1, make_rec(4, 100));
  put(mb, 0, 1, make_rec(1, 100));
  put(mb, 0, 2, make_rec(2, 100));
  put(mb, 1, 2, make_rec(7, 100));
  put(mb, 0, 1, make_rec(3, 100));
  put(mb, 2, 1, make_rec(6, 100));
  put(mb, 0, 2, make_rec(5, 100));
  publish(mb);

  EXPECT_EQ(flows_of(drain(mb, 1)), (std::vector<FlowId>{1, 3, 4, 6}));
  EXPECT_EQ(flows_of(drain(mb, 2)), (std::vector<FlowId>{2, 5, 7}));
  EXPECT_TRUE(mb.all_empty());
}

TEST(ShardMailboxes, DrainOrderGivesCanonicalDeliveryOrder) {
  // The sharded runner schedules each drained record straight into the
  // destination's simulator, in drain order, with no sort.  The event queue
  // pops equal timestamps first in, first out, so deliveries must run in
  // (arrival, src shard, deposit order): equal arrivals from different
  // shards, out-of-order arrivals within one shard, and an event the queue
  // already held at a tied instant (flow 99) running first.
  ShardMailboxes mb(4);
  put(mb, 2, 0, make_rec(20, 500));
  put(mb, 2, 0, make_rec(21, 300));
  put(mb, 1, 0, make_rec(10, 500));
  put(mb, 3, 0, make_rec(30, 300));
  put(mb, 1, 0, make_rec(11, 300));
  put(mb, 2, 0, make_rec(22, 300));
  publish(mb);

  sim::Simulator sim;
  std::vector<FlowId> delivered;
  sim.at(300, [&delivered] { delivered.push_back(99); });
  in_worker([&](const sim::WorkerPhase& phase) {
    mb.drain_ready(0, phase, [&](const CrossShardPacket& rec) {
      const FlowId flow = rec.pkt.flow;
      sim.at(rec.arrival, [&delivered, flow] { delivered.push_back(flow); });
    });
  });
  sim.run();
  // Arrival 300: src 1, then src 2 in deposit order, then src 3; arrival
  // 500: src 1 before src 2.
  EXPECT_EQ(delivered, (std::vector<FlowId>{99, 11, 21, 22, 30, 10, 20}));

  // The same at volume: 600 deposits from three sources onto nine instants,
  // enough for the queue to resize while the drain schedules them.
  struct Deposit {
    sim::Time arrival;
    int src;
    FlowId flow;
  };
  std::vector<Deposit> deposits;
  sim::Rng rng(7);
  for (FlowId f = 0; f < 600; ++f) {
    const int src = static_cast<int>(rng.uniform_int(1, 3));
    const sim::Time arrival = 1000 + 10 * rng.uniform_int(0, 8);
    deposits.push_back({arrival, src, f});
    put(mb, src, 0, make_rec(f, arrival));
  }
  publish(mb);
  delivered.clear();
  in_worker([&](const sim::WorkerPhase& phase) {
    mb.drain_ready(0, phase, [&](const CrossShardPacket& rec) {
      const FlowId flow = rec.pkt.flow;
      sim.at(rec.arrival, [&delivered, flow] { delivered.push_back(flow); });
    });
  });
  sim.run();
  std::stable_sort(deposits.begin(), deposits.end(),
                   [](const Deposit& a, const Deposit& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.src < b.src;
                   });
  std::vector<FlowId> expected;
  for (const Deposit& d : deposits) expected.push_back(d.flow);
  EXPECT_EQ(delivered, expected);
}

TEST(ShardMailboxes, CellsAreReusedAcrossEpochs) {
  ShardMailboxes mb(2);

  // Epoch 1: a 3-hop packet.
  put(mb, 0, 1, make_rec(1, 100, /*hops=*/3));
  publish(mb);
  std::vector<CrossShardPacket> inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].pkt.int_count, 3);
  EXPECT_TRUE(mb.all_empty());

  // Epoch 2: the same (src, dst) cell carries fresh transfers in storage
  // epoch 1 used.  The drained ready cell must not replay epoch 1's record,
  // and the reused records must read as the new packets: same deposit
  // order, new header, only the new packet's INT records.
  put(mb, 0, 1, make_rec(2, 200, /*hops=*/1));
  put(mb, 0, 1, make_rec(3, 200));
  EXPECT_TRUE(drain(mb, 1).empty()) << "epoch 2 pending visible before publish";
  publish(mb);
  inbox = drain(mb, 1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{2, 3}));
  EXPECT_EQ(inbox[0].arrival, 200);
  EXPECT_EQ(inbox[0].pkt.int_count, 1);
  EXPECT_EQ(inbox[0].pkt.ints[0].tx_bytes, 2u);
  EXPECT_EQ(inbox[1].pkt.int_count, 0);

  // Epoch 3 swaps epoch 1's storage back in.
  put(mb, 0, 1, make_rec(4, 300));
  publish(mb);
  EXPECT_EQ(flows_of(drain(mb, 1)), (std::vector<FlowId>{4}));

  EXPECT_TRUE(mb.all_empty());
  EXPECT_EQ(mb.total_transfers(), 4u);
}

TEST(ShardMailboxes, TotalTransfersCountsAllPairs) {
  ShardMailboxes mb(3);
  put(mb, 0, 1, make_rec(1, 10));
  put(mb, 1, 2, make_rec(2, 10));
  put(mb, 2, 0, make_rec(3, 10));
  put(mb, 0, 2, make_rec(4, 10));
  EXPECT_EQ(mb.total_transfers(), 4u);
  publish(mb);
  EXPECT_EQ(mb.total_transfers(), 4u);  // publish moves, never re-counts
  for (int d = 0; d < 3; ++d) drain(mb, d);
  EXPECT_TRUE(mb.all_empty());
  EXPECT_EQ(mb.total_transfers(), 4u);
}

TEST(ShardLookahead, ClosureBoundsIndirectPairs) {
  // 0 -> 1 (2us), 1 -> 2 (3us), 2 -> 0 (10us); no direct 0 -> 2 link.
  // Without the seal() path closure, shard 2 would see no constraint from
  // shard 0 at all and run ahead of a two-hop influence; with it,
  // between(0, 2) is the shortest path sum and the matrix satisfies the
  // triangle inequality the conservative-horizon argument needs.
  ShardLookahead la(3);
  la.observe_link(0, 1, 2000);
  la.observe_link(1, 2, 3000);
  la.observe_link(2, 0, 10000);
  la.seal();
  EXPECT_EQ(la.between(0, 0), 0);
  EXPECT_EQ(la.between(0, 1), 2000);
  EXPECT_EQ(la.between(0, 2), 5000);   // 0 -> 1 -> 2
  EXPECT_EQ(la.between(1, 0), 13000);  // 1 -> 2 -> 0
  EXPECT_EQ(la.min_window(), 2000);
  EXPECT_EQ(la.max_window(), 13000);   // the 1 -> 0 back-path is longest
}

TEST(ShardLookahead, KeepsMinimumParallelLinkAndMarksUnreachable) {
  ShardLookahead la(3);
  la.observe_link(0, 1, 5000);
  la.observe_link(0, 1, 1000);  // parallel link: min wins
  la.observe_link(1, 0, 4000);
  la.seal();
  EXPECT_EQ(la.between(0, 1), 1000);
  EXPECT_EQ(la.between(1, 0), 4000);
  // Shard 2 has no links at all: unreachable both ways, and the window
  // fold must skip those pairs rather than poison min/max.
  EXPECT_EQ(la.between(0, 2), ShardLookahead::kUnreachable);
  EXPECT_EQ(la.between(2, 0), ShardLookahead::kUnreachable);
  EXPECT_EQ(la.min_window(), 1000);
  EXPECT_EQ(la.max_window(), 4000);  // the folded-away 5000 must not surface
}

TEST(ShardMailboxes, ReleaseHorizonTracksEarliestUndrainedArrival) {
  // The planner sizes epoch horizons from earliest_ready() instead of
  // peeking at records; the horizon must therefore be exactly the min
  // arrival over the published-but-undrained cells toward a destination,
  // from every source — and nothing pending may leak into it before the
  // barrier.
  ShardMailboxes mb(3);
  EXPECT_EQ(earliest_ready(mb, 1), sim::kMaxTime);
  put(mb, 0, 1, make_rec(1, 500));
  EXPECT_EQ(earliest_ready(mb, 1), sim::kMaxTime)
      << "pending deposits visible to the planner before publish";
  publish(mb);
  EXPECT_EQ(earliest_ready(mb, 1), 500);
  put(mb, 2, 1, make_rec(2, 300));
  EXPECT_EQ(earliest_ready(mb, 1), 500)
      << "a pending deposit from a second source leaked before publish";
  publish(mb);
  EXPECT_EQ(earliest_ready(mb, 1), 300)
      << "the second source's cell must fold in";
  EXPECT_EQ(earliest_ready(mb, 0), sim::kMaxTime);
  EXPECT_EQ(earliest_ready(mb, 2), sim::kMaxTime);
}

TEST(ShardMailboxes, ReleaseHorizonSurvivesSkippedEpochs) {
  // An idle destination skips epochs without draining: its records stay
  // published, the horizon carries over publish() no-ops, and later
  // transfers are appended behind the retained ones and min-fold into it.
  // Only the owning reader's drain_ready() resets the cell.
  ShardMailboxes mb(2);
  put(mb, 0, 1, make_rec(1, 700));
  publish(mb);
  EXPECT_EQ(earliest_ready(mb, 1), 700);
  publish(mb);  // skipped epoch: nothing pending, horizon intact
  EXPECT_EQ(earliest_ready(mb, 1), 700);
  put(mb, 0, 1, make_rec(2, 400));
  publish(mb);
  EXPECT_EQ(earliest_ready(mb, 1), 400);
  EXPECT_FALSE(mb.all_empty()) << "retained records must still count";

  EXPECT_EQ(flows_of(drain(mb, 1)), (std::vector<FlowId>{1, 2}));
  EXPECT_EQ(earliest_ready(mb, 1), sim::kMaxTime) << "drain must reset";
  EXPECT_TRUE(mb.all_empty());
  put(mb, 0, 1, make_rec(3, 900));
  publish(mb);
  EXPECT_EQ(earliest_ready(mb, 1), 900) << "horizon re-derives after reuse";
}

}  // namespace
}  // namespace fastcc::net

namespace fastcc::sim {
namespace {

// The executor's ordering contract.  Each shard's call log is written only
// by the worker running that shard and the barrier count only by the
// barrier step, so the logs need no lock (the barrier orders them), and the
// multi-worker case doubles as a TSan check.
struct EpochLog {
  explicit EpochLog(int shards) : calls(static_cast<std::size_t>(shards)) {}
  int barriers = 0;
  std::thread::id seeding_thread;
  std::vector<std::vector<int>> calls;  ///< Per shard: barriers seen.
};

TEST(EpochCoordinator, SeedingBarrierRunsBeforeAnyShard) {
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    EpochLog log(4);
    std::vector<int> active;  // Empty until the seeding step plans it.
    EpochCoordinator::run_active(
        4, workers, active,
        [&](int s, const WorkerPhase&) {
          log.calls[static_cast<std::size_t>(s)].push_back(log.barriers);
        },
        [&](const BarrierPhase&) {
          if (log.barriers++ == 0) {
            log.seeding_thread = std::this_thread::get_id();
            active = {0, 1, 2, 3};
            return true;
          }
          return false;
        });
    EXPECT_EQ(log.barriers, 2);
    EXPECT_EQ(log.seeding_thread, std::this_thread::get_id());
    for (const std::vector<int>& calls : log.calls) {
      EXPECT_EQ(calls, std::vector<int>{1}) << "one call, after the seed step";
    }
  }
}

TEST(EpochCoordinator, FalseSeedingBarrierRunsNoShard) {
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    EpochLog log(4);
    const std::vector<int> active{0, 1, 2, 3};
    EpochCoordinator::run_active(
        4, workers, active,
        [&](int s, const WorkerPhase&) {
          log.calls[static_cast<std::size_t>(s)].push_back(log.barriers);
        },
        [&](const BarrierPhase&) {
          ++log.barriers;
          return false;
        });
    EXPECT_EQ(log.barriers, 1);
    for (const std::vector<int>& calls : log.calls) {
      EXPECT_TRUE(calls.empty()) << "a shard ran after a false seeding step";
    }
  }
}

TEST(EpochCoordinator, EveryActiveShardRunsOncePerEpoch) {
  // Shard s's home is worker s % workers, and a worker out of home shards
  // steals from the other lanes.  Whatever the active set's spread over
  // homes — all on one home, so every other worker must steal all of its
  // work; fewer shards than workers; a random subset in random order —
  // each listed shard runs exactly once in its epoch and no other shard
  // runs.  runs[s] is written only by the worker running shard s and read
  // and reset only by the barrier step, the same discipline as EpochLog.
  constexpr int kShards = 16;
  constexpr int kEpochs = 200;
  for (const int workers : {2, 3, 4, 16}) {
    SCOPED_TRACE(workers);
    Rng rng(static_cast<std::uint64_t>(workers));
    std::vector<int> active;
    std::vector<int> runs(kShards, 0);
    std::vector<int> expected(kShards, 0);
    int epochs = 0;
    int bad_epochs = 0;
    EpochCoordinator::run_active(
        kShards, workers, active,
        [&](int s, const WorkerPhase&) { ++runs[static_cast<std::size_t>(s)]; },
        [&](const BarrierPhase&) {
          std::fill(expected.begin(), expected.end(), 0);
          for (const int s : active) expected[static_cast<std::size_t>(s)] = 1;
          if (runs != expected) ++bad_epochs;
          std::fill(runs.begin(), runs.end(), 0);
          if (epochs == kEpochs) return false;
          active.clear();
          switch (epochs++ % 3) {
            case 0: {  // Every shard of one home, e.g. {0, 4, 8, 12} at 4.
              const int home =
                  static_cast<int>(rng.uniform_int(0, workers - 1));
              for (int s = home; s < kShards; s += workers) active.push_back(s);
              break;
            }
            case 1: {  // Fewer shards than workers (one at 2 workers).
              const int n = static_cast<int>(
                  rng.uniform_int(1, std::max(1, workers - 1)));
              while (static_cast<int>(active.size()) < n) {
                const int s = static_cast<int>(rng.uniform_int(0, kShards - 1));
                if (std::count(active.begin(), active.end(), s) == 0) {
                  active.push_back(s);
                }
              }
              break;
            }
            default:  // A random subset of any size.
              for (int s = 0; s < kShards; ++s) {
                if (rng.chance(0.5)) active.push_back(s);
              }
              break;
          }
          std::shuffle(active.begin(), active.end(), rng.engine());
          return true;
        });
    EXPECT_EQ(epochs, kEpochs);
    EXPECT_EQ(bad_epochs, 0)
        << "an epoch ran a listed shard other than once, or an unlisted one";
  }
}

}  // namespace
}  // namespace fastcc::sim
