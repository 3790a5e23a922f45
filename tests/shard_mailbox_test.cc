// ShardMailboxes protocol: per-(src, dst) sequence stamping, publish
// ordering (nothing is visible to the reader before the barrier's
// publish()), ascending-src drain order, the canonical
// (arrival, src shard, seq) injection order the sharded runner sorts into,
// and cell reuse across epochs — plus the phase discipline itself: the
// misuses below must not compile, and the executor must hand out its
// barrier step before any worker step.
#include "net/shard.h"

#include <algorithm>
#include <concepts>
#include <functional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/epoch.h"

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
  mb.ready_release(0, 1, phase);
};
template <typename Phase>
concept CanTakeReady = requires(ShardMailboxes& mb,
                                std::vector<CrossShardPacket>& out,
                                const Phase& phase) {
  mb.take_ready(0, out, phase);
};
template <typename Payload>
concept CanDeposit = requires(CrossShardSink& sink, Payload&& payload) {
  sink.deposit(std::forward<Payload>(payload), sim::Time{0}, NodeId{0}, 0);
};
template <typename Mailboxes>
concept CanPutDirectly = requires(Mailboxes& mb, CrossShardPacket&& rec) {
  mb.put(0, 1, std::move(rec));
};

static_assert(CanPublish<sim::BarrierPhase> && !CanPublish<sim::WorkerPhase>,
              "publish() belongs to the barrier step");
static_assert(CanReadHorizons<sim::BarrierPhase> &&
                  !CanReadHorizons<sim::WorkerPhase>,
              "release horizons are read by the barrier-step planner only");
static_assert(CanTakeReady<sim::WorkerPhase> &&
                  !CanTakeReady<sim::BarrierPhase>,
              "take_ready() belongs to the destination's worker");
static_assert(CanDeposit<Packet> && !CanDeposit<PacketRef>,
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

void take_ready(ShardMailboxes& mb, int dst,
                std::vector<CrossShardPacket>& out) {
  in_worker([&](const sim::WorkerPhase& phase) {
    mb.take_ready(dst, out, phase);
  });
}

sim::Time earliest_ready(const ShardMailboxes& mb, int dst) {
  sim::Time t = 0;
  in_barrier([&](const sim::BarrierPhase& phase) {
    t = mb.earliest_ready(dst, phase);
  });
  return t;
}

sim::Time ready_release(const ShardMailboxes& mb, int src, int dst) {
  sim::Time t = 0;
  in_barrier([&](const sim::BarrierPhase& phase) {
    t = mb.ready_release(src, dst, phase);
  });
  return t;
}

/// Deposits `rec` from shard `src` toward shard `dst` the only way the
/// runner can: through src's ShardRouter (here node n lives on shard n).
void put(ShardMailboxes& mb, int src, int dst, CrossShardPacket rec) {
  ShardMap map;
  map.count = mb.shards();
  for (int s = 0; s < map.count; ++s) map.shard.push_back(s);
  ShardRouter router(&mb, &map, src);
  router.deposit(std::move(rec.pkt), rec.arrival, static_cast<NodeId>(dst),
                 rec.dst_port);
}

CrossShardPacket make_rec(FlowId flow, sim::Time arrival) {
  CrossShardPacket rec;
  rec.pkt = make_data(flow, /*src=*/0, /*dst=*/1, /*seq=*/0,
                      /*payload=*/100, /*now=*/0);
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

  std::vector<CrossShardPacket> inbox;
  take_ready(mb, 1, inbox);
  EXPECT_TRUE(inbox.empty()) << "pending transfers leaked past the barrier";

  publish(mb);
  take_ready(mb, 1, inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].pkt.flow, 10u);
  EXPECT_TRUE(mb.all_empty());
}

TEST(ShardMailboxes, SequenceNumbersArePerShardPair) {
  ShardMailboxes mb(3);
  // Interleave deposits to two destinations; each (src, dst) pair keeps its
  // own counter, so neither stream perturbs the other's stamps.
  put(mb, 0, 1, make_rec(1, 100));
  put(mb, 0, 2, make_rec(2, 100));
  put(mb, 0, 1, make_rec(3, 100));
  put(mb, 2, 1, make_rec(4, 100));
  put(mb, 0, 2, make_rec(5, 100));
  publish(mb);

  std::vector<CrossShardPacket> to1;
  take_ready(mb, 1, to1);
  ASSERT_EQ(to1.size(), 3u);
  // Ascending src-shard order: src 0's cell first, then src 2's.
  EXPECT_EQ(flows_of(to1), (std::vector<FlowId>{1, 3, 4}));
  EXPECT_EQ(to1[0].seq, 0u);
  EXPECT_EQ(to1[1].seq, 1u);
  EXPECT_EQ(to1[2].seq, 0u);  // (2, 1) counts independently of (0, 1)
  EXPECT_EQ(to1[0].src_shard, 0);
  EXPECT_EQ(to1[2].src_shard, 2);

  std::vector<CrossShardPacket> to2;
  take_ready(mb, 2, to2);
  ASSERT_EQ(to2.size(), 2u);
  EXPECT_EQ(flows_of(to2), (std::vector<FlowId>{2, 5}));
  EXPECT_EQ(to2[0].seq, 0u);
  EXPECT_EQ(to2[1].seq, 1u);
}

TEST(ShardMailboxes, CanonicalInjectionOrderIsDeterministic) {
  // Adversarial multi-source deposit pattern: equal arrivals from different
  // shards, out-of-order arrivals within a shard, and ties broken only by
  // (arrival, src shard, seq) — the exact sort the sharded runner applies
  // before re-materializing (experiments/sharded.cc inject_inbox).
  ShardMailboxes mb(4);
  put(mb, 2, 0, make_rec(20, 500));
  put(mb, 2, 0, make_rec(21, 300));
  put(mb, 1, 0, make_rec(10, 500));
  put(mb, 3, 0, make_rec(30, 300));
  put(mb, 1, 0, make_rec(11, 300));
  publish(mb);

  std::vector<CrossShardPacket> inbox;
  take_ready(mb, 0, inbox);
  ASSERT_EQ(inbox.size(), 5u);
  std::sort(inbox.begin(), inbox.end(),
            [](const CrossShardPacket& a, const CrossShardPacket& b) {
              return std::make_tuple(a.arrival, a.src_shard, a.seq) <
                     std::make_tuple(b.arrival, b.src_shard, b.seq);
            });
  // arrival 300: src 1 before src 2 before src 3; arrival 500: src 1
  // before src 2.  Flow ids encode the deposit, so the order is total.
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{11, 21, 30, 10, 20}));
}

TEST(ShardMailboxes, CellsAreReusedAcrossEpochs) {
  ShardMailboxes mb(2);

  // Epoch 1.
  put(mb, 0, 1, make_rec(1, 100));
  publish(mb);
  std::vector<CrossShardPacket> inbox;
  take_ready(mb, 1, inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].seq, 0u);
  EXPECT_TRUE(mb.all_empty());

  // Epoch 2: the same (src, dst) cell carries fresh transfers; the drained
  // ready cell must not replay epoch 1's records, and the pair's sequence
  // counter keeps counting (it is a lifetime transfer count, which is what
  // makes (arrival, src, seq) a total order across epochs).
  put(mb, 0, 1, make_rec(2, 200));
  put(mb, 0, 1, make_rec(3, 200));
  inbox.clear();
  take_ready(mb, 1, inbox);
  EXPECT_TRUE(inbox.empty()) << "epoch 2 pending visible before publish";
  publish(mb);
  take_ready(mb, 1, inbox);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{2, 3}));
  EXPECT_EQ(inbox[0].seq, 1u);
  EXPECT_EQ(inbox[1].seq, 2u);

  EXPECT_TRUE(mb.all_empty());
  EXPECT_EQ(mb.total_transfers(), 3u);
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
  std::vector<CrossShardPacket> inbox;
  for (int d = 0; d < 3; ++d) {
    inbox.clear();
    take_ready(mb, d, inbox);
  }
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
  // The planner sizes epoch horizons from ready_release()/earliest_ready()
  // instead of peeking at records; the horizon must therefore be exactly
  // the min arrival over the published-but-undrained cells — and nothing
  // pending may leak into it before the barrier.
  ShardMailboxes mb(3);
  EXPECT_EQ(earliest_ready(mb, 1), sim::kMaxTime);
  put(mb, 0, 1, make_rec(1, 500));
  put(mb, 2, 1, make_rec(2, 300));
  EXPECT_EQ(earliest_ready(mb, 1), sim::kMaxTime)
      << "pending deposits visible to the planner before publish";
  publish(mb);
  EXPECT_EQ(ready_release(mb, 0, 1), 500);
  EXPECT_EQ(ready_release(mb, 2, 1), 300);
  EXPECT_EQ(ready_release(mb, 1, 1), sim::kMaxTime);  // empty cell
  EXPECT_EQ(earliest_ready(mb, 1), 300);
  EXPECT_EQ(earliest_ready(mb, 0), sim::kMaxTime);
}

TEST(ShardMailboxes, ReleaseHorizonSurvivesSkippedEpochs) {
  // An idle destination skips epochs without draining: its records stay
  // published, the horizon carries over publish() no-ops, and later
  // transfers min-fold into it.  Only the owning reader's take_ready()
  // resets the cell.
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

  std::vector<CrossShardPacket> inbox;
  take_ready(mb, 1, inbox);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(flows_of(inbox), (std::vector<FlowId>{1, 2}));
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

}  // namespace
}  // namespace fastcc::sim
