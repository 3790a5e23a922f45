// Space-parallel sharding: mailboxes and routing for sharded execution.
//
// A sharded run partitions one fat-tree simulation into P logical shards
// (one per pod or one per rack; see topo::shard_map_for), each with its own
// Simulator, PacketPool, and Rng.  Everything inside a shard runs exactly
// as in the serial simulator; only packets crossing a shard boundary leave
// their shard, and they do so through the types in this header:
//
//   Port/Node (egress)  --deposit-->  ShardRouter  --put-->  ShardMailboxes
//                                                               |
//   destination shard  <--take_ready--  publish() at the epoch barrier
//
// Determinism contract: within an epoch each (src, dst) mailbox cell is
// written by exactly one worker (the one running src's shard) in that
// shard's deterministic event order, and stamped with a per-(src, dst)
// transfer sequence number.  The destination drains cells in ascending
// src-shard order and delivers in (arrival time, src shard, seq) order, so
// results are byte-identical for any worker count — the logical partition
// is fixed by the topology, not by the thread schedule.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/epoch.h"
#include "sim/time.h"

namespace fastcc::net {

/// Node -> shard assignment for a sharded run.  Built once from the
/// topology (see topo::shard_map_for) and read-only afterwards — the run
/// holds it only as `const ShardMap*` — so every worker may consult it
/// concurrently.
struct ShardMap {
  std::vector<std::int32_t> shard;  ///< By NodeId.
  int count = 1;                    ///< Number of shards.

  int of(NodeId id) const {
    assert(id < shard.size());
    return shard[id];
  }
};

/// Ordered-pair lookahead matrix for conservative synchronization.
///
/// between(s, d) is the minimum latency any influence originating in shard
/// s needs to reach shard d — seeded with the minimum propagation delay
/// over the *direct* boundary links s -> d (observe_link) and closed under
/// path composition by seal() (Floyd-Warshall over the shard graph), so it
/// is a sound bound even for shards connected only through intermediaries.
/// kUnreachable marks pairs no chain of links connects.
///
/// The closure matters for safety, not just precision: the epoch planner
/// advances shard d's horizon to min over s of (earliest-work(s) +
/// between(s, d)).  Without the closure a shard with no *direct* inbound
/// link would see no constraint at all and run arbitrarily far ahead of a
/// two-hop influence.  With it, between() satisfies the triangle
/// inequality by construction, which is exactly the induction the
/// conservative-PDES argument needs (DESIGN.md §9.5).
///
/// Built once from the shard map during (serial) setup; the run sees it
/// only as `const ShardLookahead&`.
class ShardLookahead {
 public:
  static constexpr sim::Time kUnreachable = sim::kMaxTime;

  explicit ShardLookahead(int shards)
      : shards_(shards),
        delay_(static_cast<std::size_t>(shards) * shards, kUnreachable) {
    assert(shards >= 1);
    for (int s = 0; s < shards; ++s) delay_[index(s, s)] = 0;
  }

  /// Min-folds one boundary link's propagation delay into the (src, dst)
  /// entry.  Call once per boundary egress port during setup.
  void observe_link(int src, int dst, sim::Time delay) {
    assert(delay > 0 && "conservative sync needs nonzero boundary latency");
    sim::Time& cell = delay_[index(src, dst)];
    cell = std::min(cell, delay);
  }

  /// Closes the matrix under path composition (all-pairs shortest paths).
  /// Must run after the last observe_link and before the first between().
  void seal() {
    for (int via = 0; via < shards_; ++via) {
      for (int s = 0; s < shards_; ++s) {
        const sim::Time first = delay_[index(s, via)];
        if (first == kUnreachable) continue;
        for (int d = 0; d < shards_; ++d) {
          const sim::Time second = delay_[index(via, d)];
          if (second == kUnreachable) continue;
          sim::Time& cell = delay_[index(s, d)];
          cell = std::min(cell, first + second);
        }
      }
    }
    sealed_ = true;
  }

  /// Minimum latency from shard src to shard dst (0 on the diagonal,
  /// kUnreachable when no path of links connects the pair).
  sim::Time between(int src, int dst) const {
    assert(sealed_ && "seal() the matrix before querying it");
    return delay_[index(src, dst)];
  }

  /// Smallest / largest finite off-diagonal entry (observability; both 0
  /// when the matrix has a single shard and therefore no pairs).
  sim::Time min_window() const { return fold_windows().first; }
  sim::Time max_window() const { return fold_windows().second; }

  int shards() const { return shards_; }

 private:
  std::size_t index(int src, int dst) const {
    assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    return static_cast<std::size_t>(src) * shards_ + dst;
  }

  std::pair<sim::Time, sim::Time> fold_windows() const {
    assert(sealed_);
    sim::Time lo = 0;
    sim::Time hi = 0;
    bool any = false;
    for (int s = 0; s < shards_; ++s) {
      for (int d = 0; d < shards_; ++d) {
        if (s == d || delay_[index(s, d)] == kUnreachable) continue;
        const sim::Time w = delay_[index(s, d)];
        lo = any ? std::min(lo, w) : w;
        hi = any ? std::max(hi, w) : w;
        any = true;
      }
    }
    return {lo, hi};
  }

  int shards_;
  bool sealed_ = false;
  std::vector<sim::Time> delay_;  ///< Row-major.
};

/// A packet serialized out of its source shard's pool, in flight between
/// shards.  Carries everything the destination needs to re-materialize and
/// deliver it: the bytes, the arrival instant (already includes the
/// boundary link's serialization + propagation time), and the ingress
/// (node, port) on the destination side.
struct CrossShardPacket {
  Packet pkt;
  sim::Time arrival = 0;
  NodeId dst_node = kInvalidNode;
  int dst_port = -1;
  int src_shard = -1;
  std::uint64_t seq = 0;  ///< Per-(src, dst) shard-pair transfer counter.
};

// What crosses a shard boundary is plain bytes: a PacketRef names a slot in
// the source shard's pool and means nothing in the destination's.
static_assert(std::is_trivially_copyable_v<Packet>,
              "cross-shard packets travel as bytes, never as handles");

/// Abstract destination for packets leaving a shard.  Port::start_tx and
/// Node::send_pfc call deposit() instead of scheduling a local delivery
/// when the egress port is marked as a shard boundary.  The packet must
/// already be out of the source pool (export_release): deposit() takes the
/// bytes by value, and a PacketRef does not convert to a Packet.
class CrossShardSink {
 public:
  virtual ~CrossShardSink() = default;

  /// Accepts one boundary-crossing packet.  `arrival` is the absolute
  /// simulated time the packet reaches `dst_node` on its `dst_port`.
  virtual void deposit(Packet&& pkt, sim::Time arrival, NodeId dst_node,
                       int dst_port) = 0;
};

/// P x P matrix of single-writer mailboxes with epoch-barrier publication.
///
/// Threading protocol (the whole reason this class is safe without locks):
///   * During an epoch, row s of `pending_` is written only by shard s's
///     ShardRouter, i.e. by the worker running shard s.  No one reads it.
///   * publish() runs single-threaded inside the barrier step; it moves
///     every pending cell into `ready_`.
///   * During the next epoch, column d of `ready_` is read and drained only
///     by the worker running shard d.  No one writes it.
/// The epoch barrier's acquire/release ordering makes each hand-off visible.
/// The compiler holds the protocol: put() is private to ShardRouter (the
/// single writer of its shard's row), and each phase-bound method demands
/// the matching token from sim::EpochCoordinator.
class ShardMailboxes {
 public:
  explicit ShardMailboxes(int shards)
      : shards_(shards),
        pending_(static_cast<std::size_t>(shards) * shards),
        ready_(static_cast<std::size_t>(shards) * shards),
        ready_release_(static_cast<std::size_t>(shards) * shards,
                       sim::kMaxTime),
        seq_(static_cast<std::size_t>(shards) * shards, 0) {
    assert(shards >= 1);
  }

  /// Moves every pending cell into the ready side and folds each record's
  /// arrival into the cell's release horizon.
  void publish(const sim::BarrierPhase&) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].empty()) continue;
      auto& r = ready_[i];
      for (auto& rec : pending_[i]) {
        ready_release_[i] = std::min(ready_release_[i], rec.arrival);
        r.push_back(std::move(rec));
      }
      pending_[i].clear();
    }
  }

  /// Drains everything published for shard `dst` into `out` (appended in
  /// ascending src-shard order; each cell is already seq-ordered).  Caller
  /// must be the worker running shard `dst`: column d of the ready side is
  /// that worker's alone between two barriers.
  void take_ready(int dst, std::vector<CrossShardPacket>& out,
                  const sim::WorkerPhase&) {
    for (int src = 0; src < shards_; ++src) {
      auto& c = cell(ready_, src, dst);
      for (auto& rec : c) out.push_back(std::move(rec));
      c.clear();
      // The drained cell holds nothing, so its release horizon resets; the
      // next publish() re-derives it from whatever lands later.
      ready_release_[index(src, dst)] = sim::kMaxTime;
    }
  }

  /// Release horizon of the (src, dst) ready cell: the earliest arrival
  /// among its published-but-undrained transfers, sim::kMaxTime when the
  /// cell is empty.  This is what lets an idle destination *skip* an epoch
  /// without draining: retained records stay exactly as published, and the
  /// planner consults the horizon instead of the records.
  sim::Time ready_release(int src, int dst, const sim::BarrierPhase&) const {
    return ready_release_[index(src, dst)];
  }

  /// Earliest published-but-undrained arrival destined for `dst` over every
  /// source (the destination's inbound release horizon); sim::kMaxTime when
  /// nothing is in flight toward it.  The epoch planner reads it to size
  /// horizons and pick the active set.
  sim::Time earliest_ready(int dst, const sim::BarrierPhase&) const {
    sim::Time earliest = sim::kMaxTime;
    for (int src = 0; src < shards_; ++src) {
      earliest = std::min(earliest, ready_release_[index(src, dst)]);
    }
    return earliest;
  }

  /// True when no transfer is pending or published anywhere.  An observer
  /// for tests and post-run checks: it reads every cell, so call it only
  /// while no epoch loop is running.
  bool all_empty() const {
    for (const auto& c : pending_)
      if (!c.empty()) return false;
    for (const auto& c : ready_)
      if (!c.empty()) return false;
    return true;
  }

  /// Total transfers ever deposited, over all shard pairs (stats; like
  /// all_empty(), read it only while no epoch loop is running).
  std::uint64_t total_transfers() const {
    std::uint64_t n = 0;
    for (const std::uint64_t s : seq_) n += s;
    return n;
  }

  int shards() const { return shards_; }

 private:
  friend class ShardRouter;
  using Cell = std::vector<CrossShardPacket>;

  /// Appends a transfer to the (src, dst) pending cell and stamps its
  /// sequence number.  Only ShardRouter calls it, and router `src` is the
  /// one sink of shard src's boundary ports.
  void put(int src, int dst, CrossShardPacket&& rec) {
    auto& c = cell(pending_, src, dst);
    rec.src_shard = src;
    rec.seq = seq_[index(src, dst)]++;
    c.push_back(std::move(rec));
  }

  std::size_t index(int src, int dst) const {
    assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    return static_cast<std::size_t>(src) * shards_ + dst;
  }
  Cell& cell(std::vector<Cell>& side, int src, int dst) {
    return side[index(src, dst)];
  }

  int shards_;
  std::vector<Cell> pending_;  ///< Writer-side cells.
  std::vector<Cell> ready_;    ///< Published cells.
  /// Per-cell earliest arrival on the ready side (kMaxTime = empty cell).
  /// Folded by publish(), reset by the owning reader's take_ready().
  std::vector<sim::Time> ready_release_;
  std::vector<std::uint64_t> seq_;
};

/// The per-source-shard CrossShardSink: looks up the destination's shard in
/// the ShardMap and appends to the matching mailbox cell.  One router per
/// shard; every boundary egress port of that shard points at it, so all
/// writes funnel through the single thread that owns the shard.
class ShardRouter final : public CrossShardSink {
 public:
  ShardRouter(ShardMailboxes* mailboxes, const ShardMap* map, int src_shard)
      : mailboxes_(mailboxes), map_(map), src_shard_(src_shard) {}

  void deposit(Packet&& pkt, sim::Time arrival, NodeId dst_node,
               int dst_port) override {
    const int dst_shard = map_->of(dst_node);
    assert(dst_shard != src_shard_ &&
           "cross-shard sink invoked for an intra-shard link");
    CrossShardPacket rec;
    rec.pkt = std::move(pkt);
    rec.arrival = arrival;
    rec.dst_node = dst_node;
    rec.dst_port = dst_port;
    mailboxes_->put(src_shard_, dst_shard, std::move(rec));
  }

 private:
  ShardMailboxes* mailboxes_;
  const ShardMap* map_;
  int src_shard_;
};

}  // namespace fastcc::net
