// Space-parallel sharding: mailboxes and routing for sharded execution.
//
// A sharded run partitions one fat-tree simulation into P logical shards
// (one per pod or one per rack; see topo::shard_map_for), each with its own
// Simulator, PacketPool, and Rng.  Everything inside a shard runs exactly
// as in the serial simulator; only packets crossing a shard boundary leave
// their shard, and they do so through the types in this header:
//
//   Port/Node (egress) --deposit--> ShardRouter --put--> pending (src, dst)
//                                                               |
//                                      publish() at the epoch barrier
//                                                               v
//   destination shard  <--------drain_ready--------  ready (src, dst)
//
// Determinism contract: within an epoch each (src, dst) pending cell is
// written by exactly one worker (the one running src's shard) in that
// shard's deterministic event order.  The destination drains its ready
// cells in ascending src-shard order, deposit order within each, and
// schedules every delivery in that drain order; the event queue pops equal
// timestamps first in, first out, so deliveries run in (arrival time, src
// shard, deposit order).  That order is a function of the logical execution
// alone, so results are byte-identical for any worker count — the logical
// partition is fixed by the topology, not by the thread schedule.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
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

/// A boundary packet in flight between shards: the bytes the destination
/// re-materializes, the arrival instant (it already includes the boundary
/// link's serialization and propagation time), and the ingress (node, port)
/// on the destination side.  Mailbox cells keep their records across epochs
/// and overwrite them in place (copy_packet), so the INT records past
/// pkt.int_count are stale bytes no one reads.
struct CrossShardPacket {
  Packet pkt;
  sim::Time arrival = 0;
  NodeId dst_node = kInvalidNode;
  int dst_port = -1;
};

/// P x P matrix of single-writer mailboxes with epoch-barrier publication.
///
/// Threading protocol (the whole reason this class is safe without locks):
///   * During an epoch, row s of `pending_` is written only by shard s's
///     ShardRouter, i.e. by the worker running shard s.  No one reads it.
///   * publish() runs single-threaded inside the barrier step; it hands
///     every pending cell to the ready side.
///   * During the next epoch, column d of `ready_` is read and drained only
///     by the worker running shard d.  No one writes it.
/// The epoch barrier's acquire/release ordering makes each hand-off visible.
/// The compiler holds the protocol: put() is private to ShardRouter (the
/// single writer of its shard's row), and each phase-bound method demands
/// the matching token from sim::EpochCoordinator.
///
/// A boundary packet is copied twice: by deposit() from the source pool
/// into a pending record, and by the destination's import_packet() from
/// that record into its own pool.  Publishing moves no record.
class ShardMailboxes {
 public:
  explicit ShardMailboxes(int shards)
      : shards_(shards),
        pending_(static_cast<std::size_t>(shards) * shards),
        ready_(static_cast<std::size_t>(shards) * shards),
        transfers_(static_cast<std::size_t>(shards) * shards, 0) {
    assert(shards >= 1);
  }

  /// Hands every pending cell to the ready side, folding its earliest
  /// arrival into the ready cell's release horizon.  A ready cell its
  /// destination drained swaps storage with the pending cell; only one
  /// whose destination skipped its epoch, and so still holds records, has
  /// the new records appended behind them.
  void publish(const sim::BarrierPhase&) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      Cell& pending = pending_[i];
      if (pending.size == 0) continue;
      Cell& ready = ready_[i];
      if (ready.size == 0) {
        std::swap(pending, ready);
        continue;
      }
      for (std::size_t k = 0; k < pending.size; ++k) {
        const CrossShardPacket& rec = pending.recs[k];
        ready.push(rec.pkt, rec.arrival, rec.dst_node, rec.dst_port);
      }
      pending.clear();
    }
  }

  /// Hands everything published for shard `dst` to `deliver`, in place and
  /// in drain order — ascending src shard, deposit order within each — then
  /// empties the drained cells and resets their release horizons.  Caller
  /// must be the worker running shard `dst`: column d of the ready side is
  /// that worker's alone between two barriers.  A record is overwritten
  /// once its cell is reused, so `deliver` copies what it keeps.
  template <typename Deliver>
  void drain_ready(int dst, const sim::WorkerPhase&, Deliver&& deliver) {
    for (int src = 0; src < shards_; ++src) {
      Cell& c = ready_[index(src, dst)];
      for (std::size_t k = 0; k < c.size; ++k) {
        deliver(std::as_const(c.recs[k]));
      }
      c.clear();
    }
  }

  /// Earliest published-but-undrained arrival destined for `dst` over every
  /// source (the destination's inbound release horizon); sim::kMaxTime when
  /// nothing is in flight toward it.  The epoch planner reads it to size
  /// horizons and pick the active set.  Each ready cell keeps the min
  /// arrival over its records (`Cell::earliest`), so an idle destination
  /// can skip an epoch without draining: its retained records stay exactly
  /// as published, and the planner reads this horizon instead of them.
  sim::Time earliest_ready(int dst, const sim::BarrierPhase&) const {
    sim::Time earliest = sim::kMaxTime;
    for (int src = 0; src < shards_; ++src) {
      earliest = std::min(earliest, ready_[index(src, dst)].earliest);
    }
    return earliest;
  }

  /// True when no transfer is pending or published anywhere.  An observer
  /// for tests and post-run checks: it reads every cell, so call it only
  /// while no epoch loop is running.
  bool all_empty() const {
    for (const Cell& c : pending_)
      if (c.size != 0) return false;
    for (const Cell& c : ready_)
      if (c.size != 0) return false;
    return true;
  }

  /// Total transfers ever deposited, over all shard pairs (stats; like
  /// all_empty(), read it only while no epoch loop is running).
  std::uint64_t total_transfers() const {
    std::uint64_t n = 0;
    for (const std::uint64_t t : transfers_) n += t;
    return n;
  }

  int shards() const { return shards_; }

 private:
  friend class ShardRouter;

  /// One (src, dst) mailbox.  Records [0, size) are live; the rest is
  /// storage kept for reuse, so a steady-state deposit allocates nothing
  /// and copies only what copy_packet copies.  A cache line of its own:
  /// the cell beside it may be written by another worker in the same epoch
  /// (the next row's first pending cell, the next column's ready cell).
  struct alignas(64) Cell {
    std::vector<CrossShardPacket> recs;
    std::size_t size = 0;
    sim::Time earliest = sim::kMaxTime;  ///< Min arrival over [0, size).

    void push(const Packet& pkt, sim::Time arrival, NodeId dst_node,
              int dst_port) {
      if (size == recs.size()) recs.emplace_back();
      CrossShardPacket& rec = recs[size++];
      copy_packet(rec.pkt, pkt);
      rec.arrival = arrival;
      rec.dst_node = dst_node;
      rec.dst_port = dst_port;
      earliest = std::min(earliest, arrival);
    }
    void clear() {
      size = 0;
      earliest = sim::kMaxTime;
    }
  };

  /// Copies a transfer into the (src, dst) pending cell.  Only ShardRouter
  /// calls it, and router `src` is the one writer of shard src's row.
  void put(int src, int dst, const Packet& pkt, sim::Time arrival,
           NodeId dst_node, int dst_port) {
    const std::size_t i = index(src, dst);
    pending_[i].push(pkt, arrival, dst_node, dst_port);
    ++transfers_[i];
  }

  std::size_t index(int src, int dst) const {
    assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
    return static_cast<std::size_t>(src) * shards_ + dst;
  }

  int shards_;
  std::vector<Cell> pending_;  ///< Writer-side cells.
  std::vector<Cell> ready_;    ///< Published cells.
  std::vector<std::uint64_t> transfers_;  ///< Per (src, dst) pair, lifetime.
};

/// The per-source-shard entry into the mailboxes: looks up the destination's
/// shard in the ShardMap and copies the packet into the matching pending
/// cell.  One router per shard; every boundary egress port of that shard
/// points at it, so all writes funnel through the single thread that owns
/// the shard.
class ShardRouter {
 public:
  ShardRouter(ShardMailboxes* mailboxes, const ShardMap* map, int src_shard)
      : mailboxes_(mailboxes), map_(map), src_shard_(src_shard) {}

  /// Accepts one boundary-crossing packet by copying its bytes out of the
  /// caller's pool slot; the caller then releases the handle.  `arrival` is
  /// the absolute simulated time the packet reaches `dst_node` on its
  /// `dst_port`.  Bytes, never a handle: a PacketRef does not convert to a
  /// Packet.
  void deposit(const Packet& pkt, sim::Time arrival, NodeId dst_node,
               int dst_port) {
    const int dst_shard = map_->of(dst_node);
    assert(dst_shard != src_shard_ &&
           "shard router invoked for an intra-shard link");
    mailboxes_->put(src_shard_, dst_shard, pkt, arrival, dst_node, dst_port);
  }

 private:
  ShardMailboxes* mailboxes_;
  const ShardMap* map_;
  int src_shard_;
};

}  // namespace fastcc::net
