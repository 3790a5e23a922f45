// Space-parallel datacenter runs: one simulation, sharded by pod or by rack.
//
// run_datacenter_sharded() executes the same experiment as run_datacenter(),
// but partitions the fat-tree into logical shards — one per pod, or one per
// ToR+its hosts when DatacenterConfig::shard_granularity is kTor (spines and
// pod-internal aggs dealt round-robin either way) — gives every shard a
// private Simulator, PacketPool, and Rng, and advances the shards in
// conservative barrier epochs (see sim/epoch.h) on `workers` OS threads.
// A packet crossing a shard boundary is copied out of the source shard's
// pool into its shard pair's mailbox cell, handed over at the epoch barrier,
// and copied into the destination shard's pool, which schedules it in the
// cells' drain order (see net/shard.h).  Both entry points build the
// experiment through the same DatacenterSetup.
//
// Epochs are adaptive, not fixed-length: a path-closed per-ordered-pair
// lookahead matrix (net::ShardLookahead) plus each shard's earliest pending
// work sizes a per-shard horizon every barrier, shards with nothing inside
// their horizon are skipped without touching their simulator, and idle
// stretches are crossed in one horizon jump (DESIGN.md §9.5).
//
// Determinism: the shard partition and every horizon/active-set decision are
// functions of the topology and simulation state alone, so the result is
// byte-identical for every worker count — 1, 2, 8, and 16 workers produce
// the same flow records, drops, and event counts.  (It is *not*
// flow-for-flow identical to run_datacenter(), and the two granularities
// are not flow-for-flow identical to each other: per-shard Rng streams
// replace the single network stream, so RED marking draws differ.  Each
// configuration is deterministic in its own right.)
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/datacenter.h"

namespace fastcc::exp {

/// Observability for sharded runs: epoch/transfer counts for sanity checks,
/// and the end-of-run pool and PFC figures the drain audits assert on.
struct ShardedRunStats {
  int shards = 1;
  int workers = 1;              ///< After clamping to [1, shards].
  /// Smallest / largest finite entry of the per-pair lookahead matrix
  /// (path-closed, off-diagonal).  lookahead_min is the minimum
  /// boundary-link delay, the quantum a fixed-step executor would use.
  /// Equal on homogeneous-latency topologies; a spread is the slack the
  /// adaptive horizons exploit.
  sim::Time lookahead_min = 0;
  sim::Time lookahead_max = 0;
  std::uint64_t epochs = 0;
  /// Shard-epochs skipped by the active-set protocol: the shard's next
  /// local event and inbound release horizons both sat beyond its epoch
  /// horizon, so it was never claimed (its simulator was not touched).
  std::uint64_t epochs_skipped = 0;
  /// Barrier steps whose horizon front advanced by more than the fixed
  /// quantum (`lookahead_min`) in one jump — idle stretches fast-forwarded
  /// instead of being walked one lookahead at a time.
  std::uint64_t horizon_jumps = 0;
  std::uint64_t cross_shard_transfers = 0;
  bool drained = false;  ///< All queues and mailboxes empty at the end.
  std::vector<std::uint32_t> pool_peak;         ///< Per-shard high-water mark.
  std::vector<std::uint32_t> pool_live_at_end;  ///< 0 for every drained shard.
  /// PFC audit at the end of the run, summed over every node: ingress bytes
  /// still charged (Node::pfc_ingress_bytes) and egress ports still paused.
  /// Both are 0 after a drain unless some path skipped on_packet_departed()
  /// — a leak that pins an upstream port paused without stopping the run.
  std::uint64_t pfc_ingress_bytes_at_end = 0;
  int paused_ports_at_end = 0;
};

/// Runs `config` sharded at config.shard_granularity on `workers` threads
/// (0 = one per shard; values above the shard count are clamped).  The calling thread
/// participates as a worker.  Termination: runs until every shard's event
/// queue and every mailbox is empty (full drain — this is what makes the
/// pool leak audit meaningful), or until the epoch horizon reaches
/// config.max_sim_time, whichever comes first.  Flow records are returned
/// sorted by flow id, a canonical order independent of completion order.
DatacenterResult run_datacenter_sharded(const DatacenterConfig& config,
                                        int workers,
                                        ShardedRunStats* stats = nullptr);

}  // namespace fastcc::exp
