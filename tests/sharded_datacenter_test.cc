// Space-parallel (pod-sharded) datacenter runs.
//
// The contract under test: run_datacenter_sharded() is a pure function of
// (config) — the worker count changes wall-clock only, never a single byte
// of the result — and a fully drained run leaves every shard's packet pool
// empty even though packets hop between pools at every pod boundary, with
// no PFC ingress byte still charged and no port still paused.
#include "experiments/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "workload/distributions.h"

namespace fastcc::exp {
namespace {

DatacenterConfig sharded_config() {
  DatacenterConfig c;
  c.variant = Variant::kHpccVaiSf;
  c.topo = topo::sharded_scaled_fat_tree();
  c.components = {{&workload::hadoop_cdf(), 1.0}};
  c.load = 0.5;
  c.generate_duration = 100 * sim::kMicrosecond;
  c.seed = 7;
  return c;
}

// The drained-run PFC audit: every byte charged to a PFC ingress counter
// was discharged (on_packet_departed) exactly once, and no egress port is
// left paused.  A path that skips the discharge leaves bytes charged even
// when every flow finishes and every pool drains.
void expect_pfc_balanced(const ShardedRunStats& stats) {
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.pfc_ingress_bytes_at_end, 0u);
  EXPECT_EQ(stats.paused_ports_at_end, 0);
}

// Every observable, bit for bit — per-flow timings included.
void expect_identical(const DatacenterResult& a, const DatacenterResult& b) {
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.unfinished, b.unfinished);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].id, b.flows[i].id);
    EXPECT_EQ(a.flows[i].size_bytes, b.flows[i].size_bytes);
    EXPECT_EQ(a.flows[i].start_time, b.flows[i].start_time);
    EXPECT_EQ(a.flows[i].fct, b.flows[i].fct);
    EXPECT_EQ(a.flows[i].ideal_fct, b.flows[i].ideal_fct);
  }
}

// The tentpole guarantee: the logical partition is fixed by the topology
// (one shard per pod), so 1, 2, and 8 workers replay the identical
// simulation.  1 worker takes the serial code path (no threads, no barrier),
// 2 forces multiple shards per worker, 8 is one shard per worker.
TEST(ShardedDatacenter, ThreadCountInvariance) {
  const DatacenterResult r1 = run_datacenter_sharded(sharded_config(), 1);
  const DatacenterResult r2 = run_datacenter_sharded(sharded_config(), 2);
  const DatacenterResult r8 = run_datacenter_sharded(sharded_config(), 8);
  ASSERT_GT(r1.flows.size(), 50u);
  expect_identical(r1, r2);
  expect_identical(r1, r8);
}

// Pool hygiene across shard boundaries: a packet leaving pod A is copied
// out of A's pool and released there, then re-materialized in B's, so after
// a full drain every pool must be exactly empty — any nonzero live count is
// a leaked slot in the handoff path.
TEST(ShardedDatacenter, CrossShardHandoffLeakFree) {
  ShardedRunStats stats;
  const DatacenterResult r = run_datacenter_sharded(sharded_config(), 8, &stats);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.shards, 8);
  EXPECT_EQ(stats.lookahead_min, 1 * sim::kMicrosecond);
  // Hadoop traffic over 8 pods crosses boundaries constantly; a run where
  // nothing transferred would mean the boundary wiring silently fell back
  // to intra-shard delivery.
  EXPECT_GT(stats.cross_shard_transfers, 1000u);
  EXPECT_GT(stats.epochs, 10u);
  ASSERT_EQ(stats.pool_live_at_end.size(), 8u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(stats.pool_live_at_end[s], 0u) << "shard " << s;
    EXPECT_GT(stats.pool_peak[s], 0u) << "shard " << s;
  }
}

// The sharded runner must simulate the same experiment as the serial one:
// identical flow population (ids, sizes, sources' start times) from a given
// seed, and every flow completing.  Timings are compared statistically, not
// exactly — per-shard Rng streams and epoch-batched injection reorder
// same-timestamp ties relative to the serial schedule.
TEST(ShardedDatacenter, MatchesSerialFlowPopulation) {
  const DatacenterConfig c = sharded_config();
  DatacenterResult serial = run_datacenter(c);
  const DatacenterResult sharded = run_datacenter_sharded(c, 8);
  EXPECT_EQ(serial.unfinished, 0u);
  EXPECT_EQ(sharded.unfinished, 0u);
  std::sort(serial.flows.begin(), serial.flows.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
              return a.id < b.id;
            });
  ASSERT_EQ(serial.flows.size(), sharded.flows.size());
  double serial_mean = 0.0;
  double sharded_mean = 0.0;
  for (std::size_t i = 0; i < serial.flows.size(); ++i) {
    EXPECT_EQ(serial.flows[i].id, sharded.flows[i].id);
    EXPECT_EQ(serial.flows[i].size_bytes, sharded.flows[i].size_bytes);
    EXPECT_EQ(serial.flows[i].start_time, sharded.flows[i].start_time);
    EXPECT_EQ(serial.flows[i].ideal_fct, sharded.flows[i].ideal_fct);
    serial_mean += serial.flows[i].slowdown();
    sharded_mean += sharded.flows[i].slowdown();
  }
  serial_mean /= static_cast<double>(serial.flows.size());
  sharded_mean /= static_cast<double>(sharded.flows.size());
  // Same physics, different tie-breaks: aggregate congestion must agree.
  EXPECT_NEAR(sharded_mean, serial_mean, 0.25 * serial_mean);
}

// DCQCN with RED and PFC on the sharded test fabric at load 0.8.  This
// config really pauses, so the PFC audit is not vacuous: a probe build
// counted 61 pauses per run at pod grain and 58 at rack grain, and with one
// ACK in 20,000 skipping on_packet_departed() it still finished every flow
// and drained every pool, but left 768 (pod) and 1,088 (rack) bytes charged.
DatacenterConfig pfc_config() {
  DatacenterConfig c = sharded_config();
  c.variant = Variant::kDcqcn;
  c.load = 0.8;
  return c;
}

// RED marking draws randomness at switch ports, and DCQCN enables PFC —
// both cross shard boundaries here (per-shard Rng streams; pause/resume
// frames through the mailboxes).  The invariance contract must survive
// that too, and both runs must end with PFC accounting balanced.
TEST(ShardedDatacenter, RedAndPfcVariantStaysDeterministic) {
  ShardedRunStats s1;
  ShardedRunStats s8;
  const DatacenterResult r1 = run_datacenter_sharded(pfc_config(), 1, &s1);
  const DatacenterResult r8 = run_datacenter_sharded(pfc_config(), 8, &s8);
  ASSERT_GT(r1.flows.size(), 0u);
  expect_identical(r1, r8);
  expect_pfc_balanced(s1);
  expect_pfc_balanced(s8);
}

// The PFC audit at rack grain, where pause/resume frames cross the ToR-agg
// shard boundaries as well as the pod edges.
TEST(ShardedDatacenter, TorDcqcnDrainsWithPfcBalanced) {
  DatacenterConfig c = pfc_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  ShardedRunStats stats;
  const DatacenterResult r = run_datacenter_sharded(c, 4, &stats);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(stats.shards, 16);
  expect_pfc_balanced(stats);
  for (const std::uint32_t live : stats.pool_live_at_end) EXPECT_EQ(live, 0u);
}

// TSan target: maximum barrier contention — more workers than cores, many
// short epochs, every worker racing on the claim index and the mailboxes'
// publish/drain edges.  Run twice to also catch state bleeding between
// coordinator lifetimes.
TEST(ShardedDatacenter, EpochBarrierUnderContention) {
  DatacenterConfig c = sharded_config();
  c.generate_duration = 30 * sim::kMicrosecond;
  const DatacenterResult a = run_datacenter_sharded(c, 8);
  const DatacenterResult b = run_datacenter_sharded(c, 8);
  expect_identical(a, b);
}

// The same invariance contract at rack grain: 16 shards (8 pods x 2 ToRs),
// so worker counts beyond the pod count finally buy parallelism.  1 worker
// is the serial path, 2 and 8 force multiple shards per worker, 16 is one
// shard per worker.
TEST(ShardedDatacenter, TorThreadCountInvariance) {
  DatacenterConfig c = sharded_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  ShardedRunStats stats;
  const DatacenterResult r1 = run_datacenter_sharded(c, 1, &stats);
  EXPECT_EQ(stats.shards, 16);
  const DatacenterResult r2 = run_datacenter_sharded(c, 2);
  const DatacenterResult r8 = run_datacenter_sharded(c, 8);
  const DatacenterResult r16 = run_datacenter_sharded(c, 16);
  ASSERT_GT(r1.flows.size(), 50u);
  expect_identical(r1, r2);
  expect_identical(r1, r8);
  expect_identical(r1, r16);
}

// Rack-grain leak audit: twice the boundary surface of the pod partition
// (every agg uplink is now a shard edge), so this is the stress case for
// the handoff path.  Also pins the new observability: the lookahead matrix
// bounds, and skip/jump counters that must at least be self-consistent.
TEST(ShardedDatacenter, TorGranularityDrainsLeakFree) {
  DatacenterConfig c = sharded_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  ShardedRunStats stats;
  const DatacenterResult r = run_datacenter_sharded(c, 8, &stats);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.shards, 16);
  // Homogeneous 1 us links: every pair of the closed matrix collapses to
  // small multiples of the base delay, the smallest being one link.
  EXPECT_EQ(stats.lookahead_min, 1 * sim::kMicrosecond);
  EXPECT_GE(stats.lookahead_max, stats.lookahead_min);
  EXPECT_GT(stats.cross_shard_transfers, 1000u);
  EXPECT_GT(stats.epochs, 10u);
  ASSERT_EQ(stats.pool_live_at_end.size(), 16u);
  for (int s = 0; s < 16; ++s) {
    EXPECT_EQ(stats.pool_live_at_end[s], 0u) << "shard " << s;
  }
}

// Grain changes shard Rng assignment, so pod- and rack-sharded runs are not
// flow-for-flow identical — but they simulate the same physics on the same
// flow population, so aggregate congestion must agree (the same contract
// MatchesSerialFlowPopulation pins between serial and sharded).
TEST(ShardedDatacenter, TorMatchesPodStatistically) {
  DatacenterConfig c = sharded_config();
  const DatacenterResult pod = run_datacenter_sharded(c, 8);
  c.shard_granularity = topo::ShardGranularity::kTor;
  const DatacenterResult tor = run_datacenter_sharded(c, 8);
  EXPECT_EQ(pod.unfinished, 0u);
  EXPECT_EQ(tor.unfinished, 0u);
  ASSERT_EQ(pod.flows.size(), tor.flows.size());
  double pod_mean = 0.0;
  double tor_mean = 0.0;
  for (std::size_t i = 0; i < pod.flows.size(); ++i) {
    EXPECT_EQ(pod.flows[i].id, tor.flows[i].id);
    EXPECT_EQ(pod.flows[i].size_bytes, tor.flows[i].size_bytes);
    EXPECT_EQ(pod.flows[i].start_time, tor.flows[i].start_time);
    EXPECT_EQ(pod.flows[i].ideal_fct, tor.flows[i].ideal_fct);
    pod_mean += pod.flows[i].slowdown();
    tor_mean += tor.flows[i].slowdown();
  }
  pod_mean /= static_cast<double>(pod.flows.size());
  tor_mean /= static_cast<double>(tor.flows.size());
  EXPECT_NEAR(tor_mean, pod_mean, 0.25 * pod_mean);
}

// Heterogeneous-latency core (the multi-RTT shape the matrix exists for):
// a 4 us spine tier over a 1 us pod fabric.  The per-pair matrix must keep
// the tight 1 us bound for rack neighbors while far pairs relax — and the
// planner decisions derived from it must stay schedule-independent.
TEST(ShardedDatacenter, AdaptiveLookaheadHeterogeneousDelays) {
  DatacenterConfig c = sharded_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  c.topo.spine_link_delay = 4 * sim::kMicrosecond;
  ShardedRunStats s1;
  ShardedRunStats s8;
  const DatacenterResult r1 = run_datacenter_sharded(c, 1, &s1);
  const DatacenterResult r8 = run_datacenter_sharded(c, 8, &s8);
  ASSERT_GT(r1.flows.size(), 50u);
  expect_identical(r1, r8);
  // Same-pod rack pairs still touch over 1 us agg links; cross-pod pairs
  // must pay the 4 us core at least once.
  EXPECT_EQ(s1.lookahead_min, 1 * sim::kMicrosecond);
  EXPECT_GT(s1.lookahead_max, s1.lookahead_min);
  // Every planner decision is derived from simulation state only, so the
  // epoch ledger itself is part of the determinism contract.
  EXPECT_EQ(s1.epochs, s8.epochs);
  EXPECT_EQ(s1.epochs_skipped, s8.epochs_skipped);
  EXPECT_EQ(s1.horizon_jumps, s8.horizon_jumps);
  // Adaptive horizons must beat the legacy fixed-quantum schedule, which
  // would have paid one barrier per lookahead_min over the whole run.
  EXPECT_LT(s1.epochs,
            static_cast<std::uint64_t>(r1.end_time / s1.lookahead_min));
}

// Idle-shard fast-forward: two rack-local bursts separated by long silent
// gaps, confined to pods 0 and 1.  Racks in pods 2-7 have no work at any
// point — the active-set protocol must skip them wholesale — and the gaps
// must be crossed in horizon jumps instead of empty 1 us epochs.
TEST(ShardedDatacenter, IdleShardFastForward) {
  DatacenterConfig c = sharded_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  c.components.clear();
  // Host h lives in rack h / 4; hosts 0-7 are pod 0, 8-15 pod 1.
  c.preset_flows = {
      {1, 0, 5, 50000, 0},                          // pod 0, rack 0 -> 1
      {2, 8, 1, 50000, 0},                          // pod 1 -> pod 0
      {3, 2, 12, 20000, 300 * sim::kMicrosecond},   // burst 2 after a gap
      {4, 9, 3, 20000, 300 * sim::kMicrosecond},
      {5, 4, 13, 20000, 600 * sim::kMicrosecond},   // burst 3
  };
  ShardedRunStats s1;
  ShardedRunStats s4;
  const DatacenterResult r1 = run_datacenter_sharded(c, 1, &s1);
  const DatacenterResult r4 = run_datacenter_sharded(c, 4, &s4);
  expect_identical(r1, r4);
  EXPECT_EQ(r1.unfinished, 0u);
  EXPECT_EQ(r1.flows.size(), 5u);
  EXPECT_TRUE(s1.drained);
  // The skip and jump ledgers are deterministic state, not heuristics.
  EXPECT_EQ(s1.epochs, s4.epochs);
  EXPECT_EQ(s1.epochs_skipped, s4.epochs_skipped);
  EXPECT_EQ(s1.horizon_jumps, s4.horizon_jumps);
  // 14 of 16 racks are idle the whole run; the planner must be skipping
  // far more shard-epochs than it executes.
  EXPECT_GT(s1.epochs_skipped, s1.epochs);
  // One jump per inter-burst gap at minimum.
  EXPECT_GE(s1.horizon_jumps, 2u);
  for (int s = 0; s < 16; ++s) {
    EXPECT_EQ(s1.pool_live_at_end[s], 0u) << "shard " << s;
  }
}

}  // namespace
}  // namespace fastcc::exp
