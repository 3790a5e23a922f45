// FlowSlab: per-host struct-of-arrays storage for the per-ACK hot half of
// every unfinished flow.
//
// Motivation (DESIGN.md §11): FlowTx is a ~250-byte AoS record whose per-ACK
// hot fields shared cache lines with loss-recovery and timer bookkeeping, so
// the NIC arbiter heap and the window/pacing gates dragged cold lines into
// L1 on every packet.  The slab moves the hot fields into dense parallel
// arrays indexed by a slab-local FlowIdx: the arbiter drain and
// Host::try_send now touch only hot lines, and flows that finish are
// swap-compacted out so the arrays stay dense for the flows still flying.
//
// Ownership and the FlowIdx <-> FlowId mapping:
//   * The Host's insertion-ordered flow table owns the cold FlowTx records
//     forever (post-run queries read them); the slab owns only the hot
//     arrays and the per-slot replicated constants.
//   * FlowTx::hot_idx points record -> slot; flow_id[idx] points slot ->
//     flow.  compact() moves the tail slot into the freed hole, so a
//     FlowIdx is stable only until the next flow finishes — long-lived
//     structures (the arbiter heap) carry (FlowId, FlowIdx-hint) pairs and
//     revalidate the hint against flow_id[] before trusting it.
//   * install() may grow (reallocate) the arrays: never hold a FlowView or
//     an element reference across a flow installation.
//
// The per-flow constants (size_bytes, mtu, line_rate, base_rtt, dst,
// flow_id) are deliberately replicated out of the cold record so the send
// loop is slab-complete: try_send reads nothing but these arrays.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/flow_view.h"

namespace fastcc::net {

class FlowSlab {
 public:
  FlowIdx size() const { return static_cast<FlowIdx>(flow_id.size()); }
  bool empty() const { return flow_id.empty(); }

  /// Appends a slot seeded from `cold`'s install-time values and stamps
  /// cold.hot_idx.  Invalidates outstanding views/references (growth).
  FlowIdx install(FlowTx& cold) {
    const FlowIdx idx = size();
    snd_nxt.push_back(cold.snd_nxt);
    cum_acked.push_back(cold.cum_acked);
    window_bytes.push_back(cold.window_bytes);
    rate.push_back(cold.rate);
    next_tx_time.push_back(cold.next_tx_time);
    rate_contribution.push_back(cold.rate_contribution);
    acks_received.push_back(cold.acks_received);
    last_progress_time.push_back(cold.last_progress_time);
    pacing_queued.push_back(cold.pacing_queued ? 1 : 0);
    size_bytes.push_back(cold.spec.size_bytes);
    mtu.push_back(cold.mtu);
    line_rate.push_back(cold.line_rate);
    base_rtt.push_back(cold.base_rtt);
    path_hops.push_back(cold.path_hops);
    dst.push_back(cold.spec.dst);
    flow_id.push_back(cold.spec.id);
    cold.hot_idx = idx;
    return idx;
  }

  /// Snapshots slot `i`'s current values back into the cold record (the
  /// archive the completion callback and Host::flow() expose).
  void write_back(FlowIdx i, FlowTx& cold) const {
    assert(i < size() && cold.hot_idx == i);
    cold.snd_nxt = snd_nxt[i];
    cold.cum_acked = cum_acked[i];
    cold.window_bytes = window_bytes[i];
    cold.rate = rate[i];
    cold.next_tx_time = next_tx_time[i];
    cold.rate_contribution = rate_contribution[i];
    cold.acks_received = acks_received[i];
    cold.last_progress_time = last_progress_time[i];
    cold.pacing_queued = pacing_queued[i] != 0;
  }

  /// Frees slot `i` by moving the tail slot into it (swap compaction) and
  /// shrinking every array by one.  Returns the FlowId that now lives at
  /// `i` (the former tail) so the caller can re-stamp that record's
  /// hot_idx, or kInvalidNode-like 0-sized result when `i` was the tail.
  /// The freed record's own hot_idx must be cleared by the caller.
  std::pair<bool, FlowId> compact(FlowIdx i) {
    assert(i < size());
    const FlowIdx last = size() - 1;
    bool moved = false;
    FlowId moved_id = 0;
    if (i != last) {
      snd_nxt[i] = snd_nxt[last];
      cum_acked[i] = cum_acked[last];
      window_bytes[i] = window_bytes[last];
      rate[i] = rate[last];
      next_tx_time[i] = next_tx_time[last];
      rate_contribution[i] = rate_contribution[last];
      acks_received[i] = acks_received[last];
      last_progress_time[i] = last_progress_time[last];
      pacing_queued[i] = pacing_queued[last];
      size_bytes[i] = size_bytes[last];
      mtu[i] = mtu[last];
      line_rate[i] = line_rate[last];
      base_rtt[i] = base_rtt[last];
      path_hops[i] = path_hops[last];
      dst[i] = dst[last];
      flow_id[i] = flow_id[last];
      moved = true;
      moved_id = flow_id[i];
    }
    snd_nxt.pop_back();
    cum_acked.pop_back();
    window_bytes.pop_back();
    rate.pop_back();
    next_tx_time.pop_back();
    rate_contribution.pop_back();
    acks_received.pop_back();
    last_progress_time.pop_back();
    pacing_queued.pop_back();
    size_bytes.pop_back();
    mtu.pop_back();
    line_rate.pop_back();
    base_rtt.pop_back();
    path_hops.pop_back();
    dst.pop_back();
    flow_id.pop_back();
    return {moved, moved_id};
  }

  /// Controller-facing view of slot `i`.  Borrow only: dies with the next
  /// install().
  FlowView view(FlowIdx i) {
    assert(i < size());
    return FlowView(snd_nxt[i], cum_acked[i], window_bytes[i], rate[i],
                    next_tx_time[i], line_rate[i], base_rtt[i], mtu[i],
                    path_hops[i]);
  }

  std::uint64_t inflight_bytes(FlowIdx i) const {
    return snd_nxt[i] - cum_acked[i];
  }
  bool all_sent(FlowIdx i) const { return snd_nxt[i] >= size_bytes[i]; }

  // ---- Hot per-flow state (parallel arrays, indexed by FlowIdx). ----
  std::vector<std::uint64_t> snd_nxt;
  std::vector<std::uint64_t> cum_acked;
  std::vector<double> window_bytes;
  std::vector<sim::Rate> rate;
  std::vector<sim::Time> next_tx_time;
  std::vector<sim::Rate> rate_contribution;
  std::vector<std::uint64_t> acks_received;
  std::vector<sim::Time> last_progress_time;
  std::vector<std::uint8_t> pacing_queued;

  // ---- Replicated per-flow constants (immutable after install). ----
  std::vector<std::uint64_t> size_bytes;
  std::vector<std::uint32_t> mtu;
  std::vector<sim::Rate> line_rate;
  std::vector<sim::Time> base_rtt;
  std::vector<int> path_hops;
  std::vector<NodeId> dst;
  std::vector<FlowId> flow_id;
};

}  // namespace fastcc::net
