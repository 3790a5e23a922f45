// Flow specification and per-flow sender state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "cc/engine.h"
#include "net/flow_view.h"
#include "net/packet.h"
#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace fastcc::net {

/// Immutable description of a flow: who talks to whom, how much, and when.
struct FlowSpec {
  FlowId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint64_t size_bytes = 0;
  sim::Time start_time = 0;
};

/// Sender-side state record for one flow.  Congestion control mutates
/// `window_bytes` and `rate`; the host NIC enforces both (a packet is
/// released only when in-flight bytes fit the window *and* the pacing clock
/// allows it).  The controller itself lives inline (cc::CcEngine), so the
/// whole per-flow sender state is one contiguous, heap-free block.
///
/// Inside a Host this record is the flow's only state: the send loop, the
/// ACK path, the timers and the NIC arbiter read and write it in the flow
/// table, controllers reach it through a FlowView, and it stays there as
/// the archive the completion callback and post-run queries read.  Field
/// order is layout (DESIGN.md §11.1): the fields those per-packet paths
/// touch come first and fill the record's first two cache lines, ahead of
/// the loss-recovery and timer state that moves once per flow-lifetime
/// event.
struct FlowTx {
  // ---- Per-packet fields: the first 128 bytes. ----
  FlowSpec spec;

  std::uint64_t snd_nxt = 0;     ///< Next payload byte to send.
  std::uint64_t cum_acked = 0;   ///< Highest cumulatively acked byte.

  double window_bytes = 0.0;
  sim::Rate rate = 0.0;

  // Path constants, filled in by the experiment when the flow is installed.
  sim::Rate line_rate = 0.0;     ///< Host NIC speed.
  sim::Time base_rtt = 0;        ///< Unloaded RTT along the flow's path.
  std::uint32_t mtu = kDefaultMtu;
  int path_hops = 0;             ///< Forward-path link count (host->...->host).

  sim::Time finish_time = -1;    ///< Sender saw the final cumulative ACK.
  bool finished() const { return finish_time >= 0; }

  sim::Time last_progress_time = 0;

  // Pacing bookkeeping (owned by Host).  A flow waiting out its pacing gap
  // holds one entry in the host NIC arbiter's ready queue instead of a
  // per-flow timer event; `pacing_queued` guards that at most one entry per
  // flow exists.
  sim::Time next_tx_time = 0;
  bool pacing_queued = false;

  std::uint64_t acks_received = 0;

  // ---- Loss recovery (go-back-N) ----
  // The paper's experiments are lossless (PFC / deep buffers), but the
  // simulator is complete for lossy configurations: receivers ACK
  // cumulatively, and the sender rewinds snd_nxt on triple-duplicate ACKs or
  // on a retransmission timeout.
  std::uint64_t bytes_retransmitted = 0;
  std::uint32_t retransmit_events = 0;
  std::uint32_t dup_acks = 0;
  /// cum_acked value the dup_acks count was taken against.  Lets the dup
  /// counter reset lazily on the (rare) duplicate path instead of writing a
  /// loss-recovery field on every in-order ACK: any progress changes
  /// cum_acked, so a mismatch here means "first dup of a new stall".
  std::uint64_t dup_base = 0;
  sim::Time rto = 0;               ///< 0 = derive as 3 x base_rtt at start.
  sim::Time last_retransmit_time = -1;
  sim::TimerId rto_timer = 0;      ///< On the host's timing wheel.
  bool rto_timer_armed = false;

  // Controller-internal deadline (DCQCN recovery), mirrored onto the host
  // wheel; cc_timer_at caches the armed deadline so unchanged deadlines
  // skip the cancel/re-arm round trip.
  sim::TimerId cc_timer = 0;
  sim::Time cc_timer_at = -1;

  cc::CcEngine cc;

  std::uint64_t inflight_bytes() const { return snd_nxt - cum_acked; }
  bool all_sent() const { return snd_nxt >= spec.size_bytes; }

  /// Window of at least one MTU is always grantable so flows cannot stall
  /// permanently at a zero window.
  static constexpr double kMinWindowBytes = 1.0;
  /// "Unlimited" window for pure rate-based protocols (DCQCN).
  static constexpr double kUnlimitedWindow =
      std::numeric_limits<double>::max() / 4;
};

// The per-packet fields above the loss-recovery state fit in 128 bytes.
static_assert(offsetof(FlowTx, acks_received) + sizeof(std::uint64_t) <= 128,
              "FlowTx's per-packet fields must fit its first two cache lines");

/// View over a record's own members (declared in flow_view.h; defined here
/// where FlowTx is complete).
inline FlowView::FlowView(FlowTx& f)
    : FlowView(f.snd_nxt, f.cum_acked, f.window_bytes, f.rate, f.next_tx_time,
               f.line_rate, f.base_rtt, f.mtu, f.path_hops) {}

}  // namespace fastcc::net
