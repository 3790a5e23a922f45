// FlowView: the controller-facing window onto one flow's sender state.
//
// The data-layout pass (DESIGN.md §11) split per-flow sender state in two:
// the per-ACK hot quartet-plus (snd_nxt, cum_acked, window_bytes, rate,
// next_tx_time, ...) lives in the per-host struct-of-arrays FlowSlab, while
// the cold remainder (FlowSpec, loss recovery, timers, the CC engine itself)
// stays in the FlowTx record.  Congestion controllers never see either
// container: they receive a FlowView — a bundle of references into the hot
// arrays plus the per-flow path constants by value — so the same controller
// code runs against a slab-resident flow (simulation) or a standalone FlowTx
// (unit tests), and the hot members keep their historical field names
// (`flow.window_bytes = ...` reads as before).
//
// Lifetime: a FlowView borrows; it must not outlive the statement batch it
// was created for.  In particular, FlowSlab::install() may reallocate the
// hot arrays, so no view may be held across a flow installation.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace fastcc::net {

struct FlowTx;

/// Dense per-host slab index of an unfinished flow.  Assigned at
/// Host::start_flow, recycled (swap-compaction) when the flow finishes.
using FlowIdx = std::uint32_t;
inline constexpr FlowIdx kInvalidFlowIdx = 0xffffffffu;

struct FlowView {
  // ---- Hot state: references into the FlowSlab arrays (or into a
  // standalone FlowTx's own members). ----
  std::uint64_t& snd_nxt;     ///< Next payload byte to send.
  std::uint64_t& cum_acked;   ///< Highest cumulatively acked byte.
  double& window_bytes;
  sim::Rate& rate;
  sim::Time& next_tx_time;

  // ---- Per-flow path constants, by value (immutable after install). ----
  const sim::Rate line_rate;
  const sim::Time base_rtt;
  const std::uint32_t mtu;
  const int path_hops;

  FlowView(std::uint64_t& snd_nxt_ref, std::uint64_t& cum_acked_ref,
           double& window_ref, sim::Rate& rate_ref, sim::Time& next_tx_ref,
           sim::Rate line_rate_v, sim::Time base_rtt_v, std::uint32_t mtu_v,
           int path_hops_v)
      : snd_nxt(snd_nxt_ref),
        cum_acked(cum_acked_ref),
        window_bytes(window_ref),
        rate(rate_ref),
        next_tx_time(next_tx_ref),
        line_rate(line_rate_v),
        base_rtt(base_rtt_v),
        mtu(mtu_v),
        path_hops(path_hops_v) {}

  /// A view over a standalone FlowTx record's own hot members (unit tests,
  /// pre-install records).  Implicit by design so `cc.on_ack(ctx, flow)`
  /// keeps reading naturally at direct-call sites; defined inline in
  /// net/flow.h once FlowTx is complete.
  FlowView(FlowTx& f);  // NOLINT
};

}  // namespace fastcc::net
