// FlowView: the controller-facing window onto one flow's sender state.
//
// Congestion controllers never see the FlowTx record itself: they receive a
// FlowView — references to the hot members they may write (snd_nxt,
// cum_acked, window_bytes, rate, next_tx_time) plus the per-flow path
// constants by value.  Inside a Host the references point into the flow's
// own record in the flow table; unit tests and replay harnesses build the
// same view over a standalone FlowTx, so one controller codebase serves
// both, and the hot members keep their record field names
// (`flow.window_bytes = ...`).
//
// Lifetime: a FlowView borrows; it must not outlive the statement batch it
// was created for.  The Host's flow table relocates records when it grows,
// so no view may be held across a flow installation.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace fastcc::net {

struct FlowTx;

struct FlowView {
  // ---- Hot state: references into the flow's record. ----
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

  /// A view over a FlowTx record's own members.  Implicit by design so
  /// `cc.on_ack(ctx, flow)` reads naturally at every call site; defined
  /// inline in net/flow.h once FlowTx is complete.
  FlowView(FlowTx& f);  // NOLINT
};

}  // namespace fastcc::net
