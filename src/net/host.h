// Host: an end-host with an RDMA-style NIC.
//
// The sender combines window limiting (in-flight bytes < window) with token-
// bucket pacing (one packet per payload/rate interval), which covers all
// three protocol families: window+pacing (HPCC: R = W/T), window/ack-clocked
// (Swift), and pure rate (DCQCN, window unlimited).  Receivers generate one
// ACK per data packet carrying the echoed INT stack, RTT timestamp, ECN echo,
// and (rate-limited) DCQCN CNP flag.
//
// All per-flow timers live on the node's timing wheel, not the global event
// queue: a single NIC arbiter wakeup serves every pacing-blocked flow
// (earliest next_tx_time first, FlowId tie-break), and RTO / CC-recovery
// deadlines are wheel entries.  The simulator sees at most one pending
// event per host.
//
// Each flow's sender state is one FlowTx record in the insertion-ordered
// flow table (DESIGN.md §11.1), live while the flow runs and kept as its
// archive afterwards.  Hosts coalesce chained deliver_batch() arrivals: all
// ACKs of one wire burst fold into a single per-flow CC/arbiter update pass
// (one window/pacing/heap fix-up per flow per batch instead of per ACK).
//
// A FlowTx& into the table is valid only until the next flow starts: the
// table relocates records when it grows.  The one call on these paths that
// can start a flow is the completion callback, so host code holds records
// by reference only up to it and by FlowId across it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow.h"
#include "net/node.h"
#include "util/ordered_map.h"

namespace fastcc::net {

class Host : public Node {
 public:
  /// Invoked when the sender observes the final cumulative ACK.
  using CompletionCallback = std::function<void(const FlowTx&)>;

  Host(sim::Simulator& simulator, NodeId id, std::string name)
      : Node(simulator, id, std::move(name)) {}

  /// Installs and immediately starts a flow sourced at this host.  `flow.cc`
  /// must be set; path constants (line_rate, base_rtt, path_hops) must be
  /// filled in.  Transmission begins now.
  void start_flow(FlowTx flow);

  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// Minimum interval between CNP-flagged ACKs per flow (DCQCN: 50 us).
  void set_cnp_interval(sim::Time t) { cnp_interval_ = t; }

  /// Lower bound on the per-flow retransmission timeout (flows derive
  /// rto = max(3 x base_rtt, this) unless FlowTx.rto is preset).  The
  /// default (1 ms) matches datacenter transports and sits far above any
  /// PFC-bounded queueing delay, so lossless runs never time out spuriously.
  void set_min_rto(sim::Time t) { min_rto_ = t; }

  /// Read access to a flow's state record: live progress while the flow
  /// runs, its final values once it has finished.
  const FlowTx* flow(FlowId id) const { return tx_flows_.find(id); }
  std::size_t active_flow_count() const { return active_flows_; }

  /// Hosts terminate flows, so they accept burst-coalesced deliveries (see
  /// Node::coalesces_deliveries).
  bool coalesces_deliveries() const override { return true; }

  /// Batched arrival: one pass over the chain applies every ACK's per-ACK
  /// update, then each touched flow gets exactly one completion / pacing /
  /// arbiter follow-up.
  void deliver_batch(PacketRef first, int in_port) override;

 protected:
  void receive(PacketRef ref, int in_port) override;

 private:
  void handle_data(const Packet& p);
  /// Per-ACK update (progress, AckContext, CC callout).  Returns the flow's
  /// record when it needs an ack_finalize() follow-up, null when the ACK
  /// was absorbed (unknown/finished flow, duplicate).
  FlowTx* ack_apply(const Packet& p);
  /// Once per touched flow per delivery: completion check, CC timer sync,
  /// and the (single) send/arbiter follow-up.
  void ack_finalize(FlowTx& f);
  /// Duplicate-cumulative-ACK path: dup counting against the current
  /// cum_acked and (rate-limited) go-back-N fast retransmit.
  void on_dup_ack(FlowTx& f);
  /// Completion: timers cancelled, then the completion callback, which may
  /// start flows and so relocate `f`.
  void finish_flow(FlowTx& f);
  void try_send(FlowTx& f);
  /// Queues `f` with the NIC arbiter for service at its next_tx_time.
  void arm_pacing(FlowTx& f);
  /// Ensures the arbiter's wheel timer covers a wakeup at `at`.
  void arm_nic_timer(sim::Time at);
  /// NIC arbiter wakeup: serves every due pacing-blocked flow in
  /// (next_tx_time, FlowId) order, then re-arms for the next one.
  void nic_tick();
  void arm_rto_timer(FlowTx& f);
  /// Mirrors the controller's internal deadline (if any) onto the wheel.
  void sync_cc_timer(FlowTx& f);
  void cc_tick(FlowId fid);
  /// Go-back-N: rewinds snd_nxt to the cumulative ACK point.
  void retransmit_from_cum_ack(FlowTx& f);

  struct RxState {
    std::uint64_t expected_seq = 0;  ///< Next in-order byte (cumulative).
    sim::Time last_cnp_time = -1;
  };

  /// NIC arbiter ready-queue entry.  Entries are scheduling *hints*: a
  /// flow's next_tx_time may move later after its entry was pushed (the
  /// entry then wakes the arbiter early and the flow simply re-queues), and
  /// a pop looks the flow up again, skipping it once it has finished or no
  /// longer has pacing_queued set.
  struct PacingEntry {
    sim::Time at = 0;
    FlowId id = 0;
    /// std::push/pop_heap build a max-heap; invert to serve the earliest
    /// (next_tx_time, FlowId) first — the deterministic tie-break.
    bool operator<(const PacingEntry& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  // Running flows and the finished-flow archive, in start order.
  util::InsertionOrderedMap<FlowId, FlowTx> tx_flows_;
  util::InsertionOrderedMap<FlowId, RxState> rx_flows_;
  std::size_t active_flows_ = 0;
  std::vector<PacingEntry> pacing_heap_;
  sim::TimerId nic_timer_ = 0;
  sim::Time nic_timer_at_ = -1;
  bool nic_timer_armed_ = false;
  bool in_nic_tick_ = false;
  CompletionCallback on_complete_;
  sim::Time cnp_interval_ = 50 * sim::kMicrosecond;
  sim::Time min_rto_ = 1 * sim::kMillisecond;
};

}  // namespace fastcc::net
