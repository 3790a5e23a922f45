#include "net/host.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fastcc::net {

void Host::start_flow(FlowTx flow) {
  assert(flow.spec.src == id() && "flow must be sourced at this host");
  assert(static_cast<bool>(flow.cc) && "flow needs a congestion controller");
  assert(flow.line_rate > 0 && flow.base_rtt > 0 && flow.mtu > 0);
  const FlowId fid = flow.spec.id;
  auto [slot, inserted] = tx_flows_.try_emplace(fid, std::move(flow));
  assert(inserted && "duplicate flow id");
  (void)inserted;
  FlowTx& f = *slot;
  ++active_flows_;
  if (f.rto == 0) f.rto = std::max<sim::Time>(3 * f.base_rtt, min_rto_);
  f.last_progress_time = sim_->now();
  f.cc.on_flow_start(f);
  sync_cc_timer(f);
  f.next_tx_time = sim_->now();
  try_send(f);
}

void Host::receive(PacketRef ref, int in_port) {
  (void)in_port;
  const Packet& p = packet_pool()->get(ref);
  on_packet_departed(p);  // hosts sink packets: release PFC accounting
  switch (p.type) {
    case PacketType::kData:
      handle_data(p);
      break;
    case PacketType::kAck: {
      FlowTx* f = ack_apply(p);
      if (f != nullptr) ack_finalize(*f);
      break;
    }
    default:
      break;  // PFC frames are handled in Node::deliver
  }
  packet_pool()->release(ref);
}

void Host::deliver_batch(PacketRef first, int in_port) {
  // One pass applies every packet's cheap per-ACK update; the expensive
  // follow-up (completion, CC-timer sync, window/pacing probe, arbiter
  // fix-up) then runs once per touched flow, in first-appearance
  // order.  The chain never exceeds the burst cap, so the dedup scratch is
  // a fixed stack array and the whole path allocates nothing.  Flows are
  // held by id, not pointer: a completion callback may start a new flow,
  // and the flow table relocates records on growth.
  FlowId touched[kMaxBurstPackets];
  int n_touched = 0;
  while (first.valid()) {
    Packet& p = packet_pool()->get(first);
    const PacketRef next{p.batch_next};
    p.batch_next = PacketRef::kInvalid;
    // Replay deliver()'s per-packet ingress bookkeeping (the +/- pair keeps
    // PFC threshold crossings observable exactly as on the unbatched path).
    p.ingress_port = in_port;
    pfc_account(in_port, static_cast<std::int64_t>(p.wire_bytes));
    on_packet_departed(p);
    switch (p.type) {
      case PacketType::kData:
        handle_data(p);
        break;
      case PacketType::kAck: {
        if (ack_apply(p) != nullptr) {
          bool seen = false;
          for (int t = 0; t < n_touched; ++t) {
            if (touched[t] == p.flow) {
              seen = true;
              break;
            }
          }
          if (!seen) touched[n_touched++] = p.flow;
        }
        break;
      }
      default:
        break;  // PFC frames are never chained (they bypass port queues)
    }
    packet_pool()->release(first);
    first = next;
  }
  for (int t = 0; t < n_touched; ++t) {
    FlowTx* f = tx_flows_.find(touched[t]);
    if (f != nullptr && !f->finished()) ack_finalize(*f);
  }
}

void Host::handle_data(const Packet& p) {
  assert(p.dst == id());
  RxState& rx = rx_flows_[p.flow];
  // Cumulative in-order tracking: a gap (upstream drop) freezes expected_seq
  // and the resulting duplicate ACKs trigger the sender's go-back-N.
  if (p.seq <= rx.expected_seq) {
    rx.expected_seq = std::max<std::uint64_t>(rx.expected_seq,
                                              p.seq + p.payload_bytes);
  }

  // The ACK is born in the pool; `p` stays valid across the alloc (chunked
  // slot storage never relocates).
  const PacketRef ack_ref = packet_pool()->alloc();
  Packet& ack = packet_pool()->get(ack_ref);
  init_ack(ack, p, sim_->now());
  ack.seq = rx.expected_seq;  // cumulative ACK
  // DCQCN: at most one congestion-notification per flow per cnp_interval_.
  if (p.ecn) {
    if (rx.last_cnp_time < 0 ||
        sim_->now() - rx.last_cnp_time >= cnp_interval_) {
      ack.cnp = true;
      rx.last_cnp_time = sim_->now();
    }
  }
  assert(port_count() > 0 && port(0).connected());
  port(0).enqueue(ack_ref);
}

FlowTx* Host::ack_apply(const Packet& p) {
  FlowTx* fp = tx_flows_.find(p.flow);
  if (fp == nullptr) return nullptr;
  FlowTx& f = *fp;
  // A fully-acked flow absorbs trailing ACKs: one that has finished, and
  // one whose completion landed earlier in this same batch and still awaits
  // its deferred finalize (exactly as the unbatched path absorbed
  // post-finish ones).
  if (f.cum_acked >= f.spec.size_bytes) return nullptr;
  ++f.acks_received;

  if (p.seq <= f.cum_acked) {
    on_dup_ack(f);
    return nullptr;
  }

  const auto newly = static_cast<std::uint32_t>(p.seq - f.cum_acked);
  f.cum_acked = p.seq;
  f.last_progress_time = sim_->now();

  cc::AckContext ctx;
  ctx.now = sim_->now();
  ctx.rtt = sim_->now() - p.host_ts;
  ctx.ack_seq = p.seq;
  ctx.bytes_acked = newly;
  ctx.ecn = p.ecn;
  ctx.cnp = p.cnp;
  ctx.ints = std::span<const IntRecord>(p.ints.data(), p.int_count);
  f.cc.on_ack(ctx, f);
  return fp;
}

void Host::on_dup_ack(FlowTx& f) {
  // Duplicate cumulative ACK: the receiver saw a gap.  The dup counter
  // resets lazily — any progress moved cum_acked, so a stale dup_base means
  // "first dup of a new stall" (this keeps the in-order ACK path free of
  // loss-recovery writes).  Triple-dup triggers fast retransmit (go-back-N),
  // rate-limited to one rewind per RTT so the stale ACKs of an already-
  // rewound window cannot re-trigger it.
  if (f.dup_base != f.cum_acked) {
    f.dup_base = f.cum_acked;
    f.dup_acks = 0;
  }
  ++f.dup_acks;
  if (f.dup_acks >= 3 && f.snd_nxt > f.cum_acked &&
      (f.last_retransmit_time < 0 ||
       sim_->now() - f.last_retransmit_time >= f.base_rtt)) {
    retransmit_from_cum_ack(f);
    try_send(f);
  }
}

void Host::ack_finalize(FlowTx& f) {
  assert(!f.finished());
  if (f.cum_acked >= f.spec.size_bytes) {
    finish_flow(f);
    return;
  }
  sync_cc_timer(f);
  try_send(f);
}

void Host::finish_flow(FlowTx& f) {
  // The arbiter entry (if one is queued) dies on pop.
  f.pacing_queued = false;
  f.finish_time = sim_->now();
  assert(active_flows_ > 0);
  --active_flows_;
  if (f.rto_timer_armed) {
    wheel().cancel(f.rto_timer);
    f.rto_timer_armed = false;
  }
  sync_cc_timer(f);  // finished: cancels any pending CC deadline
  // Last use of `f`: the callback may start flows, which relocates records.
  if (on_complete_) on_complete_(f);
}

void Host::try_send(FlowTx& f) {
  // Every load in the loop hits the record's first two cache lines; the
  // timer state is touched only by arm_rto_timer afterwards, and only when
  // a packet actually left.
  bool sent = false;
  while (!f.all_sent()) {
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(f.mtu, f.spec.size_bytes - f.snd_nxt));
    // Window gate: always allow one packet in flight so sub-MTU windows make
    // progress (pacing then sets the speed, as in Swift's cwnd < 1 regime).
    const std::uint64_t inflight = f.inflight_bytes();
    const bool window_ok =
        inflight == 0 ||
        static_cast<double>(inflight + payload) <= f.window_bytes;
    if (!window_ok) break;  // an ACK will reopen the window
    if (sim_->now() < f.next_tx_time) {
      arm_pacing(f);
      break;
    }
    // Allocate once, here at the sender; downstream the packet travels only
    // as a PacketRef handle.
    const PacketRef ref = packet_pool()->alloc();
    init_data(packet_pool()->get(ref), f.spec.id, id(), f.spec.dst, f.snd_nxt,
              payload, sim_->now());
    f.snd_nxt += payload;
    // Pace on wire bytes at the flow's current rate (capped at line rate —
    // the NIC cannot serialize faster even if CC asks for more).
    const sim::Rate pace = std::min(f.rate, f.line_rate);
    assert(pace > 0.0);
    f.next_tx_time = std::max(f.next_tx_time, sim_->now()) +
                     sim::serialization_time(payload + kHeaderBytes, pace);
    assert(port_count() > 0 && port(0).connected());
    port(0).enqueue(ref);
    sent = true;
  }
  if (sent) arm_rto_timer(f);
}

void Host::retransmit_from_cum_ack(FlowTx& f) {
  assert(f.snd_nxt > f.cum_acked);
  f.bytes_retransmitted += f.snd_nxt - f.cum_acked;
  ++f.retransmit_events;
  f.dup_acks = 0;
  f.last_retransmit_time = sim_->now();
  f.last_progress_time = sim_->now();  // restart the RTO clock
  f.snd_nxt = f.cum_acked;
  f.next_tx_time = std::max(f.next_tx_time, sim_->now());
}

void Host::arm_rto_timer(FlowTx& f) {
  if (f.rto_timer_armed || f.finished()) return;
  f.rto_timer_armed = true;
  const FlowId fid = f.spec.id;
  const sim::Time deadline =
      std::max(f.last_progress_time + f.rto, sim_->now() + 1);
  f.rto_timer = wheel().arm(deadline, [this, fid] {
    FlowTx* flow_state = tx_flows_.find(fid);
    if (flow_state == nullptr || flow_state->finished()) return;
    flow_state->rto_timer_armed = false;
    if (flow_state->inflight_bytes() == 0) return;  // re-armed on next send
    if (sim_->now() - flow_state->last_progress_time >= flow_state->rto) {
      retransmit_from_cum_ack(*flow_state);
      try_send(*flow_state);
    }
    arm_rto_timer(*flow_state);
  });
}

void Host::sync_cc_timer(FlowTx& f) {
  const sim::Time want = f.finished() ? -1 : f.cc.next_timer();
  if (want == f.cc_timer_at) return;
  if (f.cc_timer_at >= 0) wheel().cancel(f.cc_timer);
  f.cc_timer_at = want;
  if (want >= 0) {
    const FlowId fid = f.spec.id;
    f.cc_timer = wheel().arm(want, [this, fid] { cc_tick(fid); });
  }
}

void Host::cc_tick(FlowId fid) {
  FlowTx* f = tx_flows_.find(fid);
  if (f == nullptr || f->finished()) return;
  f->cc_timer_at = -1;  // the armed deadline just fired
  f->cc.on_timer(sim_->now(), *f);
  sync_cc_timer(*f);
}

void Host::arm_pacing(FlowTx& f) {
  if (f.pacing_queued) return;
  f.pacing_queued = true;
  pacing_heap_.push_back(PacingEntry{f.next_tx_time, f.spec.id});
  std::push_heap(pacing_heap_.begin(), pacing_heap_.end());
  // Inside the arbiter's own drain loop the tail re-arm covers new entries.
  if (!in_nic_tick_) arm_nic_timer(f.next_tx_time);
}

void Host::arm_nic_timer(sim::Time at) {
  if (nic_timer_armed_ && nic_timer_at_ <= at) return;
  if (nic_timer_armed_) wheel().cancel(nic_timer_);
  nic_timer_armed_ = true;
  nic_timer_at_ = at;
  nic_timer_ = wheel().arm(at, [this] { nic_tick(); });
}

void Host::nic_tick() {
  nic_timer_armed_ = false;
  nic_timer_at_ = -1;
  in_nic_tick_ = true;
  const sim::Time now = sim_->now();
  while (!pacing_heap_.empty() && pacing_heap_.front().at <= now) {
    std::pop_heap(pacing_heap_.begin(), pacing_heap_.end());
    FlowTx* f = tx_flows_.find(pacing_heap_.back().id);
    pacing_heap_.pop_back();
    // Entries are hints: skip flows that finished or already got service
    // (both clear pacing_queued); a flow whose next_tx_time moved later
    // simply re-queues from try_send.
    if (f == nullptr || !f->pacing_queued) continue;
    f->pacing_queued = false;
    try_send(*f);
  }
  in_nic_tick_ = false;
  if (!pacing_heap_.empty()) arm_nic_timer(pacing_heap_.front().at);
}

}  // namespace fastcc::net
