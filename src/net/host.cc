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
  const FlowIdx i = slab_.install(f);
  f.cc.on_flow_start(slab_.view(i));
  sync_rate_contribution(i);
  sync_cc_timer(f);
  slab_.next_tx_time[i] = sim_->now();
  try_send(i);
}

const FlowTx* Host::flow(FlowId fid) const {
  const FlowTx* f = tx_flows_.find(fid);
  if (f != nullptr && f->hot_idx != kInvalidFlowIdx) {
    // Live flow: refresh the record from the slab so the caller sees
    // current progress.  The record is the flow's own archive, so this
    // write-back is logically const on the Host.
    slab_.write_back(f->hot_idx, const_cast<FlowTx&>(*f));
  }
  return f;
}

sim::Rate Host::total_send_rate_recomputed() const {
  // Flows are visited in start order (insertion order), so this double
  // accumulation is reproducible run to run.  Unfinished flows read their
  // live rate from the slab; finished ones contribute nothing.
  sim::Rate sum = 0.0;
  for (const auto& [fid, f] : tx_flows_) {
    if (f.hot_idx != kInvalidFlowIdx) {
      sum += std::min(slab_.rate[f.hot_idx], slab_.line_rate[f.hot_idx]);
    }
  }
  return sum;
}

void Host::sync_rate_contribution(FlowIdx i) {
  const sim::Rate want = std::min(slab_.rate[i], slab_.line_rate[i]);
  if (want != slab_.rate_contribution[i]) {
    rate_sum_ += want - slab_.rate_contribution[i];
    slab_.rate_contribution[i] = want;
  }
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
  // follow-up (completion, rate-sum, CC-timer sync, window/pacing probe,
  // arbiter fix-up) then runs once per touched flow, in first-appearance
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
    if (f != nullptr && f->hot_idx != kInvalidFlowIdx) ack_finalize(*f);
  }
}

void Host::handle_data(const Packet& p) {
  assert(p.dst == id());
  RxState& rx = rx_flows_[p.flow];
  rx.bytes_received += p.payload_bytes;
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
  const FlowIdx i = fp->hot_idx;
  if (i == kInvalidFlowIdx) return nullptr;  // already finished
  // Fully-acked flow still awaiting its deferred finalize (completion landed
  // earlier in this same batch): absorb trailing ACKs exactly as the
  // unbatched path absorbed post-finish ones.
  if (slab_.cum_acked[i] >= slab_.size_bytes[i]) return nullptr;
  ++slab_.acks_received[i];

  if (p.seq <= slab_.cum_acked[i]) {
    on_dup_ack(*fp, i);
    return nullptr;
  }

  const auto newly = static_cast<std::uint32_t>(p.seq - slab_.cum_acked[i]);
  slab_.cum_acked[i] = p.seq;
  slab_.last_progress_time[i] = sim_->now();

  cc::AckContext ctx;
  ctx.now = sim_->now();
  ctx.rtt = sim_->now() - p.host_ts;
  ctx.ack_seq = p.seq;
  ctx.bytes_acked = newly;
  ctx.ecn = p.ecn;
  ctx.cnp = p.cnp;
  ctx.ints = std::span<const IntRecord>(p.ints.data(), p.int_count);
  fp->cc.on_ack(ctx, slab_.view(i));
  return fp;
}

void Host::on_dup_ack(FlowTx& f, FlowIdx i) {
  // Duplicate cumulative ACK: the receiver saw a gap.  The dup counter
  // resets lazily — any progress moved cum_acked, so a stale dup_base means
  // "first dup of a new stall" (this keeps the in-order ACK path free of
  // cold-field writes).  Triple-dup triggers fast retransmit (go-back-N),
  // rate-limited to one rewind per RTT so the stale ACKs of an already-
  // rewound window cannot re-trigger it.
  if (f.dup_base != slab_.cum_acked[i]) {
    f.dup_base = slab_.cum_acked[i];
    f.dup_acks = 0;
  }
  ++f.dup_acks;
  if (f.dup_acks >= 3 && slab_.snd_nxt[i] > slab_.cum_acked[i] &&
      (f.last_retransmit_time < 0 ||
       sim_->now() - f.last_retransmit_time >= f.base_rtt)) {
    retransmit_from_cum_ack(f, i);
    try_send(i);
  }
}

void Host::ack_finalize(FlowTx& f) {
  const FlowIdx i = f.hot_idx;
  assert(i != kInvalidFlowIdx);
  if (slab_.cum_acked[i] >= slab_.size_bytes[i]) {
    finish_flow(f, i);
    return;
  }
  sync_rate_contribution(i);
  sync_cc_timer(f);
  try_send(i);
}

void Host::finish_flow(FlowTx& f, FlowIdx i) {
  // The arbiter entry (if one is queued) dies on pop: the compacted slot no
  // longer resolves to this flow.
  slab_.pacing_queued[i] = 0;
  slab_.write_back(i, f);  // final hot values become the archive
  f.finish_time = sim_->now();
  assert(active_flows_ > 0);
  --active_flows_;
  if (f.rto_timer_armed) {
    wheel().cancel(f.rto_timer);
    f.rto_timer_armed = false;
  }
  sync_cc_timer(f);  // finished: cancels any pending CC deadline
  // Contribution drops to zero.
  rate_sum_ -= f.rate_contribution;
  f.rate_contribution = 0.0;
  const auto [moved, moved_id] = slab_.compact(i);
  f.hot_idx = kInvalidFlowIdx;
  if (moved) {
    FlowTx* m = tx_flows_.find(moved_id);
    assert(m != nullptr);
    m->hot_idx = i;
  }
  if (on_complete_) on_complete_(f);
}

void Host::try_send(FlowIdx i) {
  // Slab-complete send loop: every load below hits the hot or constant
  // lanes; the cold record is touched only by arm_rto_timer afterwards,
  // and only when a packet actually left.
  bool sent = false;
  while (!slab_.all_sent(i)) {
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(slab_.mtu[i],
                                slab_.size_bytes[i] - slab_.snd_nxt[i]));
    // Window gate: always allow one packet in flight so sub-MTU windows make
    // progress (pacing then sets the speed, as in Swift's cwnd < 1 regime).
    const std::uint64_t inflight = slab_.inflight_bytes(i);
    const bool window_ok =
        inflight == 0 ||
        static_cast<double>(inflight + payload) <= slab_.window_bytes[i];
    if (!window_ok) break;  // an ACK will reopen the window
    if (sim_->now() < slab_.next_tx_time[i]) {
      arm_pacing(i);
      break;
    }
    // Allocate once, here at the sender; downstream the packet travels only
    // as a PacketRef handle.
    const PacketRef ref = packet_pool()->alloc();
    init_data(packet_pool()->get(ref), slab_.flow_id[i], id(), slab_.dst[i],
              slab_.snd_nxt[i], payload, sim_->now());
    slab_.snd_nxt[i] += payload;
    // Pace on wire bytes at the flow's current rate (capped at line rate —
    // the NIC cannot serialize faster even if CC asks for more).
    const sim::Rate pace = std::min(slab_.rate[i], slab_.line_rate[i]);
    assert(pace > 0.0);
    slab_.next_tx_time[i] =
        std::max(slab_.next_tx_time[i], sim_->now()) +
        sim::serialization_time(payload + kHeaderBytes, pace);
    assert(port_count() > 0 && port(0).connected());
    port(0).enqueue(ref);
    sent = true;
  }
  if (sent) {
    FlowTx* f = tx_flows_.find(slab_.flow_id[i]);
    assert(f != nullptr);
    arm_rto_timer(*f);
  }
}

void Host::retransmit_from_cum_ack(FlowTx& f, FlowIdx i) {
  assert(slab_.snd_nxt[i] > slab_.cum_acked[i]);
  f.bytes_retransmitted += slab_.snd_nxt[i] - slab_.cum_acked[i];
  ++f.retransmit_events;
  f.dup_acks = 0;
  f.last_retransmit_time = sim_->now();
  slab_.last_progress_time[i] = sim_->now();  // restart the RTO clock
  slab_.snd_nxt[i] = slab_.cum_acked[i];
  slab_.next_tx_time[i] = std::max(slab_.next_tx_time[i], sim_->now());
}

void Host::arm_rto_timer(FlowTx& f) {
  if (f.rto_timer_armed || f.hot_idx == kInvalidFlowIdx) return;
  f.rto_timer_armed = true;
  const FlowId fid = f.spec.id;
  const sim::Time deadline = std::max(
      slab_.last_progress_time[f.hot_idx] + f.rto, sim_->now() + 1);
  f.rto_timer = wheel().arm(deadline, [this, fid] {
    FlowTx* flow_state = tx_flows_.find(fid);
    if (flow_state == nullptr || flow_state->hot_idx == kInvalidFlowIdx) {
      return;
    }
    flow_state->rto_timer_armed = false;
    const FlowIdx i = flow_state->hot_idx;
    if (slab_.inflight_bytes(i) == 0) return;  // re-armed on next send
    if (sim_->now() - slab_.last_progress_time[i] >= flow_state->rto) {
      retransmit_from_cum_ack(*flow_state, i);
      try_send(i);
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
  if (f == nullptr || f->hot_idx == kInvalidFlowIdx) return;
  f->cc_timer_at = -1;  // the armed deadline just fired
  const FlowIdx i = f->hot_idx;
  f->cc.on_timer(sim_->now(), slab_.view(i));
  sync_rate_contribution(i);
  sync_cc_timer(*f);
}

void Host::arm_pacing(FlowIdx i) {
  if (slab_.pacing_queued[i] != 0) return;
  slab_.pacing_queued[i] = 1;
  pacing_heap_.push_back(
      PacingEntry{slab_.next_tx_time[i], slab_.flow_id[i], i});
  std::push_heap(pacing_heap_.begin(), pacing_heap_.end());
  // Inside the arbiter's own drain loop the tail re-arm covers new entries.
  if (!in_nic_tick_) arm_nic_timer(slab_.next_tx_time[i]);
}

void Host::arm_nic_timer(sim::Time at) {
  if (nic_timer_armed_ && nic_timer_at_ <= at) return;
  if (nic_timer_armed_) wheel().cancel(nic_timer_);
  nic_timer_armed_ = true;
  nic_timer_at_ = at;
  nic_timer_ = wheel().arm(at, [this] { nic_tick(); });
}

FlowIdx Host::resolve_idx(FlowId fid, FlowIdx hint) const {
  if (hint < slab_.size() && slab_.flow_id[hint] == fid) return hint;
  // Compaction moved (or removed) the flow since the hint was cached: fall
  // back to the cold record's authoritative hot_idx.  A finished flow
  // resolves to kInvalidFlowIdx — the caller skips it.
  const FlowTx* f = tx_flows_.find(fid);
  return f != nullptr ? f->hot_idx : kInvalidFlowIdx;
}

void Host::nic_tick() {
  nic_timer_armed_ = false;
  nic_timer_at_ = -1;
  in_nic_tick_ = true;
  const sim::Time now = sim_->now();
  while (!pacing_heap_.empty() && pacing_heap_.front().at <= now) {
    std::pop_heap(pacing_heap_.begin(), pacing_heap_.end());
    const PacingEntry e = pacing_heap_.back();
    pacing_heap_.pop_back();
    const FlowIdx i = resolve_idx(e.id, e.idx);
    // Entries are hints: skip flows that finished or already got service
    // (their pacing_queued lane was cleared); a flow whose next_tx_time
    // moved later simply re-queues from try_send.
    if (i == kInvalidFlowIdx || slab_.pacing_queued[i] == 0) continue;
    slab_.pacing_queued[i] = 0;
    try_send(i);
  }
  in_nic_tick_ = false;
  if (!pacing_heap_.empty()) arm_nic_timer(pacing_heap_.front().at);
}

}  // namespace fastcc::net
