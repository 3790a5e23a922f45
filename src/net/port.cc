#include "net/port.h"

#include <cassert>
#include <utility>

#include "net/node.h"
#include "net/shard.h"

namespace fastcc::net {
namespace {

/// Burst chain bound for one coalescing peer: appended handles ride in
/// Packet::batch_next — ownership moves *into the chain* here, and the head
/// handle is handed to the single deliver/deliver_batch closure at commit.
struct BurstChain {
  PacketRef head;
  Packet* tail = nullptr;
  sim::Time arrival = 0;
  int count = 0;

  void chain_take(PacketRef ref, Packet& p, sim::Time at) {
    if (count == 0) {
      head = ref;
    } else {
      tail->batch_next = ref.bits;
    }
    tail = &p;
    arrival = at;
    ++count;
  }
};

}  // namespace

Port::Port(sim::Simulator& simulator, Node* owner, int index)
    : sim_(&simulator), owner_(owner), index_(index) {}

void Port::connect(Node* peer, int peer_port, sim::Rate bandwidth,
                   sim::Time propagation_delay) {
  assert(peer != nullptr && bandwidth > 0.0 && propagation_delay >= 0);
  peer_ = peer;
  peer_port_ = peer_port;
  peer_coalesces_ = peer->coalesces_deliveries();
  bandwidth_ = bandwidth;
  prop_delay_ = propagation_delay;
}

void Port::enqueue(PacketRef ref) {
  assert(connected() && "enqueue on unconnected port");
  assert(pool_ != nullptr && "port has no packet pool bound");
  Packet& p = pool_->get(ref);
  if (queued_bytes_ + p.wire_bytes > buffer_limit_) {
    ++drops_;
    // The packet dies here, so its PFC ingress accounting must be released
    // with it — otherwise the upstream port stays paused forever once the
    // leaked bytes pin the count above the resume threshold.
    owner_->on_packet_departed(p);
    pool_->release(ref);
    return;
  }
  // RED/ECN marking happens against the *data* backlog at enqueue time, the
  // same instantaneous-queue rule the DCQCN deployment paper describes.
  if (p.type == PacketType::kData && red_.enabled) {
    const std::uint64_t q = data_queued_bytes_;
    if (q >= red_.kmax_bytes) {
      p.ecn = true;
    } else if (q > red_.kmin_bytes && rng_ != nullptr) {
      const double span = static_cast<double>(red_.kmax_bytes - red_.kmin_bytes);
      const double prob =
          red_.pmax * static_cast<double>(q - red_.kmin_bytes) / span;
      if (rng_->chance(prob)) p.ecn = true;
    }
  }
  queued_bytes_ += p.wire_bytes;
  if (p.type == PacketType::kData) {
    data_queued_bytes_ += p.wire_bytes;
    if (data_queued_bytes_ > max_queued_bytes_)
      max_queued_bytes_ = data_queued_bytes_;
  }
  (p.is_control() ? high_q_ : low_q_).push_back(ref);
  maybe_start_tx();
}

void Port::enqueue(Packet&& p) {
  assert(pool_ != nullptr && "port has no packet pool bound");
  const PacketRef ref = pool_->alloc();
  pool_->get(ref) = std::move(p);
  enqueue(ref);
}

void Port::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  if (!paused_) maybe_start_tx();
}

void Port::maybe_start_tx() {
  if (paused_) return;
  if (high_q_.empty() && low_q_.empty()) return;
  if (sim_->now() < wire_free_time_) {
    // A packet is still serializing; re-check the moment the wire frees up.
    arm_kick();
    return;
  }
  start_tx();
}

void Port::arm_kick() {
  if (kick_armed_) return;
  kick_armed_ = true;
  auto kick = [this] {
    kick_armed_ = false;
    maybe_start_tx();
  };
  static_assert(sizeof(kick) <= 24 && sim::UniqueFunction::fits_inline<decltype(kick)>,
                "dequeue kick must stay a handle-sized inline closure");
  sim_->at(wire_free_time_, std::move(kick));
}

void Port::start_tx() {
  // Bulk drain: commit up to kMaxBurstPackets back-to-back serializations in
  // this one event, each packet dequeued and accounted at its *analytic*
  // serialization-start instant (`start`), with one wire-clock update per
  // packet but no intermediate kick events.  Priority is resolved at burst
  // boundaries: every burst begins at a wire-free instant, so a control
  // packet queued by then still overtakes all queued data; one that arrives
  // *mid-burst* waits for the burst to end — at most kMaxBurstPackets-1
  // serializations, the standard store-and-forward slack a batching
  // transmitter exhibits.  (DESIGN.md §11: this boundary is what lets a
  // backlogged port run one event per burst instead of one kick per packet.)
  const bool coalesce = peer_coalesces_;
  Node* const peer = peer_;
  const int in_port = peer_port_;
  sim::Time start = sim_->now();

  BurstChain chain;

  for (int k = 0; k < kMaxBurstPackets; ++k) {
    const bool is_data = high_q_.empty();
    if (is_data && low_q_.empty()) break;
    PacketRing& next_q = is_data ? low_q_ : high_q_;
    const PacketRef ref = next_q.front();
    next_q.pop_front();
    // Overlap the next committed packet's header fetch with this one's
    // serialization bookkeeping (INT stamp, PFC release, wire-clock math).
    if (!next_q.empty()) pool_->prefetch(next_q.front());
    Packet& p = pool_->get(ref);
    queued_bytes_ -= p.wire_bytes;
    if (p.type == PacketType::kData) data_queued_bytes_ -= p.wire_bytes;
    tx_bytes_ += p.wire_bytes;

    // INT stamp: backlog left behind on this port, cumulative tx including
    // this packet, at the moment its serialization begins.
    if (p.type == PacketType::kData) {
      IntRecord rec;
      rec.timestamp = start;
      rec.tx_bytes = tx_bytes_;
      rec.qlen_bytes = static_cast<std::uint32_t>(data_queued_bytes_);
      rec.bandwidth = bandwidth_;
      p.push_int(rec);
    }

    // The packet has left this node's buffer: release PFC accounting.
    owner_->on_packet_departed(p);

    // A port sees a handful of wire sizes (full-MTU data, ACKs), so memoize
    // the last size -> serialization-time mapping and skip the FP division
    // on the streak.  Bandwidth is fixed after connect(), so size keys it.
    if (p.wire_bytes != last_ser_bytes_) {
      last_ser_bytes_ = p.wire_bytes;
      last_ser_time_ = sim::serialization_time(p.wire_bytes, bandwidth_);
    }
    wire_free_time_ = start + last_ser_time_;
    const sim::Time arrival = wire_free_time_ + prop_delay_;

    if (router_ != nullptr) {
      // Shard-boundary link: the peer lives on another worker's simulator,
      // so a handle into *this* pool is meaningless there.  The router
      // copies the packet's bytes into a mailbox record and the handle dies
      // here; the destination shard re-materializes it in its own pool and
      // schedules the delivery at the same arrival instant.  Never chained:
      // exact per-packet arrivals keep the conservative-sync horizon math
      // untouched.
      router_->deposit(p, arrival, peer->id(), in_port);
      pool_->release(ref);
    } else if (coalesce) {
      chain.chain_take(ref, p, arrival);
    } else {
      // Fused per-hop event: the peer's delivery is scheduled directly at
      // start + tx_time + prop_delay — the packet rides as a 4-byte handle,
      // and no separate end-of-serialization event exists.
      auto arrive = [peer, ref, in_port] { peer->deliver(ref, in_port); };
      static_assert(
          sizeof(arrive) <= 24 &&
              sim::UniqueFunction::fits_inline<decltype(arrive)>,
          "per-hop delivery must stay a handle-sized inline closure (node "
          "pointer + PacketRef + port), never a by-value Packet");
      sim_->at(arrival, std::move(arrive));
    }

    start = wire_free_time_;
    // While this node holds a PFC pause against an upstream, departure
    // accounting must stay per-packet — resume timing hangs off it — so the
    // burst stops growing here.
    if (owner_->any_ingress_paused()) break;
  }

  if (chain.count == 1) {
    const PacketRef ref = chain.head;
    auto arrive = [peer, ref, in_port] { peer->deliver(ref, in_port); };
    static_assert(sizeof(arrive) <= 24 &&
                      sim::UniqueFunction::fits_inline<decltype(arrive)>,
                  "per-hop delivery must stay a handle-sized inline closure");
    sim_->at(chain.arrival, std::move(arrive));
  } else if (chain.count > 1) {
    // One event for the whole chain, at the last packet's arrival instant
    // (causal for every chained packet; the receiver coalesces).
    const PacketRef ref = chain.head;
    auto arrive = [peer, ref, in_port] { peer->deliver_batch(ref, in_port); };
    static_assert(sizeof(arrive) <= 24 &&
                      sim::UniqueFunction::fits_inline<decltype(arrive)>,
                  "batched delivery must stay a handle-sized inline closure");
    sim_->at(chain.arrival, std::move(arrive));
  }

  // Self-schedule the next dequeue at the end of this burst — but only when
  // there is already a backlog to drain.  An idle port costs no kick event;
  // a later enqueue re-arms it via maybe_start_tx.
  if (!high_q_.empty() || !low_q_.empty()) arm_kick();
}

}  // namespace fastcc::net
